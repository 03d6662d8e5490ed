"""RPL001 — float equality on time/energy-suffixed expressions.

Simulated clocks and integrated energies are floats accumulated through
arithmetic (Eq. 5/6 of the paper); exact ``==``/``!=`` on them is almost
always a latent bug — two event times that are "the same instant" can differ
in the last ulp after a different summation order.  Compare with ``<``-style
ordering, ``math.isclose``, or an explicit tolerance instead.

The rule fires on ``==`` / ``!=`` comparisons where either operand is a name
or attribute whose snake_case components contain a time/energy stem from the
unit domains (``now``, ``t_last``, ``gap_energy``, ``arrival_time`` ...).
Comparisons against ``None`` are ignored (identity checks are fine), as are
comparisons between two integer literals.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional

from repro.checks.config import matching_domains
from repro.checks.registry import FileContext, Rule, register_rule
from repro.checks.violation import Violation

#: Extra identifiers that denote simulated-clock values beyond the
#: unit-domain stems (``now`` is the canonical SystemView clock property).
CLOCK_NAMES = frozenset({"now", "t", "ti", "tlast", "t_last"})

_QUANTITY_DOMAINS = ("time", "energy")


@register_rule
class FloatEqualityRule(Rule):
    """Flag ``==`` / ``!=`` between time/energy-carrying expressions."""
    code = "RPL001"
    name = "float-time-equality"
    summary = "no == / != on simulated-time or energy expressions"

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.Compare):
                continue
            operands = [node.left, *node.comparators]
            for op, left, right in zip(node.ops, operands, operands[1:]):
                if not isinstance(op, (ast.Eq, ast.NotEq)):
                    continue
                if _is_none(left) or _is_none(right):
                    continue
                for side in (left, right):
                    name = _terminal_name(side)
                    if name is None:
                        continue
                    if name in CLOCK_NAMES or any(
                        domain in _QUANTITY_DOMAINS
                        for domain in matching_domains(name)
                    ):
                        yield context.violation(
                            self,
                            node,
                            f"float equality on {name!r}: simulated time/energy "
                            "must be compared with ordering or a tolerance "
                            "(math.isclose), never == / !=",
                        )
                        break


def _terminal_name(node: ast.expr) -> Optional[str]:
    """The rightmost identifier of a name/attribute chain, lowered."""
    if isinstance(node, ast.Name):
        return node.id.lower()
    if isinstance(node, ast.Attribute):
        return node.attr.lower()
    return None


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None
