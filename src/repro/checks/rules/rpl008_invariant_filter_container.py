"""RPL008 — a loop-invariant container rebuilt in a comprehension filter.

A comprehension's ``if`` clause runs once per element, so a container
built there is built once per element too. When the builder's arguments
name none of the comprehension's loop variables the container is the same
every time: ``[d for d in range(n) if d not in set(exclude)]`` builds
``set(exclude)`` ``n`` times, and ``n`` times again on every call of the
function that holds it. The rule flags a call to
``set``/``frozenset``/``list``/``tuple``/``sorted``/``dict`` with
arguments inside an ``if`` clause when no argument names a target of that
comprehension; hoist the container out of the comprehension.

It runs over every module, not only the hot-path ones RPL007 scans: a
setup step that runs once per experiment cell pays the same per-element
cost. The check is syntactic and under-approximate — a call whose argument
names a loop variable is never flagged, even when the variable does not
change what the call builds.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set, Tuple

from repro.checks.registry import FileContext, Rule, register_rule
from repro.checks.rules.rpl007_hot_path_allocation import MATERIALISERS
from repro.checks.violation import Violation

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)


@register_rule
class InvariantFilterContainerRule(Rule):
    """Flag containers rebuilt per element in a comprehension filter."""

    code = "RPL008"
    name = "invariant-filter-container"
    summary = "no loop-invariant container rebuilt in a comprehension's if clause"

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, _COMPREHENSIONS):
                continue
            targets = {
                name.id
                for generator in node.generators
                for name in ast.walk(generator.target)
                if isinstance(name, ast.Name)
            }
            for generator in node.generators:
                for condition in generator.ifs:
                    for call, builder in _filter_calls(condition):
                        if not _names_any(call, targets):
                            yield context.violation(
                                self,
                                call,
                                f"{builder}(...) in a comprehension filter is "
                                "rebuilt for every element but names no loop "
                                "variable; build it once before the "
                                "comprehension",
                            )


def _filter_calls(node: ast.AST) -> Iterator[Tuple[ast.Call, str]]:
    """Outermost container-builder calls with arguments in ``node``.

    Nested comprehensions are not entered: their own filters are checked
    against their own loop variables when the walk reaches them.
    """
    if isinstance(node, _COMPREHENSIONS):
        return
    if (
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id in MATERIALISERS
        and (node.args or node.keywords)
    ):
        yield node, node.func.id
        return
    for child in ast.iter_child_nodes(node):
        yield from _filter_calls(child)


def _names_any(call: ast.Call, targets: Set[str]) -> bool:
    """True when an argument of ``call`` reads one of ``targets``."""
    arguments = [*call.args, *(keyword.value for keyword in call.keywords)]
    return any(
        isinstance(name, ast.Name) and name.id in targets
        for argument in arguments
        for name in ast.walk(argument)
    )
