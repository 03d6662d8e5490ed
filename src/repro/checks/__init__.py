"""reprolint — domain-aware static analysis for the reproduction.

The simulator's correctness depends on invariants the Python runtime never
checks: energy/power/time quantities hide behind bare ``float``s (Eq. 5/6 mix
joules, watts, and seconds), simulated time must never be compared with
``==``, and every scheduler run must be deterministic under a seed.  This
package is an AST-based lint framework that checks those invariants
statically.

Usage::

    repro-storage lint [paths...]
    python -m repro.checks [paths...]

Rule catalogue (see :mod:`repro.checks.rules`):

========  ==================================================================
RPL001    float ``==``/``!=`` on time/energy-suffixed expressions
RPL002    unit-suffix discipline on public energy/power/time parameters
RPL003    unseeded ``random``/``numpy.random`` module-level calls
RPL004    scheduler contract (required methods, no frozen-Request mutation)
RPL005    mutable default arguments
RPL006    bare or overbroad ``except`` clauses
========  ==================================================================

A finding is accepted only in place: per line with
``# reprolint: disable=RPL001`` (comma-separated codes, or ``all``) and per
file with a ``# reprolint: disable-file=RPL001`` comment on a line of its
own.  A pragma code that suppresses nothing is itself reported (RPL000).
"""

from __future__ import annotations

from repro.checks.config import CheckConfig
from repro.checks.registry import Rule, all_rules, get_rule, register_rule
from repro.checks.runner import check_paths, check_source
from repro.checks.violation import Violation

__all__ = [
    "CheckConfig",
    "Rule",
    "Violation",
    "all_rules",
    "check_paths",
    "check_source",
    "get_rule",
    "main",
    "register_rule",
]


def main(argv: "list[str] | None" = None) -> int:
    """Entry point shared by ``python -m repro.checks`` and the CLI."""
    from repro.checks.cli import run_lint

    return run_lint(argv)
