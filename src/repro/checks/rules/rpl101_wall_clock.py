"""RPL101 — wall-clock reads reachable from the deterministic core.

The reproduction's headline property is byte-identical replay: the same
seed and trace must produce the same joule figures (Eq. 4-7) and the same
serving reports on every run.  A single ``time.time()`` /
``datetime.now()`` / ``perf_counter()`` on a dispatch path breaks that
silently — results depend on when the run happened, not what it computed.

This is a whole-program rule: the determinism scope (``repro.sim``,
``repro.core``, ``repro.serve`` by default) roots a call-graph walk, so a
wall-clock read hiding in a helper module *called from* the core is caught
even though its own file looks innocent.  Import-time reads in scope
modules are flagged too.  Wall-clock names are matched after import-alias
expansion (``from time import time`` included).

Measurement code (``repro.perf``, the experiment harness) reads the real
clock legitimately — it is outside the scope and unreachable from it, so
it never fires here.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.checks.analysis.callgraph import (
    chain_text,
    display_function,
    iter_module_level_calls,
    iter_own_calls,
)
from repro.checks.analysis.project import ProjectContext, module_in_scope
from repro.checks.analysis.symbols import canonical_call_name
from repro.checks.config import DETERMINISM_SCOPE, WALL_CLOCK_CALLS
from repro.checks.registry import ProjectRule, register_rule
from repro.checks.violation import Violation


@register_rule
class WallClockRule(ProjectRule):
    """Flag wall-clock calls on (or reachable from) deterministic paths."""

    code = "RPL101"
    name = "wall-clock-in-core"
    summary = "no wall-clock reads reachable from sim/core/serve paths"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        roots = [
            info.function_id for info in project.functions_in_scope(DETERMINISM_SCOPE)
        ]
        parents = project.calls.reachable_from(roots)
        for function_id in sorted(parents):
            info = project.symbols.function(function_id)
            module = project.module_of_function(function_id)
            if info is None or module is None:
                continue
            symbols = project.symbols.modules[info.module]
            for call in iter_own_calls(info.node):
                name = canonical_call_name(symbols, call)
                if name is None or name not in WALL_CLOCK_CALLS:
                    continue
                yield project.violation(
                    self, module, call, self._message(name, project, parents, function_id)
                )
        # Import-time reads inside the scope's own modules.
        for module_name in sorted(project.modules):
            if not module_in_scope(module_name, DETERMINISM_SCOPE):
                continue
            module = project.modules[module_name]
            symbols = project.symbols.modules[module_name]
            for call in iter_module_level_calls(module.tree):
                name = canonical_call_name(symbols, call)
                if name is None or name not in WALL_CLOCK_CALLS:
                    continue
                yield project.violation(
                    self,
                    module,
                    call,
                    f"import-time wall-clock read {name}() in deterministic "
                    f"module {module_name}; inject the timestamp instead",
                )

    def _message(
        self,
        name: str,
        project: ProjectContext,
        parents: Dict[str, Optional[str]],
        function_id: str,
    ) -> str:
        where = display_function(function_id)
        if parents.get(function_id) is None:
            return (
                f"wall-clock read {name}() in deterministic function "
                f"{where}; use the simulated clock or inject the timestamp"
            )
        return (
            f"wall-clock read {name}() reachable from the deterministic "
            f"core via {chain_text(project.calls, parents, function_id)}; "
            "use the simulated clock or inject the timestamp"
        )
