"""RPL201 — blocking calls inside (or reachable from) ``async def``.

The serving layer runs on one event loop; a single ``time.sleep()`` or
``subprocess.run()`` anywhere under an ``async def`` stalls *every*
in-flight request — and under the deterministic virtual-time loop it
deadlocks outright, because virtual time only advances between callbacks.

The per-file view is not enough: the blocking call usually hides in a
synchronous helper two modules away.  This rule roots a call-graph walk at
every ``async def`` in the project and follows *synchronous* edges only —
an awaited coroutine is scheduled by the loop and is analysed as a root in
its own right, so the walk stops at async boundaries instead of blaming
one coroutine for another's body.

The fix: ``await asyncio.sleep(...)``, run blocking work in an executor
(``loop.run_in_executor``), or move it out of the async path.
"""

from __future__ import annotations

from typing import Dict, Iterator, Optional

from repro.checks.analysis.callgraph import chain_text, display_function, iter_own_calls
from repro.checks.analysis.project import ProjectContext
from repro.checks.analysis.symbols import canonical_call_name
from repro.checks.config import BLOCKING_CALLS
from repro.checks.registry import ProjectRule, register_rule
from repro.checks.violation import Violation


@register_rule
class BlockingInAsyncRule(ProjectRule):
    """Flag event-loop-blocking calls on async execution paths."""

    code = "RPL201"
    name = "blocking-in-async"
    summary = "no blocking calls inside or reachable from async def bodies"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        roots = [
            info.function_id
            for info in project.symbols.functions()
            if info.is_async
        ]
        if not roots:
            return
        parents = project.calls.reachable_from(roots, expand_async=False)
        for function_id in sorted(parents):
            info = project.symbols.function(function_id)
            module = project.module_of_function(function_id)
            if info is None or module is None:
                continue
            if info.is_async and parents.get(function_id) is not None:
                continue  # reached async defs are their own roots
            symbols = project.symbols.modules[info.module]
            for call in iter_own_calls(info.node):
                name = canonical_call_name(symbols, call)
                if name is None or name not in BLOCKING_CALLS:
                    continue
                yield project.violation(
                    self,
                    module,
                    call,
                    self._message(name, project, parents, function_id, info.is_async),
                )

    def _message(
        self,
        name: str,
        project: ProjectContext,
        parents: Dict[str, Optional[str]],
        function_id: str,
        is_async: bool,
    ) -> str:
        where = display_function(function_id)
        if is_async:
            return (
                f"blocking call {name}() inside async def {where} stalls "
                "the event loop; await an async equivalent or use an executor"
            )
        return (
            f"blocking call {name}() in {where} stalls the event loop, "
            f"reachable from async code via "
            f"{chain_text(project.calls, parents, function_id)}; await an "
            "async equivalent or use an executor"
        )
