"""RPL102 — maybe-``None`` seeds flowing into RNG constructors.

``random.Random(seed)`` and ``numpy.random.default_rng(seed)`` fall back
to *operating-system entropy* when the seed is ``None`` — so a function
with an optional ``seed: Optional[int] = None`` parameter that forwards it
straight into a constructor is deterministic only when every caller
remembers to pass a seed.  Inside the determinism scope that is exactly
the silent per-run divergence the per-file RPL003 cannot see: the
construction *has* an argument, but the argument may be ``None``.

Whole-program scoping: the rule checks functions defined in the
determinism scope and functions reachable from it through the call graph.
The fix is to make the seed required in scope, or to pass the constructed
generator down instead of the seed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.checks.analysis.callgraph import chain_text, display_function, iter_own_calls
from repro.checks.analysis.project import ProjectContext
from repro.checks.analysis.symbols import FunctionNode, canonical_call_name
from repro.checks.config import DETERMINISM_SCOPE, RNG_CONSTRUCTORS
from repro.checks.registry import ProjectRule, register_rule
from repro.checks.violation import Violation


@register_rule
class SeedFallthroughRule(ProjectRule):
    """Flag optional-seed parameters forwarded into RNG constructors."""

    code = "RPL102"
    name = "seed-fallthrough"
    summary = "no maybe-None seed forwarded into an RNG constructor in scope"

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
            optional = _optional_parameters(info.node)
            if not optional:
                continue
            symbols = project.symbols.modules[info.module]
            for call in iter_own_calls(info.node):
                name = canonical_call_name(symbols, call)
                if name is None or name not in RNG_CONSTRUCTORS:
                    continue
                forwarded = _forwarded_optional(call, optional)
                if forwarded is None:
                    continue
                yield project.violation(
                    self,
                    module,
                    call,
                    self._message(name, forwarded, project, parents, function_id),
                )

    def _message(
        self,
        constructor: str,
        parameter: str,
        project: ProjectContext,
        parents: Dict[str, Optional[str]],
        function_id: str,
    ) -> str:
        where = display_function(function_id)
        detail = (
            f"{constructor}({parameter}) falls back to OS entropy when "
            f"{parameter!r} is None"
        )
        if parents.get(function_id) is None:
            return (
                f"{detail} in deterministic function {where}; require the "
                "seed or inject the generator"
            )
        return (
            f"{detail}, reachable from the deterministic core via "
            f"{chain_text(project.calls, parents, function_id)}; require "
            "the seed or inject the generator"
        )


def _optional_parameters(function: FunctionNode) -> Set[str]:
    """Parameter names whose declared default is the constant ``None``."""
    optional: Set[str] = set()
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    for argument, default in zip(positional[len(positional) - len(args.defaults):], args.defaults):
        if _is_none(default):
            optional.add(argument.arg)
    for argument, kw_default in zip(args.kwonlyargs, args.kw_defaults):
        if kw_default is not None and _is_none(kw_default):
            optional.add(argument.arg)
    return optional


def _forwarded_optional(call: ast.Call, optional: Set[str]) -> Optional[str]:
    """The optional-parameter name passed as the constructor's seed, if any."""
    if call.args:
        first = call.args[0]
        if isinstance(first, ast.Name) and first.id in optional:
            return first.id
    for keyword in call.keywords:
        if keyword.arg == "seed":
            if isinstance(keyword.value, ast.Name) and keyword.value.id in optional:
                return keyword.value.id
    return None


def _is_none(node: ast.expr) -> bool:
    return isinstance(node, ast.Constant) and node.value is None
