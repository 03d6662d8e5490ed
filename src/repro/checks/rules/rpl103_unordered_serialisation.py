"""RPL103 — unordered ``set`` iteration feeding report serialisation.

Serialised artifacts (``BENCH_*.json``, ``SERVE_*.json``, lint reports)
are diffed byte-for-byte in CI, so any content that passes through an
unordered container on its way out is a time bomb: ``PYTHONHASHSEED``
varies per process, set iteration order varies with it, and the "same"
report stops comparing equal.

Scope: functions whose name marks them as serialisers (``as_dict``,
``payload``, ``summary``, ... — see ``config.SERIALISATION_FUNCTIONS``)
plus every function reachable from one through the call graph.  Flagged shapes:

* ``for x in {a, b}`` / ``for x in set(...)`` / ``frozenset(...)``;
* comprehensions iterating one of those;
* ``list(...)`` / ``tuple(...)`` materialising a set expression;
* a local name bound to a set expression and iterated later.

Wrapping the set in ``sorted(...)`` resolves the finding — the order is
then a property of the data, not of the hash seed.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from repro.checks.analysis.callgraph import display_function
from repro.checks.analysis.project import ProjectContext
from repro.checks.analysis.symbols import FunctionNode
from repro.checks.config import SERIALISATION_FUNCTIONS
from repro.checks.registry import ProjectRule, register_rule
from repro.checks.violation import Violation

#: Builtins that construct an unordered container.
SET_BUILDERS = frozenset({"set", "frozenset"})
#: Builtins that materialise their argument's iteration order.
ORDER_MATERIALISERS = frozenset({"list", "tuple"})


@register_rule
class UnorderedSerialisationRule(ProjectRule):
    """Flag set-order-dependent iteration on serialisation paths."""

    code = "RPL103"
    name = "unordered-serialisation"
    summary = "no unordered set iteration feeding report serialisation"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        roots = [
            info.function_id
            for info in project.symbols.functions()
            if info.qualname.rsplit(".", 1)[-1] in SERIALISATION_FUNCTIONS
        ]
        parents = project.calls.reachable_from(roots)
        for function_id in sorted(parents):
            info = project.symbols.function(function_id)
            module = project.module_of_function(function_id)
            if info is None or module is None:
                continue
            root = _walk_root(project, parents, function_id)
            suffix = (
                ""
                if parents.get(function_id) is None
                else f" (reachable from serialiser {display_function(root)})"
            )
            local_sets = _locally_bound_sets(info.node)
            for node in ast.walk(info.node):
                target = self._unordered_iteration(node, local_sets)
                if target is None:
                    continue
                yield project.violation(
                    self,
                    module,
                    node,
                    f"iteration over an unordered {target} in serialisation "
                    f"function {display_function(function_id)}{suffix}; "
                    "wrap it in sorted(...) for a stable report",
                )

    def _unordered_iteration(
        self, node: ast.AST, local_sets: Set[str]
    ) -> Optional[str]:
        """Classify ``node`` as unordered-set iteration, or ``None``."""
        if isinstance(node, ast.For):
            return _set_expression(node.iter, local_sets)
        if isinstance(node, (ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)):
            for generator in node.generators:
                kind = _set_expression(generator.iter, local_sets)
                if kind is not None:
                    return kind
            return None
        if isinstance(node, ast.Call):
            if (
                isinstance(node.func, ast.Name)
                and node.func.id in ORDER_MATERIALISERS
                and node.args
            ):
                kind = _set_expression(node.args[0], local_sets)
                if kind is not None:
                    return f"{kind} (materialised by {node.func.id}())"
        return None


def _set_expression(node: ast.expr, local_sets: Set[str]) -> Optional[str]:
    """Describe ``node`` when it evaluates to an unordered set."""
    if isinstance(node, ast.Set):
        return "set literal"
    if isinstance(node, ast.SetComp):
        return "set comprehension"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in SET_BUILDERS:
            return f"{node.func.id}(...)"
    if isinstance(node, ast.Name) and node.id in local_sets:
        return f"set variable {node.id!r}"
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.BitOr, ast.BitAnd, ast.Sub)):
        left = _set_expression(node.left, local_sets)
        right = _set_expression(node.right, local_sets)
        if left is not None or right is not None:
            return "set expression"
    return None


def _locally_bound_sets(function: FunctionNode) -> Set[str]:
    """Names assigned a set expression anywhere in ``function``'s own body."""
    bound: Set[str] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Assign):
            value_kind = _set_expression(node.value, bound)
            if value_kind is None:
                continue
            for target in node.targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(node, ast.AnnAssign):
            if node.value is not None and isinstance(node.target, ast.Name):
                if _set_expression(node.value, bound) is not None:
                    bound.add(node.target.id)
    return bound


def _walk_root(
    project: ProjectContext, parents: Dict[str, Optional[str]], function_id: str
) -> str:
    return project.calls.path_to(parents, function_id)[0]
