"""RPL007 — allocation-heavy constructs in known hot functions.

The simulation core dispatches tens of thousands of events per run; a
comprehension inside a per-event function rebuilds a fresh container on
*every* call, and those allocations dominate profiles long before the
arithmetic does (the incremental-cost-caching work exists precisely
because of this pattern). The rule flags list/set/dict comprehensions —
and generator expressions materialised through ``list``/``tuple``/
``set``/``frozenset``/``sorted``/``dict`` — inside functions named in
``config.HOT_FUNCTIONS``, but only in the hot-path modules selected
by ``config.HOT_PATH_PARTS`` (the simulation core and scheduler
layer); offline/analysis code may comprehend freely.

The rule is *interprocedural* when the whole program is available: a
helper called from a hot function is itself on the hot path — its
allocations run once per event too, wherever it lives — so the project
pass follows the call graph out of the annotated functions and flags
allocations in everything reachable, naming the hot root in the message.

Deliberately cold constructs on a hot-function line can be waived with
``# reprolint: disable=RPL007`` — materialised generator expressions are
reported at the enclosing builder call so the pragma sits on the call
line, not the expression's.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Set, Tuple, Union

from repro.checks.analysis.callgraph import chain_text
from repro.checks.analysis.project import ProjectContext
from repro.checks.config import HOT_FUNCTIONS, HOT_PATH_PARTS
from repro.checks.registry import FileContext, Rule, register_rule
from repro.checks.violation import Violation

#: Builtins that materialise a generator expression into a container.
MATERIALISERS = frozenset({"list", "tuple", "set", "frozenset", "sorted", "dict"})

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.DictComp)

_KIND_LABELS = {
    ast.ListComp: "list comprehension",
    ast.SetComp: "set comprehension",
    ast.DictComp: "dict comprehension",
}

_FunctionNode = Union[ast.FunctionDef, ast.AsyncFunctionDef]


@register_rule
class HotPathAllocationRule(Rule):
    """Flag per-call container rebuilds inside known hot functions."""

    code = "RPL007"
    name = "hot-path-allocation"
    summary = "no per-call container rebuilds in known hot functions"

    def check(self, context: FileContext) -> Iterator[Violation]:
        if not _in_scope(context.path):
            return
        for node in ast.walk(context.tree):
            if (
                isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                and node.name in HOT_FUNCTIONS
            ):
                for anchor, what in _iter_allocations(node):
                    yield context.violation(
                        self,
                        anchor,
                        f"{what} on every call of hot function "
                        f"{node.name!r}; hoist it or keep an incremental "
                        "structure",
                    )

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        """Follow calls out of the hot functions (the interprocedural half).

        Roots — hot-named functions in hot modules — are covered by the
        per-file pass above; this pass flags the helpers they reach.
        """
        roots = {
            info.function_id
            for info in project.symbols.functions()
            if info.qualname.rsplit(".", 1)[-1] in HOT_FUNCTIONS
            and _in_scope_module(project, info.module)
        }
        parents = project.calls.reachable_from(sorted(roots))
        for function_id in sorted(parents):
            if function_id in roots:
                continue
            info = project.symbols.function(function_id)
            module = project.module_of_function(function_id)
            if info is None or module is None:
                continue
            chain = chain_text(project.calls, parents, function_id)
            for anchor, what in _iter_allocations(info.node):
                yield project.violation(
                    self,
                    module,
                    anchor,
                    f"{what} on the per-event hot path: called from a hot "
                    f"function via {chain}; hoist it or keep an "
                    "incremental structure",
                )


def _iter_allocations(function: _FunctionNode) -> Iterator[Tuple[ast.AST, str]]:
    """Per-call container rebuilds in ``function``: (anchor node, what)."""
    # A genexp materialised by a builder call is reported once, at
    # the call (where a suppression pragma can live); remember the
    # wrapped expression so the walk does not re-flag it.
    claimed: Set[int] = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Call):
            wrapped = _materialised_arguments(node)
            if wrapped:
                for argument in wrapped:
                    claimed.add(id(argument))
                yield (
                    node,
                    f"{_call_name(node)}(...) materialises a generator",
                )
        elif isinstance(node, _COMPREHENSIONS) and id(node) not in claimed:
            yield (
                node,
                f"{_KIND_LABELS[type(node)]} rebuilds a fresh container",
            )


def _in_scope(path: str) -> bool:
    """True when ``path`` lies in one of the hot-path modules."""
    normalized = path.replace("\\", "/")
    return any(part in normalized for part in HOT_PATH_PARTS)


def _in_scope_module(project: ProjectContext, module: str) -> bool:
    info = project.modules.get(module)
    if info is None:
        return False
    return _in_scope(info.path)


def _call_name(node: ast.Call) -> str:
    if isinstance(node.func, ast.Name):
        return node.func.id
    if isinstance(node.func, ast.Attribute):
        return node.func.attr
    return "<call>"


def _materialised_arguments(node: ast.Call) -> List[ast.expr]:
    """Comprehension/genexp arguments of a container-builder call."""
    if not (isinstance(node.func, ast.Name) and node.func.id in MATERIALISERS):
        return []
    return [
        argument
        for argument in node.args
        if isinstance(argument, (*_COMPREHENSIONS, ast.GeneratorExp))
    ]
