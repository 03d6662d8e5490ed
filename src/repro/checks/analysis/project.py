"""The ``ProjectContext`` facade handed to project-wide rules."""

from __future__ import annotations

import ast
from dataclasses import dataclass
from typing import Dict, Iterator, Mapping, Optional, Sequence, Tuple

from repro.checks.analysis.callgraph import CallGraph, build_call_graph
from repro.checks.analysis.imports import ImportGraph, build_import_graph
from repro.checks.analysis.modules import (
    ModuleInfo,
    is_package_path,
    module_name_for_path,
)
from repro.checks.analysis.symbols import FunctionInfo, SymbolTable, build_symbol_table
from repro.checks.registry import Rule
from repro.checks.violation import Violation


@dataclass(frozen=True)
class ProjectContext:
    """Everything a project rule sees: all modules plus the derived graphs."""

    modules: Mapping[str, ModuleInfo]
    imports: ImportGraph
    symbols: SymbolTable
    calls: CallGraph

    def violation(
        self, rule: Rule, module: ModuleInfo, node: ast.AST, message: str
    ) -> Violation:
        """Build a violation anchored at ``node`` inside ``module``."""
        return Violation(
            path=module.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=rule.code,
            message=message,
        )

    def violation_at(
        self, rule: Rule, module: ModuleInfo, line: int, message: str
    ) -> Violation:
        """Build a violation at a known line of ``module`` (import edges)."""
        return Violation(
            path=module.path, line=line, column=1, code=rule.code, message=message
        )

    def module_of_function(self, function_id: str) -> Optional[ModuleInfo]:
        """The module a ``module:qualname`` function id lives in."""
        return self.modules.get(function_id.partition(":")[0])

    def functions_in_scope(self, prefixes: Sequence[str]) -> Iterator[FunctionInfo]:
        """Functions whose module matches one of the dotted ``prefixes``."""
        for info in self.symbols.functions():
            if module_in_scope(info.module, prefixes):
                yield info


def module_in_scope(module: str, prefixes: Sequence[str]) -> bool:
    """True when ``module`` equals or lies under one of ``prefixes``."""
    return any(
        module == prefix or module.startswith(prefix + ".") for prefix in prefixes
    )


def build_project(sources: Sequence[Tuple[str, str, ast.Module]]) -> ProjectContext:
    """Assemble the whole-program context from parsed ``(path, source, tree)``.

    Later duplicates of a module name win (only plausible when linting two
    checkouts at once) — the graphs stay internally consistent either way.
    """
    modules: Dict[str, ModuleInfo] = {}
    for path, source, tree in sources:
        info = ModuleInfo(
            name=module_name_for_path(path),
            path=path,
            source=source,
            tree=tree,
            is_package=is_package_path(path),
        )
        modules[info.name] = info
    symbols = build_symbol_table(modules)
    return ProjectContext(
        modules=modules,
        imports=build_import_graph(modules),
        symbols=symbols,
        calls=build_call_graph(symbols),
    )
