"""Whole-program analysis substrate for the project-wide RPL rules.

Per-file AST rules (RPL001-RPL008) see one module at a time; the RPL1xx
determinism, RPL2xx asyncio, and RPL3xx layering families need to know how
modules import each other and which functions call which.  This package
builds that picture once per lint run:

* :mod:`modules` — file discovery to dotted module names (``ModuleInfo``);
* :mod:`imports` — the project import graph with relative-import resolution;
* :mod:`symbols` — module-level symbol tables (functions, classes, aliases);
* :mod:`callgraph` — a conservative, under-approximate call graph;
* :mod:`project` — the ``ProjectContext`` facade handed to project rules.

The model is deliberately *under*-approximate: an edge exists only when the
callee can be resolved syntactically (local name, import alias, ``self``
method).  Calls through unknown objects, dynamic dispatch, and higher-order
functions produce no edge — a missed finding, never a spurious one — and
the known imprecision is documented in DESIGN.md §7.
"""

from __future__ import annotations

from repro.checks.analysis.callgraph import CallEdge, CallGraph, build_call_graph
from repro.checks.analysis.imports import ImportEdge, ImportGraph, build_import_graph
from repro.checks.analysis.modules import ModuleInfo, module_name_for_path
from repro.checks.analysis.project import ProjectContext, build_project
from repro.checks.analysis.symbols import FunctionInfo, ModuleSymbols, SymbolTable

__all__ = [
    "CallEdge",
    "CallGraph",
    "FunctionInfo",
    "ImportEdge",
    "ImportGraph",
    "ModuleInfo",
    "ModuleSymbols",
    "ProjectContext",
    "SymbolTable",
    "build_call_graph",
    "build_import_graph",
    "build_project",
    "module_name_for_path",
]
