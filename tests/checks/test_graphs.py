"""The whole-program analysis substrate: module naming, import graph,
symbol tables, call graph, and reachability — exercised over synthetic
packages parsed in memory (no filesystem needed beyond naming tests)."""

from __future__ import annotations

import ast
import textwrap
from typing import Dict

from repro.checks.analysis import (
    build_project,
    module_name_for_path,
)


def project(files: Dict[str, str]):
    """Build a ProjectContext from ``{path: source}`` (paths decide names)."""
    sources = []
    for path, raw in files.items():
        source = textwrap.dedent(raw)
        sources.append((path, source, ast.parse(source, filename=path)))
    return build_project(sources)


# ---------------------------------------------------------------- naming


def test_module_name_textual_fallback_strips_src_prefix():
    assert module_name_for_path("src/repro/sim/engine.py") == "repro.sim.engine"


def test_module_name_for_package_init():
    assert module_name_for_path("src/repro/sim/__init__.py") == "repro.sim"


def test_module_name_climbs_real_packages(tmp_path):
    root = tmp_path / "top" / "pkg" / "sub"
    root.mkdir(parents=True)
    (tmp_path / "top" / "pkg" / "__init__.py").write_text("")
    (root / "__init__.py").write_text("")
    (root / "mod.py").write_text("X = 1\n")
    # ``top`` has no __init__.py, so the dotted name starts at ``pkg``.
    assert module_name_for_path(str(root / "mod.py")) == "pkg.sub.mod"


# ---------------------------------------------------------------- imports


def test_import_graph_records_plain_and_from_imports():
    context = project(
        {
            "src/repro/a.py": """
                import repro.b
                from repro.c import helper
            """,
            "src/repro/b.py": "X = 1\n",
            "src/repro/c.py": "def helper():\n    return 1\n",
        }
    )
    targets = {
        edge.imported for edge in context.imports.imports_of("repro.a")
    }
    assert targets == {"repro.b", "repro.c"}


def test_import_graph_resolves_relative_imports():
    context = project(
        {
            "src/repro/pkg/__init__.py": "",
            "src/repro/pkg/a.py": "from . import b\nfrom .b import helper\n",
            "src/repro/pkg/b.py": "def helper():\n    return 1\n",
        }
    )
    targets = {
        edge.imported for edge in context.imports.imports_of("repro.pkg.a")
    }
    assert targets == {"repro.pkg.b"}


def test_project_edges_exclude_stdlib():
    context = project(
        {
            "src/repro/a.py": "import json\nimport repro.b\n",
            "src/repro/b.py": "X = 1\n",
        }
    )
    assert {edge.imported for edge in context.imports.project_edges()} == {
        "repro.b"
    }


# ---------------------------------------------------------------- symbols


def test_symbol_table_resolves_bare_and_dotted_calls():
    context = project(
        {
            "src/repro/a.py": """
                from repro.b import helper

                def run():
                    return helper()
            """,
            "src/repro/b.py": "def helper():\n    return 1\n",
        }
    )
    info = context.symbols.resolve_call("repro.a", ("helper",))
    assert info is not None and info.function_id == "repro.b:helper"


def test_symbol_table_resolves_self_methods_through_bases():
    context = project(
        {
            "src/repro/a.py": """
                class Base:
                    def shared(self):
                        return 1

                class Child(Base):
                    def run(self):
                        return self.shared()
            """,
        }
    )
    info = context.symbols.resolve_call(
        "repro.a", ("self", "shared"), class_name="Child"
    )
    assert info is not None and info.qualname == "Base.shared"


def test_symbol_table_treats_class_call_as_init():
    context = project(
        {
            "src/repro/a.py": """
                class Engine:
                    def __init__(self):
                        self.t = 0

                def boot():
                    return Engine()
            """,
        }
    )
    info = context.symbols.resolve_call("repro.a", ("Engine",))
    assert info is not None and info.qualname == "Engine.__init__"


def test_unresolvable_dynamic_call_produces_no_edge():
    context = project(
        {
            "src/repro/a.py": """
                def run(callback):
                    return callback()
            """,
        }
    )
    assert context.calls.edges == ()


# ---------------------------------------------------------------- calls


def test_call_graph_reachability_with_chain():
    context = project(
        {
            "src/repro/a.py": """
                from repro.b import middle

                def top():
                    return middle()
            """,
            "src/repro/b.py": """
                def middle():
                    return bottom()

                def bottom():
                    return 1
            """,
        }
    )
    parents = context.calls.reachable_from(["repro.a:top"])
    assert "repro.b:bottom" in parents
    assert list(context.calls.path_to(parents, "repro.b:bottom")) == [
        "repro.a:top",
        "repro.b:middle",
        "repro.b:bottom",
    ]


def test_reachability_stops_at_async_boundaries_when_asked():
    context = project(
        {
            "src/repro/a.py": """
                async def other():
                    return helper()

                def helper():
                    return 1

                async def entry():
                    return await other()
            """,
        }
    )
    expanded = context.calls.reachable_from(["repro.a:entry"])
    assert "repro.a:helper" in expanded
    # With expand_async=False the awaited coroutine is reached but not
    # expanded: it is its own root with its own findings.
    bounded = context.calls.reachable_from(
        ["repro.a:entry"], expand_async=False
    )
    assert "repro.a:other" in bounded
    assert "repro.a:helper" not in bounded
