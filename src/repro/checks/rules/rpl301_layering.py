"""RPL301 — the import-graph layering contract.

Architecture erodes one convenient import at a time.  The contract this
rule enforces (see ``config.LAYERING_CONTRACTS``) keeps the
reproduction's dependency arrows pointing downward:

* ``repro.core`` and ``repro.sim`` — the numerical heart — must never
  import the serving layer, the experiment harness, the CLI, the perf
  tooling, or the linter: results must be computable without any of them.
* ``repro.checks`` imports nothing from the domain it checks (only the
  shared ``repro.errors``/``repro.types`` foundation), so a lint run can
  never be perturbed by the code under analysis — and can lint a broken
  tree.

Violations anchor at the offending import statement.  Only edges onto
*project* modules are judged; stdlib and third-party imports are free.
"""

from __future__ import annotations

from typing import Iterator

from repro.checks.analysis.project import ProjectContext, module_in_scope
from repro.checks.config import LAYERING_CONTRACTS
from repro.checks.registry import ProjectRule, register_rule
from repro.checks.violation import Violation


@register_rule
class LayeringRule(ProjectRule):
    """Enforce the package-level import contracts."""

    code = "RPL301"
    name = "layering-contract"
    summary = "package imports respect the layering contract (core below serve)"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        for contract in LAYERING_CONTRACTS:
            for edge in project.imports.project_edges():
                if not module_in_scope(edge.importer, (contract.package,)):
                    continue
                if module_in_scope(edge.imported, (contract.package,)):
                    continue  # intra-package imports are always fine
                module = project.modules.get(edge.importer)
                if module is None:
                    continue
                if contract.allowed is not None:
                    if not module_in_scope(edge.imported, contract.allowed):
                        yield project.violation_at(
                            self,
                            module,
                            edge.line,
                            f"{edge.importer} imports {edge.imported}, but "
                            f"{contract.package} may only import "
                            f"{', '.join(contract.allowed)} ({contract.reason})",
                        )
                elif module_in_scope(edge.imported, contract.forbidden):
                    yield project.violation_at(
                        self,
                        module,
                        edge.line,
                        f"{edge.importer} imports {edge.imported}, forbidden "
                        f"by the layering contract ({contract.reason})",
                    )
