"""RPL004 — scheduler contract.

Two statically checkable halves of the contract in
:mod:`repro.core.scheduler`:

* a concrete class deriving directly from ``OnlineScheduler`` /
  ``BatchScheduler`` / ``OfflineScheduler`` must implement that family's
  decision method (``bind`` or ``choose`` / ``choose_batch`` /
  ``schedule``);
* scheduler code must never mutate a :class:`~repro.types.Request` — the
  dataclass is frozen precisely because requests are shared between the
  engine, the assignment, and the report, so the rule flags attribute
  assignments (and ``object.__setattr__``) on request-typed values inside
  scheduler classes.
"""

from __future__ import annotations

import ast
from typing import Iterator, Optional, Set

from repro.checks.config import REQUEST_NAMES, SCHEDULER_CONTRACTS
from repro.checks.registry import FileContext, Rule, register_rule
from repro.checks.violation import Violation


@register_rule
class SchedulerContractRule(Rule):
    """Enforce scheduler family methods and Request immutability."""
    code = "RPL004"
    name = "scheduler-contract"
    summary = "schedulers implement their family method and never mutate Requests"

    def check(self, context: FileContext) -> Iterator[Violation]:
        for node in ast.walk(context.tree):
            if not isinstance(node, ast.ClassDef):
                continue
            base_names = {_base_name(base) for base in node.bases} - {None}
            contract_bases = sorted(name for name in base_names if name in SCHEDULER_CONTRACTS)
            is_scheduler = bool(contract_bases) or any(
                name is not None and name.endswith("Scheduler") for name in base_names
            )
            if contract_bases and not _is_abstract(node):
                defined = {
                    member.name
                    for member in node.body
                    if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef))
                }
                for base in contract_bases:
                    accepted = SCHEDULER_CONTRACTS[base]
                    if defined.isdisjoint(accepted):
                        wanted = " or ".join(f"{name}()" for name in accepted)
                        yield context.violation(
                            self,
                            node,
                            f"class {node.name} subclasses {base} but does not "
                            f"implement {wanted}",
                        )
            if is_scheduler:
                yield from self._check_request_mutation(context, node)

    def _check_request_mutation(
        self, context: FileContext, class_node: ast.ClassDef
    ) -> Iterator[Violation]:
        for function in ast.walk(class_node):
            if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef)):
                continue
            request_names = self._request_parameter_names(context, function)
            for node in ast.walk(function):
                targets = []
                if isinstance(node, ast.Assign):
                    targets = node.targets
                elif isinstance(node, (ast.AugAssign, ast.AnnAssign)):
                    targets = [node.target]
                for target in targets:
                    if (
                        isinstance(target, ast.Attribute)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in request_names
                    ):
                        yield context.violation(
                            self,
                            node,
                            f"scheduler mutates frozen Request "
                            f"({target.value.id}.{target.attr} = ...); requests "
                            "are shared and immutable",
                        )
                if (
                    isinstance(node, ast.Call)
                    and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "__setattr__"
                    and isinstance(node.func.value, ast.Name)
                    and node.func.value.id == "object"
                ):
                    yield context.violation(
                        self,
                        node,
                        "scheduler bypasses Request immutability with "
                        "object.__setattr__",
                    )

    def _request_parameter_names(
        self, context: FileContext, function: ast.AST
    ) -> Set[str]:
        assert isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef))
        names = set(REQUEST_NAMES)
        arguments = function.args
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
            annotation = arg.annotation
            if annotation is not None and _base_name(annotation) == "Request":
                names.add(arg.arg)
        return names


def _base_name(node: ast.expr) -> Optional[str]:
    """Terminal identifier of a base-class or annotation expression."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Subscript):
        return _base_name(node.value)
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value.rsplit(".", 1)[-1]
    return None


def _is_abstract(class_node: ast.ClassDef) -> bool:
    """ABC bases, ABCMeta metaclass, or any @abstractmethod member."""
    for base in class_node.bases:
        if _base_name(base) in {"ABC", "Protocol"}:
            return True
    for keyword in class_node.keywords:
        if keyword.arg == "metaclass" and _base_name(keyword.value) == "ABCMeta":
            return True
    for member in class_node.body:
        if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for decorator in member.decorator_list:
                if _base_name(decorator) in {"abstractmethod", "abstractproperty"}:
                    return True
    return False
