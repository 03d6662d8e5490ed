"""RPL002 — unit-suffix discipline on public energy/power/time APIs.

Eq. 5/6 of the paper mix joules, watts, and seconds behind bare ``float``s;
the only defence the language offers is naming.  Every *public* function
parameter, return, or class attribute whose name says it carries a physical
quantity (``interval``, ``gap_energy``, ``idle_power`` ...) must make its
unit recoverable — either in the name itself (``gap_seconds``,
``energy_joules``, ``idle_watts``) or in the enclosing docstring (a unit
word such as "seconds", "joules", "watts").

The stems, approved suffixes, and accepted unit words all come from
:data:`~repro.checks.config.UNIT_DOMAINS`.  Private names
(leading underscore) are exempt; ``__init__`` parameters are checked because
they are the public constructor surface, with the class docstring accepted
as documentation.
"""

from __future__ import annotations

import ast
from typing import Iterator, List, Optional, Tuple

from repro.checks.config import UNIT_DOMAINS, matching_domains
from repro.checks.registry import FileContext, Rule, register_rule
from repro.checks.violation import Violation

#: Numeric annotation identifiers that can carry a physical quantity.
NUMERIC_ANNOTATIONS = frozenset({"float", "int", "complex", "Number"})


@register_rule
class UnitSuffixRule(Rule):
    """Require unit suffixes or documented units on quantity names."""
    code = "RPL002"
    name = "unit-suffix-discipline"
    summary = "public energy/power/time names need a unit suffix or documented units"

    def check(self, context: FileContext) -> Iterator[Violation]:
        for function, doc in _public_functions(context.tree):
            yield from self._check_function(context, function, doc)
        for class_node in context.tree.body:
            if isinstance(class_node, ast.ClassDef) and not class_node.name.startswith("_"):
                yield from self._check_class_attributes(context, class_node)

    def _check_function(
        self,
        context: FileContext,
        function: ast.FunctionDef,
        doc: Optional[str],
    ) -> Iterator[Violation]:
        arguments = function.args
        for arg in (*arguments.posonlyargs, *arguments.args, *arguments.kwonlyargs):
            if arg.arg in ("self", "cls") or arg.arg.startswith("_"):
                continue
            yield from self._check_name(
                context, arg, arg.arg, arg.annotation, doc,
                f"parameter {arg.arg!r} of {function.name}()",
            )
        if function.name != "__init__":
            yield from self._check_name(
                context, function, function.name, function.returns, doc,
                f"function {function.name}()",
            )

    def _check_class_attributes(
        self,
        context: FileContext,
        class_node: ast.ClassDef,
    ) -> Iterator[Violation]:
        doc = ast.get_docstring(class_node)
        for statement in class_node.body:
            if not isinstance(statement, ast.AnnAssign):
                continue
            target = statement.target
            if not isinstance(target, ast.Name) or target.id.startswith("_"):
                continue
            yield from self._check_name(
                context, statement, target.id, statement.annotation, doc,
                f"attribute {class_node.name}.{target.id}",
            )

    def _check_name(
        self,
        context: FileContext,
        node: ast.AST,
        name: str,
        annotation: Optional[ast.expr],
        doc: Optional[str],
        described: str,
    ) -> Iterator[Violation]:
        domains = matching_domains(name)
        if not domains:
            return
        if annotation is not None and not _is_quantity_annotation(annotation):
            return
        for key in domains:
            domain = UNIT_DOMAINS[key]
            if domain.name_carries_unit(name) or domain.documented_in(doc):
                return
        suffixes = ", ".join(
            UNIT_DOMAINS[key].suffixes[0] for key in domains
        )
        yield context.violation(
            self,
            node,
            f"{described} carries a physical quantity but neither its name "
            f"(suffix such as {suffixes}) nor the docstring states the unit",
        )


def _public_functions(
    tree: ast.Module,
) -> List[Tuple[ast.FunctionDef, Optional[str]]]:
    """Public module functions and methods, paired with their docstring.

    ``__init__`` rides along with the class docstring as fallback because
    its parameters are the public construction API.  A method without a
    docstring inherits the docstring of the same-named method in a base
    class defined in the same module — an override of a documented
    abstract method need not restate the unit.
    """
    classes = {
        node.name: node for node in tree.body if isinstance(node, ast.ClassDef)
    }
    found: List[Tuple[ast.FunctionDef, Optional[str]]] = []
    for node in tree.body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            found.append((node, ast.get_docstring(node)))
        elif isinstance(node, ast.ClassDef) and not node.name.startswith("_"):
            class_doc = ast.get_docstring(node)
            for statement in node.body:
                if not isinstance(statement, ast.FunctionDef):
                    continue
                if statement.name == "__init__":
                    doc = ast.get_docstring(statement) or class_doc
                    found.append((statement, doc))
                elif not statement.name.startswith("_"):
                    doc = ast.get_docstring(statement) or _inherited_docstring(
                        classes, node, statement.name
                    )
                    found.append((statement, doc))
    return found


def _inherited_docstring(
    classes: "dict[str, ast.ClassDef]", class_node: ast.ClassDef, method: str
) -> Optional[str]:
    """Docstring of ``method`` along the same-module base-class chain."""
    seen = {class_node.name}
    queue = [class_node]
    while queue:
        current = queue.pop(0)
        for base in current.bases:
            name = base.id if isinstance(base, ast.Name) else None
            if name is None or name in seen or name not in classes:
                continue
            seen.add(name)
            base_class = classes[name]
            for statement in base_class.body:
                if (
                    isinstance(statement, ast.FunctionDef)
                    and statement.name == method
                ):
                    doc = ast.get_docstring(statement)
                    if doc:
                        return doc
            queue.append(base_class)
    return None


def _is_quantity_annotation(annotation: ast.expr) -> bool:
    """True when the annotated value could be a bare numeric quantity.

    ``float`` / ``int`` anywhere in the annotation (``Optional[float]``,
    ``List[float]``) counts; an annotation naming only non-numeric types
    (``-> CostFunction``, ``requests: Sequence[Request]``) does not.
    Unparseable or empty annotations are treated as quantities, erring
    toward checking.
    """
    if isinstance(annotation, ast.Constant):
        if annotation.value is None:
            return False
        if isinstance(annotation.value, str):
            try:
                annotation = ast.parse(annotation.value, mode="eval").body
            except SyntaxError:
                return True
    names = {
        child.id if isinstance(child, ast.Name) else child.attr
        for child in ast.walk(annotation)
        if isinstance(child, (ast.Name, ast.Attribute))
    }
    if names & NUMERIC_ANNOTATIONS:
        return True
    return not names
