"""Rule base class and the RPL rule registry."""

from __future__ import annotations

import ast
import re
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import TYPE_CHECKING, Dict, Iterator, List, Type

from repro.checks.violation import Violation
from repro.errors import ConfigurationError

if TYPE_CHECKING:  # pragma: no cover — type-only; avoids a module cycle
    from repro.checks.analysis.project import ProjectContext

_CODE_PATTERN = re.compile(r"^RPL\d{3}$")


@dataclass(frozen=True)
class FileContext:
    """What a rule sees: one parsed module."""

    path: str
    source: str
    tree: ast.Module

    def violation(self, rule: "Rule", node: ast.AST, message: str) -> Violation:
        """Build a violation anchored at ``node`` for ``rule``."""
        return Violation(
            path=self.path,
            line=getattr(node, "lineno", 1),
            column=getattr(node, "col_offset", 0) + 1,
            code=rule.code,
            message=message,
        )


class Rule(ABC):
    """One named, coded check over a parsed module.

    Subclasses set ``code`` (``RPLxxx``), ``name`` (kebab-case slug used in
    reports and docs), and ``summary`` (one line for ``--list-rules``), and
    implement :meth:`check` yielding violations.
    """

    code: str = ""
    name: str = ""
    summary: str = ""

    @abstractmethod
    def check(self, context: FileContext) -> Iterator[Violation]:
        """Yield every violation of this rule in ``context``."""

    def check_project(self, project: "ProjectContext") -> Iterator[Violation]:
        """Yield whole-program violations (default: none).

        The runner calls this once per lint run with the fully built
        :class:`~repro.checks.analysis.project.ProjectContext`; per-file
        rules simply inherit this no-op.
        """
        return iter(())


class ProjectRule(Rule):
    """A rule that only sees the whole program, never single files.

    Subclasses implement :meth:`Rule.check_project`; the per-file hook is a
    no-op so the registry can treat both kinds uniformly.
    """

    def check(self, context: FileContext) -> Iterator[Violation]:
        return iter(())

    @abstractmethod
    def check_project(self, project: "ProjectContext") -> Iterator[Violation]:
        """Yield every whole-program violation of this rule."""


_REGISTRY: Dict[str, Type[Rule]] = {}


def register_rule(rule_class: Type[Rule]) -> Type[Rule]:
    """Class decorator adding ``rule_class`` to the registry by code."""
    code = rule_class.code
    if not _CODE_PATTERN.match(code):
        raise ConfigurationError(
            f"rule {rule_class.__name__} has malformed code {code!r}"
        )
    if code in _REGISTRY:
        raise ConfigurationError(f"rule code {code} registered twice")
    if not rule_class.name or not rule_class.summary:
        raise ConfigurationError(f"rule {code} must set name and summary")
    _REGISTRY[code] = rule_class
    return rule_class


def all_rules() -> List[Rule]:
    """Instantiate every registered rule, sorted by code."""
    _load_builtin_rules()
    return [_REGISTRY[code]() for code in sorted(_REGISTRY)]


def get_rule(code: str) -> Rule:
    """Instantiate the rule registered under ``code``."""
    _load_builtin_rules()
    try:
        return _REGISTRY[code]()
    except KeyError:
        raise ConfigurationError(
            f"unknown rule code {code!r}; known: {sorted(_REGISTRY)}"
        )


def _load_builtin_rules() -> None:
    # Importing the rules package registers every built-in rule exactly once
    # (module import is idempotent).
    import repro.checks.rules  # noqa: F401
