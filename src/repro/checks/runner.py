"""File discovery, rule execution (per-file and whole-program) and pragmas."""

from __future__ import annotations

import ast
import os
from dataclasses import dataclass
from typing import (
    Callable,
    Collection,
    Dict,
    FrozenSet,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Union,
)

#: Anything acceptable as a lint target path.
PathSpec = Union[str, "os.PathLike[str]"]

from repro.checks.config import CheckConfig
from repro.checks.registry import FileContext, Rule, all_rules
from repro.checks.suppression import SuppressionIndex, scan_pragmas
from repro.checks.violation import Violation

#: Directory names never descended into during discovery.
SKIP_DIRS = frozenset(
    {"__pycache__", ".git", ".pytest_cache", ".mypy_cache", ".ruff_cache", "build", "dist"}
)


@dataclass(frozen=True)
class CheckReport:
    """Outcome of one lint run: violations plus unparseable files."""

    violations: Tuple[Violation, ...] = ()
    parse_errors: Tuple[Tuple[str, str], ...] = ()
    files_checked: int = 0

    @property
    def ok(self) -> bool:
        return not self.violations and not self.parse_errors

    @property
    def exit_code(self) -> int:
        return 0 if self.ok else 1


def iter_python_files(paths: Sequence[PathSpec]) -> Iterator[str]:
    """Yield ``.py`` files under ``paths`` (files are yielded verbatim)."""
    for path in (os.fspath(p) for p in paths):
        if os.path.isfile(path):
            yield path
            continue
        for dirpath, dirnames, filenames in os.walk(path):
            dirnames[:] = sorted(
                d
                for d in dirnames
                if d not in SKIP_DIRS and not d.endswith(".egg-info")
            )
            for filename in sorted(filenames):
                if filename.endswith(".py"):
                    yield os.path.join(dirpath, filename)


def check_source(
    source: str,
    path: str = "<string>",
    config: Optional[CheckConfig] = None,
    rules: Optional[Iterable[Rule]] = None,
) -> List[Violation]:
    """Lint one source string; raises ``SyntaxError`` on unparseable input.

    Project rules run over a single-module project, so determinism- and
    asyncio-family findings local to the snippet still fire (the supplied
    ``path`` decides which scopes the snippet's module lands in).  Pragmas
    suppress findings here but are not judged: unused pragmas are a
    property of a lint run over files (:func:`check_paths`).
    """
    config = config if config is not None else CheckConfig()
    tree = ast.parse(source, filename=path)
    context = FileContext(path=path, source=source, tree=tree)
    suppressions = scan_pragmas(source)
    rule_list = list(rules) if rules is not None else all_rules()
    found: List[Violation] = []
    for rule in rule_list:
        if not config.rule_enabled(rule.code):
            continue
        for violation in rule.check(context):
            if not suppressions.is_suppressed(violation):
                found.append(violation)
    found.extend(
        _run_project_rules(
            [(path, source, tree)], {path: suppressions}, config, rule_list
        )
    )
    return sorted(set(found))


def check_paths(
    paths: Sequence[PathSpec],
    config: Optional[CheckConfig] = None,
    rules: Optional[Iterable[Rule]] = None,
    restrict_to: Optional[Collection[str]] = None,
) -> CheckReport:
    """Lint every Python file under ``paths`` and aggregate the findings.

    ``restrict_to`` limits *reported* findings to the given files (compared
    by normalised path) while the whole-program context is still built over
    everything discovered — the ``lint --changed`` fast path: cross-module
    rules stay sound, output stays scoped to the edited files.

    A pragma code that suppressed no finding is reported as an
    :data:`~repro.checks.suppression.UNUSED_PRAGMA` finding, but only in
    reported files and only when its verdict means something: a code is
    judged when its rule ran, and ``all`` (or a code naming no rule) only
    when every rule ran.
    """
    config = config if config is not None else CheckConfig()
    rule_list = list(rules) if rules is not None else all_rules()
    restricted: Optional[FrozenSet[str]] = (
        None
        if restrict_to is None
        else frozenset(os.path.abspath(os.fspath(p)) for p in restrict_to)
    )
    sources: List[Tuple[str, str, ast.Module]] = []
    suppressions: Dict[str, SuppressionIndex] = {}
    violations: List[Violation] = []
    parse_errors: List[Tuple[str, str]] = []
    files_checked = 0
    for path in iter_python_files(paths):
        files_checked += 1
        try:
            with open(path, "r", encoding="utf-8") as handle:
                source = handle.read()
        except OSError as exc:
            parse_errors.append((path, f"unreadable: {exc}"))
            continue
        try:
            tree = ast.parse(source, filename=path)
        except SyntaxError as exc:
            parse_errors.append((path, f"syntax error: {exc.msg} (line {exc.lineno})"))
            continue
        sources.append((path, source, tree))
        index = scan_pragmas(source)
        suppressions[path] = index
        if not _selected(path, restricted):
            continue
        context = FileContext(path=path, source=source, tree=tree)
        for rule in rule_list:
            if not config.rule_enabled(rule.code):
                continue
            for violation in rule.check(context):
                if not index.is_suppressed(violation):
                    violations.append(violation)
    for violation in _run_project_rules(sources, suppressions, config, rule_list):
        if _selected(violation.path, restricted):
            violations.append(violation)
    judged = _pragma_judge(config, rule_list)
    for path, index in suppressions.items():
        if _selected(path, restricted):
            violations.extend(index.unused(path, judged))
    return CheckReport(
        violations=tuple(sorted(set(violations))),
        parse_errors=tuple(sorted(parse_errors)),
        files_checked=files_checked,
    )


def _run_project_rules(
    sources: Sequence[Tuple[str, str, ast.Module]],
    suppressions: Dict[str, SuppressionIndex],
    config: CheckConfig,
    rules: Sequence[Rule],
) -> List[Violation]:
    """Build the whole-program context and run every project-aware rule."""
    if not sources:
        return []
    # Imported here: the analysis package pulls in the registry, which this
    # module feeds — a local import keeps the module graph acyclic.
    from repro.checks.analysis.project import build_project

    project = build_project(sources)
    found: List[Violation] = []
    empty = SuppressionIndex()
    for rule in rules:
        if not config.rule_enabled(rule.code):
            continue
        for violation in rule.check_project(project):
            if not suppressions.get(violation.path, empty).is_suppressed(violation):
                found.append(violation)
    return found


def _pragma_judge(config: CheckConfig, rules: Sequence[Rule]) -> Callable[[str], bool]:
    """Whether this run can tell that a pragma code suppresses nothing."""
    ran = frozenset(rule.code for rule in rules if config.rule_enabled(rule.code))
    full_run = ran >= frozenset(rule.code for rule in all_rules())
    return lambda code: full_run or code in ran


def _selected(path: str, restricted: Optional[FrozenSet[str]]) -> bool:
    return restricted is None or os.path.abspath(path) in restricted
