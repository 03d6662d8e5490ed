"""Argument handling for ``repro-storage lint`` / ``python -m repro.checks``."""

from __future__ import annotations

import argparse
import os
import subprocess
import sys
from typing import Callable, Dict, List, Optional

from repro.checks.config import CheckConfig
from repro.checks.registry import all_rules
from repro.checks.reporting import render_json, render_sarif, render_text
from repro.checks.runner import CheckReport, check_paths

#: What a bare ``repro-storage lint`` checks: the library, not fixtures.
DEFAULT_PATHS = ("src",)

_RENDERERS: Dict[str, Callable[[CheckReport], str]] = {
    "text": render_text,
    "json": render_json,
    "sarif": render_sarif,
}


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach lint options to ``parser`` (shared with the main CLI)."""
    parser.add_argument(
        "paths",
        nargs="*",
        help=f"files or directories to check (default: {' '.join(DEFAULT_PATHS)})",
    )
    parser.add_argument(
        "--format",
        choices=tuple(_RENDERERS),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--select",
        default="",
        metavar="CODES",
        help="comma-separated RPL codes to run exclusively",
    )
    parser.add_argument(
        "--ignore",
        default="",
        metavar="CODES",
        help="comma-separated RPL codes to skip",
    )
    parser.add_argument(
        "--changed",
        action="store_true",
        help="report findings only for files changed versus git HEAD "
        "(the whole-program analysis still sees every file)",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print the rule catalogue and exit",
    )


def run_lint_args(args: argparse.Namespace) -> int:
    """Execute a lint run described by parsed ``args``; returns exit code."""
    if args.list_rules:
        for rule in all_rules():
            print(f"{rule.code}  {rule.name:<24} {rule.summary}")
        return 0
    known = {rule.code for rule in all_rules()}
    select = _parse_codes(args.select)
    ignore = _parse_codes(args.ignore)
    unknown = sorted((select | ignore) - known)
    if unknown:
        print(f"reprolint: unknown rule code(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    paths = args.paths or list(DEFAULT_PATHS)
    missing = sorted(path for path in paths if not os.path.exists(path))
    if missing:
        print(f"reprolint: no such path: {', '.join(missing)}", file=sys.stderr)
        return 2
    restrict_to: Optional[List[str]] = None
    if args.changed:
        restrict_to = changed_files()
        if restrict_to is None:
            print(
                "reprolint: --changed requires a git checkout "
                "(git diff against HEAD failed)",
                file=sys.stderr,
            )
            return 2
        if not restrict_to:
            print("reprolint: no Python files changed versus HEAD")
            return 0
    config = CheckConfig(select=select, ignore=ignore)
    report = check_paths(paths, config, restrict_to=restrict_to)
    print(_RENDERERS[args.format](report))
    return report.exit_code


def run_lint(argv: Optional[List[str]] = None) -> int:
    """Standalone entry point for ``python -m repro.checks``."""
    parser = argparse.ArgumentParser(
        prog="python -m repro.checks",
        description="reprolint: domain-aware static analysis "
        "(unit discipline, determinism, asyncio and layering contracts)",
    )
    add_lint_arguments(parser)
    return run_lint_args(parser.parse_args(argv))


def changed_files() -> Optional[List[str]]:
    """Python files changed versus HEAD (tracked edits plus untracked).

    Paths come back relative to the current directory, ready to feed
    ``check_paths(restrict_to=...)``.  Returns ``None`` when git is
    unavailable or the working directory is not inside a checkout.
    """
    toplevel = _git(["rev-parse", "--show-toplevel"])
    if toplevel is None:
        return None
    root = toplevel.strip()
    edited = _git(["diff", "--name-only", "HEAD", "--"])
    untracked = _git(["ls-files", "--others", "--exclude-standard"])
    if edited is None or untracked is None:
        return None
    names = [line for line in (edited + untracked).splitlines() if line.strip()]
    files: List[str] = []
    for name in sorted(set(names)):
        if not name.endswith(".py"):
            continue
        absolute = os.path.join(root, name)
        if os.path.exists(absolute):  # deleted files cannot be linted
            files.append(os.path.relpath(absolute))
    return files


def _git(arguments: List[str]) -> Optional[str]:
    try:
        completed = subprocess.run(
            ["git", *arguments],
            capture_output=True,
            text=True,
            check=True,
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return completed.stdout


def _parse_codes(raw: str) -> "frozenset[str]":
    return frozenset(code.strip().upper() for code in raw.split(",") if code.strip())


if __name__ == "__main__":
    sys.exit(run_lint())
