"""Framework behaviour: suppression pragmas, reporters, runner, and CLI wiring."""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path
from typing import Dict

import pytest

from repro.checks import CheckConfig, check_paths, check_source, main
from repro.checks.registry import all_rules
from repro.checks.reporting import render_json, render_text
from repro.checks.suppression import UNUSED_PRAGMA
from repro.cli import main as cli_main

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC = REPO_ROOT / "src"

MUTABLE_DEFAULT = "def collect(bucket=[]):\n    return bucket\n"


# ---------------------------------------------------------------- suppression


def test_line_pragma_suppresses_single_code():
    source = "def collect(bucket=[]):  # reprolint: disable=RPL005\n    return bucket\n"
    assert check_source(source) == []


def test_line_pragma_with_wrong_code_does_not_suppress():
    source = "def collect(bucket=[]):  # reprolint: disable=RPL001\n    return bucket\n"
    assert [v.code for v in check_source(source)] == ["RPL005"]


def test_line_pragma_accepts_comma_separated_codes():
    source = (
        "def collect(bucket=[]):  # reprolint: disable=RPL001,RPL005\n"
        "    return bucket\n"
    )
    assert check_source(source) == []


def test_file_pragma_suppresses_whole_file():
    source = "# reprolint: disable-file=RPL005\n" + MUTABLE_DEFAULT
    assert check_source(source) == []


def test_all_keyword_suppresses_every_rule():
    source = "# reprolint: disable-file=all\n" + MUTABLE_DEFAULT
    assert check_source(source) == []


def test_pragma_inside_string_literal_is_ignored():
    source = 'PRAGMA = "# reprolint: disable-file=all"\n' + MUTABLE_DEFAULT
    assert [v.code for v in check_source(source)] == ["RPL005"]


@pytest.mark.parametrize(
    "source, unused",
    [
        ("def collect(bucket=[]):  # reprolint: disable=RPL005\n    return bucket\n", []),
        ("# reprolint: disable-file=RPL005\n" + MUTABLE_DEFAULT, []),
        ("# reprolint: disable-file=all\n" + MUTABLE_DEFAULT, []),
        ("X = 1  # reprolint: disable=RPL001\n", [(1, "RPL001")]),
        ("X = 1\n# reprolint: disable-file=RPL005\n", [(2, "RPL005")]),
        ("# reprolint: disable-file=all\nX = 1\n", [(1, "all")]),
        (
            "def collect(bucket=[]):  # reprolint: disable=RPL001,RPL005\n"
            "    return bucket\n",
            [(1, "RPL001")],
        ),
    ],
)
def test_pragma_code_that_suppresses_nothing_is_reported(tmp_path, source, unused):
    target = tmp_path / "mod.py"
    target.write_text(source)
    report = check_paths([target])
    assert [(v.code, v.line) for v in report.violations] == [
        (UNUSED_PRAGMA, line) for line, _ in unused
    ]
    for violation, (_, code) in zip(report.violations, unused):
        assert f"{code} suppresses no finding" in violation.message
    assert report.exit_code == (1 if unused else 0)


@pytest.mark.parametrize(
    "pragma, flags",
    [
        ("disable=RPL001", ["--select", "RPL005"]),
        ("disable=RPL001", ["--ignore", "RPL001"]),
        ("disable-file=all", ["--ignore", "RPL001"]),
    ],
)
def test_pragma_is_judged_only_when_its_rule_ran(tmp_path, pragma, flags):
    target = tmp_path / "clean.py"
    target.write_text(f"X = 1  # reprolint: {pragma}\n")
    assert main([str(target), *flags]) == 0
    assert main([str(target)]) == 1


# ---------------------------------------------------------------- config


def test_select_restricts_to_chosen_codes():
    source = MUTABLE_DEFAULT + "def f(now, deadline):\n    return now == deadline\n"
    config = CheckConfig(select=frozenset({"RPL001"}))
    assert [v.code for v in check_source(source, config=config)] == ["RPL001"]


def test_ignore_drops_chosen_codes():
    config = CheckConfig(ignore=frozenset({"RPL005"}))
    assert check_source(MUTABLE_DEFAULT, config=config) == []


# ---------------------------------------------------------------- runner


def test_check_paths_walks_directories(tmp_path):
    (tmp_path / "bad.py").write_text(MUTABLE_DEFAULT)
    (tmp_path / "good.py").write_text("X = 1\n")
    (tmp_path / "__pycache__").mkdir()
    (tmp_path / "__pycache__" / "stale.py").write_text(MUTABLE_DEFAULT)
    report = check_paths([tmp_path])
    assert report.files_checked == 2
    assert [v.code for v in report.violations] == ["RPL005"]
    assert report.exit_code == 1


def test_check_paths_records_parse_errors(tmp_path):
    (tmp_path / "broken.py").write_text("def f(:\n")
    report = check_paths([tmp_path])
    assert report.parse_errors and not report.ok
    assert report.exit_code == 1


def test_check_source_raises_on_syntax_error():
    with pytest.raises(SyntaxError):
        check_source("def f(:\n")


# ---------------------------------------------------------------- reporters


def test_text_reporter_formats_gcc_style(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(MUTABLE_DEFAULT)
    report = check_paths([bad])
    text = render_text(report)
    assert f"{bad}:1:" in text
    assert "RPL005" in text
    assert "1 file checked" in text


def test_json_reporter_roundtrips(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(MUTABLE_DEFAULT)
    payload = json.loads(render_json(check_paths([bad])))
    assert payload["ok"] is False
    assert payload["files_checked"] == 1
    [finding] = payload["violations"]
    assert finding["code"] == "RPL005"
    assert finding["line"] == 1


# ---------------------------------------------------------------- CLI


def test_repo_source_tree_is_lint_clean():
    """The repository's own library code passes reprolint (ISSUE acceptance)."""
    assert main([str(SRC)]) == 0


def test_cli_lint_subcommand_is_clean():
    assert cli_main(["lint", str(SRC)]) == 0


def test_cli_exits_nonzero_on_violation(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(MUTABLE_DEFAULT)
    assert cli_main(["lint", str(bad)]) == 1
    out = capsys.readouterr().out
    assert "RPL005" in out


@pytest.mark.parametrize("fmt", ["text", "json", "sarif"])
def test_cli_fails_on_unused_pragma_in_every_format(tmp_path, capsys, fmt):
    target = tmp_path / "clean.py"
    target.write_text("X = 1  # reprolint: disable=RPL001\n")
    assert main([str(target), "--format", fmt]) == 1
    out = capsys.readouterr().out
    assert UNUSED_PRAGMA in out
    assert "RPL001 suppresses no finding" in out


def test_cli_json_format(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(MUTABLE_DEFAULT)
    assert main([str(bad), "--format", "json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert payload["violations"][0]["code"] == "RPL005"


def test_cli_select_and_ignore(tmp_path):
    bad = tmp_path / "bad.py"
    bad.write_text(MUTABLE_DEFAULT)
    assert main([str(bad), "--ignore", "RPL005"]) == 0
    assert main([str(bad), "--select", "RPL001"]) == 0
    assert main([str(bad), "--select", "RPL005"]) == 1


def test_cli_rejects_unknown_rule_code(capsys):
    assert main(["--select", "RPL999"]) == 2
    assert "RPL999" in capsys.readouterr().err


def test_cli_rejects_missing_path(capsys):
    assert main(["/no/such/dir"]) == 2
    assert "no such path" in capsys.readouterr().err


def test_cli_list_rules(capsys):
    assert main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for rule in all_rules():
        assert rule.code in out


def _commit_to_fresh_repo(root: Path, files: Dict[str, str]) -> None:
    """Write ``files`` under ``root`` and commit them to a new git repository."""
    git = ["git", "-c", "user.email=t@t", "-c", "user.name=t"]
    subprocess.run([*git, "init", "-q"], cwd=root, check=True)
    for name, content in files.items():
        (root / name).write_text(content)
    subprocess.run([*git, "add", "."], cwd=root, check=True)
    subprocess.run([*git, "commit", "-q", "-m", "seed"], cwd=root, check=True)


def test_cli_changed_mode_reports_only_edited_files(tmp_path, capsys, monkeypatch):
    """--changed scopes findings to files edited versus HEAD."""
    monkeypatch.chdir(tmp_path)
    _commit_to_fresh_repo(tmp_path, {"bad.py": MUTABLE_DEFAULT, "good.py": "X = 1\n"})
    # Nothing changed: nothing to lint, exit 0 despite bad.py's finding.
    assert main([".", "--changed"]) == 0
    capsys.readouterr()
    # Touch only the clean file: still 0 (bad.py is out of scope).
    (tmp_path / "good.py").write_text("X = 2\n")
    assert main([".", "--changed"]) == 0
    capsys.readouterr()
    # Touch the bad file: its finding is now in scope.
    (tmp_path / "bad.py").write_text(MUTABLE_DEFAULT + "\n")
    assert main([".", "--changed"]) == 1
    assert "RPL005" in capsys.readouterr().out


def test_cli_changed_mode_judges_pragmas_only_in_edited_files(
    tmp_path, capsys, monkeypatch
):
    monkeypatch.chdir(tmp_path)
    stale = "X = 1  # reprolint: disable=RPL001\n"
    _commit_to_fresh_repo(tmp_path, {"stale.py": stale, "good.py": "X = 1\n"})
    # Only the clean file changed: the unchanged file's pragma is not judged.
    (tmp_path / "good.py").write_text("X = 2\n")
    assert main([".", "--changed"]) == 0
    assert UNUSED_PRAGMA not in capsys.readouterr().out
    # Touch the file holding the stale pragma: now it is reported.
    (tmp_path / "stale.py").write_text(stale + "\n")
    assert main([".", "--changed"]) == 1
    assert UNUSED_PRAGMA in capsys.readouterr().out


def test_cli_changed_mode_requires_git(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "nowhere"))
    assert main([".", "--changed"]) == 2
    assert "git" in capsys.readouterr().err


def test_module_entry_point_runs_as_script(tmp_path):
    """`python -m repro.checks` works and propagates the exit code."""
    bad = tmp_path / "bad.py"
    bad.write_text(MUTABLE_DEFAULT)
    env_src = str(SRC)
    result = subprocess.run(
        [sys.executable, "-m", "repro.checks", str(bad)],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": env_src, "PATH": "/usr/bin:/bin:/usr/local/bin"},
    )
    assert result.returncode == 1
    assert "RPL005" in result.stdout


# ---------------------------------------------------------------- registry


def test_rules_are_sorted_and_well_formed():
    rules = all_rules()
    assert [r.code for r in rules] == sorted(r.code for r in rules)
    for rule in rules:
        assert rule.code.startswith("RPL") and len(rule.code) == 6
        assert rule.name and rule.summary
