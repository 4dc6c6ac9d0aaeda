"""CLI and registry behaviour: exit codes, output formats, rule catalog."""

import json
import shutil
import subprocess

import pytest

from repro import cli as umbrella
from repro.lint.cli import main as lint_main
from repro.lint.findings import Finding
from repro.lint.registry import Rule, all_rules, get_rule, register_rule

# DET003 applies to the order-sensitive packages, so the offending file
# lives at repro/network/drain.py under the temporary directory (the
# engine names modules from their package layout).
CLI_BAD = '''\
"""Hash-ordered iteration in an order-sensitive module."""

def drain():
    for item in {object(), object()}:
        item.drop()
'''


def bad_module(root):
    package = root / "repro" / "network"
    package.mkdir(parents=True)
    for directory in (root / "repro", package):
        (directory / "__init__.py").write_text("")
    bad = package / "drain.py"
    bad.write_text(CLI_BAD)
    return bad


def test_cli_exit_one_and_json_output(tmp_path, capsys):
    bad = bad_module(tmp_path)
    assert lint_main([str(bad), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    assert len(payload) == 1
    finding = payload[0]
    assert finding["code"] == "DET003"
    assert finding["line"] == 4
    assert finding["path"] == str(bad)
    assert "hash-ordered" in finding["message"]
    assert finding["hint"]


def test_cli_exit_zero_on_clean_file(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n")
    assert lint_main([str(clean)]) == 0
    out = capsys.readouterr().out
    assert "0 finding(s) in 1 file" in out


def test_cli_verbose_shows_autofix_hint(tmp_path, capsys):
    bad = bad_module(tmp_path)
    assert lint_main([str(bad), "--verbose"]) == 1
    out = capsys.readouterr().out
    assert "DET003" in out
    assert "hint:" in out


def test_cli_list_rules(capsys):
    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    codes = [line.split()[0] for line in out.splitlines() if not line[:1].isspace()]
    assert codes == ["DET003"]


def test_umbrella_cli_routes_lint(tmp_path, capsys):
    clean = tmp_path / "ok.py"
    clean.write_text("x = 1\n")
    assert umbrella.main(["lint", str(clean)]) == 0
    assert "0 finding(s)" in capsys.readouterr().out


def test_rule_catalog_complete_and_documented():
    assert [rule.code for rule in all_rules()] == ["DET003"]
    for rule in all_rules():
        assert rule.summary
        assert rule.hint
    assert get_rule("DET003").code == "DET003"


def test_cli_json_round_trips_through_finding_schema(tmp_path, capsys):
    # The JSON format is a stable contract: every emitted object must
    # reconstruct a Finding exactly (no extra or missing fields).
    bad = bad_module(tmp_path)
    assert lint_main([str(bad), "--format=json"]) == 1
    payload = json.loads(capsys.readouterr().out)
    findings = [Finding(**item) for item in payload]
    assert [f.code for f in findings] == ["DET003"]
    assert json.loads(
        json.dumps([item for item in payload], sort_keys=True)
    ) == payload


def test_cli_sarif_output(tmp_path, capsys):
    bad = bad_module(tmp_path)
    assert lint_main([str(bad), "--format=sarif"]) == 1
    log = json.loads(capsys.readouterr().out)
    assert log["version"] == "2.1.0"
    assert "sarif-schema-2.1.0" in log["$schema"]
    (run,) = log["runs"]
    driver = run["tool"]["driver"]
    assert driver["name"] == "repro-lint"
    assert {r["id"] for r in driver["rules"]} == {
        r.code for r in all_rules()
    }
    (result,) = run["results"]
    assert result["ruleId"] == "DET003"
    assert result["level"] == "error"
    location = result["locations"][0]["physicalLocation"]
    assert location["artifactLocation"]["uri"] == str(bad)
    assert location["region"]["startLine"] == 4
    assert location["region"]["startColumn"] >= 1  # SARIF is 1-based


def test_cli_changed_scopes_to_git_diff(tmp_path, capsys, monkeypatch):
    if shutil.which("git") is None:
        pytest.skip("git unavailable")

    def git(*argv):
        subprocess.run(
            ["git", *argv], cwd=tmp_path, check=True, capture_output=True
        )

    git("init")
    git("config", "user.email", "lint@test")
    git("config", "user.name", "lint test")
    bad = bad_module(tmp_path)
    git("add", "-A")
    git("commit", "-m", "seed")
    monkeypatch.chdir(tmp_path)
    # Committed offender + one fresh clean file: --changed sees only the
    # fresh file, a full run still fails on the committed one.
    (tmp_path / "fresh.py").write_text("x = 1\n")
    assert lint_main([str(tmp_path), "--changed"]) == 0
    assert "in 1 file" in capsys.readouterr().out
    assert lint_main([str(tmp_path)]) == 1
    capsys.readouterr()
    # Modifying the offender puts it back in scope.
    bad.write_text(CLI_BAD + "\n")
    assert lint_main([str(tmp_path), "--changed"]) == 1
    capsys.readouterr()


def test_cli_changed_falls_back_outside_git(tmp_path, capsys, monkeypatch):
    bad = bad_module(tmp_path)
    monkeypatch.chdir(tmp_path)
    monkeypatch.setenv("GIT_CEILING_DIRECTORIES", str(tmp_path))
    monkeypatch.setenv("GIT_DIR", str(tmp_path / "nonexistent.git"))
    assert lint_main([str(tmp_path), "--changed"]) == 1
    capsys.readouterr()


def test_register_rule_rejects_duplicate_codes():
    with pytest.raises(ValueError):

        @register_rule
        class Duplicate(Rule):  # noqa: F811 - intentionally clashing
            code = "DET003"
            summary = "duplicate"
            hint = "duplicate"
