"""Fixture-corpus tests: every rule fires with exact code and line number.

Offending fixtures mark each expected finding with a trailing
``# expect: CODE`` comment; the tests recover ``(line, code)`` pairs from
those markers and require the lint findings to match them exactly.  Clean
fixtures must produce no findings at all.
"""

import re
from pathlib import Path

import pytest

from repro.lint import lint_file, run_lint
from repro.lint.findings import format_text

FIXTURES = Path(__file__).parent / "fixtures"

_EXPECT = re.compile(r"#\s*expect:\s*([A-Z]+\d+)")


def expected(path: Path):
    """``(line, code)`` pairs declared by ``# expect:`` markers."""
    pairs = []
    for lineno, line in enumerate(path.read_text().splitlines(), 1):
        match = _EXPECT.search(line)
        if match:
            pairs.append((lineno, match.group(1)))
    return sorted(pairs)


BAD_CASES = [
    ("det003_bad.py", "repro.network.det003_bad"),
]

CLEAN_CASES = [
    ("det003_clean.py", "repro.network.det003_clean"),
]


@pytest.mark.parametrize("fixture,module_name", BAD_CASES)
def test_bad_fixture_detected_with_exact_code_and_line(fixture, module_name):
    path = FIXTURES / fixture
    marks = expected(path)
    assert marks, f"{fixture} declares no # expect: markers"
    result = lint_file(path, module_name=module_name)
    actual = sorted((f.line, f.code) for f in result.findings)
    assert actual == marks, format_text(result.findings)


@pytest.mark.parametrize("fixture,module_name", CLEAN_CASES)
def test_clean_fixture_produces_no_findings(fixture, module_name):
    path = FIXTURES / fixture
    result = lint_file(path, module_name=module_name)
    assert result.findings == [], format_text(result.findings)
    assert result.ok


def test_scoped_rules_skip_out_of_scope_modules():
    # The same offending source is silent outside the rule's scope.
    order_fixture = FIXTURES / "det003_bad.py"
    result = lint_file(order_fixture, module_name="repro.figures.det003_bad")
    assert result.findings == [], format_text(result.findings)


def test_inline_disable_suppresses_own_and_next_line():
    result = lint_file(
        FIXTURES / "suppressions.py",
        module_name="repro.network.suppressions",
    )
    assert result.findings == [], format_text(result.findings)


def test_file_wide_disable_suppresses_everywhere():
    result = lint_file(
        FIXTURES / "suppress_file.py",
        module_name="repro.network.suppress_file",
    )
    assert result.findings == [], format_text(result.findings)


def test_disable_comments_are_load_bearing(tmp_path):
    source = (FIXTURES / "suppressions.py").read_text()
    stripped = re.sub(r"#\s*repro-lint:[^\n]*", "", source)
    path = tmp_path / "mod.py"
    path.write_text(stripped)
    result = lint_file(path, module_name="repro.network.mod")
    assert [f.code for f in result.findings] == ["DET003"] * 3


def test_syntax_errors_are_reported_not_raised(tmp_path):
    path = tmp_path / "broken.py"
    path.write_text("def f(:\n")
    result = lint_file(path)
    assert not result.ok
    assert result.findings[0].code == "SYNTAX"


def test_repro_source_tree_is_lint_clean():
    repo_root = Path(__file__).resolve().parents[2]
    result = run_lint([repo_root / "src" / "repro"])
    assert result.ok, format_text(result.findings)
    assert result.files_checked > 50
