"""Every command line the docs show parses with the real CLI parser.

Collects the ``repro …``, ``repro-experiments …`` and ``[ENV=…] python -m
repro.<package> …`` lines from the fenced blocks of README.md,
EXPERIMENTS.md and docs/*.md and feeds each to ``parse_args`` of the
parser its entry point builds — never to the command's handler — so a
removed subcommand or a renamed flag fails here, not in a reader's shell.

Likewise every ``tests/…``, ``benchmarks/…`` or ``examples/….py`` path
those docs and DESIGN.md cite must exist, and a ``::name`` after it must
name a class or function defined in that file.
"""

import ast
import contextlib
import io
import pathlib
import re
import shlex

import pytest

from repro.cli import build_parser as build_repro_parser
from repro.experiments.cli import build_parser as build_experiments_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

#: ``python -m`` entry modules and the ``repro`` subcommand each one runs.
MODULES = {"repro.faults": "faults", "repro.verify": "verify"}

COMMAND = re.compile(
    r"(?:\$\s+)?(?:\w+=\S*\s+)*"
    r"(?:repro(?:-experiments)?|python3? -m repro[.\w]*)(?:\s|$)"
)

CITATION = re.compile(
    r"(?<![\w/.])(?:(?:tests|benchmarks)/[\w./-]*|examples/[\w/.-]*\.py)(?:::[\w:]+)?"
)


def doc_commands(text):
    """(first line number, argv) of each command in ``text``'s fenced blocks.

    Backslash continuations are joined and trailing ``# comments`` dropped;
    a leading ``$`` prompt and ``ENV=value`` words stay in ``argv``.
    """
    commands = []
    fenced = False
    pending = ""
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.strip()
        if stripped.startswith("```"):
            fenced = not fenced
            pending = ""
            continue
        if not fenced:
            continue
        if not pending:
            start = number
        if stripped.endswith("\\"):
            pending += stripped[:-1] + " "
            continue
        joined = pending + stripped
        pending = ""
        if COMMAND.match(joined):
            commands.append((start, shlex.split(joined, comments=True)))
    return commands


def parse_error(argv):
    """Why the entry point ``argv`` names rejects it, or None if it parses."""
    words = list(argv)
    if words[0] == "$":
        del words[0]
    while "=" in words[0]:
        del words[0]
    program = words.pop(0)
    if program.startswith("python"):
        module = words[1]
        if module not in MODULES:
            return f"no entry point: python -m {module}"
        words = [MODULES[module], *words[2:]]
    parser = build_repro_parser()
    if program == "repro-experiments":
        parser = build_experiments_parser()
    elif words[:1] == ["experiments"]:
        parser, words = build_experiments_parser(), words[1:]
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        try:
            parser.parse_args(words)
        except SystemExit as stop:
            if stop.code:
                return err.getvalue().strip().splitlines()[-1]
    return None


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.relative_to(ROOT).as_posix())
def test_doc_commands_parse(doc):
    failures = []
    for number, argv in doc_commands(doc.read_text(encoding="utf-8")):
        error = parse_error(argv)
        if error:
            failures.append(f"{doc.name}:{number}: {shlex.join(argv)}: {error}")
    assert not failures, "\n".join(failures)


def test_collector_reads_every_form():
    text = "\n".join(
        [
            "repro faults conformance --quick   # prose, not a fenced block",
            "```bash",
            "REPRO_FULL=1 repro-experiments table 2   # paper scale",
            "PYTHONPATH=src python -m repro.faults conformance --quick \\",
            "    --out report.json",
            "$ repro verify run --out verdicts.json",
            "stats = Simulator(config).run()",
            "```",
        ]
    )
    assert doc_commands(text) == [
        (3, ["REPRO_FULL=1", "repro-experiments", "table", "2"]),
        (
            4,
            ["PYTHONPATH=src", "python", "-m", "repro.faults", "conformance",
             "--quick", "--out", "report.json"],
        ),
        (6, ["$", "repro", "verify", "run", "--out", "verdicts.json"]),
    ]


@pytest.mark.parametrize(
    "line, parses",
    [
        ("repro experiments table 2 --jobs 4", True),
        ("PYTHONPATH=src python -m repro.verify run", True),
        ("repro faults --help", True),
        ("repro faults sweep --mechanism probe", False),
        ("repro-experiments table N", False),
        ("python -m repro faults conformance", False),
        ("repro lint src/repro", False),
        ("python -m repro.lint src/repro", False),
    ],
)
def test_parse_error_bites(line, parses):
    assert (parse_error(shlex.split(line)) is None) is parses


def resolves(citation):
    """Whether a cited path exists and each ``::`` name is defined in it."""
    path, *names = citation.rstrip(".").split("::")
    cited = ROOT / path
    if not cited.exists():
        return False
    scope = ast.parse(cited.read_text(encoding="utf-8")).body if names else []
    for name in names:
        found = [
            node
            for node in scope
            if isinstance(node, (ast.ClassDef, ast.FunctionDef)) and node.name == name
        ]
        if not found:
            return False
        scope = found[0].body
    return True


@pytest.mark.parametrize(
    "doc", [ROOT / "DESIGN.md", *DOCS], ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_doc_citations_resolve(doc):
    text = doc.read_text(encoding="utf-8")
    dangling = [
        f"{doc.name}:{text.count(chr(10), 0, match.start()) + 1}: {match.group()}"
        for match in CITATION.finditer(text)
        if not resolves(match.group())
    ]
    assert not dangling, "\n".join(dangling)


def test_citation_collector_reads_every_form():
    text = (
        "see `tests/figures/test_scenarios.py::TestFigure2`, benchmarks/spine/ "
        "and examples/quickstart.py.  Not src/repro/tests/x.py or examples/."
    )
    assert CITATION.findall(text) == [
        "tests/figures/test_scenarios.py::TestFigure2",
        "benchmarks/spine/",
        "examples/quickstart.py",
    ]


@pytest.mark.parametrize(
    "citation, ok",
    [
        ("tests/", True),
        ("tests/figures/test_scenarios.py::TestFigure2::test_ndm_detects_nothing", True),
        ("tests/test_doc_commands.py::resolves", True),
        ("tests/figures/test_scenarios.py::test_figure2", False),
        ("tests/figures/test_scenarios.py::TestFigure3::test_ndm_detects_nothing", False),
        ("benchmarks/no_such_suite.py", False),
        ("examples/no_such_example.py", False),
    ],
)
def test_resolves_bites(citation, ok):
    assert resolves(citation) is ok
