"""Every command line the docs show parses with the real CLI parser.

Collects the ``repro …``, ``repro-experiments …`` and ``[ENV=…] python -m
repro.<package> …`` lines from the fenced blocks of README.md,
EXPERIMENTS.md and docs/*.md and feeds each to ``parse_args`` of the
parser its entry point builds — never to the command's handler — so a
removed subcommand or a renamed flag fails here, not in a reader's shell.

Likewise every ``tests/…``, ``benchmarks/…`` or ``examples/….py`` path
those docs and DESIGN.md cite must exist, and a ``::name`` after it must
name a class or function defined in that file; and every ``from repro…
import …`` or ``import repro…`` line in their fenced blocks must import.

And every name their prose puts in backticks must still be there: a
dotted ``repro.…`` name imports or resolves by attribute, a
``repro/….py`` or ``src/repro/….py`` path exists, a ``Class.attr`` whose
class is a ``repro`` class names a class attribute, a dataclass field or
an attribute its methods assign; and a ``[x.md](x.md), *Section*``
cross-reference names a heading of ``x.md``.  Only a span pinned to a
commit (``git show c6d18e7:…``) is exempt.
"""

import ast
import contextlib
import functools
import importlib
import inspect
import io
import pathlib
import pkgutil
import re
import shlex
import textwrap

import pytest

import repro
from repro.cli import build_parser as build_repro_parser
from repro.experiments.cli import build_parser as build_experiments_parser

ROOT = pathlib.Path(__file__).resolve().parent.parent
DOCS = [
    ROOT / "README.md",
    ROOT / "EXPERIMENTS.md",
    *sorted((ROOT / "docs").glob("*.md")),
]

#: The docs whose citations, imports and names are checked; the command
#: check reads ``DOCS`` only.
REFERENCED_DOCS = [ROOT / "DESIGN.md", *DOCS]

#: ``python -m`` entry modules and the ``repro`` subcommand each one runs.
MODULES = {"repro.faults": "faults", "repro.verify": "verify"}

COMMAND = re.compile(
    r"(?:\$\s+)?(?:\w+=\S*\s+)*"
    r"(?:repro(?:-experiments)?|python3? -m repro[.\w]*)(?:\s|$)"
)

IMPORT = re.compile(r"from\s+repro(?:\.[\w.]+)?\s+import\s|import\s+repro\b")

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
            "PYTHONHASHSEED=0 repro-experiments table 2 --full   # paper scale",
            "PYTHONPATH=src python -m repro.faults conformance --quick \\",
            "    --out report.json",
            "$ repro verify run --out verdicts.json",
            "stats = Simulator(config).run()",
            "```",
        ]
    )
    assert doc_commands(text) == [
        (3, ["PYTHONHASHSEED=0", "repro-experiments", "table", "2", "--full"]),
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
    "doc", REFERENCED_DOCS, ids=lambda p: p.relative_to(ROOT).as_posix()
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


def doc_imports(text):
    """(line number, statement) of each ``repro`` import in ``text``'s
    fenced blocks; a parenthesised import is joined up to its ``)``."""
    imports = []
    fenced = False
    pending = ""
    for number, line in enumerate(text.splitlines(), 1):
        stripped = line.split("#")[0].strip()
        if stripped.startswith("```"):
            fenced = not fenced
            pending = ""
            continue
        if not fenced:
            continue
        if pending:
            pending += " " + stripped
        elif IMPORT.match(stripped):
            start, pending = number, stripped
        else:
            continue
        if pending.count("(") == pending.count(")"):
            imports.append((start, pending))
            pending = ""
    return imports


def import_error(statement):
    """Why ``statement`` fails to import, or None if it imports."""
    try:
        exec(statement, {})
    except ImportError as exc:
        return str(exc)
    return None


@pytest.mark.parametrize(
    "doc", REFERENCED_DOCS, ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_doc_imports_resolve(doc):
    failures = []
    for number, statement in doc_imports(doc.read_text(encoding="utf-8")):
        error = import_error(statement)
        if error:
            failures.append(f"{doc.name}:{number}: {statement}: {error}")
    assert not failures, "\n".join(failures)


def test_import_collector_reads_every_form():
    text = "\n".join(
        [
            "from repro import Simulator   # prose, not a fenced block",
            "```python",
            "from repro.campaign import (",
            "    ResultCache,  # the store",
            ")",
            "python - <<'EOF'",
            "import repro.network.simulator as sim",
            "from reprox import y",
            "```",
        ]
    )
    assert doc_imports(text) == [
        (3, "from repro.campaign import ( ResultCache, )"),
        (7, "import repro.network.simulator as sim"),
    ]


@pytest.mark.parametrize(
    "statement, imports",
    [
        ("from repro.experiments.runner import run_table", True),
        ("import repro.campaign.engine as engine", True),
        ("from repro.experiments.tables import table_spec", False),
        ("from repro.campaign import run_table_campaign", False),
    ],
)
def test_import_error_bites(statement, imports):
    assert (import_error(statement) is None) is imports


#: A code span: a run of backticks, then text within one paragraph, closed
#: by a run of the same length.
SPAN = re.compile(r"(?<!`)(`+)(?!`)((?:(?!\n\s*\n).)+?)(?<!`)\1(?!`)", re.S)

DOTTED = re.compile(r"(?<![\w./-])repro(?:\.\w+)+")

SOURCE_PATH = re.compile(r"(?<![\w./-])(?:src/)?repro/[\w/]+\.py\b")

ATTRIBUTE = re.compile(r"(?<![\w.])([A-Z]\w*)\.(\w+)")

PINNED = re.compile(r"\b[0-9a-f]{7,40}:")

#: A link or path to a markdown file, then one or more ``*Section*``
#: names joined by commas or "and".
SECTION_REFERENCE = re.compile(
    r"(?:\[[^\]]*\]\((?P<link>[^)\s#]+\.md)\)|(?<![\w./(])(?P<path>[\w./-]+\.md))"
    r",?\s+(?P<sections>\*[^*]+\*(?:(?:,\s+and|,|\s+and)\s+\*[^*]+\*)*)"
)


def prose(text):
    """``text`` with its fenced blocks blanked, line numbers kept."""
    lines = []
    fenced = False
    for line in text.splitlines():
        if line.strip().startswith("```"):
            fenced = not fenced
            line = ""
        lines.append("" if fenced else line)
    return "\n".join(lines)


@functools.lru_cache(maxsize=None)
def repro_classes():
    """Class name -> the ``repro`` classes of that name, every module loaded."""
    classes = {}
    for module in pkgutil.walk_packages(repro.__path__, "repro."):
        if module.name.endswith(".__main__"):
            continue
        for value in vars(importlib.import_module(module.name)).values():
            if isinstance(value, type) and value.__module__ == module.name:
                classes.setdefault(value.__name__, []).append(value)
    return classes


@functools.lru_cache(maxsize=None)
def assigned_attributes(cls):
    """Names ``cls``'s own body annotates and its methods assign on ``self``."""
    names = set(getattr(cls, "__dataclass_fields__", ()))
    names.update(vars(cls).get("__annotations__", ()))
    try:
        source = textwrap.dedent(inspect.getsource(cls))
    except (OSError, TypeError):  # a class built at run time has no source
        return frozenset(names)
    for node in ast.walk(ast.parse(source)):
        if (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and isinstance(node.value, ast.Name)
            and node.value.id == "self"
        ):
            names.add(node.attr)
    return frozenset(names)


def has_attribute(owner, name):
    """Whether ``owner.name`` exists, or instances of class ``owner`` get it."""
    if hasattr(owner, name):
        return True
    return isinstance(owner, type) and any(
        name in assigned_attributes(cls)
        for cls in owner.__mro__
        if cls.__module__.startswith("repro")
    )


def name_resolves(dotted):
    """Whether a dotted ``repro.…`` name imports, then resolves by attribute."""
    parts = dotted.split(".")
    for split in range(len(parts), 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:split]))
        except ImportError:
            continue
        for name in parts[split:]:
            if not has_attribute(owner, name):
                return False
            owner = getattr(owner, name, None)
        return True
    return False


def attribute_resolves(class_name, name):
    """Whether ``Class.name`` resolves on a ``repro`` class of that name;
    a class name ``repro`` does not define is not checked."""
    classes = repro_classes().get(class_name)
    return not classes or any(has_attribute(cls, name) for cls in classes)


def headings(doc):
    """The heading texts of a markdown file, whitespace collapsed."""
    found = set()
    for line in prose(doc.read_text(encoding="utf-8")).splitlines():
        match = re.match(r"#{1,6}\s+(.*?)\s*$", line)
        if match:
            found.add(" ".join(match.group(1).split()))
    return found


def section_resolves(doc, target, section):
    """Whether ``target`` (a link from ``doc``, or a path from the repo
    root) is a markdown file with a heading ``section``."""
    for base in (doc.parent, ROOT):
        path = base / target
        if path.is_file():
            return " ".join(section.split()) in headings(path)
    return False


def dangling_references(doc):
    """``doc:line: reference`` for each name or section that no longer exists."""
    text = prose(doc.read_text(encoding="utf-8"))

    def where(offset):
        return f"{doc.name}:{text.count(chr(10), 0, offset) + 1}"

    dangling = []
    for span in SPAN.finditer(text):
        code = span.group(2)
        if PINNED.search(code):
            continue
        dangling += [
            f"{where(span.start())}: {match.group()}"
            for match in DOTTED.finditer(code)
            if not name_resolves(match.group())
        ]
        dangling += [
            f"{where(span.start())}: {match.group()}"
            for match in SOURCE_PATH.finditer(code)
            if not (ROOT / "src" / match.group().replace("src/", "", 1)).is_file()
        ]
        dangling += [
            f"{where(span.start())}: {match.group()}"
            for match in ATTRIBUTE.finditer(code)
            if not attribute_resolves(*match.groups())
        ]
    for match in SECTION_REFERENCE.finditer(text):
        target = match.group("link") or match.group("path")
        dangling += [
            f"{where(match.start())}: {target}, *{section}*"
            for section in re.findall(r"\*([^*]+)\*", match.group("sections"))
            if not section_resolves(doc, target, section)
        ]
    return dangling


@pytest.mark.parametrize(
    "doc", REFERENCED_DOCS, ids=lambda p: p.relative_to(ROOT).as_posix()
)
def test_doc_references_resolve(doc):
    dangling = dangling_references(doc)
    assert not dangling, "\n".join(dangling)


@pytest.mark.parametrize(
    "line, dangling",
    [
        ("the router model, `repro.network.router`", []),
        ("`repro.network.topology.shared_wiring` caches", []),
        ("`repro.network.node`", ["x.md:1: repro.network.node"]),
        ("`repro.network.simulator.Simulator.no_such_phase`",
         ["x.md:1: repro.network.simulator.Simulator.no_such_phase"]),
        ("`repro/network/router.py` and `src/repro/core/ndm.py`", []),
        ("see\n`repro/network/node.py`", ["x.md:2: repro/network/node.py"]),
        ("`Router.route_rows[dim][dest]`, `Simulator.messages`", []),
        ("`SimulationConfig.injection_limit`, `PortKind.INJECTION`", []),
        ("`Router.build_route_rows`", ["x.md:1: Router.build_route_rows"]),
        ("`PhysicalChannel.on_i_reset`", ["x.md:1: PhysicalChannel.on_i_reset"]),
        ("`random.Random.choice`, `ProcessPoolExecutor.submit`", []),
        ("`git show c6d18e7:src/repro/core/adaptive.py`", []),
        ("[docs/simulator.md](simulator.md),\n*Ownership*", []),
        ("(docs/simulator.md, *Ownership*)", []),
        ("[docs/simulator.md](simulator.md), *Per-router routing rows*",
         ["x.md:1: simulator.md, *Per-router routing rows*"]),
        ("[docs/simulator.md](simulator.md), *Timing*, *Ownership* and\n*Routing*",
         ["x.md:1: simulator.md, *Routing*"]),
        ("```\n`repro.network.node`\n```", []),
    ],
)
def test_dangling_references_bites(tmp_path, line, dangling):
    doc = tmp_path / "docs" / "x.md"
    doc.parent.mkdir()
    doc.write_text(line, encoding="utf-8")
    (tmp_path / "docs" / "simulator.md").write_text(
        (ROOT / "docs" / "simulator.md").read_text(encoding="utf-8"), encoding="utf-8"
    )
    assert dangling_references(doc) == dangling
