"""Documentation link-checker: everything the docs name must really exist.

Two guarantees, enforced against the live packages so the docs cannot drift:

1. Every ``from repro... import X`` inside a ```python fence in docs/*.md and
   README.md resolves — the module imports and exposes ``X``.
2. Every ``repro.<subpackage>`` the docs mention appears in ``repro.__all__``
   (the documented public surface), and each fenced snippet is valid Python.
3. Every ``python -m repro WORDS ...`` in the docs, README.md, EXPERIMENTS.md,
   DESIGN.md and the verify skill names a sub-command; ``sweep`` and the bare
   report (``sweep --figure all``) parse with sweep's parser, and each
   ``--set k=v`` names a field of every figure's config.
"""

import ast
import contextlib
import importlib
import io
import re
from dataclasses import fields
from pathlib import Path

import pytest

import repro
from repro.__main__ import COMMANDS
from repro.runner.cli import _build_parser
from repro.runner.tasks import REPORT, get_figure

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_FILES = sorted(
    [*(REPO_ROOT / "docs").glob("*.md"), REPO_ROOT / "README.md"],
    key=lambda p: p.name,
)

FENCE_RE = re.compile(r"```python\n(.*?)```", re.DOTALL)
# `(?![-/])` skips versioned schema identifiers such as `repro.trace/1`
# and `repro.bench-baseline/1`, which name on-disk formats, not modules.
SUBPACKAGE_RE = re.compile(r"\brepro\.([a-z_]+)\b(?![-/])")


def python_fences(path: Path) -> list[str]:
    return FENCE_RE.findall(path.read_text())


def doc_ids() -> list[str]:
    return [path.name for path in DOC_FILES]


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids())
def test_python_fences_parse(path: Path) -> None:
    for index, fence in enumerate(python_fences(path)):
        try:
            ast.parse(fence)
        except SyntaxError as exc:  # pragma: no cover - failure path
            pytest.fail(f"{path.name} fence #{index + 1} is not valid Python: {exc}")


def imported_names(source: str) -> list[tuple[str, str | None]]:
    """(module, name) pairs for every repro import in *source*."""

    out: list[tuple[str, str | None]] = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.module:
            if node.module == "repro" or node.module.startswith("repro."):
                out.extend((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == "repro" or alias.name.startswith("repro."):
                    out.append((alias.name, None))
    return out


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids())
def test_documented_imports_resolve(path: Path) -> None:
    problems: list[str] = []
    for fence in python_fences(path):
        for module_name, name in imported_names(fence):
            try:
                module = importlib.import_module(module_name)
            except ImportError as exc:
                problems.append(f"import {module_name}: {exc}")
                continue
            if name is None or name == "*" or hasattr(module, name):
                continue
            # `from pkg import sub` also resolves submodules that the
            # package does not re-export as attributes.
            try:
                importlib.import_module(f"{module_name}.{name}")
            except ImportError:
                problems.append(f"from {module_name} import {name}")
    assert not problems, f"{path.name} documents names that do not exist: {problems}"


@pytest.mark.parametrize("path", DOC_FILES, ids=doc_ids())
def test_mentioned_subpackages_are_public(path: Path) -> None:
    """Any `repro.<sub>` the prose or code mentions must be in repro.__all__."""

    mentioned = set(SUBPACKAGE_RE.findall(path.read_text()))
    # Drop matches that are module paths below a subpackage (repro.net.stats
    # matches "net" via the first segment, which is what we want) and words
    # that are attribute access on the package in prose, e.g. repro.__all__.
    unknown = {
        name
        for name in mentioned
        if name not in repro.__all__ and not name.startswith("_")
    }
    assert not unknown, (
        f"{path.name} mentions repro.{unknown} but repro.__all__ is "
        f"{sorted(repro.__all__)}"
    )


def test_public_subpackages_all_import_and_declare_all() -> None:
    for name in repro.__all__:
        module = importlib.import_module(f"repro.{name}")
        assert hasattr(module, "__all__"), f"repro.{name} lacks __all__"


COMMAND_DOCS = [
    *DOC_FILES,
    REPO_ROOT / "EXPERIMENTS.md",
    REPO_ROOT / "DESIGN.md",
    REPO_ROOT / ".claude" / "skills" / "verify" / "SKILL.md",
]
ANY_FENCE_RE = re.compile(r"```[^\n]*\n(.*?)```", re.DOTALL)
# A code span opens and closes with backtick runs of one length (``a`b``).
INLINE_CODE_RE = re.compile(r"(?<!`)(`+)(?!`)(.+?)(?<!`)\1(?!`)", re.DOTALL)
# The tokens after `python -m repro`, up to a comment, pipe or closing backtick.
COMMAND_RE = re.compile(r"python3? -m repro((?:[ \t]+[^\s#|;`]+)*)")


def documented_commands(text: str) -> list[list[str]]:
    """The argv after ``python -m repro`` of every command *text* shows."""

    text = re.sub(r"\\\n\s*", " ", text)  # shell line continuations
    lines: list[str] = []

    def fenced(match: re.Match) -> str:
        lines.extend(match.group(1).splitlines())
        return ""

    text = ANY_FENCE_RE.sub(fenced, text)
    # Inline code may wrap across lines of prose.
    text = INLINE_CODE_RE.sub(lambda m: "`" + " ".join(m.group(2).split()) + "`", text)
    lines.extend(text.splitlines())
    return [m.group(1).split() for line in lines for m in COMMAND_RE.finditer(line)]


def command_problems(argv: list[str]) -> list[str]:
    words = []
    for token in argv:
        if token.startswith("-"):
            break
        words.append(token)
    if not words:
        words, argv = ["sweep"], ["sweep", "--figure", "all", *argv]  # the report
    if not any(words[: len(name.split())] == name.split() for name in COMMANDS):
        return [f"no sub-command {' '.join(words)!r}"]
    if words[0] != "sweep":
        return []
    stderr = io.StringIO()
    try:
        with contextlib.redirect_stderr(stderr):
            args = _build_parser().parse_args(argv[1:])
    except SystemExit:
        return [stderr.getvalue().strip().splitlines()[-1]]
    if not args.figure:
        return []
    return [
        f"{figure} has no config field {key!r}"
        for figure in (REPORT if args.figure == "all" else [args.figure])
        for key in (axis.partition("=")[0] for axis in args.axes)
        if key not in {spec.name for spec in fields(get_figure(figure).config)}
    ]


@pytest.mark.parametrize(
    "path", COMMAND_DOCS, ids=[str(p.relative_to(REPO_ROOT)) for p in COMMAND_DOCS]
)
def test_documented_commands_exist(path: Path) -> None:
    text = path.read_text()
    problems = [
        f"python -m repro {' '.join(argv)}: {problem}"
        for argv in documented_commands(text)
        for problem in command_problems(argv)
    ]
    if "repro.experiments.report" in text:
        problems.append("names the retired repro.experiments.report")
    assert not problems, f"{path.name} documents commands that do not exist: {problems}"
