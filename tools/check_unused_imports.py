"""Report imports that a module never uses — stdlib only, no ruff needed.

    python tools/check_unused_imports.py [paths ...]   # default: src/repro

A name counts as used if the module reads it (``name`` or ``name.attr``),
lists it in ``__all__``, or mentions it in a string annotation.  Package
``__init__`` files only re-export, so they are skipped, as are
``from __future__`` imports and lines marked ``# noqa`` (an import kept for
its side effect).  Exits 1 and prints ``path:line: name`` for each finding.
"""

from __future__ import annotations

import ast
import sys
from pathlib import Path


def _annotation_names(node: ast.AST) -> set[str]:
    """Names read inside a string annotation such as ``"nx.Graph | None"``."""

    names: set[str] = set()
    for sub in ast.walk(node):
        if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
            try:
                parsed = ast.parse(sub.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(parsed) if isinstance(n, ast.Name)}
    return names


def unused_imports(source: str) -> list[tuple[int, str]]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if "# noqa" in lines[node.lineno - 1]:
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)) and node.annotation:
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and node.returns:
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= {
                e.value for e in ast.walk(node.value) if isinstance(e, ast.Constant)
            }
    return sorted((line, name) for name, line in imported.items() if name not in used)


def main(argv: list[str]) -> int:
    roots = [Path(p) for p in argv] or [Path("src/repro")]
    findings = 0
    for root in roots:
        for path in sorted(root.rglob("*.py") if root.is_dir() else [root]):
            if path.name == "__init__.py":
                continue
            for line, name in unused_imports(path.read_text(encoding="utf-8")):
                print(f"{path}:{line}: {name}")
                findings += 1
    return 1 if findings else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
