"""Reachability census: every module in ``src/repro`` serves a command,
a task or a figure.

A stdlib-``ast`` import graph of the package, walked from the roots a user
can reach — the ``python -m repro`` sub-commands, the modules registering
runner tasks and the registered figures (the report's too).  Function-level
(lazy) imports count.  A package ``__init__`` is not followed as a whole:
``from pkg import name`` leads to the submodule its ``lazy_exports`` table
names for ``name`` (the ``__init__`` only where it defines ``name`` itself),
so a re-export alone keeps nothing alive.  No module may be unreachable:
one that loses its last caller fails here instead of lingering.
"""

from __future__ import annotations

import ast
from pathlib import Path

from repro.__main__ import COMMANDS
from repro.runner.tasks import FIGURES

SRC = Path(__file__).resolve().parents[2] / "src"


def _modules() -> dict[str, tuple[ast.Module, bool]]:
    """Dotted name → (parsed source, is a package ``__init__``)."""

    out = {}
    for path in (SRC / "repro").rglob("*.py"):
        parts = path.relative_to(SRC).with_suffix("").parts
        package = parts[-1] == "__init__"
        out[".".join(parts[:-1] if package else parts)] = (
            ast.parse(path.read_text()),
            package,
        )
    return out


MODULES = _modules()


def _export_table(tree: ast.Module) -> dict[str, str]:
    """Name → submodule, read from a package ``__init__``'s ``lazy_exports`` call."""

    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Name)
            and node.func.id == "lazy_exports"
            and len(node.args) > 1
        ):
            exports = ast.literal_eval(node.args[1])
            return {name: module for module, names in exports.items() for name in names}
    return {}


EXPORTS = {name: _export_table(tree) for name, (tree, package) in MODULES.items() if package}


def _base(module: str, node: ast.ImportFrom) -> str:
    """The absolute module a ``from … import`` in *module* reads from."""

    if node.level == 0:
        return node.module or ""
    package = module.split(".")
    if not MODULES[module][1]:
        package = package[:-1]
    package = package[: len(package) - node.level + 1]
    return ".".join(package + ([node.module] if node.module else []))


def _defining_module(base: str, name: str) -> str:
    """Where ``from base import name`` really leads: the submodule, the module
    a package ``__init__`` re-exports *name* from, or *base* itself."""

    if f"{base}.{name}" in MODULES:
        return f"{base}.{name}"
    if name in EXPORTS.get(base, {}):
        return f"{base}.{EXPORTS[base][name]}"
    return base


def _imports(module: str) -> set[str]:
    found = set()
    for node in ast.walk(MODULES[module][0]):
        if isinstance(node, ast.Import):
            found.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = _base(module, node)
            found.update(_defining_module(base, alias.name) for alias in node.names)
    return found & MODULES.keys()


def _registers_tasks(tree: ast.Module) -> bool:
    return any(
        isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name)
        and node.func.id == "register_task"
        for node in ast.walk(tree)
    )


def roots() -> set[str]:
    found = {"repro." + target.partition(":")[0] for target in COMMANDS.values()}
    found |= {"repro.experiments." + entry.module for entry in FIGURES.values()}
    found |= {name for name, (tree, _) in MODULES.items() if _registers_tasks(tree)}
    return found


def unreachable() -> set[str]:
    reached: set[str] = set()
    stack = list(roots())
    while stack:
        module = stack.pop()
        if module not in reached:
            reached.add(module)
            stack.extend(_imports(module) - reached)
    return {
        name
        for name, (_, package) in MODULES.items()
        if not package and name not in reached and name != "repro.__main__"
    }


def test_no_module_is_orphaned():
    assert unreachable() == set()
