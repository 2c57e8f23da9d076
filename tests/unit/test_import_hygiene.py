"""Import hygiene: what a process pays for must be what its run uses.

networkx costs every interpreter that imports it ~14 MB and 0.1–0.2 s.  The
CLI parent, each sweep worker and each benchmark child used to pay that for a
graph container; only physical disjoint-path routing, the Fig. 2 comparison
graphs and tests actually need the library.  numpy cost ~12 MB and ~0.1 s on
the first jitter block; the simulator now imports it nowhere.  OpenSSL's
``_hashlib`` cost ~3.5 MB and ~4 ms for SHA-256 alone; ``repro.utils.digest``
takes the interpreter's built-in hashes instead.  Run manifests
(``repro.obs.manifest``: ``platform``, ``subprocess``, ``pathlib``) load only
where a manifest is written.

Our own package graph is held to the same rule: every package ``__init__``
re-exports lazily, so an entry point loads the ``repro`` modules it runs and
no others.  Eager re-exports made the sweep CLI load 32 modules (6,342 source
lines) and the flood benchmark's child 46 (7,363), compiled from source in
every fresh interpreter.  These checks run in a fresh interpreter so this
test process's own imports cannot mask a regression.
"""

import json
import multiprocessing
import os
import re
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[2] / "src"
TOOLS = SRC.parent / "tools"

#: ``repro`` modules each entry point of ``tools/hot_path_counters.py
#: --imports`` may load, and the source lines they may hold.  The module
#: counts are the achieved ones; lines move with every edit of those
#: modules, so they keep ~5 % of room.  Eager package re-exports read 32 /
#: 6,342, 46 / 7,363, 71 / 11,409, 91 / 15,630 and 91 / 15,884.
IMPORT_BOUNDS = {
    "cli": (5, 820),
    "flood": (24, 3_550),
    "fig3a": (50, 8_950),
    "cli + fig5a.trial": (63, 10_750),
    "cli + fig8.point": (66, 12_400),
}


def run_fresh(body: str) -> str:
    script = "import sys\nsys.path.insert(0, {!r})\n".format(str(SRC)) + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_and_smoke_cells_never_load_networkx():
    """The CLI, two sweep cells, the L∅ flood (its jitter is drawn in blocks)
    and a paper-scale Fig. 3a cell run on the standard library alone."""

    out = run_fresh(
        """
        def check(where):
            assert "networkx" not in sys.modules, where
            assert "numpy" not in sys.modules, where
            assert "_hashlib" not in sys.modules, where
            assert "repro.obs.manifest" not in sys.modules, where

        import repro.runner.cli
        check("import repro.runner.cli")

        from repro.runner import get_task
        trial = get_task("fig5a.trial")({
            "protocol": "hermes", "fraction": 0.2, "trial": 0, "trials": 4,
            "num_nodes": 30, "seed": 0,
        })
        check("fig5a.trial")
        point = get_task("fig8.point")({
            "protocol": "lzero", "rate_tps": 4.0, "num_nodes": 16,
            "duration_ms": 2000.0, "drain_ms": 1000.0, "num_clients": 10000,
            "seed": 0,
        })
        check("fig8.point")

        from repro.baselines import LZeroSystem
        from repro.mempool.transaction import Transaction
        from repro.net.topology import generate_physical_network
        with LZeroSystem(generate_physical_network(60, seed=0), seed=13) as flood:
            flood.start()
            for origin in (0, 7, 31):
                flood.submit(origin, Transaction.create(origin=origin, created_at=0.0))
            flood.run(until_ms=1_500.0)
            delivered = sum(len(nodes) for nodes in flood.stats.deliveries.values())
        check("L-zero flood")

        from repro.baselines.narwhal import NarwhalConfig
        from repro.experiments.harness import (
            PROTOCOL_NAMES, build_environment, protocol_factories,
        )
        env = build_environment(num_nodes=60, f=1, k=10, seed=0, paper_scale=True)
        factories = protocol_factories(
            env, narwhal_config=NarwhalConfig(num_validators=8)
        )
        for name in PROTOCOL_NAMES:
            with factories[name]() as system:
                system.start()
                system.submit(5, Transaction.create(origin=5, created_at=0.0))
                system.run(until_ms=3_000.0)
        check("paper-scale Fig. 3a cell")
        print("ran", sorted(trial)[:1], sorted(point)[:1], delivered)
        """
    )
    assert out.startswith("ran") and out.split()[-1] == "180"


def test_pooled_sweep_workers_never_load_openssl():
    """Workers inherit the import-time flag (a forked one with the parent's
    memory, a spawned one through ``PYTHONPROFILEIMPORTTIME``), so the stderr
    of a pooled sweep names every module any of its processes imported.

    Where workers fork, the parent imports every ``repro`` module the cells
    of all four protocols run, each exactly once, before the first fork: a
    module a worker imports itself is paid again in every worker, and an
    eager package ``__init__`` shows up as a second line for its modules."""

    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONPROFILEIMPORTTIME="1")
    done = subprocess.run(
        [sys.executable, "-m", "repro", "sweep", "--task", "fig5a.trial",
         "--set", "protocol=hermes,lzero,narwhal,mercury", "--set", "fraction=0.2",
         "--set", "trial=0,1", "--set", "trials=2", "--set", "num_nodes=30",
         "--jobs", "2"],
        capture_output=True, text=True, timeout=300, env=env,
    )
    assert done.returncode == 0, done.stderr
    assert "8 runs: 8 executed" in done.stdout
    imported = re.findall(r"^import time:.*\|\s*(\S+)$", done.stderr, re.MULTILINE)
    ours = [name for name in imported if name == "repro" or name.startswith("repro.")]
    if "fork" in multiprocessing.get_all_start_methods():
        twice = sorted({name for name in ours if ours.count(name) > 1})
        assert twice == [], f"imported more than once: {twice}"
        forked = imported.index("multiprocessing.popen_fork")
        assert set(imported[forked:]).isdisjoint(ours), "a worker imported repro itself"
    else:
        assert ours.count("repro.core.protocol") == 2  # the two workers
    assert "_hashlib" not in imported


def test_listing_figures_and_tasks_imports_no_figure_module():
    out = run_fresh(
        """
        import contextlib, io, re
        from repro.runner.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--list-figures"]) == 0
            assert main(["--list-tasks"]) == 0
        print(sorted(m for m in sys.modules if re.match(r"repro\\.experiments\\.", m)))
        """
    )
    assert out.strip() == "[]"


def test_a_figure_task_loads_its_own_figure_and_no_other():
    out = run_fresh(
        """
        import re
        import repro.runner.cli
        print(sum(1 for m in sys.modules if m == "repro" or m.startswith("repro.")))
        from repro.runner import get_task
        get_task("fig8.point")
        print(sorted(m for m in sys.modules if re.match(r"repro\\.experiments\\.fig\\d", m)))
        """
    )
    count, figures = out.splitlines()
    assert int(count) <= IMPORT_BOUNDS["cli"][0]  # 32 with eager package exports
    assert figures == "['repro.experiments.fig8_sustained']"


@pytest.fixture(scope="module")
def import_census():
    done = subprocess.run(
        [sys.executable, str(TOOLS / "hot_path_counters.py"), "--imports", "--json"],
        capture_output=True, text=True, timeout=300,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


@pytest.mark.parametrize("entry", sorted(IMPORT_BOUNDS))
def test_an_entry_point_loads_only_what_it_runs(import_census, entry):
    modules, lines = IMPORT_BOUNDS[entry]
    assert import_census[entry]["modules"] <= modules
    assert import_census[entry]["lines"] <= lines


def test_every_package_export_resolves_to_what_it_names():
    """Each name in a package's ``__all__`` resolves lazily to the object its
    submodule defines, even after every submodule has been imported on its
    own (the import system then binds submodules on the package), and
    ``dir()`` lists it."""

    out = run_fresh(
        """
        import importlib, pkgutil, types
        import repro

        packages = [repro] + [getattr(repro, name) for name in repro.__all__]
        packages.append(importlib.import_module("repro.obs.analysis"))
        for package in packages:
            for info in pkgutil.iter_modules(package.__path__):
                importlib.import_module(f"{package.__name__}.{info.name}")
            for name in package.__all__:
                value = getattr(package, name)
                shadowed = isinstance(value, types.ModuleType) and package is not repro
                assert not shadowed, f"{package.__name__}.{name} is a module"
                assert name in dir(package), (package.__name__, name)
        print(sum(len(package.__all__) for package in packages))
        """
    )
    assert int(out) > 300


def test_the_real_customers_still_get_it_on_demand():
    out = run_fresh(
        """
        from repro.net.topology import generate_physical_network
        from repro.overlay import find_disjoint_paths

        physical = generate_physical_network(40, seed=7)  # exact validation
        assert "networkx" not in sys.modules
        paths = find_disjoint_paths(physical.graph, 0, [20, 21], 2)
        assert "networkx" in sys.modules
        print(len(paths))
        """
    )
    assert out.strip() == "2"


def test_no_unused_imports_in_src():
    tool = SRC.parent / "tools" / "check_unused_imports.py"
    done = subprocess.run(
        [sys.executable, str(tool), str(SRC / "repro")],
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert done.returncode == 0, done.stdout
