"""Import hygiene: what a process pays for must be what its run uses.

networkx costs every interpreter that imports it ~14 MB and 0.1–0.2 s.  The
CLI parent, each sweep worker and each benchmark child used to pay that for a
graph container; only physical disjoint-path routing, the Fig. 2 comparison
graphs and tests actually need the library.  These checks run in a fresh
interpreter so this test process's own imports cannot mask a regression.
"""

import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"


def run_fresh(body: str) -> str:
    script = "import sys\nsys.path.insert(0, {!r})\n".format(str(SRC)) + textwrap.dedent(body)
    done = subprocess.run(
        [sys.executable, "-c", script], capture_output=True, text=True, timeout=120
    )
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_cli_import_and_smoke_cells_never_load_networkx():
    """Nor ``numpy.random``: block sampling reads its words from the wrapped
    ``random.Random`` (6 MB a process saved)."""

    out = run_fresh(
        """
        import repro.runner.cli
        assert "networkx" not in sys.modules, "import repro.runner.cli"

        from repro.runner import get_task
        trial = get_task("fig5a.trial")({
            "protocol": "hermes", "fraction": 0.2, "trial": 0, "trials": 4,
            "num_nodes": 30, "seed": 0,
        })
        assert "networkx" not in sys.modules, "fig5a.trial"
        assert "numpy.random" not in sys.modules, "fig5a.trial"
        point = get_task("fig8.point")({
            "protocol": "lzero", "rate_tps": 4.0, "num_nodes": 16,
            "duration_ms": 2000.0, "drain_ms": 1000.0, "num_clients": 10000,
            "seed": 0,
        })
        assert "networkx" not in sys.modules, "fig8.point"
        assert "numpy.random" not in sys.modules, "fig8.point"

        from repro.baselines import LZeroSystem
        from repro.mempool.transaction import Transaction
        from repro.net.topology import generate_physical_network
        with LZeroSystem(generate_physical_network(60, seed=0), seed=13) as flood:
            flood.start()
            for origin in (0, 7, 31):
                flood.submit(origin, Transaction.create(origin=origin, created_at=0.0))
            flood.run(until_ms=1_500.0)
            delivered = sum(len(nodes) for nodes in flood.stats.deliveries.values())
        assert "numpy" in sys.modules, "the flood's jitter is drawn in blocks"
        assert "numpy.random" not in sys.modules, "L-zero flood"
        print("ran", sorted(trial)[:1], sorted(point)[:1], delivered)
        """
    )
    assert out.startswith("ran") and out.split()[-1] == "180"


def test_listing_figures_and_tasks_imports_no_figure_module():
    out = run_fresh(
        """
        import contextlib, io, re
        from repro.runner.cli import main
        with contextlib.redirect_stdout(io.StringIO()):
            assert main(["--list-figures"]) == 0
            assert main(["--list-tasks"]) == 0
        print(sorted(m for m in sys.modules if re.match(r"repro\\.experiments\\.fig", m)))
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
    assert int(count) <= 33  # 32 before the figure registry; the CLI stays light
    assert figures == "['repro.experiments.fig8_sustained']"


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
