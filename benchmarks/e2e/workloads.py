"""The benchmark's workloads: names, sizes at each scale, and why each exists.

Pure data, importable without ``repro`` on the path.  ``bench`` is the scale
``BENCHMARK.json`` measures; ``smoke`` (N <= 60) exists so the smoke test can
push every workload through every code path of the benchmark in seconds.
``BENCHMARK.json`` lists four of the six (README, "Sizes, and what was cut").

In every workload the *environment* (topology and overlays, always built from
seed 0) is part of the workload's definition and ``--seed`` generates the
load run on it: transaction origins, arrival times, trial indices (the
``sweep-fig8-j1`` grid alone is the same for every seed).  Annealing time alone moves by a quarter between environment seeds,
which would drown any change this benchmark is meant to resolve.
"""

from __future__ import annotations

import random

__all__ = ["WORKLOADS", "SCALES", "SWEEPS", "PROTOCOL_LAYERS", "sweep_argv", "sweep_cells"]

# Layer (= module) name of each protocol system.
PROTOCOL_LAYERS = {
    "hermes": "core.protocol",
    "lzero": "baselines.lzero",
    "narwhal": "baselines.narwhal",
    "mercury": "baselines.mercury",
}

WORKLOADS: dict[str, str] = {
    "fig3a-n120-cold": (
        "One Fig. 3a cell on a cold process, as every sweep worker pays it: "
        "annealed N=120 overlay build is ~90% of wall, the four event loops under a tenth."
    ),
    "fig3a-paper-n1100": (
        "Scaled twin of the N=10,000 headline run on the paper-scale profile: "
        "no annealing; Mercury construction and the four protocols' handlers split the time."
    ),
    "flood-n2000-t80": (
        "L0 flood of 80 txs over N=2,000: event loop, latency sampling and NxT "
        "per-node state do ~90% of the work, set-up ~6%; annealing is bypassed."
    ),
    "load-hermes-n200": (
        "Open-loop arrivals into HERMES under finite link capacity: relay/TRS "
        "handlers, capacity queues, mempool and the load driver, which a t=0 burst never touches."
    ),
    "sweep-fig5a-j2": (
        "The real sweep CLI, pooled at --jobs 2, over a Fig. 5a trial grid: pool "
        "spawn, per-worker environment build, serialize/store-write round trips."
    ),
    "sweep-fig8-j1": (
        "The sweep CLI on the serial path over a Fig. 8 grid (1e6 clients, fee "
        "market, bounded mempools, streaming stats): bypasses the pool entirely."
    ),
}

SWEEPS = ("sweep-fig5a-j2", "sweep-fig8-j1")

SCALES: dict[str, dict[str, dict]] = {
    "bench": {
        "fig3a-n120-cold": dict(nodes=120, paper_scale=False, txs=10, horizon_ms=8_000.0,
                                narwhal_validators=None),
        "fig3a-paper-n1100": dict(nodes=1100, paper_scale=True, txs=10, horizon_ms=8_000.0,
                                  narwhal_validators=40),
        "flood-n2000-t80": dict(nodes=2000, txs=80, interval_ms=25.0, drain_ms=2_000.0),
        "load-hermes-n200": dict(nodes=200, injections=40, duration_ms=2_000.0,
                                 drain_ms=2_000.0),
        "sweep-fig5a-j2": dict(jobs=2, nodes=100, fractions=(0.10, 0.20, 0.33),
                               trials=12, trial_pool=40),
        "sweep-fig8-j1": dict(jobs=1, nodes=24, rates=(2.0, 8.0, 24.0),
                              duration_ms=32_000.0, drain_ms=4_000.0, clients=1_000_000),
    },
    "smoke": {
        "fig3a-n120-cold": dict(nodes=40, paper_scale=False, txs=3, horizon_ms=6_000.0,
                                narwhal_validators=None),
        "fig3a-paper-n1100": dict(nodes=60, paper_scale=True, txs=3, horizon_ms=6_000.0,
                                  narwhal_validators=8),
        "flood-n2000-t80": dict(nodes=60, txs=12, interval_ms=25.0, drain_ms=1_200.0),
        "load-hermes-n200": dict(nodes=40, injections=10, duration_ms=1_000.0,
                                 drain_ms=1_500.0),
        "sweep-fig5a-j2": dict(jobs=2, nodes=30, fractions=(0.20,), trials=2, trial_pool=4),
        "sweep-fig8-j1": dict(jobs=1, nodes=16, rates=(4.0,), duration_ms=2_000.0,
                              drain_ms=1_000.0, clients=10_000),
    },
}

_FIG5A_PROTOCOLS = ("hermes", "lzero", "narwhal", "mercury")
_FIG8_PROTOCOLS = _FIG5A_PROTOCOLS + ("ingest",)


def _axes(name: str, params: dict, seed: int) -> tuple[str, dict[str, list]]:
    """The (task, grid axes) the sweep CLI is given for *name* at *seed*."""

    if name == "sweep-fig5a-j2":
        # The seed draws which of the figure's trial indices (victim/proposer
        # pairs and per-trial fault seeds) are run, on the fixed environment.
        trials = sorted(random.Random(seed).sample(range(params["trial_pool"]), params["trials"]))
        return "fig5a.trial", {
            "protocol": list(_FIG5A_PROTOCOLS),
            "fraction": list(params["fractions"]),
            "trial": trials,
            "trials": [params["trial_pool"]],
            "num_nodes": [params["nodes"]],
            "seed": [0],
        }
    if name == "sweep-fig8-j1":
        # This grid does not depend on the benchmark seed.  The population's
        # churn makes the submitted-transaction count swing by +-40% between
        # population seeds at this duration, and even reordering the cells
        # moves the serial process's peak RSS by 6%: either would cost the
        # 5% memory bound its meaning.
        return "fig8.point", {
            "protocol": list(_FIG8_PROTOCOLS),
            "rate_tps": list(params["rates"]),
            "num_nodes": [params["nodes"]],
            "duration_ms": [params["duration_ms"]],
            "drain_ms": [params["drain_ms"]],
            "num_clients": [params["clients"]],
            "seed": [0],
        }
    raise KeyError(name)


def sweep_cells(name: str, params: dict, seed: int) -> int:
    cells = 1
    for values in _axes(name, params, seed)[1].values():
        cells *= len(values)
    return cells


def sweep_argv(name: str, params: dict, seed: int, jobs: int | None = None) -> list[str]:
    """Arguments after ``python -m repro sweep`` (without --results-dir)."""

    task, axes = _axes(name, params, seed)
    argv = ["--task", task, "--jobs", str(params["jobs"] if jobs is None else jobs)]
    for key, values in axes.items():
        argv += ["--set", f"{key}={','.join(str(v) for v in values)}"]
    return argv
