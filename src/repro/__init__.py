"""HERMES: fair and resilient transaction dissemination (DSN 2025 reproduction).

Top-level convenience re-exports. The subpackages are:

- :mod:`repro.crypto` — signatures, threshold signatures, hashing (from scratch)
- :mod:`repro.net` — deterministic discrete-event P2P simulation framework
- :mod:`repro.overlay` — robust trees, annealing optimization, comparison overlays
- :mod:`repro.rbc` — Bracha reliable broadcast
- :mod:`repro.trs` — Threshold Random Seed committee protocol
- :mod:`repro.core` — the HERMES dissemination protocol
- :mod:`repro.mempool` — transactions, mempools, block ordering
- :mod:`repro.baselines` — L-zero, Narwhal, Mercury, gossip, simple tree
- :mod:`repro.attacks` — the Fig. 5a front-running driver
- :mod:`repro.adversary` — strategy zoo: attacker agents, economics, fairness
- :mod:`repro.chaos` — fault-injection campaigns with online invariant checking
- :mod:`repro.load` — open-loop workload generation and link capacity modeling
- :mod:`repro.population` — million-client workloads: fee market, admission control
- :mod:`repro.obs` — structured observability: tracing, metrics, profiling
- :mod:`repro.runner` — parallel sweep engine with a content-addressed result cache
- :mod:`repro.sharding` — sharded multi-proposer dissemination: per-shard TRS committees
- :mod:`repro.experiments` — one module per paper table/figure

``repro.__all__`` is the documented public surface: exactly the subpackages
above.  Subpackages import lazily (``repro.obs`` etc. materialize on first
attribute access), so ``import repro`` stays cheap; the docs link-checker
(``tests/unit/test_docs_links.py``) verifies every name the documentation
mentions against this list and each subpackage's own ``__all__``.
"""

import importlib

__version__ = "1.0.0"

_SUBPACKAGES = (
    "adversary",
    "attacks",
    "baselines",
    "chaos",
    "core",
    "crypto",
    "experiments",
    "load",
    "mempool",
    "net",
    "obs",
    "overlay",
    "population",
    "rbc",
    "runner",
    "sharding",
    "trs",
    "utils",
)

__all__ = list(_SUBPACKAGES)


def __getattr__(name: str):
    if name in _SUBPACKAGES:
        return importlib.import_module(f".{name}", __name__)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_SUBPACKAGES))
