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
above.  Every package ``__init__`` re-exports through :func:`lazy_exports`
(PEP 562): a subpackage, or a name a subpackage re-exports, is imported when
it is first read, so ``import repro`` stays cheap and importing one submodule
runs only that submodule's own imports.  The docs link-checker
(``tests/unit/test_docs_links.py``) verifies every name the documentation
mentions against this list and each subpackage's own ``__all__``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Iterable, Mapping

__version__ = "1.0.0"


def lazy_exports(
    package: str,
    exports: Mapping[str, Iterable[str]] | None = None,
    submodules: Iterable[str] = (),
) -> tuple[list[str], Callable[[str], object], Callable[[], list[str]]]:
    """``(__all__, __getattr__, __dir__)`` for the package ``__init__`` *package*.

    *exports* maps each submodule to the names the package re-exports from
    it; each of *submodules* is re-exported as itself.  Nothing is imported
    until a name is first read; then its submodule is, and the value is kept
    in the package's namespace.  A name that is also one of the submodules
    (``compare`` from ``compare``) is bound at once: the import system would
    otherwise bind the submodule over it the first time anything imports it.
    """

    exports = exports or {}
    where: dict[str, str | None] = {
        name: module for module, names in exports.items() for name in names
    }
    where.update(dict.fromkeys(submodules))
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in where:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = where[name]
        value = importlib.import_module(f"{package}.{module or name}")
        if module is not None:
            value = getattr(value, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | where.keys())

    for name in where.keys() & exports.keys():
        __getattr__(name)
    return list(where), __getattr__, __dir__


__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    submodules=(
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
    ),
)
