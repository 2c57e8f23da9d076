"""Million-client workload modeling: who sends, what they bid, what survives.

The load layer (:mod:`repro.load`) injects open-loop arrival schedules; this
package puts *people* behind those arrivals and an *economy* around them:

* :class:`ClientPopulation` — millions of clients in O(active-sessions)
  memory, Zipf-skewed activity, session churn, deterministic replay from
  ``(seed, params)``;
* :class:`FeeMarket` — per-transaction priority bids from wealth tiers over
  an EIP-1559-style dynamic base fee responding to mempool pressure;
* :class:`PopulationDriver` — sustained-load runs of any protocol system
  with streaming (constant-memory) telemetry and bounded mempools;
* :func:`run_ingest` — the simulator-free arrival/admission/service pipeline
  used for 10⁶-transaction memory benchmarks and the Fig. 8 ``ingest``
  reference curve.

Streaming sketches live in :mod:`repro.net.sketch`; mempool admission
control in :class:`repro.mempool.MempoolPolicy`.  The Fig. 8 sweep runs as
``python -m repro sweep --figure fig8``; see ``docs/population.md``.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "clients": ("ClientPopulation", "PopulationConfig", "Submission", "WealthTier"),
        "driver": ("PopulationDriver", "PopulationResult"),
        "fees": ("FeeMarket", "FeeMarketConfig"),
        "pipeline": ("run_ingest",),
    },
)
