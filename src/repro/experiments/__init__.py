"""Experiment harnesses reproducing every table and figure of the paper.

Each module declares one :class:`~.figure.Figure` (``FIGURE``), a grid of
independent cells computed by ``FIGURE.run(config)`` through the sweep
runner — serially or across workers, resumable — and prints the same
rows/series the paper reports, side by side with the paper's published
numbers (``format_result``).  ``python -m repro`` runs the paper's seven in
order (``sweep --figure all``):

* :mod:`table1`  — qualitative comparison of dissemination approaches;
* :mod:`fig2_overlays` — overlay-structure latency / load comparison;
* :mod:`fig3a_latency` — protocol latency (avg + 5th–95th percentile);
* :mod:`fig3b_bandwidth` — per-node bandwidth overhead;
* :mod:`fig4_roles` — role (rank) distribution across the overlay family;
* :mod:`fig5a_frontrunning` — front-running success vs malicious fraction;
* :mod:`fig5b_robustness` — delivery probability vs malicious fraction;

and the extensions:

* :mod:`fig6_saturation` — goodput/latency vs offered load;
* :mod:`fig7_adversary` — strategy zoo: success, extracted value, fairness;
* :mod:`fig8_sustained` — sustained million-client load with a fee market;
* :mod:`fig9_sharding` — sharded goodput scaling and cross-shard fairness;
* :mod:`chaos_campaign` — fault-injection campaigns, invariants checked online;
* :mod:`shard_drill` — one shard's committee islanded, the others stay live.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "harness": ("ExperimentEnvironment", "build_environment", "protocol_factories"),
    },
)
