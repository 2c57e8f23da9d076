"""Experiment harnesses reproducing every table and figure of the paper.

Each module prints the same rows/series the paper reports, side by side with
the paper's published numbers (``format_result``).  Table I and Figs. 2 and
4 are single measurements, ``run(config) -> result``:

* :mod:`table1`  — qualitative comparison of dissemination approaches;
* :mod:`fig2_overlays` — overlay-structure latency / load comparison;
* :mod:`fig4_roles` — role (rank) distribution across the overlay family.

The sweep-shaped figures each declare one :class:`~.figure.Figure`
(``FIGURE``), a grid of independent cells computed by ``FIGURE.run(config)``
through the sweep runner — serially or across workers, resumable:

* :mod:`fig3a_latency` — protocol latency (avg + 5th–95th percentile);
* :mod:`fig3b_bandwidth` — per-node bandwidth overhead;
* :mod:`fig5a_frontrunning` — front-running success vs malicious fraction;
* :mod:`fig5b_robustness` — delivery probability vs malicious fraction;
* :mod:`fig6_saturation` — goodput/latency vs offered load;
* :mod:`fig7_adversary` — strategy zoo: success, extracted value, fairness;
* :mod:`fig8_sustained` — sustained million-client load with a fee market;
* :mod:`fig9_sharding` — sharded goodput scaling and cross-shard fairness.
"""

from .harness import ExperimentEnvironment, build_environment, protocol_factories

__all__ = ["ExperimentEnvironment", "build_environment", "protocol_factories"]
