"""Open-loop workload generation and link/node capacity modeling.

The experiments in :mod:`repro.experiments` measure protocols under light,
hand-scheduled workloads on links of infinite capacity.  This package adds
the two ingredients of a saturation study:

* :mod:`repro.load.arrival` — seeded, replayable arrival processes
  (deterministic, Poisson, MMPP bursty, flash-crowd) with Zipf-skewed
  origin selection: *when* transactions arrive and *from where*;
* :mod:`repro.load.capacity` — per-node uplink/downlink rates and bounded
  egress queues, installed on a :class:`~repro.net.node.Network` via the
  opt-in ``network.capacity`` hook: *what the wire can carry*;
* :mod:`repro.load.driver` — the open-loop :class:`LoadDriver` that injects
  a schedule into a protocol system, samples mempool occupancy and queue
  depth through :mod:`repro.obs` gauges, and reports offered load, goodput
  and latency percentiles as one :class:`LoadResult`.

The capacity hook defaults to ``None``: every experiment that does not
install a model runs byte-identically to before this package existed.  The
saturation experiment itself lives in
:mod:`repro.experiments.fig6_saturation` and on the command line as
``python -m repro sweep --figure fig6``.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "arrival": (
            "ARRIVAL_PATTERNS",
            "ArrivalProcess",
            "DeterministicArrivals",
            "FlashCrowdArrivals",
            "Injection",
            "MMPPArrivals",
            "PoissonArrivals",
            "flash_crowd_times",
            "make_arrivals",
        ),
        "capacity": ("CapacityConfig", "CapacityModel", "EgressVerdict"),
        "driver": ("LoadDriver", "LoadResult"),
    },
)
