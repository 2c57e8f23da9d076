"""A deterministic discrete-event P2P simulation framework.

This is the "single, common P2P simulation framework" the paper evaluates all
protocols on: a heap-based event scheduler (:class:`~repro.net.simulator.Simulator`),
a region-aware latency model with the paper's published distribution fits
(:mod:`repro.net.latency`), physical topology generation (:mod:`repro.net.topology`),
lossy links (:mod:`repro.net.channel`), per-node bandwidth/latency accounting
(:mod:`repro.net.stats`) and the protocol-node API every dissemination protocol
in this repository implements (:mod:`repro.net.node`).
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "channel": ("LossModel",),
        "events": ("Message",),
        "faults": ("Behavior", "FaultPlan"),
        "latency": ("LatencyModel", "LatencyParameters"),
        "node": ("Deployment", "Network", "ProtocolNode"),
        "simulator": ("Simulator",),
        "stats": ("NetworkStats", "percentile"),
        "topology": ("PhysicalNetwork", "generate_physical_network"),
    },
)
