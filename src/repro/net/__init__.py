"""A deterministic discrete-event P2P simulation framework.

This is the "single, common P2P simulation framework" the paper evaluates all
protocols on: a heap-based event scheduler (:class:`~repro.net.simulator.Simulator`),
a region-aware latency model with the paper's published distribution fits
(:mod:`repro.net.latency`), physical topology generation (:mod:`repro.net.topology`),
lossy links (:mod:`repro.net.channel`), per-node bandwidth/latency accounting
(:mod:`repro.net.stats`) and the protocol-node API every dissemination protocol
in this repository implements (:mod:`repro.net.node`).
"""

from .channel import LossModel
from .events import Message
from .faults import Behavior, FaultPlan
from .latency import LatencyModel, LatencyParameters
from .node import Deployment, Network, ProtocolNode
from .simulator import Simulator
from .stats import NetworkStats, percentile
from .topology import PhysicalNetwork, generate_physical_network

__all__ = [
    "Behavior",
    "Deployment",
    "FaultPlan",
    "LatencyModel",
    "LatencyParameters",
    "LossModel",
    "Message",
    "Network",
    "NetworkStats",
    "PhysicalNetwork",
    "ProtocolNode",
    "Simulator",
    "generate_physical_network",
    "percentile",
]
