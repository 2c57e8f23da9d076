"""Baseline dissemination protocols, all on the common simulation framework.

* :mod:`gossip` — plain push gossip (Table I's "Gossip" column);
* :mod:`simple_tree` — a single fixed tree overlay (Table I's "Simple Tree");
* :mod:`lzero` — L∅ (Nasrulin et al., Middleware'23): accountable low-fanout
  gossip with commitments and periodic mempool reconciliation;
* :mod:`narwhal` — Narwhal (Danezis et al., EuroSys'22): batch broadcast with
  2f+1 availability certificates;
* :mod:`mercury` — Mercury (Zhou et al., INFOCOM'23): virtual-coordinate
  clustering with early outburst;
* :mod:`f3b` — F3B-style commit-then-reveal dissemination: content stays
  hidden until each transaction's mempool position is locked (defense
  baseline for the :mod:`repro.adversary` strategy zoo).

Every system exposes the same driving surface as
:class:`repro.core.HermesSystem` (``start`` / ``submit`` / ``run`` / ``stats``)
so the experiment harness treats all five protocols uniformly.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "base": ("BaseSystem",),
        "f3b": ("F3BConfig", "F3BNode", "F3BSystem"),
        "gossip": ("GossipConfig", "GossipNode", "GossipSystem"),
        "lzero": ("LZeroConfig", "LZeroNode", "LZeroSystem"),
        "mercury": ("MercuryConfig", "MercuryNode", "MercurySystem"),
        "narwhal": ("NarwhalConfig", "NarwhalNode", "NarwhalSystem"),
        "simple_tree": ("SimpleTreeConfig", "SimpleTreeNode", "SimpleTreeSystem"),
    },
)
