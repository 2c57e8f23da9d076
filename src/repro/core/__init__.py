"""HERMES — the paper's dissemination protocol (§IV and §VI).

Online flow per message:

1. the sender obtains a Threshold Random Seed for ``(i, H(m))`` from the
   ``3f+1`` committee (:mod:`repro.trs`);
2. the seed verifiably selects one of the ``k`` precomputed robust-tree
   overlays (``overlay = seed mod k``);
3. the sender forwards the message to that overlay's ``f+1`` entry points over
   ``f+1`` disjoint paths;
4. relays verify the threshold signature, the sequence number, and that the
   immediate sender is a legitimate predecessor — then forward to their
   successors; violations are logged and the offender excluded;
5. a background gossip fallback (activated after delay ``T``) reconciles
   mempools so fault-density violations cannot cause permanent loss (§VII-A).
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "accountability": ("AccountabilityMonitor", "Violation", "ViolationLog"),
        "config": ("HermesConfig",),
        "dissemination": ("DisseminationEnvelope",),
        "protocol": ("HermesNode", "HermesSystem"),
        "sequencer": ("SequenceAuditor",),
        "tracing": ("ActivityKind", "ActivityTrace"),
    },
)
