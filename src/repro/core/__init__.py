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

from .accountability import AccountabilityMonitor, Violation, ViolationLog
from .config import HermesConfig
from .dissemination import DisseminationEnvelope
from .protocol import HermesNode, HermesSystem
from .sequencer import SequenceAuditor
from .tracing import ActivityKind, ActivityTrace

__all__ = [
    "AccountabilityMonitor",
    "ActivityKind",
    "ActivityTrace",
    "DisseminationEnvelope",
    "HermesConfig",
    "HermesNode",
    "HermesSystem",
    "SequenceAuditor",
    "Violation",
    "ViolationLog",
]
