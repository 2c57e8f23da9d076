"""Bracha's asynchronous Byzantine reliable broadcast.

Used by the TRS committee (§VI-A) to agree on the ``(i, H(m))`` binding before
any member contributes a partial signature, ensuring no committee member can
be tricked into signing a different binding than its peers.
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "bracha": ("BrachaContext", "BrachaNode"),
    },
)
