"""Threshold Random Seed generation (paper §VI-A, Algorithm 4).

A sender binds its ``i``-th message to ``H(m)`` and asks the ``3f+1``
committee for a seed.  The committee reliably broadcasts the binding among
itself (so every honest member signs the same thing), then each member returns
a partial threshold signature.  The sender combines ``2f+1`` partials into the
unique signature ``φ(i, H(m))`` — the seed that verifiably selects the
dissemination overlay (``overlay = seed mod k``).
"""

from .. import lazy_exports

__all__, __getattr__, __dir__ = lazy_exports(
    __name__,
    {
        "committee": (
            "TRS_PARTIAL_KIND",
            "TRS_REQUEST_KIND",
            "TrsCommitteeMember",
            "trs_binding",
        ),
        "seed": ("TrsClient", "TrsResult"),
    },
)
