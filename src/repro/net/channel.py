"""Link behaviour: stochastic loss and per-message jitter.

Section III assumes Byzantine *nodes* but stochastically lossy *links*; this
module models the links.  Jitter multiplies the link's base latency by a
lognormal factor close to 1, approximating queueing variation without moving
the mean much.

:meth:`LossModel.jitter_factor` is the reference definition of one draw;
the transport (:meth:`repro.net.node.Network.send_many`) draws the same
factors from a buffered block of normals, byte-identical on the same rng.
"""

from __future__ import annotations

import random
from dataclasses import dataclass

from ..utils.validation import require_probability

__all__ = ["LossModel"]


@dataclass(frozen=True, slots=True)
class LossModel:
    """Per-message loss probability and jitter spread for every link."""

    loss_probability: float = 0.0
    jitter_sigma: float = 0.05

    def __post_init__(self) -> None:
        require_probability(self.loss_probability, "loss_probability")
        if self.jitter_sigma < 0:
            # Zero is legal (jitter disabled), so require_positive's "must be
            # positive" message would misstate the constraint.
            raise ValueError(
                f"jitter_sigma must be >= 0, got {self.jitter_sigma}"
            )

    def drops(self, rng: random.Random) -> bool:
        """True when this transmission is lost."""

        return self.loss_probability > 0 and rng.random() < self.loss_probability

    def jitter_factor(self, rng: random.Random) -> float:
        """Multiplicative latency jitter (mean ~1)."""

        if self.jitter_sigma == 0:
            return 1.0
        return rng.lognormvariate(0.0, self.jitter_sigma)
