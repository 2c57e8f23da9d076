"""The Fig. 5a front-running driver.

:mod:`frontrun` injects the same scripted adversary into HERMES and every
baseline so the protocols can be compared under identical attack pressure,
built on the per-protocol levers of :mod:`repro.adversary.injection`.  The
censorship and overload trials, and every other strategy, live in the
strategy zoo (:mod:`repro.adversary`).
"""

from .frontrun import FrontRunResult, FrontRunTrial, run_front_running_trial

__all__ = ["FrontRunResult", "FrontRunTrial", "run_front_running_trial"]
