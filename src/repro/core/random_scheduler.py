"""Random baseline: uniformly pick one of the request's data locations.

One of the paper's two energy-oblivious baselines (Section 4.3). With a
replication factor above 1 it scatters requests across disks, keeping them
all spinning — which is exactly why its energy climbs back toward the
always-on configuration as replication grows (Fig. 6).
"""

from __future__ import annotations

import random
from typing import Sequence

from repro.core.scheduler import OnlineScheduler, Picker, SystemView
from repro.types import DiskId, Request


class RandomScheduler(OnlineScheduler):
    """Uniform choice over *live* replica locations, seeded for
    determinism; identical draws to the pre-fault code when no fault
    injection is active."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def bind(self, view: SystemView) -> Picker:
        choice = self._rng.choice

        def pick(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            return choice(locations)

        return pick

    @property
    def name(self) -> str:
        return "Random"
