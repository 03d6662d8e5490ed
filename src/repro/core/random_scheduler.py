"""Random baseline: uniformly pick one of the request's data locations.

One of the paper's two energy-oblivious baselines (Section 4.3). With a
replication factor above 1 it scatters requests across disks, keeping them
all spinning — which is exactly why its energy climbs back toward the
always-on configuration as replication grows (Fig. 6).
"""

from __future__ import annotations

import random

from repro.core.scheduler import OnlineScheduler, SystemView
from repro.errors import ReplicaUnavailableError
from repro.types import DiskId, Request


class RandomScheduler(OnlineScheduler):
    """Uniform choice over *live* replica locations, seeded for
    determinism; identical draws to the pre-fault code when no fault
    injection is active."""

    def __init__(self, seed: int = 0):
        self._rng = random.Random(seed)

    def choose(self, request: Request, view: SystemView) -> DiskId:
        available = view.available_locations(request.data_id)
        if not available:
            raise ReplicaUnavailableError(
                f"no live replica for data {request.data_id}"
            )
        return self._rng.choice(available)

    @property
    def name(self) -> str:
        return "Random"
