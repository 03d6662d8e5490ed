"""Static baseline: always use the original data location.

The second energy-oblivious baseline (Section 4.3). Its behaviour is
independent of the replication factor, so its curves are flat in the
replication sweeps (Fig. 6/7) — the paper normalises the spin-up/down
counts to Static for exactly that reason.
"""

from __future__ import annotations

from typing import Sequence

from repro.core.scheduler import OnlineScheduler, Picker, SystemView
from repro.types import DiskId, Request


class StaticScheduler(OnlineScheduler):
    """Route every request to its original (first) *live* location.

    Under fault injection the original location may be dead; Static then
    falls back to the first surviving replica in placement order — the
    minimal deviation that keeps the baseline meaningful.
    """

    def bind(self, view: SystemView) -> Picker:
        def pick(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            return locations[0]

        return pick

    @property
    def name(self) -> str:
        return "Static"
