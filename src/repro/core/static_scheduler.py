"""Static baseline: always use the original data location.

The second energy-oblivious baseline (Section 4.3). Its behaviour is
independent of the replication factor, so its curves are flat in the
replication sweeps (Fig. 6/7) — the paper normalises the spin-up/down
counts to Static for exactly that reason.
"""

from __future__ import annotations

from repro.core.scheduler import OnlineScheduler, SystemView
from repro.errors import ReplicaUnavailableError
from repro.types import DiskId, Request


class StaticScheduler(OnlineScheduler):
    """Route every request to its original (first) *live* location.

    Under fault injection the original location may be dead; Static then
    falls back to the first surviving replica in placement order — the
    minimal deviation that keeps the baseline meaningful.
    """

    def choose(self, request: Request, view: SystemView) -> DiskId:
        available = view.available_locations(request.data_id)
        if not available:
            raise ReplicaUnavailableError(
                f"no live replica for data {request.data_id}"
            )
        return available[0]

    @property
    def name(self) -> str:
        return "Static"
