"""Energy-aware WSC batch scheduler (Section 3.2).

At each scheduling interval the queued requests form a weighted set cover
instance (Theorem 2): elements are the requests, sets are the disks that
hold at least one queued request's data, and a set's weight is the
marginal cost of using that disk. The greedy set cover picks a cheap disk
subset covering the batch; each request then goes to the cheapest chosen
disk holding its data.

The paper's experiments weight disks "by the same cost function of
Heuristic" — i.e. Eq. 6 with ``alpha=0.2, beta=100`` — rather than the pure
Eq. 5 energy; both are supported (``use_cost_function`` flag).
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Set, Tuple

import numpy as np

from repro.algorithms.set_cover import (
    greedy_weighted_set_cover_dense,
    repr_tie_ranks,
)
from repro.core.cost import PAPER_COST_FUNCTION, CostFunction
from repro.core.scheduler import BatchScheduler, SystemView, register_scheduler
from repro.errors import ReplicaUnavailableError, SchedulingError
from repro.types import DiskId, Request, RequestId

#: Scheduling interval used throughout the paper's evaluation.
PAPER_BATCH_INTERVAL = 0.1


class WSCBatchScheduler(BatchScheduler):
    """Weighted-set-cover batch scheduler.

    Args:
        interval: Scheduling interval in seconds (paper: 0.1 s).
        cost_function: Eq. 6 weights (paper default) when
            ``use_cost_function``; otherwise pure Eq. 5 energy weights.
        use_cost_function: Weight sets by C(dk) instead of E(dk).
    """

    def __init__(
        self,
        interval: float = PAPER_BATCH_INTERVAL,
        cost_function: Optional[CostFunction] = None,
        use_cost_function: bool = True,
    ):
        super().__init__(interval)
        self.cost_function = cost_function or PAPER_COST_FUNCTION
        self.use_cost_function = use_cost_function

    def choose_batch(
        self, requests: Sequence[Request], view: SystemView
    ) -> Dict[RequestId, DiskId]:
        if not requests:
            return {}
        # One placement lookup per request, reused by the routing loop
        # below (the same tuple — no simulation state changes inside a
        # batch decision).
        located: List[Tuple[DiskId, ...]] = []
        coverage: Dict[DiskId, List[RequestId]] = {}
        for request in requests:
            available = view.available_locations(request.data_id)
            if not available:
                raise ReplicaUnavailableError(
                    f"no live replica for data {request.data_id} in batch"
                )
            located.append(available)
            for disk_id in available:
                coverage.setdefault(disk_id, []).append(request.request_id)
        weights = self._weights(list(coverage), view)
        chosen_set = self._cover_dense(requests, coverage, weights)
        # Route each request to its cheapest chosen location; tie-break on
        # queue length so covered disks share load, then on disk id. The
        # unrolled comparison equals `min` with the old
        # (weight, queue + extra, disk_id) tuple key without allocating
        # one per candidate.
        result: Dict[RequestId, DiskId] = {}
        extra_load: Dict[DiskId, int] = {disk_id: 0 for disk_id in chosen_set}
        disk_of = view.disk
        for request, available in zip(requests, located):
            best: Optional[DiskId] = None
            best_weight = 0.0
            best_load = 0
            for disk_id in available:
                if disk_id not in chosen_set:
                    continue
                weight = weights[disk_id]
                load = disk_of(disk_id).queue_length + extra_load[disk_id]
                if (
                    best is None
                    or weight < best_weight
                    or (
                        weight == best_weight
                        and (
                            load < best_load
                            or (load == best_load and disk_id < best)
                        )
                    )
                ):
                    best = disk_id
                    best_weight = weight
                    best_load = load
            if best is None:
                raise SchedulingError(
                    f"set cover left request {request.request_id} uncovered"
                )
            extra_load[best] += 1
            result[request.request_id] = best
        return result

    def _weights(
        self, disk_ids: List[DiskId], view: SystemView
    ) -> Dict[DiskId, float]:
        """One Eq. 6 (or Eq. 5) pass over the fleet columns of all
        covering disks."""
        fleet = view.fleet
        if self.use_cost_function:
            cost_function = self.cost_function
            values = fleet.weights(
                disk_ids,
                view.now,
                cost_function.alpha,
                cost_function.beta,
                cost_function.load_weight,
            )
        else:
            values = fleet.energies(disk_ids, view.now)
        return dict(zip(disk_ids, values))

    @staticmethod
    def _cover_dense(
        requests: Sequence[Request],
        coverage: Dict[DiskId, List[RequestId]],
        weights: Dict[DiskId, float],
    ) -> Set[DiskId]:
        """Greedy set cover through the dense vectorised solver.

        Builds the 0/1 membership matrix directly from ``coverage``
        (every element is coverable by construction — each request
        contributed at least one disk) instead of the frozenset-churning
        :meth:`SetCoverInstance.build`, and delegates to
        :func:`greedy_weighted_set_cover_dense`, which reproduces the
        scalar greedy's decisions exactly.
        """
        disk_ids = list(coverage)
        column_of = {
            request.request_id: column
            for column, request in enumerate(requests)
        }
        membership = np.zeros(
            (len(disk_ids), len(requests)), dtype=np.int64
        )
        for row, disk_id in enumerate(disk_ids):
            for request_id in coverage[disk_id]:
                membership[row, column_of[request_id]] = 1
        weight_array = np.array(
            [weights[disk_id] for disk_id in disk_ids], dtype=np.float64
        )
        chosen_rows = greedy_weighted_set_cover_dense(
            membership, weight_array, repr_tie_ranks(disk_ids)
        )
        return {disk_ids[row] for row in chosen_rows}

    @property
    def name(self) -> str:
        return f"WSC(batch {self.interval:g}s)"


@register_scheduler("wsc")
def _make_wsc() -> WSCBatchScheduler:
    return WSCBatchScheduler()
