"""Energy-aware WSC batch scheduler (Section 3.2).

At each scheduling interval the queued requests form a weighted set cover
instance (Theorem 2): elements are the requests, sets are the disks that
hold at least one queued request's data, and a set's weight is the
marginal cost of using that disk. The greedy set cover picks a cheap disk
subset covering the batch; each request then goes to the cheapest chosen
disk holding its data.

The paper's experiments weight disks "by the same cost function of
Heuristic" — i.e. Eq. 6 with ``alpha=0.2, beta=100`` — rather than the pure
Eq. 5 energy. The pure Eq. 5 weights are Eq. 6's ``alpha=1`` corner,
``cost_function=CostFunction(alpha=1.0)``, which divides every disk's
energy by the same ``beta``.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.set_cover import Bitsets, greedy_weighted_set_cover_dense
from repro.core.cost import PAPER_COST_FUNCTION, CostFunction
from repro.core.fleet import FleetCostState
from repro.core.scheduler import BatchScheduler, SystemView
from repro.errors import ReplicaUnavailableError, SchedulingError
from repro.types import DiskId, Request, RequestId

#: Scheduling interval used throughout the paper's evaluation.
PAPER_BATCH_INTERVAL = 0.1


class WSCBatchScheduler(BatchScheduler):
    """Weighted-set-cover batch scheduler.

    Args:
        interval: Scheduling interval in seconds (paper: 0.1 s).
        cost_function: The Eq. 6 set weights (paper default:
            :data:`~repro.core.cost.PAPER_COST_FUNCTION`).
    """

    def __init__(
        self,
        interval: float = PAPER_BATCH_INTERVAL,
        cost_function: Optional[CostFunction] = None,
    ):
        super().__init__(interval)
        self.cost_function = cost_function or PAPER_COST_FUNCTION
        self._repr_of: Dict[DiskId, str] = {}

    def choose_batch(
        self, requests: Sequence[Request], view: SystemView
    ) -> Dict[RequestId, DiskId]:
        if not requests:
            return {}
        # One placement lookup per request, reused by the routing loop
        # below (the same tuple — no simulation state changes inside a
        # batch decision). Each covering disk's row is a bitset whose
        # bit j is set when it holds request j's data.
        located: List[Tuple[DiskId, ...]] = []
        coverage: Dict[DiskId, int] = {}
        bit = 1
        for request in requests:
            available = view.available_locations(request.data_id)
            if not available:
                raise ReplicaUnavailableError(
                    f"no live replica for data {request.data_id} in batch"
                )
            located.append(available)
            for disk_id in available:
                coverage[disk_id] = coverage.get(disk_id, 0) | bit
            bit <<= 1
        disk_ids = list(coverage)
        fleet = view.fleet
        weight_list = self._weights(disk_ids, fleet, view.now)
        # Every request contributed at least one disk, so every element
        # is coverable.
        chosen_rows = greedy_weighted_set_cover_dense(
            Bitsets(coverage.values()),
            weight_list,
            self._tie_keys(disk_ids),
            len(requests),
        )
        chosen_set = {disk_ids[row] for row in chosen_rows}
        weights = dict(zip(disk_ids, weight_list))
        # Route each request to its cheapest chosen location; tie-break on
        # queue length so covered disks share load, then on disk id. The
        # unrolled comparison equals `min` with the old
        # (weight, queue + extra, disk_id) tuple key without allocating
        # one per candidate.
        result: Dict[RequestId, DiskId] = {}
        extra_load: Dict[DiskId, int] = {disk_id: 0 for disk_id in chosen_set}
        queue = fleet.queue
        for request, available in zip(requests, located):
            best: Optional[DiskId] = None
            best_weight = 0.0
            best_load = 0.0
            for disk_id in available:
                if disk_id not in chosen_set:
                    continue
                weight = weights[disk_id]
                load = queue[disk_id] + extra_load[disk_id]
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
        self, disk_ids: List[DiskId], fleet: FleetCostState, now: float
    ) -> List[float]:
        """One Eq. 6 pass over the fleet columns of all covering disks."""
        cost_function = self.cost_function
        return fleet.weights(
            disk_ids,
            now,
            cost_function.alpha,
            cost_function.beta,
            cost_function.load_weight,
        )

    def _tie_keys(self, disk_ids: List[DiskId]) -> List[str]:
        """The greedy's tie-break key, ``repr(disk_id)``, per disk id;
        each disk's repr is computed once, the first time it covers a
        request."""
        repr_of = self._repr_of
        try:
            return [repr_of[disk_id] for disk_id in disk_ids]
        except KeyError:
            repr_of.update((disk_id, repr(disk_id)) for disk_id in disk_ids)
            return [repr_of[disk_id] for disk_id in disk_ids]

    @property
    def name(self) -> str:
        return f"WSC(batch {self.interval:g}s)"
