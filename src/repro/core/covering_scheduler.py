"""Covering-subset scheduling: the Hadoop-style "Set-Cover" combo.

Section 1 notes that covering-subset power management (Leverich &
Kozyrakis; Lang & Patel) "could be combined with our approach to save
more power by concentrating requests on fewer active disks".
:class:`CoveringSetScheduler` is that combination: requests route to a
covering-subset replica whenever one exists (ties broken by the Eq. 6
cost function), so the covering disks absorb nearly all traffic and the
rest of the array sleeps.
"""

from __future__ import annotations

from typing import Mapping, Optional

from repro.core.cost import PAPER_COST_FUNCTION, CostFunction
from repro.core.scheduler import OnlineScheduler, SystemView
from repro.errors import ReplicaUnavailableError
from repro.placement.catalog import PlacementCatalog
from repro.placement.covering import covering_subset
from repro.types import DataId, DiskId, Request


class CoveringSetScheduler(OnlineScheduler):
    """Concentrate requests on a fixed covering subset of disks.

    Args:
        catalog: The placement (the covering subset is computed once).
        weights: Optional access weights for the greedy cover.
        cost_function: Tie-breaker among covering replicas (Eq. 6).
    """

    def __init__(
        self,
        catalog: PlacementCatalog,
        weights: Optional[Mapping[DataId, float]] = None,
        cost_function: Optional[CostFunction] = None,
    ):
        self.covering = frozenset(covering_subset(catalog, weights))
        self.cost_function = cost_function or PAPER_COST_FUNCTION

    def choose(self, request: Request, view: SystemView) -> DiskId:
        # The cheapest live covering replica, or the cheapest live replica
        # overall when the covering subset holds none of them.
        locations = view.available_locations(request.data_id)
        if not locations:
            raise ReplicaUnavailableError(
                f"no live replica for data {request.data_id}"
            )
        candidates = tuple(filter(self.covering.__contains__, locations))
        cost_function = self.cost_function
        return view.fleet.choose(
            candidates or locations,
            view.now,
            cost_function.alpha,
            cost_function.beta,
            cost_function.load_weight,
        )

    @property
    def name(self) -> str:
        return f"CoveringSet({len(self.covering)} disks)"
