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

from typing import Mapping, Optional, Sequence

from repro.core.cost import PAPER_COST_FUNCTION, CostFunction
from repro.core.scheduler import OnlineScheduler, Picker, SystemView
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

    def bind(self, view: SystemView) -> Picker:
        covers = self.covering.__contains__
        cost_function = self.cost_function
        cheapest = view.fleet.picker(
            cost_function.alpha, cost_function.beta, cost_function.load_weight
        )

        def pick(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            # The cheapest live covering replica, or the cheapest live
            # replica overall when the covering subset holds none of them.
            covering = tuple(filter(covers, locations))
            return cheapest(request, covering or locations, now)

        return pick

    @property
    def name(self) -> str:
        return f"CoveringSet({len(self.covering)} disks)"
