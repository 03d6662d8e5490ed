"""Energy-aware online Heuristic (Section 3.3).

On each arrival, evaluate the composite cost ``C(dk)`` (Eq. 6) for every
disk holding the request's data and pick the cheapest. With the paper's
``alpha = 0.2, beta = 100`` the scheduler prefers, in rough order:

1. disks already active or spinning up with short queues (free energy,
   low load — spinning-up disks "overlay" requests into one wake-up),
2. recently-touched idle disks (small idle extension),
3. long-idle disks,
4. standby disks (full ``EPmax`` wake-up cost),

with queue length breaking the energy ties toward responsiveness.
"""

from __future__ import annotations

from typing import Optional

from repro.core.cost import PAPER_COST_FUNCTION, CostFunction
from repro.core.scheduler import OnlineScheduler, Picker, SystemView


class HeuristicScheduler(OnlineScheduler):
    """Cost-function online scheduler.

    Its picker is the Eq. 6 arg-min over the view's fleet cost columns
    (:meth:`~repro.core.fleet.FleetCostState.picker`), weights bound in.

    Args:
        cost_function: The Eq. 6 instance to minimise; defaults to the
            paper's ``alpha=0.2, beta=100``.
    """

    def __init__(self, cost_function: Optional[CostFunction] = None):
        self.cost_function = cost_function or PAPER_COST_FUNCTION

    def bind(self, view: SystemView) -> Picker:
        cost_function = self.cost_function
        return view.fleet.picker(
            cost_function.alpha, cost_function.beta, cost_function.load_weight
        )

    @property
    def name(self) -> str:
        return (
            f"Heuristic(a={self.cost_function.alpha:g},"
            f"b={self.cost_function.beta:g})"
        )
