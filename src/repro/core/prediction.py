"""Prediction-augmented online scheduling (the paper's future-work hook).

Section 3.3 sketches the extension: "a prediction technique could be used
to estimate the access probability of a disk and assign lower cost to a
more frequently used disk". :class:`PredictiveHeuristicScheduler` realises
it:

* each disk's arrival process is summarised by an EWMA of its observed
  inter-arrival gaps (the scheduler learns online from its own routing
  decisions, no oracle);
* the Eq. 5 energy term is discounted by the probability that the disk
  would stay idle through a full breakeven window anyway. Treating the
  disk's arrivals as Poisson with rate ``1 / ewma_gap``, that probability
  is ``exp(-TB / ewma_gap)`` — a hot disk (tiny ewma gap) makes the
  discount ~0, i.e. routing there is (correctly) treated as nearly free:
  it would have stayed awake regardless.

The discounted cost is ``C'(d) = E(d) * exp(-TB/gap_d) * alpha/beta +
P(d) * (1-alpha)``.
"""

from __future__ import annotations

import math
from typing import Dict, Optional, Sequence

from repro.core.cost import PAPER_COST_FUNCTION, CostFunction
from repro.core.scheduler import OnlineScheduler, Picker, SystemView
from repro.errors import ConfigurationError
from repro.types import DiskId, Request


class InterArrivalEstimator:
    """Per-disk EWMA of inter-arrival gaps.

    ``initial_gap`` is the pessimistic prior gap estimate in seconds used
    for disks that have not seen two requests yet.
    """

    def __init__(self, smoothing: float = 0.2, initial_gap: float = 1e6):
        if not 0.0 < smoothing <= 1.0:
            raise ConfigurationError("smoothing must be in (0, 1]")
        if initial_gap <= 0:
            raise ConfigurationError("initial_gap must be positive")
        self._smoothing = smoothing
        self._initial_gap = initial_gap
        self._last_time: Dict[DiskId, float] = {}
        self._ewma_gap: Dict[DiskId, float] = {}

    def observe(self, disk_id: DiskId, now: float) -> None:
        """Record that a request was routed to ``disk_id`` at ``now``."""
        last = self._last_time.get(disk_id)
        if last is not None and now >= last:
            gap = now - last
            previous = self._ewma_gap.get(disk_id, self._initial_gap)
            self._ewma_gap[disk_id] = (
                self._smoothing * gap + (1.0 - self._smoothing) * previous
            )
        self._last_time[disk_id] = now

    def expected_gap(self, disk_id: DiskId) -> float:
        """Current inter-arrival estimate in seconds (pessimistic for
        unseen disks)."""
        return self._ewma_gap.get(disk_id, self._initial_gap)

    def idle_through_window_probability(
        self, disk_id: DiskId, window: float
    ) -> float:
        """P[no arrival within ``window``] under the Poisson summary."""
        gap = self.expected_gap(disk_id)
        if gap <= 0:
            return 0.0
        return math.exp(-window / gap)


class PredictiveHeuristicScheduler(OnlineScheduler):
    """Heuristic + learned per-disk access-rate discount.

    Args:
        cost_function: The Eq. 6 parameters (paper default alpha=0.2,
            beta=100).
        smoothing: EWMA smoothing factor for the gap estimates.
    """

    def __init__(
        self,
        cost_function: Optional[CostFunction] = None,
        smoothing: float = 0.2,
    ):
        self.cost_function = cost_function or PAPER_COST_FUNCTION
        self.estimator = InterArrivalEstimator(smoothing=smoothing)

    def bind(self, view: SystemView) -> Picker:
        fleet = view.fleet
        pi, const, tlast, queue = fleet.pi, fleet.const, fleet.tlast, fleet.queue
        window = view.profile.breakeven_time
        cost_function = self.cost_function
        alpha, beta = cost_function.alpha, cost_function.beta
        load_weight = cost_function.load_weight
        survival = self.estimator.idle_through_window_probability
        observe = self.estimator.observe

        def pick(request: Request, locations: Sequence[DiskId], now: float) -> DiskId:
            best_disk = -1
            best_key = None
            for disk_id in locations:
                energy = (now - tlast[disk_id]) * pi[disk_id] + const[disk_id]
                # The prediction: a disk that will see traffic within the
                # idle window anyway costs (almost) nothing extra to touch
                # now.
                discounted = energy * survival(disk_id, window)
                queue_length = queue[disk_id]
                cost = discounted * alpha / beta + queue_length * load_weight
                key = (cost, queue_length, disk_id)
                if best_key is None or key < best_key:
                    best_key = key
                    best_disk = disk_id
            observe(best_disk, now)
            return best_disk

        return pick

    @property
    def name(self) -> str:
        return (
            f"PredictiveHeuristic(a={self.cost_function.alpha:g},"
            f"b={self.cost_function.beta:g})"
        )
