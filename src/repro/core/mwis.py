"""Energy-aware MWIS offline scheduler (Section 3.1).

The four steps of the paper's algorithm (Fig. 4):

1. **Nodes** — one per non-zero saving term ``X(i, j, k)`` (Eq. 3/4):
   disk ``dk`` holds the data of both ``ri`` and ``rj``, ``rj`` follows
   ``ri`` within the saving window ``TB + Tup + Tdown``. The terms are
   columns; a ``SavingTerm`` is made only when one is read.
2. **Edges** — between any two terms violating the energy-constraint
   (shared predecessor — and, symmetrically, shared successor, as the
   paper's own Fig. 4 step 2 shows for request r3) or the
   schedule-constraint (shared request, different disks). The edges are
   implicit (:class:`~repro.algorithms.graph.SavingTermGraph`): terms are
   indexed by request, and degrees and neighbourhoods are derived on
   demand, so no edge is ever stored.
3. **Solve** — a maximum weighted independent set algorithm; the paper
   uses the GWMIN greedy of Sakai et al., and exact branch-and-bound is
   available for small instances.
4. **Derive** — schedule both requests of every selected term on its
   disk; requests left untouched can go to any of their locations (we
   use a marginal-energy repair pass that greedily inserts each into the
   cheapest existing chain).

Tractability notes (documented deviations, both configurable off):

* ``neighborhood`` caps, per disk, how many *following* requests each
  request pairs with (nearest successors carry the largest savings);
  ``None`` reproduces the unbounded paper construction.
* The paper's constraints do not forbid *interleaving* two selected terms
  on one disk (e.g. X(1,3,k) with X(2,5,k), t1<t2<t3<t5): the derived
  schedule is still feasible and its true energy is never worse than the
  MWIS estimate — ``tests/core/test_mwis_properties.py`` pins this.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro.algorithms.graph import SavingTermGraph
from repro.algorithms.independent_set import solve_mwis
from repro.core.problem import SchedulingProblem
from repro.core.saving import (
    SavingTerm,
    SavingTermColumns,
    gap_energy,
    max_request_energy,
    saving_window,
)
from repro.core.scheduler import OfflineScheduler
from repro.power.profile import DiskPowerProfile
from repro.types import Assignment, DiskId, RequestId


@dataclass(frozen=True)
class MWISResult:
    """Detailed output of one MWIS scheduling run.

    Attributes:
        assignment: The derived feasible schedule.
        selected: The independent set of saving terms, in pick order.
        estimated_saving: Total weight of ``selected`` — a lower bound on
            the schedule's true energy saving.
        num_nodes / num_edges: Size of the constructed conflict graph.
    """

    assignment: Assignment
    selected: Tuple[SavingTerm, ...]
    estimated_saving: float
    num_nodes: int
    num_edges: int


class MWISOfflineScheduler(OfflineScheduler):
    """Offline scheduler solving the MWIS formulation.

    Args:
        method: MWIS solver — ``"gwmin"`` (the paper's choice),
            ``"gwmin2"``, ``"min-degree"`` or ``"exact"``.
        neighborhood: Per-disk successor cap per request; ``None`` for the
            full (unbounded) construction.
    """

    def __init__(self, method: str = "gwmin", neighborhood: Optional[int] = 8):
        self.method = method
        self.neighborhood = neighborhood

    @property
    def name(self) -> str:
        return f"MWIS(offline,{self.method})"

    # -- Step 1 + 2 ----------------------------------------------------

    def build_graph(
        self, problem: SchedulingProblem
    ) -> Tuple[SavingTermGraph, SavingTermColumns]:
        """Construct the conflict graph of saving terms.

        Graph nodes are integer indices into the returned term columns,
        filled from each disk's sorted requests with Eq. 3 evaluated as
        :func:`~repro.core.saving.saving_value` does. The graph is
        implicit: conflicts only occur between terms sharing a request,
        so it indexes terms by request and derives degrees and
        neighbourhoods on demand instead of storing the edges.
        """
        profile = problem.profile
        window = saving_window(profile)
        energy = profile.transition_energy
        breakeven = profile.breakeven_time
        idle_power = profile.idle_power
        cap = self.neighborhood

        requests_on_disk: Dict[DiskId, List[Tuple[float, RequestId]]] = {}
        for request in problem.requests:
            key = (request.time, request.request_id)
            for disk_id in problem.locations_of(request):
                requests_on_disk.setdefault(disk_id, []).append(key)

        terms = SavingTermColumns([], [], [], [])
        pred, succ, disk, weight = terms.predecessor, terms.successor, terms.disk, terms.weight
        for disk_id, stream in requests_on_disk.items():
            stream.sort()
            count = len(stream)
            for a, (ti, i) in enumerate(stream):
                limit = count if cap is None else min(count, a + 1 + cap)
                for b in range(a + 1, limit):
                    tj, j = stream[b]
                    gap = tj - ti
                    if gap >= window:
                        break
                    value = energy + (breakeven - gap) * idle_power
                    if value > 0:
                        pred.append(i)
                        succ.append(j)
                        disk.append(disk_id)
                        weight.append(value)

        return SavingTermGraph(pred, succ, disk, weight), terms

    # -- Step 3 + 4 ----------------------------------------------------

    def schedule_detailed(self, problem: SchedulingProblem) -> MWISResult:
        """Steps 3+4: solve the graph and derive a feasible schedule."""
        graph, terms = self.build_graph(problem)
        selected_ids: Sequence[int] = solve_mwis(graph, self.method)
        selected = [terms[index] for index in selected_ids]
        assignment = problem.new_assignment()
        for term in selected:
            assignment.assign(term.predecessor, term.disk)
            assignment.assign(term.successor, term.disk)
        _repair_unassigned(problem, assignment)
        problem.validate_schedule(assignment)
        return MWISResult(
            assignment=assignment,
            selected=tuple(selected),
            estimated_saving=graph.total_weight(selected_ids),
            num_nodes=len(graph),
            num_edges=graph.num_edges,
        )

    def schedule(self, problem: SchedulingProblem) -> Assignment:
        return self.schedule_detailed(problem).assignment


def _repair_unassigned(problem: SchedulingProblem, assignment: Assignment) -> None:
    """Step 4's free requests: insert each into the cheapest chain.

    The paper allows any data location for a request carrying no selected
    saving term. We pick the location with the smallest *marginal* offline
    energy given the partially-built chains: inserting at time ``t``
    between chain neighbours ``p`` and ``s`` costs
    ``E(t-tp) + E(ts-t) - E(ts-tp)`` where ``E`` is the Lemma-1 gap energy
    (``EPmax`` for an empty chain).
    """
    profile = problem.profile
    epmax = max_request_energy(profile)
    time_of = {request.request_id: request.time for request in problem.requests}
    chain_times: Dict[DiskId, List[float]] = {}
    for request_id, disk_id in assignment.items():
        chain_times.setdefault(disk_id, []).append(time_of[request_id])
    for times in chain_times.values():
        times.sort()

    for request in assignment.unassigned():
        best_disk: Optional[DiskId] = None
        best_cost = None
        for disk_id in problem.locations_of(request):
            times = chain_times.get(disk_id, [])
            cost = _marginal_energy(times, request.time, profile, epmax)
            key = (cost, disk_id)
            if best_cost is None or key < best_cost:
                best_cost = key
                best_disk = disk_id
        assert best_disk is not None  # every request has >= 1 location
        assignment.assign(request.request_id, best_disk)
        bisect.insort(chain_times.setdefault(best_disk, []), request.time)


def _marginal_energy(
    times: List[float], t: float, profile: DiskPowerProfile, epmax: float
) -> float:
    if not times:
        return epmax
    index = bisect.bisect_left(times, t)
    predecessor = times[index - 1] if index > 0 else None
    successor = times[index] if index < len(times) else None
    if predecessor is None and successor is None:
        return epmax
    if predecessor is None:
        return gap_energy(successor - t, profile)
    if successor is None:
        return gap_energy(t - predecessor, profile)
    return (
        gap_energy(t - predecessor, profile)
        + gap_energy(successor - t, profile)
        - gap_energy(successor - predecessor, profile)
    )
