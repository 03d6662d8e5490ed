"""Hypothesis parity: the fleet columns vs the Eq. 5/Eq. 6 specification.

The schedulers score disks only through :class:`FleetCostState`, so its
arithmetic must be *bit-identical* to the reference specification —
:func:`~repro.core.cost.energy_cost` (Eq. 5) and
:meth:`~repro.core.cost.CostFunction.cost` (Eq. 6) — with the
(cost, queue, disk id) tie-break. These properties pin that on randomly
generated fleets, states and candidate sets: the columns are filled
through :meth:`FleetCostState.encode`, and every answer is compared with
a brute-force evaluation of the specification.
"""

from typing import Dict, List, Optional, Tuple

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.cost import CostFunction, energy_cost
from repro.core.fleet import FleetCostState
from repro.power.profile import PAPER_EVAL
from repro.power.states import DiskPowerState
from repro.types import Request

NOW = 100.0

#: Small value pools make cost ties common instead of measure-zero.
_TLAST_POOL = (None, 0.0, 10.0, 50.0, NOW)
_QUEUE_POOL = (0, 1, 2, 3)
_STATES = tuple(DiskPowerState)


class FakeDisk:
    """Protocol-only disk view (:class:`~repro.core.cost.DiskView`)."""

    def __init__(
        self,
        state: DiskPowerState,
        queue_length: int,
        last_request_time: Optional[float],
    ):
        self.state = state
        self.queue_length = queue_length
        self.last_request_time = last_request_time


Instance = Tuple[Dict[int, FakeDisk], Tuple[int, ...], CostFunction]


def _fleet(disks: Dict[int, FakeDisk]) -> FleetCostState:
    """The fake disks' state, written into columns as a live disk does."""
    fleet = FleetCostState(len(disks), PAPER_EVAL)
    for disk_id, disk in disks.items():
        fleet.encode(disk_id, disk.state, disk.last_request_time)
        if disk.last_request_time is not None:
            fleet.tlast[disk_id] = disk.last_request_time
        fleet.queue[disk_id] = float(disk.queue_length)
    return fleet


@st.composite
def fleet_instances(draw: st.DrawFn) -> Instance:
    num_disks = draw(st.integers(min_value=1, max_value=40))
    disks = {
        disk_id: FakeDisk(
            state=draw(st.sampled_from(_STATES)),
            queue_length=draw(st.sampled_from(_QUEUE_POOL)),
            last_request_time=draw(st.sampled_from(_TLAST_POOL)),
        )
        for disk_id in range(num_disks)
    }
    count = draw(st.integers(min_value=1, max_value=num_disks))
    candidates = tuple(draw(st.permutations(range(num_disks)))[:count])
    alpha = draw(
        st.one_of(
            st.sampled_from([0.0, 0.2, 1.0]),
            st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
        )
    )
    beta = draw(st.floats(min_value=0.01, max_value=1000.0, allow_nan=False))
    return disks, candidates, CostFunction(alpha=alpha, beta=beta)


def _args(
    candidates: Tuple[int, ...], cost_function: CostFunction
) -> Tuple[Tuple[int, ...], float, float, float, float]:
    return (
        candidates,
        NOW,
        cost_function.alpha,
        cost_function.beta,
        cost_function.load_weight,
    )


@settings(max_examples=200, deadline=None)
@given(fleet_instances())
def test_choose_parity_including_ties(instance: Instance) -> None:
    """The Eq. 6 picker is the arg-min under the (cost, queue, id) key."""
    disks, candidates, cost_function = instance
    expected = min(
        candidates,
        key=lambda disk_id: (
            cost_function.cost(disks[disk_id], NOW, PAPER_EVAL),
            disks[disk_id].queue_length,
            disk_id,
        ),
    )
    pick = _fleet(disks).picker(
        cost_function.alpha, cost_function.beta, cost_function.load_weight
    )
    assert pick(Request(time=NOW, request_id=0, data_id=0), candidates, NOW) == expected


@settings(max_examples=200, deadline=None)
@given(fleet_instances())
def test_weights_parity_full_precision(instance: Instance) -> None:
    """Eq. 6 weights match ``CostFunction.cost`` bit for bit."""
    disks, candidates, cost_function = instance
    expected: List[float] = [
        cost_function.cost(disks[disk_id], NOW, PAPER_EVAL)
        for disk_id in candidates
    ]
    fleet = _fleet(disks)
    assert fleet.weights(*_args(candidates, cost_function)) == expected


@settings(max_examples=200, deadline=None)
@given(fleet_instances())
def test_energies_parity_full_precision(instance: Instance) -> None:
    """The columns' Eq. 5 term (Eq. 6 weights with alpha = beta = 1)
    matches ``energy_cost`` bit for bit."""
    disks, candidates, _ = instance
    fleet = _fleet(disks)
    expected = [
        energy_cost(
            disks[disk_id].state,
            disks[disk_id].last_request_time,
            NOW,
            PAPER_EVAL,
        )
        for disk_id in candidates
    ]
    assert fleet.weights(candidates, NOW, 1.0, 1.0, 0.0) == expected
