"""The serving backend's fault path, driven by hand with ``advance_to``.

A scripted death on :class:`~repro.serve.backend.SimBackend` runs the
fleet's one failover rule: the dying disk's queue moves to the least
loaded live replica, a request with no replica left is reported lost
once, and the dead disk drops out of the scheduler's view. No asyncio:
the backend is advanced the way the serving pump advances it.
"""

from __future__ import annotations

from typing import List, Tuple

from repro.disk.service import ConstantServiceModel
from repro.faults.plan import FaultPlan, ScriptedFault
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_UNIT
from repro.serve.backend import SimBackend
from repro.sim.config import SimulationConfig
from repro.types import Request

DEATH_S = 1.0
#: data id -> replica disks: 0 lives everywhere, 1 only on the doomed
#: disk 0, 2 and 3 pin load onto disks 1 and 2.
PLACEMENT = {0: [0, 1, 2], 1: [0], 2: [1], 3: [2]}


def _backend() -> Tuple[SimBackend, List[Tuple[int, int]], List[int]]:
    completed: List[Tuple[int, int]] = []
    lost: List[int] = []
    config = SimulationConfig(
        num_disks=3,
        profile=PAPER_UNIT,
        service_model=ConstantServiceModel(5.0),
        fault_plan=FaultPlan(scripted=(ScriptedFault(0, DEATH_S),)),
    )
    backend = SimBackend(
        PlacementCatalog(PLACEMENT),
        config,
        on_complete=lambda request, disk_id, now: completed.append(
            (request.request_id, disk_id)
        ),
        on_lost=lambda request, now: lost.append(request.request_id),
    )
    return backend, completed, lost


def _request(request_id: int, data_id: int) -> Request:
    return Request(time=0.0, request_id=request_id, data_id=data_id)


def test_a_dead_disks_queue_moves_to_the_least_loaded_live_replica() -> None:
    backend, completed, lost = _backend()
    backend.submit(_request(0, 0), 0)
    backend.submit(_request(1, 0), 0)
    for request_id in (10, 11, 12):  # disk 1 is the busier survivor
        backend.submit(_request(request_id, 2), 1)
    backend.submit(_request(20, 3), 2)
    backend.advance_to(DEATH_S)
    assert backend.disk(0).queue_length == 0
    assert backend.disk(2).queue_length == 3
    backend.finalize(100.0)
    assert sorted(completed) == [
        (0, 2), (1, 2), (10, 1), (11, 1), (12, 1), (20, 2)
    ]
    assert lost == []
    availability = backend.availability_report()
    assert availability is not None
    assert availability.disk_failures == 1
    assert availability.requests_redispatched == 2


def test_a_request_with_no_live_replica_is_lost_exactly_once() -> None:
    backend, completed, lost = _backend()
    backend.submit(_request(0, 1), 0)
    backend.advance_to(DEATH_S)
    assert lost == [0]
    backend.finalize(100.0)
    assert lost == [0]
    assert completed == []
    availability = backend.availability_report()
    assert availability is not None
    assert availability.requests_lost == 1


def test_available_locations_drop_the_dead_disk() -> None:
    backend, _, _ = _backend()
    assert backend.available_locations(0) == (0, 1, 2)
    backend.advance_to(DEATH_S)
    assert backend.available_locations(0) == (1, 2)
    assert backend.available_locations(1) == ()
    assert backend.locations(0) == (0, 1, 2)
