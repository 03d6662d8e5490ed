"""The one admission closure, for every online scheduler, under faults.

Every online scheduler's arrivals and backoff re-admissions in the
replay go through the fleet's admission closure
(:meth:`DiskFleet.admission <repro.sim.fleet.DiskFleet.admission>`),
which calls the picker the scheduler bound once for the run. On tiny traces under small fault
plans, every offered request must complete or end in a typed loss,
whatever the scheduler; and a scheduler that defines only ``choose``
(reached through the base ``bind`` fallback) must replay exactly as
the scheduler it delegates to.
"""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.covering_scheduler import CoveringSetScheduler
from repro.core.heuristic import HeuristicScheduler
from repro.core.prediction import PredictiveHeuristicScheduler
from repro.core.random_scheduler import RandomScheduler
from repro.core.scheduler import OnlineScheduler
from repro.core.static_scheduler import StaticScheduler
from repro.core.writeoffload import WriteOffloadingScheduler
from repro.disk.service import ConstantServiceModel
from repro.experiments.harness.serialize import report_to_payload
from repro.faults import (
    FaultPlan,
    PermanentFaults,
    ScriptedFault,
    SpinUpFaults,
    TransientFaults,
)
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.profile import BARRACUDA
from repro.sim.config import SimulationConfig
from repro.sim.storage import StorageSystem
from repro.traces.record import TraceRecord
from repro.traces.workload import Workload
from repro.types import OpKind


class DelegatingHeuristic(OnlineScheduler):
    """Chooses exactly as a Heuristic but defines only ``choose``, so
    the replay reaches it through the base ``bind`` fallback."""

    def __init__(self) -> None:
        self.inner = HeuristicScheduler()

    def choose(self, request, view):
        return self.inner.choose(request, view)

    @property
    def name(self) -> str:
        return self.inner.name


#: One factory per online scheduler; each replay gets a fresh instance.
SCHEDULERS = {
    "static": lambda catalog: StaticScheduler(),
    "random": lambda catalog: RandomScheduler(seed=3),
    "heuristic": lambda catalog: HeuristicScheduler(),
    "predictive": lambda catalog: PredictiveHeuristicScheduler(),
    "covering": CoveringSetScheduler,
    "write-offload": lambda catalog: WriteOffloadingScheduler(HeuristicScheduler()),
}


@st.composite
def tiny_traces(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    num_requests = draw(st.integers(min_value=1, max_value=30))
    num_data = draw(st.integers(min_value=1, max_value=8))
    num_disks = draw(st.integers(min_value=2, max_value=5))
    rf = draw(st.integers(min_value=1, max_value=num_disks))
    records = []
    t = 0.0
    for _ in range(num_requests):
        t += rng.expovariate(draw(st.sampled_from([0.2, 1.0, 10.0])))
        # One request in five is a write, which write off-loading may
        # send to any disk.
        op = OpKind.WRITE if rng.random() < 0.2 else OpKind.READ
        records.append(TraceRecord(time=t, data_key=rng.randrange(num_data), op=op))
    requests, catalog = Workload(records, include_writes=True).bind(
        ZipfOriginalUniformReplicas(replication_factor=rf),
        num_disks=num_disks,
        seed=seed,
    )
    return requests, catalog, num_disks, seed, t


@st.composite
def small_fault_plans(draw, num_disks, span_s):
    """Permanent, transient, spin-up and scripted faults, each optional;
    at least one is present."""
    span_s = max(span_s, 1.0)
    permanent = draw(
        st.none()
        | st.builds(
            PermanentFaults,
            mttf_s=st.floats(min_value=span_s / 4, max_value=span_s * 4),
        )
    )
    transient = draw(
        st.none()
        | st.builds(
            TransientFaults,
            mtbf_s=st.floats(min_value=span_s / 4, max_value=span_s * 2),
            mean_repair_s=st.floats(min_value=0.5, max_value=30.0),
        )
    )
    spin_up = draw(
        st.none()
        | st.builds(
            SpinUpFaults,
            probability=st.floats(min_value=0.05, max_value=0.6),
            max_retries=st.integers(min_value=0, max_value=2),
        )
    )
    scripted = draw(
        st.lists(
            st.builds(
                ScriptedFault,
                disk_id=st.integers(min_value=0, max_value=num_disks - 1),
                at_s=st.floats(min_value=0.0, max_value=span_s),
                repair_after_s=st.none()
                | st.floats(min_value=0.1, max_value=span_s),
            ),
            min_size=0 if (permanent or transient or spin_up) else 1,
            max_size=3,
        )
    )
    return FaultPlan(
        seed=draw(st.integers(min_value=0, max_value=1_000)),
        permanent=permanent,
        transient=transient,
        spin_up=spin_up,
        scripted=tuple(scripted),
    )


@st.composite
def faulty_replays(draw):
    requests, catalog, num_disks, seed, span_s = draw(tiny_traces())
    plan = draw(small_fault_plans(num_disks, span_s))
    return requests, catalog, num_disks, seed, plan


def replay(requests, catalog, num_disks, seed, plan, scheduler):
    config = SimulationConfig(
        num_disks=num_disks,
        profile=BARRACUDA,
        service_model=ConstantServiceModel(0.01),
        seed=seed,
        drain_slack=60.0,
        fault_plan=plan,
    )
    system = StorageSystem(catalog, scheduler, config)
    return system, system.run(requests)


@pytest.mark.parametrize("kind", sorted(SCHEDULERS))
@settings(max_examples=25, deadline=None)
@given(inputs=faulty_replays())
def test_every_offered_request_completes_or_is_lost(kind, inputs):
    requests, catalog = inputs[0], inputs[1]
    _, report = replay(*inputs, SCHEDULERS[kind](catalog))
    availability = report.availability
    assert availability is not None
    assert (
        report.requests_completed + availability.requests_lost
        == report.requests_offered
        == len(requests)
    )


@settings(max_examples=60, deadline=None)
@given(faulty_replays())
def test_choose_only_scheduler_replays_like_heuristic(inputs):
    _, bound_report = replay(*inputs, HeuristicScheduler())
    _, fallback_report = replay(*inputs, DelegatingHeuristic())
    bound_bytes = json.dumps(report_to_payload(bound_report), sort_keys=True)
    fallback_bytes = json.dumps(report_to_payload(fallback_report), sort_keys=True)
    assert bound_bytes == fallback_bytes
