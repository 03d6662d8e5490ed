"""The fused Heuristic arrival closure against the general admission path.

A :class:`~repro.core.heuristic.HeuristicScheduler` replay without a
cache runs every arrival through one fused closure, faults or not; any
other online scheduler takes the general path (``_on_arrival`` →
``_admit`` → ``choose`` → ``_dispatch``). A thin wrapper that only
delegates to a Heuristic forces the general path with the same
decisions, so on tiny traces under small fault plans the two replays
must serialise to the same bytes: response times in completion order,
engine events, energy ledgers and the availability block.
"""

import json
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristic import HeuristicScheduler
from repro.core.scheduler import OnlineScheduler
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


class DelegatingHeuristic(OnlineScheduler):
    """Chooses exactly as a Heuristic but is not one, so the replay
    admits every arrival through the general path."""

    def __init__(self) -> None:
        self.inner = HeuristicScheduler()

    def choose(self, request, view):
        return self.inner.choose(request, view)

    @property
    def name(self) -> str:
        return self.inner.name


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
        records.append(TraceRecord(time=t, data_key=rng.randrange(num_data)))
    requests, catalog = Workload(records).bind(
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


@settings(max_examples=60, deadline=None)
@given(faulty_replays())
def test_fused_and_general_paths_replay_identically(inputs):
    fused, fused_report = replay(*inputs, HeuristicScheduler())
    general, general_report = replay(*inputs, DelegatingHeuristic())
    # Each replay took the path it is meant to exercise.
    assert fused._arrival_callback().__name__ == "heuristic_arrival"
    assert general._arrival_callback() == general._on_arrival
    fused_bytes = json.dumps(report_to_payload(fused_report), sort_keys=True)
    general_bytes = json.dumps(report_to_payload(general_report), sort_keys=True)
    assert fused_bytes == general_bytes
    # Every offered request completed or ended in a typed loss.
    availability = fused_report.availability
    assert availability is not None
    assert (
        fused_report.requests_completed + availability.requests_lost
        == fused_report.requests_offered
    )
