"""Property-based end-to-end invariants of the full simulator.

Random workloads + random placements are replayed through every scheduler
and physically-meaningful invariants are checked:

* every offered request completes (the horizon covers the drain);
* response time >= 0 for every request; with spin-up time Tup, no request
  waits longer than the queue ahead of it + transition overheads;
* per-disk state times tile the simulation duration exactly;
* spin-ups and spin-downs never differ by more than one per disk;
* total energy is bounded by the always-on energy from above (2CPM only
  sheds energy) and by standby-everything from below;
* 2CPM never leaves a disk idle for longer than TB + epsilon without
  spinning down;
* with free transitions and instant service, each simulated disk's ledger
  is the analytic pre-spun timeline of its arrivals.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.heuristic import HeuristicScheduler
from repro.core.random_scheduler import RandomScheduler
from repro.core.static_scheduler import StaticScheduler
from repro.core.wsc import WSCBatchScheduler
from repro.disk.service import ConstantServiceModel
from repro.placement.schemes import ZipfOriginalUniformReplicas
from repro.power.profile import BARRACUDA, PAPER_UNIT
from repro.power.states import DiskPowerState
from repro.power.timeline import GapRule, disk_timeline
from repro.sim.config import SimulationConfig
from repro.sim.runner import always_on_baseline, simulate
from repro.traces.record import TraceRecord
from repro.traces.workload import Workload


SCHEDULER_FACTORIES = (
    StaticScheduler,
    lambda: RandomScheduler(seed=3),
    HeuristicScheduler,
    lambda: WSCBatchScheduler(interval=0.5),
)


@st.composite
def small_workloads(draw):
    seed = draw(st.integers(min_value=0, max_value=10_000))
    rng = random.Random(seed)
    num_requests = draw(st.integers(min_value=1, max_value=40))
    num_data = draw(st.integers(min_value=1, max_value=10))
    num_disks = draw(st.integers(min_value=2, max_value=6))
    rf = draw(st.integers(min_value=1, max_value=num_disks))
    records = []
    t = 0.0
    for _ in range(num_requests):
        t += rng.expovariate(0.2)  # sparse: exercises spin cycles
        records.append(TraceRecord(time=t, data_key=rng.randrange(num_data)))
    workload = Workload(records)
    requests, catalog = workload.bind(
        ZipfOriginalUniformReplicas(replication_factor=rf),
        num_disks=num_disks,
        seed=seed,
    )
    return requests, catalog, num_disks, seed


def run_one(requests, catalog, num_disks, seed, scheduler, service=0.001):
    config = SimulationConfig(
        num_disks=num_disks,
        profile=BARRACUDA,
        service_model=ConstantServiceModel(service),
        seed=seed,
        drain_slack=120.0,
    )
    return simulate(requests, catalog, scheduler, config), config


@given(data=small_workloads(), scheduler_index=st.integers(min_value=0, max_value=3))
@settings(max_examples=40, deadline=None)
def test_all_requests_complete_and_times_tile(data, scheduler_index):
    requests, catalog, num_disks, seed = data
    scheduler = SCHEDULER_FACTORIES[scheduler_index]()
    report, _config = run_one(requests, catalog, num_disks, seed, scheduler)

    assert report.requests_completed == len(requests)
    assert all(rt >= 0 for rt in report.response_times)
    for stats in report.disk_stats.values():
        assert stats.total_time == pytest.approx(report.duration, rel=1e-9)
        assert abs(stats.spin_ups - stats.spin_downs) <= 1


@given(data=small_workloads(), scheduler_index=st.integers(min_value=0, max_value=3))
@settings(max_examples=30, deadline=None)
def test_energy_bounds(data, scheduler_index):
    requests, catalog, num_disks, seed = data
    scheduler = SCHEDULER_FACTORIES[scheduler_index]()
    report, config = run_one(requests, catalog, num_disks, seed, scheduler)
    baseline = always_on_baseline(requests, catalog, config)

    # Upper bound: always-on, plus the transition premium 2CPM can burn
    # (each spin cycle costs at most Eup+Edown above idle).
    cycles = max(report.spin_ups, report.spin_downs)
    upper = baseline.total_energy + cycles * BARRACUDA.transition_energy
    assert report.total_energy <= upper + 1e-6

    # Lower bound: everything in standby the whole time.
    lower = num_disks * report.duration * BARRACUDA.standby_power
    assert report.total_energy >= lower - 1e-6


@given(data=small_workloads())
@settings(max_examples=25, deadline=None)
def test_2cpm_idle_periods_bounded(data):
    """No disk may accumulate more idle time than (requests+1) * TB."""
    requests, catalog, num_disks, seed = data
    report, _config = run_one(
        requests, catalog, num_disks, seed, StaticScheduler()
    )
    threshold = BARRACUDA.breakeven_time
    for stats in report.disk_stats.values():
        max_idle = (stats.requests_serviced + 1) * threshold + 1e-6
        assert stats.state_time[DiskPowerState.IDLE] <= max_idle


@given(data=small_workloads())
@settings(max_examples=25, deadline=None)
def test_untouched_disks_stay_standby(data):
    requests, catalog, num_disks, seed = data
    report, _config = run_one(
        requests, catalog, num_disks, seed, StaticScheduler()
    )
    for stats in report.disk_stats.values():
        if stats.requests_serviced == 0:
            assert stats.standby_fraction() == pytest.approx(1.0)
            assert stats.spin_ups == 0


@given(data=small_workloads())
@settings(max_examples=20, deadline=None)
def test_identical_seeds_identical_reports(data):
    requests, catalog, num_disks, seed = data
    first, _ = run_one(requests, catalog, num_disks, seed, StaticScheduler())
    second, _ = run_one(requests, catalog, num_disks, seed, StaticScheduler())
    assert first.total_energy == second.total_energy
    assert first.response_times == second.response_times


@given(data=small_workloads())
@settings(max_examples=40, deadline=None)
def test_simulated_ledgers_match_the_analytic_timeline(data):
    """The simulator against the walk, disk by disk.

    With zero-time transitions the simulator's reactive 2CPM and the
    pre-spun rule coincide: a gap shorter than TB is idled out, a longer
    one idles TB and sleeps, and a spin-up costs no waiting. A gap of
    exactly TB is a tie the two break apart: the arrival comes before the
    idle timeout, so the simulated disk stays up while the walk books a
    zero-length spin cycle. Expovariate gaps hit it with probability 0.
    """
    requests, catalog, num_disks, seed = data
    config = SimulationConfig(
        num_disks=num_disks,
        profile=PAPER_UNIT,
        service_model=ConstantServiceModel(0.0),
        seed=seed,
        drain_slack=0.0,
    )
    report = simulate(requests, catalog, StaticScheduler(), config)
    arrivals = {disk: [] for disk in report.disk_stats}
    for request in requests:
        arrivals[catalog.original(request.data_id)].append(request.time)
    for disk, stats in report.disk_stats.items():
        walk = disk_timeline(
            PAPER_UNIT, arrivals[disk], report.duration, GapRule.PRE_SPUN
        )
        assert (stats.spin_ups, stats.spin_downs, stats.requests_serviced) == (
            walk.ups,
            walk.downs,
            walk.requests_serviced,
        )
        for state, seconds in walk.state_time.items():
            assert stats.state_time[state] == pytest.approx(seconds, rel=1e-9)
        assert stats.energy == pytest.approx(walk.energy, rel=1e-9)
