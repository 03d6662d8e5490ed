"""Tests for fault plans, their per-disk draws and how the injector
posts them as the run reaches them."""

from __future__ import annotations

import random
from itertools import islice
from typing import Dict, List, Optional, Tuple

import pytest

from repro.disk.drive import SimulatedDisk
from repro.errors import ConfigurationError
from repro.faults import (
    FaultInjector,
    FaultPlan,
    PermanentFaults,
    ScriptedFault,
    SpinUpFaults,
    TransientFaults,
    death_time_s,
    outages,
    spin_up_stream,
    weibull_time_s,
)
from repro.power.profile import BARRACUDA
from repro.report import AvailabilityReport
from repro.sim.engine import SimulationEngine
from repro.types import DiskId, Request


class TestPlanValidation:
    def test_permanent_rejects_nonpositive_mttf(self) -> None:
        with pytest.raises(ConfigurationError, match="mttf_s"):
            PermanentFaults(mttf_s=0.0)
        with pytest.raises(ConfigurationError, match="mttf_s"):
            PermanentFaults(mttf_s=-5.0)

    def test_permanent_rejects_nonpositive_shape(self) -> None:
        with pytest.raises(ConfigurationError, match="weibull_shape"):
            PermanentFaults(mttf_s=100.0, weibull_shape=0.0)

    def test_transient_rejects_bad_times(self) -> None:
        with pytest.raises(ConfigurationError, match="mtbf_s"):
            TransientFaults(mtbf_s=0.0, mean_repair_s=1.0)
        with pytest.raises(ConfigurationError, match="mean_repair_s"):
            TransientFaults(mtbf_s=1.0, mean_repair_s=-1.0)

    def test_spin_up_rejects_bad_probability(self) -> None:
        with pytest.raises(ConfigurationError, match="probability"):
            SpinUpFaults(probability=1.5)
        with pytest.raises(ConfigurationError, match="probability"):
            SpinUpFaults(probability=-0.1)

    def test_spin_up_rejects_negative_retries(self) -> None:
        with pytest.raises(ConfigurationError, match="max_retries"):
            SpinUpFaults(probability=0.5, max_retries=-1)

    def test_scripted_rejects_negative_instant(self) -> None:
        with pytest.raises(ConfigurationError, match="at_s"):
            ScriptedFault(disk_id=0, at_s=-1.0)

    def test_scripted_rejects_nonpositive_repair(self) -> None:
        with pytest.raises(ConfigurationError, match="repair_after_s"):
            ScriptedFault(disk_id=0, at_s=1.0, repair_after_s=0.0)

    def test_canonical_rejects_nonpositive_rate(self) -> None:
        with pytest.raises(ConfigurationError, match="failure_rate_per_s"):
            FaultPlan.canonical(0.0)


class TestPlanShape:
    def test_none_plan_is_inactive(self) -> None:
        assert FaultPlan.none().active is False

    def test_each_fault_source_activates(self) -> None:
        assert FaultPlan(permanent=PermanentFaults(mttf_s=1.0)).active
        assert FaultPlan(
            transient=TransientFaults(mtbf_s=1.0, mean_repair_s=1.0)
        ).active
        assert FaultPlan(spin_up=SpinUpFaults(probability=0.1)).active
        assert FaultPlan(
            scripted=(ScriptedFault(disk_id=0, at_s=1.0),)
        ).active

    def test_canonical_is_permanent_only(self) -> None:
        plan = FaultPlan.canonical(1e-4, seed=7)
        assert plan.seed == 7
        assert plan.permanent is not None
        assert plan.permanent.mttf_s == pytest.approx(1e4)
        assert plan.permanent.weibull_shape == 1.0
        assert plan.transient is None
        assert plan.spin_up is None
        assert plan.scripted == ()

    def test_key_payload_names_every_knob(self) -> None:
        plan = FaultPlan(
            seed=3,
            permanent=PermanentFaults(mttf_s=50.0, weibull_shape=2.0),
            transient=TransientFaults(mtbf_s=10.0, mean_repair_s=1.0),
            spin_up=SpinUpFaults(probability=0.25, max_retries=1),
            scripted=(ScriptedFault(disk_id=2, at_s=9.0, repair_after_s=4.0),),
        )
        payload = plan.key_payload()
        assert payload["seed"] == 3
        assert payload["permanent"] == {"mttf_s": 50.0, "weibull_shape": 2.0}
        assert payload["transient"] == {"mtbf_s": 10.0, "mean_repair_s": 1.0}
        assert payload["spin_up"] == {"probability": 0.25, "max_retries": 1}
        assert payload["scripted"] == [
            {"disk_id": 2, "at_s": 9.0, "repair_after_s": 4.0}
        ]


class TestWeibullDraw:
    def test_zero_uniform_is_immediate(self) -> None:
        assert weibull_time_s(0.0, mttf_s=100.0, shape=1.0) == 0.0

    def test_uniform_domain_enforced(self) -> None:
        with pytest.raises(ConfigurationError, match="u must be"):
            weibull_time_s(1.0, mttf_s=100.0, shape=1.0)
        with pytest.raises(ConfigurationError, match="u must be"):
            weibull_time_s(-0.5, mttf_s=100.0, shape=1.0)

    def test_scales_linearly_with_mttf(self) -> None:
        # The monotonicity the fault sweep relies on: for one uniform,
        # halving the rate (doubling the MTTF) doubles the failure time.
        short = weibull_time_s(0.37, mttf_s=100.0, shape=1.0)
        long = weibull_time_s(0.37, mttf_s=200.0, shape=1.0)
        assert long == pytest.approx(2.0 * short)

    def test_exponential_shape_recovers_inverse_cdf(self) -> None:
        import math

        u = 0.5
        expected = 100.0 * -math.log(1.0 - u)
        assert weibull_time_s(u, mttf_s=100.0, shape=1.0) == pytest.approx(
            expected
        )


def run_injector(
    plan: FaultPlan, num_disks: int, until_s: float
) -> Tuple[List[Tuple[float, DiskId]], AvailabilityReport]:
    """Drive ``plan`` over an idle fleet up to ``until_s``; returns every
    ``(instant, disk)`` at which a disk became unavailable, and the
    accounting at ``until_s``."""
    engine = SimulationEngine()
    disks = {
        disk_id: SimulatedDisk(disk_id, engine, BARRACUDA, rng=random.Random(0))
        for disk_id in range(num_disks)
    }
    failed: List[Tuple[float, DiskId]] = []

    def on_disk_failed(disk_id: DiskId, drained: List[Request]) -> None:
        del drained
        failed.append((engine.now, disk_id))

    injector = FaultInjector(plan, engine, disks, on_disk_failed)
    engine.run(until=until_s)
    return failed, injector.availability_report(until_s, 0, 0, 0)


def deaths(plan: FaultPlan, num_disks: int) -> Dict[DiskId, Optional[float]]:
    return {disk_id: death_time_s(plan, disk_id) for disk_id in range(num_disks)}


def first_outages(
    plan: FaultPlan, disk_id: DiskId, count: int = 20
) -> List[Tuple[float, float]]:
    return list(islice(outages(plan, disk_id), count))


class TestScheduleDeterminism:
    def test_same_inputs_same_schedule(self) -> None:
        plan = FaultPlan(
            seed=11,
            permanent=PermanentFaults(mttf_s=500.0),
            transient=TransientFaults(mtbf_s=200.0, mean_repair_s=20.0),
        )
        assert deaths(plan, 6) == deaths(plan, 6)
        for disk_id in range(6):
            assert first_outages(plan, disk_id) == first_outages(plan, disk_id)

    def test_disk_schedules_stable_under_fleet_growth(self) -> None:
        # Per-disk streams derive from (seed, disk_id) alone, so adding
        # disks never perturbs the existing disks' failure times.
        plan = FaultPlan(
            seed=11,
            permanent=PermanentFaults(mttf_s=500.0),
            transient=TransientFaults(mtbf_s=200.0, mean_repair_s=20.0),
        )
        small, small_report = run_injector(plan, num_disks=4, until_s=1000.0)
        large, _ = run_injector(plan, num_disks=8, until_s=1000.0)
        assert small_report.disk_failures > 0
        assert small_report.transient_outages > 0
        assert [event for event in large if event[1] < 4] == small

    def test_different_seeds_differ(self) -> None:
        def deaths_of(seed: int) -> Dict[DiskId, Optional[float]]:
            plan = FaultPlan(seed=seed, permanent=PermanentFaults(mttf_s=500.0))
            return deaths(plan, 16)

        assert deaths_of(1) != deaths_of(2)

    def test_spin_up_stream_is_per_disk_deterministic(self) -> None:
        plan = FaultPlan(seed=5, spin_up=SpinUpFaults(probability=0.5))
        again = spin_up_stream(plan, 3)
        draws = [spin_up_stream(plan, 3).random() for _ in range(1)]
        assert again.random() == draws[0]
        assert spin_up_stream(plan, 4).random() != draws[0]

    def test_streams_are_per_disk_and_per_kind(self) -> None:
        plan = FaultPlan(
            seed=5,
            permanent=PermanentFaults(mttf_s=500.0),
            transient=TransientFaults(mtbf_s=200.0, mean_repair_s=20.0),
        )
        assert death_time_s(plan, 3) != death_time_s(plan, 4)
        assert first_outages(plan, 3) != first_outages(plan, 4)
        # The three fault kinds of one disk draw from distinct streams.
        first_uniforms = {
            random.Random(plan.seed * kind + 3).random()
            for kind in (1_000_033, 1_000_037, 1_000_039)
        }
        assert len(first_uniforms) == 3
        assert spin_up_stream(plan, 3).random() in first_uniforms

    def test_models_absent_draw_nothing(self) -> None:
        plan = FaultPlan(spin_up=SpinUpFaults(probability=0.5))
        assert death_time_s(plan, 0) is None
        assert first_outages(plan, 0) == []


class TestScheduleMonotonicity:
    def test_higher_rate_strictly_advances_every_death(self) -> None:
        horizon = 50_000.0

        def deaths_within(rate: float) -> Dict[DiskId, float]:
            plan = FaultPlan.canonical(rate, seed=1)
            return {
                disk_id: at_s
                for disk_id, at_s in deaths(plan, 32).items()
                if at_s is not None and at_s < horizon
            }

        deaths_lo = deaths_within(1e-5)
        deaths_hi = deaths_within(1e-4)
        # Every disk dead at the low rate is dead (earlier) at the high rate.
        assert set(deaths_lo) <= set(deaths_hi)
        for disk_id, at_lo in deaths_lo.items():
            assert deaths_hi[disk_id] < at_lo
        # And the high rate genuinely kills more of the fleet here.
        assert len(deaths_hi) > len(deaths_lo)


class TestScriptedMerge:
    def test_earlier_scripted_death_overrides_stochastic(self) -> None:
        plan = FaultPlan(
            seed=1,
            permanent=PermanentFaults(mttf_s=10.0),  # everything dies fast
            scripted=(ScriptedFault(disk_id=0, at_s=0.25),),
        )
        failed, report = run_injector(plan, num_disks=1, until_s=1000.0)
        assert len(failed) == 1
        assert failed[0][0] <= 0.25
        assert report.disk_failures == 1

    def test_later_scripted_death_does_not_postpone(self) -> None:
        plan = FaultPlan(
            seed=1,
            scripted=(
                ScriptedFault(disk_id=0, at_s=5.0),
                ScriptedFault(disk_id=0, at_s=100.0),
            ),
        )
        failed, report = run_injector(plan, num_disks=1, until_s=1000.0)
        assert failed == [(5.0, 0)]
        assert report.disk_failures == 1

    def test_outages_truncated_at_permanent_death(self) -> None:
        plan = FaultPlan(
            scripted=(
                ScriptedFault(disk_id=0, at_s=10.0),  # permanent
                ScriptedFault(disk_id=0, at_s=20.0, repair_after_s=5.0),
                ScriptedFault(disk_id=0, at_s=2.0, repair_after_s=1.0),
            )
        )
        failed, report = run_injector(plan, num_disks=1, until_s=1000.0)
        assert failed == [(2.0, 0), (10.0, 0)]
        assert report.transient_outages == 1
        assert report.disk_failures == 1
        assert report.downtime_s == {0: 1.0 + 990.0}

    def test_stochastic_outages_truncated_at_permanent_death(self) -> None:
        # The outage chain stops at the disk's death: nothing after it
        # is posted, so the queue drains once the disk is gone.
        plan = FaultPlan(
            seed=3,
            transient=TransientFaults(mtbf_s=10.0, mean_repair_s=1.0),
            scripted=(ScriptedFault(disk_id=0, at_s=100.0),),
        )
        engine = SimulationEngine()
        disk = SimulatedDisk(0, engine, BARRACUDA, rng=random.Random(0))
        FaultInjector(plan, engine, {0: disk}, lambda disk_id, drained: None)
        engine.run(until=200.0)
        assert engine.pending_events == 0

    def test_scripted_fault_beyond_horizon_ignored(self) -> None:
        plan = FaultPlan(scripted=(ScriptedFault(disk_id=0, at_s=999.0),))
        failed, report = run_injector(plan, num_disks=1, until_s=100.0)
        assert failed == []
        assert report.disk_failures == 0

    def test_scripted_fault_at_the_run_end_fires(self) -> None:
        plan = FaultPlan(scripted=(ScriptedFault(disk_id=0, at_s=100.0),))
        failed, _ = run_injector(plan, num_disks=1, until_s=100.0)
        assert failed == [(100.0, 0)]

    def test_scripted_fault_on_unknown_disk_rejected(self) -> None:
        plan = FaultPlan(scripted=(ScriptedFault(disk_id=9, at_s=1.0),))
        with pytest.raises(ConfigurationError, match="unknown disk 9"):
            run_injector(plan, num_disks=3, until_s=100.0)


class TestOutageBackstop:
    def test_outages_are_ordered(self) -> None:
        plan = FaultPlan(
            seed=4, transient=TransientFaults(mtbf_s=50.0, mean_repair_s=5.0)
        )
        for disk_id in range(2):
            drawn = first_outages(plan, disk_id, count=100)
            downs = [down for down, _ in drawn]
            assert downs == sorted(downs)
            for (down, up), (next_down, _) in zip(drawn, drawn[1:]):
                assert down < up < next_down

    def test_outage_chain_is_unbounded(self) -> None:
        # A fast outage process (repairs much faster than failures
        # arrive) runs to the end of the run: the injector holds one
        # outage per disk at a time and draws the next when it ends.
        plan = FaultPlan(
            seed=1, transient=TransientFaults(mtbf_s=1e-2, mean_repair_s=1e-4)
        )
        engine = SimulationEngine()
        disk = SimulatedDisk(0, engine, BARRACUDA, rng=random.Random(0))
        injector = FaultInjector(
            plan, engine, {0: disk}, lambda disk_id, drained: None
        )
        assert engine.pending_events == 2
        engine.run(until=200.0)
        assert engine.pending_events == 2
        report = injector.availability_report(200.0, 0, 0, 0)
        assert report.transient_outages > 10_000
