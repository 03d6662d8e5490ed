"""Determinism/equivalence tier: same spec => byte-identical reports.

Three equivalences, each proven on canonical report JSON (sorted keys,
compact separators — see ``repro.experiments.harness.serialize``):

* two fresh serial runs of the same spec;
* a serial sweep vs a 2-worker process-pool sweep;
* a fresh compute vs a persistent-cache hit (across cache reopen).
"""

import copy
import pickle
from dataclasses import replace

import pytest

from repro.errors import ConfigurationError
from repro.experiments.harness import (
    RunCache,
    SweepRunner,
    baseline_spec,
    canonical_json,
    canonical_report_json,
    cell_spec,
    clear_memos,
    execute_spec,
    report_from_payload,
)
from repro.experiments.harness.runner import (
    get_binding,
    make_config,
    make_scheduler,
)
from repro.faults import FaultPlan
from repro.sim import simulate

SCALE = 0.05
SEED = 1


def _specs():
    specs = [
        cell_spec("cello", 3, key, scale=SCALE, seed=SEED)
        for key in ("random", "static", "heuristic", "wsc")
    ]
    # A fault-injected cell rides along so every equivalence below also
    # covers the failure schedule (same seed + plan => same failures).
    specs.append(
        cell_spec("cello", 3, "heuristic", scale=SCALE, seed=SEED, fault_rate=2e-4)
    )
    specs.append(baseline_spec("cello", scale=SCALE, seed=SEED))
    return specs


def _report_bytes(payload):
    return canonical_json(payload["report"])


class TestSerialDeterminism:
    def test_two_fresh_serial_runs_byte_identical(self):
        spec = cell_spec("cello", 3, "heuristic", scale=SCALE, seed=SEED)
        first = execute_spec(spec)
        clear_memos()
        second = execute_spec(spec)
        assert _report_bytes(first) == _report_bytes(second)

    def test_mwis_offline_run_deterministic(self):
        spec = cell_spec("cello", 2, "mwis", scale=SCALE, seed=SEED)
        first = execute_spec(spec)
        clear_memos()
        second = execute_spec(spec)
        assert _report_bytes(first) == _report_bytes(second)

    def test_different_seeds_differ(self):
        spec_a = cell_spec("cello", 3, "heuristic", scale=SCALE, seed=1)
        spec_b = cell_spec("cello", 3, "heuristic", scale=SCALE, seed=2)
        assert _report_bytes(execute_spec(spec_a)) != _report_bytes(
            execute_spec(spec_b)
        )

    def test_faulted_spec_deterministic(self):
        spec = cell_spec(
            "cello", 3, "wsc", scale=SCALE, seed=SEED, fault_rate=5e-4
        )
        first = execute_spec(spec)
        clear_memos()
        second = execute_spec(spec)
        assert _report_bytes(first) == _report_bytes(second)

    def test_none_fault_plan_is_zero_overlay(self):
        """``fault_plan=FaultPlan.none()`` must be byte-invisible.

        The explicit no-fault plan and no plan at all take the same code
        path: no injector, no epoch guards, no availability payload — so
        every pre-fault figure stays byte-identical.
        """
        spec = cell_spec("cello", 3, "heuristic", scale=SCALE, seed=SEED)
        requests, catalog, disks = get_binding(
            spec.trace,
            spec.replication_factor,
            spec.zipf_exponent,
            spec.scale,
            spec.seed,
        )
        config = make_config(disks, spec.profile, spec.seed)
        plain = simulate(requests, catalog, make_scheduler(spec), config)
        overlaid = simulate(
            requests,
            catalog,
            make_scheduler(spec),
            replace(config, fault_plan=FaultPlan.none()),
        )
        assert canonical_report_json(plain) == canonical_report_json(overlaid)
        assert "availability" not in canonical_report_json(plain)


class TestPoolEquivalence:
    def test_serial_vs_process_pool_byte_identical(self):
        specs = _specs()
        serial = SweepRunner(cache=None, jobs=1).run(specs)
        clear_memos()
        parallel = SweepRunner(cache=None, jobs=2).run(specs)
        for spec in specs:
            assert _report_bytes(serial.payloads[spec]) == _report_bytes(
                parallel.payloads[spec]
            ), spec.label()


class TestCacheEquivalence:
    def test_fresh_vs_cache_hit_byte_identical(self, tmp_path):
        specs = _specs()
        cache = RunCache(root=tmp_path, enabled=True)
        fresh = SweepRunner(cache=cache, jobs=1).run(specs)
        assert fresh.cache_hits == 0
        assert fresh.cache_misses == len(specs)

        reopened = RunCache(root=tmp_path, enabled=True)
        cached = SweepRunner(cache=reopened, jobs=1).run(specs)
        assert cached.cache_hits == len(specs)
        assert cached.cache_misses == 0
        assert all(point.cached for point in cached.points)
        for spec in specs:
            assert _report_bytes(fresh.payloads[spec]) == _report_bytes(
                cached.payloads[spec]
            ), spec.label()

    def test_payload_roundtrip_preserves_canonical_bytes(self):
        spec = cell_spec("cello", 1, "static", scale=SCALE, seed=SEED)
        payload = execute_spec(spec)
        report = report_from_payload(payload["report"])
        assert canonical_report_json(report) == _report_bytes(payload)

    def test_a_lump_transition_energy_is_rejected(self):
        # A ledger's energy is power x state time alone: the payload
        # keeps its lump key at 0.0 and a reader refuses anything else.
        spec = cell_spec("cello", 1, "static", scale=SCALE, seed=SEED)
        payload = copy.deepcopy(execute_spec(spec)["report"])
        disk_stats = payload["disk_stats"].values()
        assert {stats["lump_transition_energy_j"] for stats in disk_stats} == {0.0}
        next(iter(disk_stats))["lump_transition_energy_j"] = 3.0
        with pytest.raises(ConfigurationError, match="lump"):
            report_from_payload(payload)

    def test_spec_pickles_and_hashes(self):
        spec = cell_spec("cello", 3, "wsc", scale=SCALE, seed=SEED)
        clone = pickle.loads(pickle.dumps(spec))
        assert clone == spec
        assert hash(clone) == hash(spec)
