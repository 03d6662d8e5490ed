"""Canonical serialisation of simulation results.

The determinism and caching guarantees of the harness rest on one
function: :func:`canonical_json` — sorted keys, no whitespace, ``NaN``
rejected — so equal results serialise to byte-identical strings.  A
:class:`~repro.report.SimulationReport` round-trips exactly through
:func:`report_to_payload` / :func:`report_from_payload`: every float is
stored verbatim (JSON's shortest-repr float round-trips bit-exactly in
CPython), so a cache-hit report is indistinguishable from a freshly
computed one, byte-for-byte on the canonical form.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any, Dict, Optional

from repro.disk.stats import DiskStats
from repro.errors import ConfigurationError
from repro.power.profile import DiskPowerProfile
from repro.power.states import DiskPowerState
from repro.report import AvailabilityReport, SimulationReport, TapeTierReport

#: Bump when the report payload layout changes (invalidates the cache
#: through the key salt).
REPORT_SCHEMA_VERSION = 1


def canonical_json(payload: Any) -> str:
    """Deterministic JSON: sorted keys, compact separators, no NaN."""
    return json.dumps(
        payload, sort_keys=True, separators=(",", ":"), allow_nan=False
    )


def sha256_hex(text: str) -> str:
    """SHA-256 hex digest of a UTF-8 string."""
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def profile_to_payload(profile: DiskPowerProfile) -> Dict[str, Any]:
    """A power profile as a plain dict (all watts/seconds fields)."""
    return {
        "name": profile.name,
        "idle_power_watts": profile.idle_power,
        "active_power_watts": profile.active_power,
        "standby_power_watts": profile.standby_power,
        "spin_up_power_watts": profile.spin_up_power,
        "spin_down_power_watts": profile.spin_down_power,
        "spin_up_time_s": profile.spin_up_time,
        "spin_down_time_s": profile.spin_down_time,
        "breakeven_override_s": profile.breakeven_override,
    }


def profile_from_payload(payload: Dict[str, Any]) -> DiskPowerProfile:
    """Rebuild a power profile from :func:`profile_to_payload` output."""
    return DiskPowerProfile(
        name=payload["name"],
        idle_power=payload["idle_power_watts"],
        active_power=payload["active_power_watts"],
        standby_power=payload["standby_power_watts"],
        spin_up_power=payload["spin_up_power_watts"],
        spin_down_power=payload["spin_down_power_watts"],
        spin_up_time=payload["spin_up_time_s"],
        spin_down_time=payload["spin_down_time_s"],
        breakeven_override=payload["breakeven_override_s"],
    )


def _stats_to_payload(stats: DiskStats) -> Dict[str, Any]:
    return {
        "state_time_s": {
            state.name: stats.state_time.get(state, 0.0)
            for state in DiskPowerState
        },
        "spin_ups": stats.spin_ups,
        "spin_downs": stats.spin_downs,
        "requests_serviced": stats.requests_serviced,
        # A ledger's energy is power x time alone; the key stays in the
        # layout so pinned report bytes do not move.
        "lump_transition_energy_j": 0.0,
    }


def _stats_from_payload(
    payload: Dict[str, Any], profile: DiskPowerProfile
) -> DiskStats:
    stats = DiskStats(
        profile=profile,
        state_time={
            DiskPowerState[name]: seconds
            for name, seconds in payload["state_time_s"].items()
        },
        spin_ups=payload["spin_ups"],
        spin_downs=payload["spin_downs"],
        requests_serviced=payload["requests_serviced"],
    )
    lump = payload["lump_transition_energy_j"]
    if lump != 0.0:
        raise ConfigurationError(
            f"lump transition energy {lump!r} J: a ledger's energy is "
            "power x state time alone"
        )
    stats.mark_closed()
    return stats


def _availability_to_payload(availability: AvailabilityReport) -> Dict[str, Any]:
    return {
        "requests_lost": availability.requests_lost,
        "requests_redispatched": availability.requests_redispatched,
        "failover_retries": availability.failover_retries,
        "spin_up_failures": availability.spin_up_failures,
        "disk_failures": availability.disk_failures,
        "transient_outages": availability.transient_outages,
        "downtime_s": {
            str(disk_id): seconds
            for disk_id, seconds in availability.downtime_s.items()
        },
        "disk_seconds": availability.disk_seconds,
    }


def _availability_from_payload(payload: Dict[str, Any]) -> AvailabilityReport:
    return AvailabilityReport(
        requests_lost=payload["requests_lost"],
        requests_redispatched=payload["requests_redispatched"],
        failover_retries=payload["failover_retries"],
        spin_up_failures=payload["spin_up_failures"],
        disk_failures=payload["disk_failures"],
        transient_outages=payload["transient_outages"],
        downtime_s={
            int(disk_id): seconds
            for disk_id, seconds in payload["downtime_s"].items()
        },
        disk_seconds=payload["disk_seconds"],
    )


def _tape_to_payload(tape: TapeTierReport) -> Dict[str, Any]:
    return {
        "sequencer": tape.sequencer,
        "profile_name": tape.profile_name,
        "num_drives": tape.num_drives,
        "hot_capacity": tape.hot_capacity,
        "requests_to_disk": tape.requests_to_disk,
        "requests_to_tape": tape.requests_to_tape,
        "tape_requests_completed": tape.tape_requests_completed,
        "promotions": tape.promotions,
        "demotions": tape.demotions,
        "mounts": tape.mounts,
        "unmounts": tape.unmounts,
        "seek_distance_m": tape.seek_distance_m,
        "tape_energy_j": tape.tape_energy,
        "state_time_s": dict(tape.state_time_s),
        "tape_response_times_s": list(tape.tape_response_times),
    }


def _tape_from_payload(payload: Dict[str, Any]) -> TapeTierReport:
    return TapeTierReport(
        sequencer=payload["sequencer"],
        profile_name=payload["profile_name"],
        num_drives=payload["num_drives"],
        hot_capacity=payload["hot_capacity"],
        requests_to_disk=payload["requests_to_disk"],
        requests_to_tape=payload["requests_to_tape"],
        tape_requests_completed=payload["tape_requests_completed"],
        promotions=payload["promotions"],
        demotions=payload["demotions"],
        mounts=payload["mounts"],
        unmounts=payload["unmounts"],
        seek_distance_m=payload["seek_distance_m"],
        tape_energy=payload["tape_energy_j"],
        state_time_s=dict(payload["state_time_s"]),
        tape_response_times=tuple(payload["tape_response_times_s"]),
    )


def report_to_payload(report: SimulationReport) -> Dict[str, Any]:
    """A report as a JSON-able dict, exact to the last bit.

    ``disk_stats`` keys become strings (JSON object keys); the shared
    power profile is stored once at the top level.  The ``availability``
    and ``tape`` keys are additive: they appear only for fault-injected
    and tiered runs respectively, keeping disk-only no-fault payloads
    byte-identical to schema version 1 output.
    """
    profile: Optional[DiskPowerProfile] = None
    for stats in report.disk_stats.values():
        profile = stats.profile
        break
    payload: Dict[str, Any] = {
        "version": REPORT_SCHEMA_VERSION,
        "scheduler_name": report.scheduler_name,
        "duration_s": report.duration,
        "total_energy_j": report.total_energy,
        "requests_offered": report.requests_offered,
        "requests_completed": report.requests_completed,
        "cache_hits": report.cache_hits,
        "cache_misses": report.cache_misses,
        "events_processed": report.events_processed,
        "profile": profile_to_payload(profile) if profile is not None else None,
        "disk_stats": {
            str(disk_id): _stats_to_payload(stats)
            for disk_id, stats in report.disk_stats.items()
        },
        "response_times_s": list(report.response_times),
    }
    if report.availability is not None:
        payload["availability"] = _availability_to_payload(report.availability)
    if report.tape is not None:
        payload["tape"] = _tape_to_payload(report.tape)
    return payload


def report_from_payload(payload: Dict[str, Any]) -> SimulationReport:
    """Rebuild a report from :func:`report_to_payload` output."""
    version = payload.get("version")
    if version != REPORT_SCHEMA_VERSION:
        raise ConfigurationError(
            f"unsupported report payload version {version!r} "
            f"(expected {REPORT_SCHEMA_VERSION})"
        )
    profile_payload = payload["profile"]
    disk_stats: Dict[int, DiskStats] = {}
    if profile_payload is not None:
        profile = profile_from_payload(profile_payload)
        disk_stats = {
            int(disk_id): _stats_from_payload(stats_payload, profile)
            for disk_id, stats_payload in payload["disk_stats"].items()
        }
    return SimulationReport(
        scheduler_name=payload["scheduler_name"],
        duration=payload["duration_s"],
        total_energy=payload["total_energy_j"],
        disk_stats=disk_stats,
        # A tuple keeps the offline-report contract (`response_times == ()`)
        # intact across the round-trip; canonical JSON is container-agnostic.
        response_times=tuple(payload["response_times_s"]),
        requests_offered=payload["requests_offered"],
        requests_completed=payload["requests_completed"],
        cache_hits=payload["cache_hits"],
        cache_misses=payload["cache_misses"],
        events_processed=payload["events_processed"],
        availability=(
            _availability_from_payload(payload["availability"])
            if "availability" in payload
            else None
        ),
        tape=(
            _tape_from_payload(payload["tape"])
            if "tape" in payload
            else None
        ),
    )


def canonical_report_json(report: SimulationReport) -> str:
    """The canonical byte form used by the determinism test tier."""
    return canonical_json(report_to_payload(report))
