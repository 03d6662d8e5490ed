"""Run reports: response times, energy, spin counts, breakdowns.

:class:`MetricsCollector` receives per-request completion callbacks during a
run; :class:`SimulationReport` is the immutable result bundle every
experiment consumes. The report exposes exactly the quantities the paper
plots: total energy (Fig. 6/14), spin operations (Fig. 7/15), mean response
time (Fig. 8/16), response-time distribution (Fig. 12/13) and per-disk
state-time breakdowns (Fig. 9/17).
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.disk.stats import DiskStats
from repro.errors import SimulationError
from repro.power.states import DiskPowerState
from repro.types import CompletionRecord, DiskId, Request, RequestId


class MetricsCollector:
    """Accumulates per-request completions (and losses) during a simulation.

    The completion callback runs once per serviced request on the
    simulation hot path, so it does the minimum: one tuple append into a
    completion log. Disks report their completions lazily, each disk in
    its own order, so the log is sorted into global completion order when
    it is read: by completion instant, then service start instant, then
    start stamp (the order in which services began). Response times and
    the per-request completion map are derived views built on access
    (each consumed at most once per run, by the report builder and by
    tests respectively).
    """

    __slots__ = (
        "_log",
        "record",
        "_sorted_len",
        "_completions_map",
        "_completions_len",
        "_lost",
    )

    def __init__(self) -> None:
        # One record per completion; sorted on read.
        self._log: List[CompletionRecord] = []
        #: A disk's completion callback: stores its record as it is.
        self.record: Callable[[CompletionRecord], None] = self._log.append
        self._sorted_len = 0
        self._completions_map: Optional[
            Dict[RequestId, Tuple[DiskId, float]]
        ] = None
        self._completions_len = 0
        self._lost: List[RequestId] = []

    def on_complete(
        self,
        request: Request,
        disk_id: DiskId,
        now: float,
        started: Optional[float] = None,
        stamp: int = 0,
    ) -> None:
        """Record one completion at ``now`` (response time = now -
        arrival) of a service that started at ``started`` (default
        ``now``) under ``stamp``: the checked form of :attr:`record`."""
        if now < request.time:
            raise SimulationError(
                f"request {request.request_id} completed before it arrived"
            )
        self._log.append(
            (now, now if started is None else started, stamp, request, disk_id)
        )

    def _ordered(self) -> List[CompletionRecord]:
        """The log in global completion order."""
        log = self._log
        if self._sorted_len != len(log):
            log.sort()
            self._sorted_len = len(log)
        return log

    @property
    def response_times(self) -> List[float]:
        """Per-request response times in seconds, completion order."""
        return [entry[0] - entry[3].time for entry in self._ordered()]

    @property
    def completed(self) -> int:
        return len(self._log)

    def on_lost(self, request: Request, now: float) -> None:
        """Record a request whose every replica is dead (never raised)."""
        if now < request.time:
            raise SimulationError(
                f"request {request.request_id} lost before it arrived"
            )
        self._lost.append(request.request_id)

    @property
    def lost(self) -> int:
        """Requests recorded as lost (no surviving replica)."""
        return len(self._lost)

    @property
    def lost_request_ids(self) -> List[RequestId]:
        """Ids of the lost requests, in loss order."""
        return list(self._lost)

    def _completions(self) -> Dict[RequestId, Tuple[DiskId, float]]:
        """Lazy ``request_id -> (disk, time)`` view over the log."""
        if (
            self._completions_map is None
            or self._completions_len != len(self._log)
        ):
            self._completions_map = {
                entry[3].request_id: (entry[4], entry[0])
                for entry in self._ordered()
            }
            self._completions_len = len(self._log)
        return self._completions_map

    def completion_of(self, request_id: RequestId) -> Tuple[DiskId, float]:
        """(disk, completion time) of a finished request."""
        return self._completions()[request_id]

    def disk_of(self, request_id: RequestId) -> DiskId:
        """The disk that serviced a finished request."""
        return self._completions()[request_id][0]


def percentile(sorted_values: Sequence[float], fraction: float) -> float:
    """Nearest-rank percentile over pre-sorted values.

    Args:
        sorted_values: Non-empty ascending sequence.
        fraction: In [0, 1]; 0.9 gives the paper's 90th percentile.
    """
    if not sorted_values:
        raise ValueError("percentile of empty sequence")
    if not 0.0 <= fraction <= 1.0:
        raise ValueError(f"fraction must be in [0, 1], got {fraction}")
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


@dataclass(frozen=True)
class AvailabilityReport:
    """Availability outcome of one fault-injected run.

    Present on a :class:`SimulationReport` only when a fault plan was
    active — runs without fault injection carry ``None`` so their
    serialised form is byte-identical to the pre-fault code.

    Attributes:
        requests_lost: Requests dropped because no replica survived.
        requests_redispatched: Requests re-routed to a surviving replica
            after their disk failed mid-flight.
        failover_retries: Backoff re-admissions of requests that found
            every replica transiently unavailable.
        spin_up_failures: Failed spin-up attempts across all disks.
        disk_failures: Disks that died permanently during the run.
        transient_outages: Transient outages that started during the run.
        downtime_s: Per-disk unavailable seconds (only disks with
            nonzero downtime appear).
        disk_seconds: Total disk-seconds of the run (disks × duration) —
            the denominator of :attr:`availability`.
    """

    requests_lost: int = 0
    requests_redispatched: int = 0
    failover_retries: int = 0
    spin_up_failures: int = 0
    disk_failures: int = 0
    transient_outages: int = 0
    downtime_s: Mapping[DiskId, float] = field(default_factory=dict)
    disk_seconds: float = 0.0

    @property
    def total_downtime_s(self) -> float:
        """Unavailable disk-seconds summed over all disks."""
        return sum(self.downtime_s.values())

    @property
    def availability(self) -> float:
        """Fraction of disk-seconds the fleet was available, in [0, 1]."""
        if self.disk_seconds <= 0:
            return 1.0
        return max(0.0, 1.0 - self.total_downtime_s / self.disk_seconds)

    def loss_fraction(self, requests_offered: int) -> float:
        """Lost requests as a fraction of the offered load."""
        if requests_offered <= 0:
            return 0.0
        return self.requests_lost / requests_offered


@dataclass(frozen=True)
class TapeTierReport:
    """Cold-tier outcome of one tiered (disk + tape) run.

    Present on a :class:`SimulationReport` only when the run had a
    :class:`~repro.tape.config.TierConfig` attached — disk-only runs
    carry ``None`` so their serialised form stays byte-identical to the
    pre-tier code. All quantities are plain primitives: counts, joules,
    seconds and metres.

    Attributes:
        sequencer: LTSP sequencer family the tape drives planned with.
        profile_name: Tape power-profile name.
        num_drives: Tape drives in the cold tier.
        hot_capacity: Data ids the hot (disk) set holds at once.
        requests_to_disk: Requests routed to the disk tier.
        requests_to_tape: Requests routed to the tape tier.
        tape_requests_completed: Tape requests serviced before the end.
        promotions: Tape reads that promoted their data id to the hot
            set (0 when promote-on-access is off).
        demotions: Hot ids evicted back to the cold set by promotions.
        mounts / unmounts: Cartridge mount/unmount operations summed
            over all drives (the tape analogue of spin ups/downs).
        seek_distance_m: Metres of tape wound, summed over all drives.
        tape_energy: Joules consumed by the tape drives (the report's
            ``total_energy`` includes it).
        state_time_s: Seconds per tape power state (by state name)
            summed over all drives.
        tape_response_times: Response times in seconds of the
            tape-serviced requests, completion order.
    """

    sequencer: str
    profile_name: str
    num_drives: int
    hot_capacity: int
    requests_to_disk: int = 0
    requests_to_tape: int = 0
    tape_requests_completed: int = 0
    promotions: int = 0
    demotions: int = 0
    mounts: int = 0
    unmounts: int = 0
    seek_distance_m: float = 0.0
    tape_energy: float = 0.0
    state_time_s: Mapping[str, float] = field(default_factory=dict)
    tape_response_times: Sequence[float] = field(default=(), repr=False)

    @property
    def mean_tape_response_time(self) -> float:
        """Mean tape response time in seconds (0.0 when none completed)."""
        if not self.tape_response_times:
            return 0.0
        return sum(self.tape_response_times) / len(self.tape_response_times)


@dataclass(frozen=True)
class SimulationReport:
    """Immutable results of one simulation run.

    Attributes:
        scheduler_name: Scheduler that produced the run.
        duration: Simulated seconds covered (trace span + drain time).
        total_energy: Joules summed over all disks.
        disk_stats: Final per-disk ledgers (state time, spin counts).
        response_times: Per-request response times, completion order.
        requests_offered: Requests fed into the system.
        requests_completed: Requests whose I/O finished before the end.
        cache_hits / cache_misses: Block-cache counters (0 = no cache).
        events_processed: Simulator events during the run: the fired
            engine events plus the completions, idle timeouts and
            spin-down ends the disks resolved by the end of the run. A
            crash-stop leaves nothing of its disk due, so fault runs
            count no stale events. 0 for analytically-evaluated offline
            runs.
        availability: Fault/availability outcome; ``None`` unless the run
            had an active fault plan.
        tape: Cold-tier outcome; ``None`` unless the run was tiered.
    """

    scheduler_name: str
    duration: float
    total_energy: float
    disk_stats: Mapping[DiskId, DiskStats]
    response_times: Sequence[float] = field(repr=False)
    requests_offered: int = 0
    requests_completed: int = 0
    cache_hits: int = 0
    cache_misses: int = 0
    events_processed: int = 0
    availability: Optional[AvailabilityReport] = None
    tape: Optional[TapeTierReport] = None

    @property
    def cache_hit_ratio(self) -> float:
        total = self.cache_hits + self.cache_misses
        return self.cache_hits / total if total else 0.0

    @property
    def mean_response_time(self) -> float:
        """Mean response time in seconds (0.0 when nothing completed)."""
        if not self.response_times:
            return 0.0
        return sum(self.response_times) / len(self.response_times)

    def response_percentile(self, fraction: float) -> float:
        """Nearest-rank percentile of the response times."""
        return percentile(sorted(self.response_times), fraction)

    @property
    def spin_ups(self) -> int:
        return sum(stats.spin_ups for stats in self.disk_stats.values())

    @property
    def spin_downs(self) -> int:
        return sum(stats.spin_downs for stats in self.disk_stats.values())

    @property
    def spin_operations(self) -> int:
        """Total spin-up + spin-down operations (Fig. 7 metric)."""
        return self.spin_ups + self.spin_downs

    def state_time_totals(self) -> Dict[DiskPowerState, float]:
        """Seconds per power state summed over all disks."""
        totals = {state: 0.0 for state in DiskPowerState}
        for stats in self.disk_stats.values():
            for state, seconds in stats.state_time.items():
                totals[state] += seconds
        return totals

    def per_disk_fractions(self) -> List[Dict[DiskPowerState, float]]:
        """Per-disk state fractions sorted by descending standby share.

        This is the exact x-axis ordering of the paper's Fig. 9 ("disks
        sorted by their standby time").
        """
        fractions = [stats.state_fractions() for stats in self.disk_stats.values()]
        fractions.sort(key=lambda f: f[DiskPowerState.STANDBY], reverse=True)
        return fractions

    def normalized_energy(self, baseline_energy: float) -> float:
        """Energy as a fraction of a baseline run's joules (always-on)."""
        if baseline_energy <= 0:
            raise ValueError("baseline energy must be positive")
        return self.total_energy / baseline_energy

    def inverse_cdf(
        self, thresholds: Sequence[float]
    ) -> List[Tuple[float, float]]:
        """``P[response time > x]`` for each ``x`` (Fig. 12)."""
        values = sorted(self.response_times)
        n = len(values)
        points: List[Tuple[float, float]] = []
        if n == 0:
            return [(x, 0.0) for x in thresholds]
        for x in thresholds:
            count_greater = n - bisect.bisect_right(values, x)
            points.append((x, count_greater / n))
        return points

    def summary(self) -> str:
        """Multi-line human-readable run summary."""
        lines = [
            f"scheduler            : {self.scheduler_name}",
            f"duration             : {self.duration:.1f} s",
            f"total energy         : {self.total_energy:.0f} J",
            f"spin ups / downs     : {self.spin_ups} / {self.spin_downs}",
            f"requests             : {self.requests_completed}/"
            f"{self.requests_offered} completed",
        ]
        if self.response_times:
            lines.append(
                f"mean / p90 response  : {self.mean_response_time * 1e3:.1f} ms / "
                f"{self.response_percentile(0.9) * 1e3:.1f} ms"
            )
        if self.availability is not None:
            avail = self.availability
            lines.append(
                f"availability         : {avail.availability:.4f} "
                f"({avail.disk_failures} disks died, "
                f"{avail.transient_outages} outages)"
            )
            lines.append(
                f"lost / redispatched  : {avail.requests_lost} / "
                f"{avail.requests_redispatched}"
            )
        if self.tape is not None:
            tape = self.tape
            lines.append(
                f"tier split           : {tape.requests_to_disk} disk / "
                f"{tape.requests_to_tape} tape "
                f"(hot capacity {tape.hot_capacity})"
            )
            lines.append(
                f"tape ({tape.sequencer:>7s})       : "
                f"{tape.tape_energy:.0f} J, "
                f"{tape.seek_distance_m:.0f} m wound, "
                f"{tape.mounts} mounts"
            )
            if tape.tape_response_times:
                lines.append(
                    f"tape mean response   : "
                    f"{tape.mean_tape_response_time:.1f} s"
                )
        return "\n".join(lines)
