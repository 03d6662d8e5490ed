"""Fan-out/fan-in: route a load schedule across shard workers.

The router owns the deployment lifecycle: it expands the topology,
precomputes the open-loop schedule (byte-identical to the unsharded
load generator's), routes every request to its ring owner, and folds
the per-shard results back into one globally-ordered outcome stream.

Two execution paths share all of that logic and differ only in *where*
shard sessions run:

* **serial** — every shard session runs in-process, one after another.
  This is the reference path the determinism tier compares against.
* **multiprocess** — one worker process per shard, owned by a
  :class:`~repro.serve.shard.supervisor.ShardSupervisor` behind
  request/response queue pairs (the PR 2 ``SweepRunner`` pickling
  seams). The collection barrier polls worker liveness *and* a
  heartbeat-fed response timeout, so a shard dying — or hanging —
  mid-run degrades into typed outcomes instead of a wedge.

What happens to a dead shard's keyspace depends on the topology:

* ``shard_replication_factor = 1`` (default): replicas never span
  shards, so the keyspace is *shed* as typed ``shard_down`` rejections
  — availability degrades in exactly the paper's per-partition shape.
* ``R > 1``: every data id also lives on ``R - 1`` replica shards
  (:func:`~repro.serve.shard.topology.replica_table`), and the router
  fails a dead shard's keys over to the next live replica shard in
  deterministic table order. Completions that travelled through
  failover are counted (and their latency folded into the merged
  ``failover.latency_s`` histogram); a request whose *replica* shard
  then also dies is shed as the diagnosably-distinct ``failed_over``.
* **supervised recovery**: scripted ``recover_at_s`` restarts (or
  barrier-time escalation with ``supervise=True``) respawn the dead
  worker from its derived seed and replay its outbox — the restarted
  virtual session reproduces the lost incarnation exactly, so
  first-wins request-id dedup makes duplicate replies harmless.
"""

from __future__ import annotations

import multiprocessing
import time
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import ConfigurationError, SimulationError
from repro.serve.admission import Completed, Outcome, Rejected, RejectReason
from repro.serve.loadgen import LOOP_OPEN, LoadgenConfig, open_loop_schedule
from repro.serve.shard.messages import (
    ShardHang,
    ShardKill,
    ShardRequest,
    ShardResult,
)
from repro.serve.shard.supervisor import (
    BARRIER_POLL_S,
    REQUEST_CHUNK,
    RecoveryReport,
    ShardSupervisor,
    SupervisorConfig,
)
from repro.serve.shard.topology import (
    ShardSpec,
    ShardedServiceConfig,
    assign_data,
    build_topology,
    replica_table,
)
from repro.serve.shard.worker import run_shard_session

#: Hang-escalation default when hang injection is scripted but no
#: explicit response timeout was given (wall seconds of worker silence).
DEFAULT_RESPONSE_TIMEOUT_S = 30.0

#: One scripted chaos/recovery step: ``(time_s, priority, shard_id,
#: kind, kill)``. Priority orders same-instant steps: recoveries before
#: kills (so kill-during-recovery at one instant hits the *new*
#: incarnation), kills before hangs.
_Event = Tuple[float, int, int, str, Optional[ShardKill]]


@dataclass(frozen=True)
class ShardedRunResult:
    """One finished sharded run, reassembled.

    Attributes:
        outcomes: Every outcome in global schedule order (index 0 is
            the first scheduled arrival).
        shard_results: Live shards' session results, shard-id order.
            Shards that died mid-run (and never recovered) have no
            entry.
        shards_down: Ids of shards down at the end of the run,
            ascending. A killed-then-recovered shard is *not* here.
        requests_lost: Outcomes the *router* synthesised as terminal
            rejections (``shard_down`` plus ``failed_over``).
        router_wall_s: Wall seconds for the whole run, including
            process management (measurement only; never serialised
            into reports).
        router_cpu_s: CPU seconds burnt by the router process itself
            during the run (in the serial path this *includes* shard
            compute, which ran in-process).
        multiprocess: Which execution path produced this.
        requests_failed_over: Requests served by (or parked on) a
            shard other than their primary owner because the owner was
            down.
        requests_replayed: Outbox messages re-sent to restarted
            workers across every recovery.
        duplicates_suppressed: Duplicate per-request outcomes dropped
            by first-wins request-id dedup at the merge.
        failed_over_indices: Global schedule indices that travelled
            through failover, ascending.
        recoveries: One :class:`RecoveryReport` per completed worker
            recovery, oldest first.
    """

    outcomes: Tuple[Outcome, ...]
    shard_results: Tuple[ShardResult, ...]
    shards_down: Tuple[int, ...]
    requests_lost: int
    router_wall_s: float
    router_cpu_s: float
    multiprocess: bool
    requests_failed_over: int = 0
    requests_replayed: int = 0
    duplicates_suppressed: int = 0
    failed_over_indices: Tuple[int, ...] = ()
    recoveries: Tuple[RecoveryReport, ...] = ()

    @property
    def events_processed(self) -> int:
        """Engine events across all surviving shards."""
        return sum(r.events_processed for r in self.shard_results)

    @property
    def total_compute_cpu_s(self) -> float:
        """Sum of per-shard in-worker CPU time."""
        return sum(r.compute_cpu_s for r in self.shard_results)

    @property
    def overhead_cpu_s(self) -> float:
        """Router-side CPU not spent inside a shard session.

        Multiprocess: all router-process CPU is overhead (shard compute
        burns in the workers). Serial: shard sessions ran on the router
        process's own CPU clock, so subtract them back out.
        """
        if self.multiprocess:
            return self.router_cpu_s
        return max(0.0, self.router_cpu_s - self.total_compute_cpu_s)

    @property
    def critical_path_s(self) -> float:
        """Router overhead plus the slowest shard's compute, CPU seconds.

        The scaling metric ``serve_scale`` reports: on a single-core
        host the workers time-slice, so raw wall time cannot show
        scale-out — but each shard's *CPU* time shrinks with its share
        of the keyspace regardless, and overhead + slowest-shard CPU is
        the wall time an N-core host approaches.
        """
        slowest_s = max(
            (r.compute_cpu_s for r in self.shard_results), default=0.0
        )
        return self.overhead_cpu_s + slowest_s

    @property
    def events_per_sec_wall(self) -> float:
        """Aggregate rate against raw router wall time."""
        if self.router_wall_s <= 0:
            return 0.0
        return self.events_processed / self.router_wall_s

    @property
    def events_per_sec_critical(self) -> float:
        """Aggregate rate against the critical path (scale-out metric)."""
        critical_s = self.critical_path_s
        if critical_s <= 0:
            return 0.0
        return self.events_processed / critical_s

    @property
    def availability(self) -> float:
        """Completed fraction of the offered schedule (the SLO bound)."""
        if not self.outcomes:
            return 0.0
        completed = sum(
            1 for outcome in self.outcomes if isinstance(outcome, Completed)
        )
        return completed / len(self.outcomes)


def plan_messages(
    config: ShardedServiceConfig, load: LoadgenConfig
) -> List[ShardRequest]:
    """The global request stream, schedule order, ready to route.

    Reuses :func:`~repro.serve.loadgen.open_loop_schedule`, so the
    stream (arrival instants, client round-robin, Zipf data ids) is
    byte-identical to what an unsharded open-loop session with the same
    :class:`LoadgenConfig` would generate.
    """
    if load.loop != LOOP_OPEN:
        raise ConfigurationError(
            "sharded serving routes a precomputed open-loop schedule; "
            f"closed-loop sessions are single-process only (got {load.loop!r})"
        )
    schedule = open_loop_schedule(load, config.service.num_data)
    return [
        ShardRequest(
            index=index,
            arrival_s=arrival_s,
            client_id=client_id,
            data_id=data_id,
        )
        for index, (arrival_s, client_id, data_id) in enumerate(schedule)
    ]


def _validate_chaos(
    config: ShardedServiceConfig,
    kills: Sequence[ShardKill],
    hangs: Sequence[ShardHang],
    supervise: bool,
) -> List[_Event]:
    """Check the chaos script and compile it to a sorted event list."""
    by_shard: Dict[int, List[ShardKill]] = {}
    for kill in kills:
        if not 0 <= kill.shard_id < config.num_shards:
            raise ConfigurationError(
                f"kill targets unknown shard {kill.shard_id}; "
                f"deployment has shards 0..{config.num_shards - 1}"
            )
        if kill.time_s < 0:
            raise ConfigurationError(
                f"kill time must be >= 0, got {kill.time_s}"
            )
        if kill.recover_at_s is not None and kill.recover_at_s < kill.time_s:
            raise ConfigurationError(
                f"recover_at_s={kill.recover_at_s} precedes the kill at "
                f"{kill.time_s} on shard {kill.shard_id}"
            )
        by_shard.setdefault(kill.shard_id, []).append(kill)
    for shard_id, sequence in by_shard.items():
        sequence.sort(key=lambda kill: kill.time_s)
        for previous, following in zip(sequence, sequence[1:]):
            if previous.recover_at_s is None:
                raise ConfigurationError(
                    f"shard {shard_id} is killed twice but the first kill "
                    "never recovers; at most one kill per shard unless "
                    "each earlier kill sets recover_at_s"
                )
            if following.time_s < previous.recover_at_s:
                raise ConfigurationError(
                    f"shard {shard_id}: kill at {following.time_s} lands "
                    f"inside the previous outage (recovery at "
                    f"{previous.recover_at_s})"
                )
    hang_shards = [hang.shard_id for hang in hangs]
    if len(set(hang_shards)) != len(hang_shards):
        raise ConfigurationError("at most one hang per shard")
    for hang in hangs:
        if not 0 <= hang.shard_id < config.num_shards:
            raise ConfigurationError(
                f"hang targets unknown shard {hang.shard_id}; "
                f"deployment has shards 0..{config.num_shards - 1}"
            )
        if hang.time_s < 0:
            raise ConfigurationError(
                f"hang time must be >= 0, got {hang.time_s}"
            )
        if hang.shard_id in by_shard:
            raise ConfigurationError(
                f"shard {hang.shard_id} is both hung and killed; script "
                "one failure mode per shard (escalation handles the rest)"
            )
    terminal = {
        shard_id
        for shard_id, sequence in by_shard.items()
        if sequence[-1].recover_at_s is None
    }
    if (
        not supervise
        and config.shard_replication_factor == 1
        and len(terminal) >= config.num_shards
    ):
        raise ConfigurationError("cannot kill every shard in the deployment")
    events: List[_Event] = []
    for kill in kills:
        events.append((kill.time_s, 1, kill.shard_id, "kill", kill))
        if kill.recover_at_s is not None:
            events.append(
                (kill.recover_at_s, 0, kill.shard_id, "recover", kill)
            )
    for hang in hangs:
        events.append((hang.time_s, 2, hang.shard_id, "hang", None))
    events.sort(key=lambda event: event[:3])
    return events


def run_sharded(
    config: ShardedServiceConfig,
    load: LoadgenConfig,
    multiprocess: bool = True,
    kills: Sequence[ShardKill] = (),
    hangs: Sequence[ShardHang] = (),
    supervise: bool = False,
    response_timeout_s: Optional[float] = None,
    barrier_timeout_s: Optional[float] = None,
) -> ShardedRunResult:
    """Run one sharded serving session end to end (blocking).

    Args:
        config: The deployment.
        load: The open-loop workload.
        multiprocess: Worker processes (True) or the in-process serial
            reference path (False).
        kills: Chaos drill: SIGKILL each victim shard just before the
            first arrival at or past its ``time_s``; a kill carrying
            ``recover_at_s`` is restarted (outbox replayed) at that
            schedule instant. Multiprocess only.
        hangs: Chaos drill: SIGSTOP each victim at its schedule
            instant — alive but silent, the failure mode the response
            timeout exists for. Multiprocess only.
        supervise: Restart dead or escalated workers at the collection
            barrier when their outbox still holds unanswered requests
            (instead of shedding their keyspace).
        response_timeout_s: Barrier-side silence budget per shard
            before escalation; defaults to
            :data:`DEFAULT_RESPONSE_TIMEOUT_S` when hangs are scripted,
            else off.
        barrier_timeout_s: Optional wall-clock cap on the whole
            collection barrier (None = wait for liveness to settle
            naturally).

    Returns:
        The reassembled :class:`ShardedRunResult`.
    """
    if (kills or hangs) and not multiprocess:
        raise ConfigurationError(
            "chaos drills need worker processes; serial runs cannot lose a shard"
        )
    events = _validate_chaos(config, kills, hangs, supervise)
    if hangs and response_timeout_s is None:
        response_timeout_s = DEFAULT_RESPONSE_TIMEOUT_S
    routing_table = assign_data(config)
    specs = build_topology(config, routing_table)
    messages = plan_messages(config, load)
    owners = [routing_table[message.data_id] for message in messages]
    replicas = replica_table(config, routing_table)
    supervisor_config = SupervisorConfig(
        supervise=supervise, response_timeout_s=response_timeout_s
    )
    # Wall/CPU reads below measure router cost only; routing decisions
    # and outcomes never depend on them.
    started_wall_s = time.perf_counter()  # reprolint: disable=RPL101
    started_cpu_s = time.process_time()  # reprolint: disable=RPL101
    if multiprocess:
        run = _run_multiprocess(
            config,
            specs,
            messages,
            owners,
            replicas,
            events,
            supervisor_config,
            barrier_timeout_s,
        )
    else:
        run = _run_serial(specs, messages, owners)
    elapsed_wall_s = time.perf_counter() - started_wall_s  # reprolint: disable=RPL101
    elapsed_cpu_s = time.process_time() - started_cpu_s  # reprolint: disable=RPL101
    return ShardedRunResult(
        outcomes=tuple(run.outcomes),
        shard_results=tuple(run.results),
        shards_down=tuple(sorted(run.down)),
        requests_lost=run.lost,
        router_wall_s=elapsed_wall_s,
        router_cpu_s=elapsed_cpu_s,
        multiprocess=multiprocess,
        requests_failed_over=len(run.failed_over),
        requests_replayed=run.replayed,
        duplicates_suppressed=run.duplicates,
        failed_over_indices=tuple(sorted(run.failed_over)),
        recoveries=run.recoveries,
    )


@dataclass
class _RunOutput:
    """What either execution path hands back to :func:`run_sharded`."""

    outcomes: List[Outcome]
    results: List[ShardResult]
    down: List[int]
    lost: int
    failed_over: Set[int]
    replayed: int
    duplicates: int
    recoveries: Tuple[RecoveryReport, ...]


def _terminal_outcome(message: ShardRequest, reason: RejectReason) -> Rejected:
    return Rejected(
        client_id=message.client_id,
        data_id=message.data_id,
        reason=reason,
        rejected_s=message.arrival_s,
    )


def _place_outcomes(
    slots: List[Optional[Outcome]], result: ShardResult
) -> int:
    """First-wins placement; returns duplicates suppressed.

    Duplicates can only arise from a recovery race (a worker answered
    at the same moment the barrier escalated it, and its replayed
    successor answered again). Replay determinism makes both answers
    identical, which is what makes first-wins safe.
    """
    duplicates = 0
    for position, index in enumerate(result.indices):
        if slots[index] is None:
            slots[index] = result.outcomes[position]
        else:
            duplicates += 1
    return duplicates


def _run_serial(
    specs: Sequence[ShardSpec],
    messages: Sequence[ShardRequest],
    owners: Sequence[int],
) -> _RunOutput:
    """Reference path: each shard session runs in-process, shard order."""
    per_shard: Dict[int, List[ShardRequest]] = {
        spec.shard_id: [] for spec in specs
    }
    for message, owner in zip(messages, owners):
        per_shard[owner].append(message)
    slots: List[Optional[Outcome]] = [None] * len(messages)
    results: List[ShardResult] = []
    for spec in specs:
        result = run_shard_session(spec, per_shard[spec.shard_id])
        results.append(result)
        _place_outcomes(slots, result)
    return _RunOutput(
        outcomes=_finish(slots, messages),
        results=results,
        down=[],
        lost=0,
        failed_over=set(),
        replayed=0,
        duplicates=0,
        recoveries=(),
    )


def _run_multiprocess(
    config: ShardedServiceConfig,
    specs: Sequence[ShardSpec],
    messages: Sequence[ShardRequest],
    owners: Sequence[int],
    replicas: Sequence[Tuple[int, ...]],
    events: List[_Event],
    supervisor_config: SupervisorConfig,
    barrier_timeout_s: Optional[float],
) -> _RunOutput:
    """One supervised worker process per shard."""
    # fork keeps startup cheap on the platforms CI runs; everything on
    # the queues is picklable, so spawn-only platforms work too.
    methods = multiprocessing.get_all_start_methods()
    context = multiprocessing.get_context(
        "fork" if "fork" in methods else "spawn"
    )
    supervisor = ShardSupervisor(context, specs, supervisor_config)
    supervise = supervisor_config.supervise
    replicated = config.shard_replication_factor > 1
    slots: List[Optional[Outcome]] = [None] * len(messages)
    failed_over: Set[int] = set()
    pending_recovery: Set[int] = set()
    lost = 0

    def terminal(message: ShardRequest, dead_shard: int) -> None:
        """Synthesise the typed loss for one unanswerable request."""
        nonlocal lost
        reason = (
            RejectReason.SHARD_DOWN
            if owners[message.index] == dead_shard
            else RejectReason.FAILED_OVER
        )
        slots[message.index] = _terminal_outcome(message, reason)
        lost += 1

    def first_live(chain: Tuple[int, ...]) -> Optional[int]:
        """The first live shard in a replica chain, or ``None``."""
        return next((shard for shard in chain if supervisor.is_live(shard)), None)

    def route(message: ShardRequest) -> None:
        """Send one request to the first usable shard in replica order."""
        chain = replicas[message.data_id]
        primary = chain[0]
        target = first_live(chain)
        if target is None:
            # No live replica. Park on a holder that will be restarted
            # (scripted recovery, or barrier restart when supervising)
            # so the replay answers it; otherwise the key is lost.
            target = next(
                (
                    shard
                    for shard in chain
                    if shard in pending_recovery or supervise
                ),
                None,
            )
            if target is None:
                terminal(message, primary)
                return
        supervisor.enqueue(target, message)
        if target != primary:
            failed_over.add(message.index)
            supervisor.note_failover(primary)

    def on_kill(kill: ShardKill) -> None:
        # Pre-kill arrivals must actually be *sent* before the victim
        # dies, or the drill would shed them spuriously.
        supervisor.flush_all()
        victim = kill.shard_id
        supervisor.kill(victim)
        if kill.recover_at_s is not None:
            # The scripted restart will replay the outbox verbatim.
            pending_recovery.add(victim)
            return
        if not replicated:
            # Keyspace amputated (or, when supervising, replayed whole
            # at the barrier restart): the outbox stays put either way.
            return
        # Unanswered outbox messages move to the next live replica —
        # results only travel at session end, so nothing was answered.
        outbox = supervisor.outbox(victim)
        supervisor.drop_outbox(victim)
        for message in outbox:
            target = first_live(replicas[message.data_id])
            if target is None:
                if supervise:
                    # Park back on the victim; its barrier restart
                    # replays exactly these strays.
                    supervisor.enqueue(victim, message)
                else:
                    terminal(message, victim)
                continue
            supervisor.enqueue(target, message)
            if target != owners[message.index]:
                failed_over.add(message.index)
            supervisor.note_failover(victim)

    def on_event(event: _Event) -> None:
        _time_s, _priority, shard_id, kind, _kill = event
        if kind == "kill":
            assert _kill is not None
            on_kill(_kill)
        elif kind == "hang":
            supervisor.flush(shard_id)
            supervisor.hang(shard_id)
        else:  # recover
            pending_recovery.discard(shard_id)
            supervisor.restart(shard_id)

    try:
        supervisor.start()
        cursor = 0
        for message in messages:
            while (
                cursor < len(events)
                and message.arrival_s >= events[cursor][0]
            ):
                on_event(events[cursor])
                cursor += 1
            route(message)
        # Steps scheduled past the last arrival still run — a recovery
        # at the schedule tail must rejoin (and replay) within the run.
        while cursor < len(events):
            on_event(events[cursor])
            cursor += 1
        supervisor.close_streams()
        results, _ = supervisor.collect(barrier_timeout_s)
        results.sort(key=lambda result: result.shard_id)
        duplicates = 0
        for result in results:
            found = _place_outcomes(slots, result)
            duplicates += found
            supervisor.note_duplicates(result.shard_id, found)
        # Requests parked on (or sent to) a shard that is down for good
        # are lost: synthesise their typed outcomes at the arrival
        # instant — shard_down for the primary's own keys, failed_over
        # for keys that had already been re-routed onto the corpse.
        down = list(supervisor.down_shards)
        for shard_id in down:
            for message in supervisor.outbox(shard_id):
                if slots[message.index] is None:
                    terminal(message, shard_id)
        return _RunOutput(
            outcomes=_finish(slots, messages),
            results=results,
            down=down,
            lost=lost,
            failed_over=failed_over,
            replayed=supervisor.requests_replayed,
            duplicates=duplicates,
            recoveries=supervisor.recovery_reports(),
        )
    finally:
        supervisor.shutdown()


def _finish(
    slots: List[Optional[Outcome]], messages: Sequence[ShardRequest]
) -> List[Outcome]:
    """Assert every schedule slot resolved and drop the Optional."""
    outcomes: List[Outcome] = []
    for index, slot in enumerate(slots):
        if slot is None:
            raise SimulationError(
                f"request {index} (data {messages[index].data_id}) has no "
                "outcome after the collection barrier"
            )
        outcomes.append(slot)
    return outcomes


__all__ = [
    "BARRIER_POLL_S",
    "DEFAULT_RESPONSE_TIMEOUT_S",
    "REQUEST_CHUNK",
    "ShardedRunResult",
    "plan_messages",
    "run_sharded",
]
