"""Tiered storage: hot replicas on disk, cold replicas on tape.

:class:`TieredStorageSystem` is the disk-only
:class:`~repro.sim.storage.StorageSystem` plus a cold tier of
:class:`~repro.tape.drive.TapeDrive` instances on the same virtual
clock. Per arrival it routes by data-id temperature:

* **hot** ids (an LRU set of the most popular ids, capacity
  ``ceil(hot_fraction × num_ids)``) go to the disk tier through the
  exact same admission closure a disk-only run uses — cache, scheduler
  pick and dispatch checks all;
* **cold** ids go to the tape drive holding their cartridge, at the
  position assigned by the popularity-ranked
  :class:`~repro.tape.layout.TapeLayout`.

The hot set is seeded from the trace's empirical popularity (most
requested first — the same oracle-placement liberty the paper takes for
its Zipf layouts) and, when ``promote_on_access`` is set, adapts online:
a completed tape read promotes its id into the hot set, evicting the
least recently used hot id back to the cold set. Data movement itself is
not simulated — every id permanently owns both a disk placement and a
tape position, and the tier decides only *routing* — so migration costs
appear as the mount/wind work of serving cold requests, not as a
separate copy workload.

Determinism: routing state is pure function of the (sorted) request
sequence, the tape drives use no randomness, and the disk tier runs the
byte-identical disk-only code, so same-seed tiered runs reproduce
exactly.
"""

from __future__ import annotations

from collections import OrderedDict
from dataclasses import replace
from math import ceil
from typing import Callable, Dict, List, Sequence

from repro.core.scheduler import Scheduler
from repro.errors import ConfigurationError
from repro.placement.catalog import PlacementCatalog
from repro.report import SimulationReport, TapeTierReport
from repro.sim.config import SimulationConfig
from repro.sim.storage import StorageSystem
from repro.tape.drive import TapeDrive
from repro.tape.layout import TapeLayout
from repro.tape.sequencer import make_sequencer
from repro.tape.states import TAPE_STATE_ORDER
from repro.types import DataId, Request


class TieredStorageSystem(StorageSystem):
    """One tiered disk+tape storage system instance (single-use)."""

    def __init__(
        self,
        catalog: PlacementCatalog,
        scheduler: Scheduler,
        config: SimulationConfig,
    ):
        tier = config.tier
        if tier is None:
            raise ConfigurationError(
                "TieredStorageSystem needs config.tier; disk-only runs "
                "use StorageSystem"
            )
        super().__init__(catalog, scheduler, config)
        self._tier = tier
        # Hot ids take the disk-only arrival handler, so the disk tier
        # behaves byte-identically to a disk-only run.
        self._disk_admit = super()._arrival_callback()
        self._drives: List[TapeDrive] = [
            TapeDrive(
                drive_id=index,
                engine=self._engine,
                profile=tier.tape_profile,
                sequencer=make_sequencer(tier.sequencer),
                on_complete=self._on_tape_complete,
                completion_id=config.num_disks + index,
            )
            for index in range(tier.num_tape_drives)
        ]
        self._all_ids = sorted(catalog.mapping())
        self._hot: "OrderedDict[DataId, None]" = OrderedDict()
        self._hot_capacity = 0
        self._drive_of: Dict[DataId, int] = {}
        self._position_of: Dict[DataId, float] = {}
        self._requests_to_disk = 0
        self._requests_to_tape = 0
        self._promotions = 0
        self._demotions = 0
        self._tape_response_times: List[float] = []

    # ------------------------------------------------------------------
    # placement
    # ------------------------------------------------------------------

    def _prepare(self, ordered: Sequence[Request]) -> float:
        """Rank ids by trace popularity, seed the hot set and tape
        layouts, and grant the cold tier its drain slack."""
        counts: Dict[DataId, int] = {}
        for request in ordered:
            counts[request.data_id] = counts.get(request.data_id, 0) + 1
        ranked = sorted(
            self._all_ids, key=lambda data_id: (-counts.get(data_id, 0), data_id)
        )
        self._hot_capacity = ceil(self._tier.hot_fraction * len(ranked))
        # LRU order: least popular hot id first, so it is evicted first.
        for data_id in reversed(ranked[: self._hot_capacity]):
            self._hot[data_id] = None
        # Every id owns a tape position (promotion/demotion is pure
        # routing): stripe the full popularity ranking across the
        # drives, then lay each drive's cartridge out by Zipf mass.
        num_drives = self._tier.num_tape_drives
        profile = self._tier.tape_profile
        for drive_index in range(num_drives):
            cartridge_ids = ranked[drive_index::num_drives]
            layout = TapeLayout.from_ranked_ids(
                cartridge_ids,
                profile.tape_length,
                self._tier.layout_exponent,
            )
            for data_id in cartridge_ids:
                self._drive_of[data_id] = drive_index
                self._position_of[data_id] = layout.position(data_id)
        horizon = super()._prepare(ordered)
        if self._config.horizon is None:
            # Tape work drains slowly (a cold batch can imply a mount
            # plus a near-full wind); grant the cold tier its slack.
            horizon += self._tier.drain_horizon_slack
        return horizon

    # ------------------------------------------------------------------
    # event handlers
    # ------------------------------------------------------------------

    def _arrival_callback(self) -> Callable[[Request], None]:
        return self._route

    def _route(self, request: Request) -> None:
        data_id = request.data_id
        hot = self._hot
        if data_id in hot:
            hot.move_to_end(data_id)
            self._requests_to_disk += 1
            self._disk_admit(request)
            return
        self._requests_to_tape += 1
        self._drives[self._drive_of[data_id]].submit(
            request, self._position_of[data_id]
        )

    def _on_tape_complete(
        self, request: Request, completion_id: int, now: float
    ) -> None:
        self._metrics.on_complete(
            request, completion_id, now, now, next(self._engine._sequence)
        )
        self._tape_response_times.append(now - request.time)
        if not self._tier.promote_on_access:
            return
        hot = self._hot
        data_id = request.data_id
        if data_id in hot:
            # A burst of requests for one cold id: the first completion
            # already promoted it.
            hot.move_to_end(data_id)
            return
        hot[data_id] = None
        self._promotions += 1
        if len(hot) > self._hot_capacity:
            hot.popitem(last=False)
            self._demotions += 1

    # ------------------------------------------------------------------
    # driving the run
    # ------------------------------------------------------------------

    def finalize(self) -> None:
        super().finalize()
        for drive in self._drives:
            drive.finalize()

    def _report(self) -> SimulationReport:
        tape_energy = sum(drive.stats.energy for drive in self._drives)
        state_time_s: Dict[str, float] = {}
        for state in sorted(TAPE_STATE_ORDER, key=lambda s: s.value):
            state_time_s[state.value] = sum(
                drive.stats.state_time[state] for drive in self._drives
            )
        tape = TapeTierReport(
            sequencer=self._tier.sequencer,
            profile_name=self._tier.tape_profile.name,
            num_drives=self._tier.num_tape_drives,
            hot_capacity=self._hot_capacity,
            requests_to_disk=self._requests_to_disk,
            requests_to_tape=self._requests_to_tape,
            tape_requests_completed=len(self._tape_response_times),
            promotions=self._promotions,
            demotions=self._demotions,
            mounts=sum(drive.stats.mounts for drive in self._drives),
            unmounts=sum(drive.stats.unmounts for drive in self._drives),
            seek_distance_m=sum(
                drive.stats.seek_distance_m for drive in self._drives
            ),
            tape_energy=tape_energy,
            state_time_s=state_time_s,
            tape_response_times=tuple(self._tape_response_times),
        )
        disk_only = super()._report()
        return replace(
            disk_only,
            scheduler_name=f"{disk_only.scheduler_name}+tape-{self._tier.sequencer}",
            total_energy=disk_only.total_energy + tape_energy,
            tape=tape,
        )

    # ------------------------------------------------------------------
    # introspection (tests)
    # ------------------------------------------------------------------

    @property
    def hot_ids(self) -> List[DataId]:
        """Current hot set, least recently used first."""
        return list(self._hot)

    def drive(self, drive_index: int) -> TapeDrive:
        """Live view of one tape drive."""
        return self._drives[drive_index]
