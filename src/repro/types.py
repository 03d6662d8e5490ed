"""Core value types shared across the library.

The vocabulary follows Table 1 of the paper:

* ``R = {r1 .. rN}`` — the request stream (:class:`Request`), sorted by disk
  access time ``ti``.
* ``D = {d1 .. dK}`` — disks, identified by small integers (``DiskId``).
* ``B = {b1 .. bM}`` — data items, identified by integers (``DataId``).
* ``L`` — the placement assignment mapping each data item to an ordered list
  of disk locations (see :mod:`repro.placement.catalog`).

A *schedule* (``S_ES`` in the paper) maps each request to one of its data
locations; :class:`Assignment` is the concrete representation used by the
offline machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, Iterable, List, Mapping, Sequence, Tuple

DiskId = int
DataId = int
RequestId = int

#: Block size the paper associates with one request (Section 2.1).
DEFAULT_REQUEST_BYTES = 512 * 1024


class OpKind(Enum):
    """I/O direction of a trace record.

    The scheduler only handles reads (the paper assumes writes are diverted
    by write off-loading); writes survive in traces so workloads can report
    realistic mixes before filtering.
    """

    READ = "read"
    WRITE = "write"


@dataclass(frozen=True, order=True, slots=True)
class Request:
    """A single read request ``ri`` with disk access time ``ti``.

    Ordering is by ``(time, request_id)`` so a sorted request stream matches
    the paper's convention that ``R`` is sorted by time in increasing order.

    Attributes:
        time: Disk access time ``ti`` in seconds (the time a disk receives
            the request under the online model; the arrival time used for
            queueing-delay accounting under the batch model).
        request_id: Position of the request in the stream (unique).
        data_id: Identity of the requested data item ``bi``.
        size_bytes: Payload size; used only by the disk service-time model.
        op: Read or write. The paper's schedulers handle reads; writes are
            carried so the write off-loading extension
            (:mod:`repro.core.writeoffload`) can divert them.
    """

    time: float
    request_id: RequestId
    data_id: DataId = field(compare=False)
    size_bytes: int = field(default=DEFAULT_REQUEST_BYTES, compare=False)
    op: OpKind = field(default=OpKind.READ, compare=False)

    def __post_init__(self) -> None:
        if self.time < 0:
            raise ValueError(f"request time must be >= 0, got {self.time}")
        if self.size_bytes <= 0:
            raise ValueError(f"request size must be positive, got {self.size_bytes}")


#: One serviced request as a disk reports it: ``(completion instant,
#: service start instant, start stamp, request, disk_id)``, instants in
#: seconds. Sorted, records are in global completion order: by instant,
#: then the service that started first (see
#: :class:`repro.report.MetricsCollector`).
CompletionRecord = Tuple[float, float, int, Request, DiskId]


class Assignment:
    """A schedule: the disk chosen for every request.

    Thin wrapper over ``dict[RequestId, DiskId]`` that also remembers the
    request objects so evaluators can recover per-disk request chains.
    """

    def __init__(self, requests: Sequence[Request]):
        self._requests: Dict[RequestId, Request] = {r.request_id: r for r in requests}
        if len(self._requests) != len(requests):
            raise ValueError("duplicate request ids in request stream")
        self._disk_of: Dict[RequestId, DiskId] = {}

    def __len__(self) -> int:
        return len(self._disk_of)

    def __contains__(self, request_id: RequestId) -> bool:
        return request_id in self._disk_of

    def assign(self, request_id: RequestId, disk_id: DiskId) -> None:
        """Record that ``request_id`` is scheduled on ``disk_id``.

        Re-assigning to a *different* disk raises; idempotent re-assignment
        to the same disk is allowed (the MWIS derivation touches a request
        once as predecessor and once as successor).
        """
        if request_id not in self._requests:
            raise KeyError(f"unknown request id {request_id}")
        previous = self._disk_of.get(request_id)
        if previous is not None and previous != disk_id:
            raise ValueError(
                f"request {request_id} already assigned to disk {previous}, "
                f"cannot move to disk {disk_id}"
            )
        self._disk_of[request_id] = disk_id

    def disk_of(self, request_id: RequestId) -> DiskId:
        """The assigned disk (KeyError when unassigned)."""
        return self._disk_of[request_id]

    def get(self, request_id: RequestId) -> DiskId | None:
        """The assigned disk, or None."""
        return self._disk_of.get(request_id)

    @property
    def requests(self) -> Tuple[Request, ...]:
        return tuple(sorted(self._requests.values()))

    def is_complete(self) -> bool:
        """True when every request in the stream has a disk."""
        return len(self._disk_of) == len(self._requests)

    def unassigned(self) -> List[Request]:
        """Requests without a disk yet, sorted by time."""
        return sorted(
            r for rid, r in self._requests.items() if rid not in self._disk_of
        )

    def chains(self) -> Dict[DiskId, List[Request]]:
        """Per-disk request chains, each sorted by time.

        The *chain* of a disk is the time-ordered sequence of requests it
        services; consecutive chain entries are the (predecessor, successor)
        pairs whose gaps determine offline energy (Lemma 1).
        """
        by_disk: Dict[DiskId, List[Request]] = {}
        for rid, disk in self._disk_of.items():
            by_disk.setdefault(disk, []).append(self._requests[rid])
        for chain in by_disk.values():
            chain.sort()
        return by_disk

    def items(self) -> Iterable[Tuple[RequestId, DiskId]]:
        """(request id, disk) pairs of the assigned requests."""
        return self._disk_of.items()

    def as_dict(self) -> Dict[RequestId, DiskId]:
        """A plain dict copy of the mapping."""
        return dict(self._disk_of)

    @classmethod
    def from_mapping(
        cls, requests: Sequence[Request], mapping: Mapping[RequestId, DiskId]
    ) -> "Assignment":
        assignment = cls(requests)
        for request_id, disk_id in mapping.items():
            assignment.assign(request_id, disk_id)
        return assignment
