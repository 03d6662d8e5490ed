"""Request service-time models (the Disksim substitute's timing layer).

The paper couples OMNeT++ with Disksim purely to charge each request a
realistic millisecond-scale I/O time. :class:`AnalyticServiceModel`
reproduces that role with a seek + rotational-latency + transfer + overhead
decomposition over a :class:`~repro.disk.geometry.DiskGeometry`;
:class:`ConstantServiceModel` supports the paper's *analysis* assumption
that I/O time is negligible (Section 2.1), which the offline model and unit
examples use.
"""

from __future__ import annotations

import math
import random
from abc import ABC, abstractmethod
from dataclasses import dataclass

from repro.disk.geometry import CHEETAH_15K5_GEOMETRY, DiskGeometry
from repro.errors import ConfigurationError
from repro.types import Request


class ServiceTimeModel(ABC):
    """Computes how long a disk is ACTIVE servicing one request."""

    @abstractmethod
    def service_time(self, request: Request, rng: random.Random) -> float:
        """Seconds of ACTIVE time for ``request`` (must be >= 0)."""


@dataclass(frozen=True)
class ConstantServiceModel(ServiceTimeModel):
    """Fixed service time per request (0 reproduces the paper's analysis)."""

    seconds: float = 0.0

    def __post_init__(self) -> None:
        if self.seconds < 0:
            raise ConfigurationError("service time must be >= 0")

    def service_time(self, request: Request, rng: random.Random) -> float:
        return self.seconds


class AnalyticServiceModel(ServiceTimeModel):
    """Seek + rotate + transfer + controller-overhead service model.

    Per-disk head position is *not* tracked here (the model is shared by all
    disks); instead the seek distance is drawn uniformly over the cylinder
    span, which matches the random-placement workloads the paper replays.
    Rotational latency is drawn uniformly over one revolution. Both draws
    come from the caller-supplied seeded RNG so simulations stay
    deterministic.
    """

    def __init__(self, geometry: DiskGeometry = CHEETAH_15K5_GEOMETRY):
        self._geometry = geometry
        # Inlined randrange: CPython's Random.randrange(n) reduces to a
        # getrandbits(k) rejection loop (_randbelow_with_getrandbits).
        # Drawing through getrandbits directly consumes the identical
        # bit stream — same draws, same rejections — at roughly half the
        # per-call cost, which matters on the one-draw-per-request path.
        self._cylinders = geometry.cylinders
        self._cylinder_bits = geometry.cylinders.bit_length()
        # The rest of the decomposition is fixed arithmetic over the
        # geometry; resolve every term once so service_time() is pure
        # local-variable math. Each cached value is computed by the same
        # expression the DiskGeometry methods use, so the per-request
        # results are bit-identical to calling them.
        self._seek_denominator = geometry.cylinders - 1
        self._track_to_track_seek = geometry.track_to_track_seek
        self._seek_span = geometry.full_stroke_seek - geometry.track_to_track_seek
        self._full_stroke_seek = geometry.full_stroke_seek
        self._rotation_time = geometry.rotation_time
        self._max_transfer_rate = geometry.max_transfer_rate
        self._controller_overhead = geometry.controller_overhead

    @property
    def geometry(self) -> DiskGeometry:
        return self._geometry

    def service_time(self, request: Request, rng: random.Random) -> float:
        cylinders = self._cylinders
        bits = self._cylinder_bits
        seek_distance = rng.getrandbits(bits)
        while seek_distance >= cylinders:
            seek_distance = rng.getrandbits(bits)
        # Inlined DiskGeometry.seek_time / transfer_time (the rejection
        # loop already guarantees 0 <= distance < cylinders, so only the
        # zero-distance branch of the seek curve remains).
        if seek_distance:
            seek = self._track_to_track_seek + self._seek_span * math.sqrt(
                seek_distance / self._seek_denominator
            )
        else:
            seek = 0.0
        rotation = rng.random() * self._rotation_time
        transfer = request.size_bytes / self._max_transfer_rate
        return seek + rotation + transfer + self._controller_overhead

    def expected_service_time(self, size_bytes: int) -> float:
        """Closed-form expected service seconds, handy for utilisation
        estimates."""
        geometry = self._geometry
        # E[sqrt(U)] = 2/3 for U uniform on [0, 1].
        expected_seek = geometry.track_to_track_seek + (
            geometry.full_stroke_seek - geometry.track_to_track_seek
        ) * (2.0 / 3.0)
        return (
            expected_seek
            + geometry.average_rotational_latency
            + geometry.transfer_time(size_bytes)
            + geometry.controller_overhead
        )
