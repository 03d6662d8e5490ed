"""Mechanical disk geometry used by the analytic service-time model.

This is the Disksim substitute's physical layer: enough geometry (RPM,
cylinder count, transfer rate, seek curve) to produce millisecond-scale
service times with realistic seek/rotate/transfer structure. The default
matches the Seagate Cheetah 15K.5 the paper simulated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.errors import ConfigurationError


@dataclass(frozen=True)
class DiskGeometry:
    """Mechanical parameters of one drive.

    Attributes:
        name: Identifier used in reports.
        rpm: Spindle speed; rotational latency averages half a revolution.
        cylinders: Number of cylinders; seek distance is measured in
            cylinders.
        capacity_bytes: Addressable capacity.
        max_transfer_rate: Sustained media transfer rate in bytes/second.
        track_to_track_seek: Seconds for a single-cylinder seek.
        full_stroke_seek: Seconds for a full-stroke seek.
        controller_overhead: Fixed per-request controller latency in seconds.
    """

    name: str = "cheetah-15k5"
    rpm: float = 15000.0
    cylinders: int = 50_000
    capacity_bytes: int = 300 * 10**9
    max_transfer_rate: float = 125 * 10**6
    track_to_track_seek: float = 0.0002
    full_stroke_seek: float = 0.0038
    controller_overhead: float = 0.0001

    def __post_init__(self) -> None:
        if self.rpm <= 0:
            raise ConfigurationError("rpm must be positive")
        if self.cylinders <= 0:
            raise ConfigurationError("cylinders must be positive")
        if self.capacity_bytes <= 0:
            raise ConfigurationError("capacity must be positive")
        if self.max_transfer_rate <= 0:
            raise ConfigurationError("transfer rate must be positive")
        if self.full_stroke_seek < self.track_to_track_seek:
            raise ConfigurationError(
                "full-stroke seek cannot be faster than track-to-track seek"
            )

    @property
    def rotation_time(self) -> float:
        """Seconds per full revolution."""
        return 60.0 / self.rpm

    @property
    def average_rotational_latency(self) -> float:
        """Expected rotational latency (half a revolution)."""
        return self.rotation_time / 2.0

    def seek_time(self, distance: int) -> float:
        """Seek time in seconds for a cylinder distance.

        Uses the standard concave seek curve: a square-root ramp between the
        track-to-track and full-stroke endpoints, which matches measured
        drives far better than a linear model. The reference for the curve
        :meth:`AnalyticServiceModel.service_time
        <repro.disk.service.AnalyticServiceModel.service_time>` inlines; a
        parity test holds the two equal.
        """
        if distance < 0:
            raise ConfigurationError("seek distance must be >= 0")
        if distance == 0:
            return 0.0
        if distance >= self.cylinders:
            return self.full_stroke_seek
        span = self.full_stroke_seek - self.track_to_track_seek
        fraction = math.sqrt(distance / (self.cylinders - 1))
        return self.track_to_track_seek + span * fraction

    def transfer_time(self, size_bytes: int) -> float:
        """Media transfer time in seconds for a payload of ``size_bytes``."""
        if size_bytes < 0:
            raise ConfigurationError("size must be >= 0")
        return size_bytes / self.max_transfer_rate


#: Geometry the paper's Disksim configuration modelled.
CHEETAH_15K5_GEOMETRY = DiskGeometry()

#: Capacity-oriented 7200 RPM geometry matching the Barracuda power profile.
BARRACUDA_GEOMETRY = DiskGeometry(
    name="barracuda-7200",
    rpm=7200.0,
    cylinders=60_000,
    capacity_bytes=750 * 10**9,
    max_transfer_rate=78 * 10**6,
    track_to_track_seek=0.0008,
    full_stroke_seek=0.0210,
    controller_overhead=0.0002,
)
