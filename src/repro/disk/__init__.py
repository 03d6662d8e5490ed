"""Disk substrate: geometry, service-time model, drive state machine."""

from repro.disk.drive import SimulatedDisk
from repro.disk.geometry import (
    BARRACUDA_GEOMETRY,
    CHEETAH_15K5_GEOMETRY,
    DiskGeometry,
)
from repro.disk.service import (
    AnalyticServiceModel,
    ConstantServiceModel,
    ServiceTimeModel,
)
from repro.disk.stats import DiskStats

__all__ = [
    "AnalyticServiceModel",
    "BARRACUDA_GEOMETRY",
    "CHEETAH_15K5_GEOMETRY",
    "ConstantServiceModel",
    "DiskGeometry",
    "DiskStats",
    "ServiceTimeModel",
    "SimulatedDisk",
]
