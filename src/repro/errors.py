"""Exception hierarchy for the :mod:`repro` package.

All exceptions raised intentionally by this library derive from
:class:`ReproError`, so callers can catch library failures with a single
``except ReproError`` clause while letting programming errors propagate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for every error raised by the repro library."""


class ConfigurationError(ReproError):
    """A configuration object is internally inconsistent or out of range."""


class PlacementError(ReproError):
    """Data placement is invalid (unknown data, empty location list, ...)."""


class SchedulingError(ReproError):
    """A scheduler produced or received an invalid assignment."""


class SimulationError(ReproError):
    """The simulation engine was driven into an inconsistent state."""


class ReplicaUnavailableError(ReproError):
    """An operation targeted a replica that is not currently servable.

    Raised when a request is submitted to a disk whose health is degraded
    (transiently down or permanently failed), or when a scheduler is asked
    to place a request none of whose replicas are live.  Inside the
    simulated storage system this situation is handled — requests are
    retried against surviving replicas or recorded as lost — so the
    exception surfaces only from direct library use.
    """


class TraceFormatError(ReproError):
    """A trace file could not be parsed in the declared format."""
