"""Scheduling cost functions: Eq. 5 (energy), Eq. 7 (load), Eq. 6 (composite).

``E(dk)`` — the *additional* energy consumed on disk ``dk`` if the batch's
requests are scheduled there (Theorem 2)::

    E(dk) = 0                        if dk is active or spinning up
          = Eup + Edown + TB * PI    if dk is standby or spinning down
          = (Tnow - Tlast) * PI      if dk is idle

``P(dk)`` — the performance cost: the current number of requests on the
disk (queued + in service).

``C(dk) = E(dk) * alpha / beta + P(dk) * (1 - alpha)`` — the composite
cost the online Heuristic and the WSC batch scheduler minimise. ``alpha``
trades energy against response time (1 = energy only, 0 = load only);
``beta`` converts joules into the unitless load scale. The paper settles
on ``alpha = 0.2``, ``beta = 100`` (Appendix A.2).

The live copy of Eq. 5/6 is :class:`~repro.core.fleet.FleetCostState`.
:func:`energy_cost` and :meth:`CostFunction.cost` are the per-disk
specification the parity tests hold its columns to; no scheduler calls
them.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Protocol

from repro.errors import ConfigurationError
from repro.power.profile import DiskPowerProfile
from repro.power.states import DiskPowerState


class DiskView(Protocol):
    """What a scheduler may observe about one disk."""

    @property
    def state(self) -> DiskPowerState: ...

    @property
    def queue_length(self) -> int: ...

    @property
    def last_request_time(self) -> Optional[float]:
        """``Tlast`` in simulated seconds; None before any request."""
        ...


def energy_cost(
    state: DiskPowerState,
    last_request_time: Optional[float],
    now: float,
    profile: DiskPowerProfile,
) -> float:
    """Eq. 5 — marginal energy (joules) of sending the next request(s) to a disk.

    ``last_request_time`` and ``now`` are simulated seconds.

    The idle branch charges the idle-time *extension*: an idle disk that
    last saw a request at ``Tlast`` would have spun down at
    ``Tlast + TB``; serving a new request at ``Tnow`` postpones that to
    ``Tnow + TB``, i.e. ``(Tnow - Tlast) * PI`` extra idle energy. A disk
    that has never seen a request is treated as freshly touched
    (zero extension) — it is spinning and unclaimed.
    """
    if state in (DiskPowerState.ACTIVE, DiskPowerState.SPIN_UP):
        return 0.0
    if state in (DiskPowerState.STANDBY, DiskPowerState.SPIN_DOWN):
        return profile.max_request_energy
    # IDLE
    if last_request_time is None:
        return 0.0
    extension = now - last_request_time
    if extension < 0:
        raise ConfigurationError(
            f"last_request_time {last_request_time} is in the future of {now}"
        )
    return extension * profile.idle_power


@dataclass(frozen=True)
class CostFunction:
    """Eq. 6 — composite energy/performance cost ``C(dk)``.

    Attributes:
        alpha: Energy-vs-performance ratio in [0, 1]; 1 = energy only.
        beta: Unit factor scaling joules against queue length; > 0.
        load_weight: Derived ``1 - alpha``, precomputed for the per-arrival
            hot path (schedulers fold it into their inner loop).
    """

    alpha: float = 0.2
    beta: float = 100.0
    load_weight: float = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ConfigurationError(f"alpha must be in [0, 1], got {self.alpha}")
        if self.beta <= 0:
            raise ConfigurationError(f"beta must be positive, got {self.beta}")
        object.__setattr__(self, "load_weight", 1.0 - self.alpha)

    def cost(self, disk: DiskView, now: float, profile: DiskPowerProfile) -> float:
        """Evaluate ``C(dk)`` for one disk at time ``now``.

        The reference specification of Eq. 6: the schedulers score
        through :class:`~repro.core.fleet.FleetCostState`, which the
        tests hold bit-identical to this.
        """
        energy = energy_cost(disk.state, disk.last_request_time, now, profile)
        queue_length = disk.queue_length
        if queue_length < 0:
            raise ConfigurationError("queue length must be >= 0")
        # NOTE: evaluation order `energy * alpha / beta` is load-bearing —
        # folding alpha/beta into one factor rounds differently and would
        # flip near-tie scheduling decisions.
        return energy * self.alpha / self.beta + queue_length * self.load_weight


#: The configuration the paper uses for Heuristic and WSC (Appendix A.2).
PAPER_COST_FUNCTION = CostFunction(alpha=0.2, beta=100.0)
