"""Columnar fleet-cost state: the live Eq. 5/Eq. 6 scoring path.

The per-arrival choice of the online Heuristic and the per-tick weight
pass of the WSC batch scheduler score disks with Eq. 5 (marginal
energy) and Eq. 6 (composite cost). Rather than walking disk objects,
they read four parallel ``array('d')`` columns (structure-of-arrays)
and one set that every :class:`~repro.disk.drive.SimulatedDisk` keeps
current for its own slot:

``pi``
    Idle-power slope in watts: ``profile.idle_power`` while the disk is
    IDLE with a recorded ``Tlast``, else ``0.0``.
``const``
    Constant term in joules: the standby/spin-down wake-up cost
    ``Eup + Edown + TB * PI`` in those states, else ``0.0``.
``tlast``
    ``Tlast`` of Eq. 5 (seconds); meaningless — and masked by
    ``pi == 0`` — until the disk first receives a request.
``queue``
    ``P(dk)`` of Eq. 7: queued requests plus the one in service.
``down``
    The ids of the disks that cannot serve a request now (transiently
    down or permanently failed); empty unless a fault struck. Only
    :meth:`SimulatedDisk.fail <repro.disk.drive.SimulatedDisk.fail>`
    and :meth:`~repro.disk.drive.SimulatedDisk.repair` write it, so a
    read's live replicas are its placement minus this set.

so that for every disk, at every instant::

    E(dk) = (now - tlast) * pi + const          (Eq. 5)
    C(dk) = E(dk) * alpha / beta + queue * lw   (Eq. 6, lw = 1 - alpha)

**bit-identically** to the reference specification
(:func:`repro.core.cost.energy_cost`, :meth:`CostFunction.cost`): in
the IDLE branch ``const`` is ``0.0`` and IEEE-754 guarantees
``x + 0.0 == x`` for the non-negative products that occur; in every
other branch ``pi`` is ``0.0`` and the expression collapses to the
constant. :meth:`FleetCostState.encode` is the one place that maps a
power state to its ``(pi, const)`` pair.
"""

from __future__ import annotations

from array import array
from typing import List, Optional, Sequence, Set

from repro.power.profile import DiskPowerProfile
from repro.power.states import DiskPowerState
from repro.types import DiskId

_IDLE = DiskPowerState.IDLE
_STANDBY = DiskPowerState.STANDBY
_SPIN_DOWN = DiskPowerState.SPIN_DOWN


class FleetCostState:
    """Columnar per-disk scheduling state and the Eq. 6 arg-min over it.

    Owned by the disk fleet's one wiring
    (:class:`~repro.sim.fleet.DiskFleet`, under the trace replay, the
    serving backend and the tiered system) and exposed to schedulers as
    ``view.fleet``; each
    :class:`~repro.disk.drive.SimulatedDisk` writes its own slot from
    its state-transition/submit/complete hooks.
    """

    __slots__ = (
        "num_disks",
        "pi",
        "const",
        "tlast",
        "queue",
        "down",
        "idle_power",
        "standby_marginal",
    )

    def __init__(self, num_disks: int, profile: DiskPowerProfile):
        if num_disks <= 0:
            raise ValueError("num_disks must be positive")
        self.num_disks = num_disks
        self.idle_power = profile.idle_power
        # Same expression as energy_cost()'s STANDBY/SPIN_DOWN branch.
        self.standby_marginal = (
            profile.transition_energy
            + profile.breakeven_time * profile.idle_power
        )
        zeros = bytes(8 * num_disks)
        self.pi = array("d", zeros)
        self.const = array("d", zeros)
        self.tlast = array("d", zeros)
        self.queue = array("d", zeros)
        self.down: Set[DiskId] = set()

    def encode(
        self,
        disk_id: DiskId,
        state: DiskPowerState,
        last_request_time: Optional[float],
    ) -> None:
        """Write ``disk_id``'s Eq. 5 terms for ``state`` into ``pi``/``const``.

        Mirrors the branches of :func:`repro.core.cost.energy_cost`: a
        spinning-up or active disk takes requests for free, a standby or
        spinning-down one costs the full wake-up, and an idle one pays
        its idle extension — nothing until it has seen a request.
        """
        pi = 0.0  # ACTIVE / SPIN_UP
        const = 0.0
        if state is _IDLE:
            if last_request_time is not None:
                pi = self.idle_power
        elif state is _STANDBY or state is _SPIN_DOWN:
            const = self.standby_marginal
        self.pi[disk_id] = pi
        self.const[disk_id] = const

    def choose(
        self,
        candidates: Sequence[DiskId],
        now: float,
        alpha: float,
        beta: float,
        load_weight: float,
    ) -> DiskId:
        """Cheapest candidate by Eq. 6; ties by queue, then disk id.

        Equal to ``min`` over the ``(CostFunction.cost, queue_length,
        disk_id)`` key, with the comparisons unrolled so no key tuple is
        allocated per candidate. ``candidates`` must be non-empty.
        """
        pi = self.pi
        const = self.const
        tlast = self.tlast
        queue = self.queue
        best_disk: int = -1
        best_cost = 0.0
        best_queue = 0.0
        for disk_id in candidates:
            energy = (now - tlast[disk_id]) * pi[disk_id] + const[disk_id]
            queue_length = queue[disk_id]
            # NOTE: `energy * alpha / beta` in this order, as in
            # CostFunction.cost(): folding alpha/beta into one factor
            # rounds differently and would flip near-tie decisions.
            cost = energy * alpha / beta + queue_length * load_weight
            if (
                best_disk < 0
                or cost < best_cost
                or (
                    cost == best_cost
                    and (
                        queue_length < best_queue
                        or (
                            queue_length == best_queue
                            and disk_id < best_disk
                        )
                    )
                )
            ):
                best_cost = cost
                best_queue = queue_length
                best_disk = disk_id
        assert best_disk >= 0  # candidates is non-empty
        return best_disk

    def weights(
        self,
        disk_ids: Sequence[DiskId],
        now: float,
        alpha: float,
        beta: float,
        load_weight: float,
    ) -> List[float]:
        """Eq. 6 weights for ``disk_ids`` (the WSC per-tick weight pass)."""
        pi = self.pi
        const = self.const
        tlast = self.tlast
        queue = self.queue
        return [
            ((now - tlast[d]) * pi[d] + const[d]) * alpha / beta
            + queue[d] * load_weight
            for d in disk_ids
        ]

    def energies(self, disk_ids: Sequence[DiskId], now: float) -> List[float]:
        """Eq. 5 energies for ``disk_ids`` (plain-WSC set weights)."""
        pi = self.pi
        const = self.const
        tlast = self.tlast
        return [(now - tlast[d]) * pi[d] + const[d] for d in disk_ids]
