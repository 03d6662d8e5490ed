"""Per-request energy savings: ``EPmax`` and the ``X(i, j, k)`` terms.

Section 3.1.1 of the paper defines the energy consumption of a request as
what its disk consumes from servicing it until the successor request
arrives on that disk, capped by::

    EPmax = Eup + Edown + TB * PI

(the successor finds the disk already spun down). The *saving* of
scheduling ``ri`` on disk ``dk`` with successor ``rj`` is (Eq. 3, proved
as Lemma 1)::

    X(i, j, k) = Eup + Edown + (TB - (tj - ti)) * PI   if 0 <= tj-ti < TB+Tup+Tdown
               = 0                                      otherwise

and ``X(i, j, k)`` exists only if ``dk`` holds the data of both requests
and ``ti < tj`` (Eq. 4).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence, Union, overload

from repro.power.profile import DiskPowerProfile
from repro.types import DiskId, Request, RequestId


def max_request_energy(profile: DiskPowerProfile) -> float:
    """``EPmax = Eup + Edown + TB * PI`` in joules."""
    return profile.max_request_energy


def saving_window(profile: DiskPowerProfile) -> float:
    """Gap bound below which a successor can still save energy:
    ``TB + Tup + Tdown``."""
    return profile.breakeven_time + profile.transition_time


def saving_value(ti: float, tj: float, profile: DiskPowerProfile) -> float:
    """Eq. 3 — the energy saved when ``rj`` follows ``ri`` on one disk.

    Footnote 4 of the paper notes the expression stays non-negative as
    long as the spin-up/down power is at least the idle power; for exotic
    profiles violating that we clamp at zero, which only ever *discards*
    a (physically meaningless) negative saving.
    """
    gap = tj - ti
    if gap < 0 or gap >= saving_window(profile):
        return 0.0
    value = (
        profile.transition_energy
        + (profile.breakeven_time - gap) * profile.idle_power
    )
    return max(0.0, value)


def gap_energy(gap: float, profile: DiskPowerProfile) -> float:
    """Offline-model energy in joules of one predecessor/successor gap
    of ``gap`` seconds (Lemma 1).

    * gap < TB + Tup + Tdown — the disk stays idle the whole gap
      (cases II/III): ``gap * PI``.
    * otherwise — the disk idles out ``TB``, spins down, and must spin up
      again (case I): ``EPmax``.
    """
    if gap < 0:
        raise ValueError(f"gap must be >= 0, got {gap}")
    if gap < saving_window(profile):
        return gap * profile.idle_power
    return max_request_energy(profile)


@dataclass(frozen=True)
class SavingTerm:
    """One node ``X(i, j, k)`` of the MWIS graph.

    Attributes:
        predecessor: ``ri``'s request id.
        successor: ``rj``'s request id.
        disk: ``dk``.
        weight: The Eq. 3 saving (strictly positive — zero-valued terms
            are never materialised, per Step 1 of the algorithm).
    """

    predecessor: RequestId
    successor: RequestId
    disk: DiskId
    weight: float

    @staticmethod
    def build(
        ri: Request, rj: Request, disk: DiskId, profile: DiskPowerProfile
    ) -> "SavingTerm | None":
        """Materialise ``X(i, j, k)`` if its value is positive, else None."""
        value = saving_value(ri.time, rj.time, profile)
        if value <= 0:
            return None
        return SavingTerm(
            predecessor=ri.request_id,
            successor=rj.request_id,
            disk=disk,
            weight=value,
        )

    def conflicts_with(self, other: "SavingTerm") -> bool:
        """True when the pair violates the formulation's constraints.

        * energy-constraint — two terms may not share a predecessor, and
          (because a request has exactly one predecessor per disk chain)
          may not share a successor;
        * schedule-constraint — terms sharing any request must agree on
          the disk.
        """
        if self.predecessor == other.predecessor:
            return True
        if self.successor == other.successor:
            return True
        shared = {self.predecessor, self.successor} & {
            other.predecessor,
            other.successor,
        }
        if shared and self.disk != other.disk:
            return True
        return False


class SavingTermColumns(Sequence[SavingTerm]):
    """Saving terms stored as four parallel columns.

    Term ``i`` is ``X(predecessor[i], successor[i], disk[i])`` of saving
    ``weight[i]``; indexing makes its :class:`SavingTerm` on demand, so a
    graph of a million terms holds four lists, not a million objects.
    """

    def __init__(
        self,
        predecessor: List[RequestId],
        successor: List[RequestId],
        disk: List[DiskId],
        weight: List[float],
    ) -> None:
        self.predecessor = predecessor
        self.successor = successor
        self.disk = disk
        self.weight = weight

    def __len__(self) -> int:
        return len(self.weight)

    @overload
    def __getitem__(self, index: int) -> SavingTerm: ...

    @overload
    def __getitem__(self, index: slice) -> Sequence[SavingTerm]: ...

    def __getitem__(
        self, index: Union[int, slice]
    ) -> Union[SavingTerm, Sequence[SavingTerm]]:
        if isinstance(index, slice):
            return [self[i] for i in range(*index.indices(len(self)))]
        return SavingTerm(
            self.predecessor[index], self.successor[index],
            self.disk[index], self.weight[index],
        )
