"""Weighted set cover: greedy (H_n-approximation) and exact solvers.

Theorem 2 of the paper reduces batch energy-aware scheduling to weighted
set cover: elements = queued requests, sets = disks, weight = the marginal
energy of using that disk (Eq. 5). The paper's experiments use the classic
greedy algorithm — iteratively pick the most *cost-effective* set
(weight divided by newly covered elements) — which is an ``H_n``-factor
approximation. :func:`greedy_weighted_set_cover_dense` is the one
greedy: it runs over Python-int bitsets, one per set, which stays cheap
on the batch scheduler's small per-tick instances (a few requests, a few
dozen disks). :func:`exact_weighted_set_cover` is a branch-and-bound
solver for small instances used to validate the greedy in tests.
"""

from __future__ import annotations

import heapq
import math
import sys
from dataclasses import dataclass
from typing import Dict, FrozenSet, Hashable, List, Mapping, Sequence, Set, Tuple

from repro.errors import ConfigurationError

Element = Hashable
SetId = Hashable


@dataclass(frozen=True)
class SetCoverInstance:
    """A weighted set cover problem.

    Attributes:
        universe: Elements to cover.
        sets: Mapping set id -> elements it covers.
        weights: Mapping set id -> non-negative weight.
    """

    universe: FrozenSet[Element]
    sets: Mapping[SetId, FrozenSet[Element]]
    weights: Mapping[SetId, float]

    @staticmethod
    def build(
        universe: Sequence[Element],
        sets: Mapping[SetId, Sequence[Element]],
        weights: Mapping[SetId, float],
    ) -> "SetCoverInstance":
        frozen_universe = frozenset(universe)
        frozen_sets = {
            set_id: frozenset(members) & frozen_universe
            for set_id, members in sets.items()
        }
        for set_id in frozen_sets:
            if set_id not in weights:
                raise ConfigurationError(f"set {set_id!r} has no weight")
            if weights[set_id] < 0:
                raise ConfigurationError(f"set {set_id!r} has negative weight")
        covered = (
            frozenset().union(*frozen_sets.values()) if frozen_sets else frozenset()
        )
        if covered != frozen_universe:
            missing = frozen_universe - covered
            raise ConfigurationError(
                f"universe elements not coverable: {sorted(map(repr, missing))}"
            )
        return SetCoverInstance(
            universe=frozen_universe,
            sets=frozen_sets,
            weights=dict(weights),
        )

    def cover_weight(self, chosen: Sequence[SetId]) -> float:
        """Total weight of a chosen set list."""
        return sum(self.weights[set_id] for set_id in chosen)

    def is_cover(self, chosen: Sequence[SetId]) -> bool:
        """True when the chosen sets cover the whole universe."""
        covered: Set[Element] = set()
        for set_id in chosen:
            covered |= self.sets[set_id]
        return covered >= self.universe


class Bitsets(List[int]):
    """Rows of a dense set cover instance as Python-int bitsets.

    Row ``i`` is set ``i``; bit ``j`` is set when it covers element
    ``j``. ``shape`` is ``(num_sets,)``, the row count a membership
    matrix would report: the traced benchmark (``perfbench/spans.py``)
    reads it to compute each tick's cover ratio.
    """

    @property
    def shape(self) -> Tuple[int]:
        return (len(self),)


if sys.version_info >= (3, 10):
    _popcount = int.bit_count
else:

    def _popcount(bits: int) -> int:
        return bin(bits).count("1")


def greedy_weighted_set_cover(instance: SetCoverInstance) -> List[SetId]:
    """Classic greedy: repeatedly pick the most cost-effective set.

    Cost-effectiveness of a set with weight ``w`` covering ``c`` new
    elements is ``w / c``; zero-weight sets are free and picked first.
    Ties break on larger coverage, then on the set id's repr for
    determinism. Returns the chosen set ids in pick order.

    Encodes each set as a bitset over the universe and delegates to
    :func:`greedy_weighted_set_cover_dense`, the one greedy.
    """
    bit_of = {element: 1 << column for column, element in enumerate(instance.universe)}
    set_ids = list(instance.sets)
    # A set's elements are distinct, so the sum of their bits is their union.
    rows = [sum(bit_of[element] for element in instance.sets[set_id]) for set_id in set_ids]
    chosen_rows = greedy_weighted_set_cover_dense(
        rows,
        [instance.weights[set_id] for set_id in set_ids],
        [repr(set_id) for set_id in set_ids],
        len(bit_of),
    )
    return [set_ids[row] for row in chosen_rows]


def greedy_weighted_set_cover_dense(
    rows: Sequence[int],
    weights: Sequence[float],
    tie_keys: Sequence[str],
    num_elements: int,
) -> List[int]:
    """Greedy set cover over dense rows: sets and elements numbered from 0.

    Each round picks the set minimising the key ``(weight / new, -new,
    repr(set_id))``: min ratio (the float64 division of ``weight`` by
    the count of newly covered elements), then max new count, then min
    ``tie_keys[row]``, the ``repr`` of the row's set id. With distinct
    tie keys the key totally orders the sets, so the row order does not
    affect the picks; among equal keys the lower row wins.

    Args:
        rows: One bitset per set; bit ``j`` set when it covers element
            ``j`` (see :class:`Bitsets`).
        weights: Set weights (must be >= 0).
        tie_keys: ``repr`` of each row's set id.
        num_elements: Elements to cover, numbered ``0..num_elements-1``.

    Returns:
        Chosen row indices in pick order (covering every element).

    Raises:
        ConfigurationError: when some element is in no set.
    """
    uncovered = (1 << num_elements) - 1
    chosen: List[int] = []
    while uncovered:
        best = -1
        best_ratio = 0.0
        best_new = 0
        for row, bits in enumerate(rows):
            new = _popcount(bits & uncovered)
            if not new:
                continue
            ratio = weights[row] / new
            if (
                best < 0
                or ratio < best_ratio
                or (
                    ratio == best_ratio
                    and (
                        new > best_new
                        or (new == best_new and tie_keys[row] < tie_keys[best])
                    )
                )
            ):
                best = row
                best_ratio = ratio
                best_new = new
        if best < 0:
            raise ConfigurationError("instance is not coverable")
        chosen.append(best)
        uncovered &= ~rows[best]
    return chosen


def exact_weighted_set_cover(
    instance: SetCoverInstance, max_sets: int = 24
) -> List[SetId]:
    """Optimal cover by best-first branch and bound (small instances only).

    Raises:
        ConfigurationError: when the instance has more than ``max_sets``
            sets (the search is exponential; this is a validation tool).
    """
    set_ids = sorted(instance.sets, key=repr)
    if len(set_ids) > max_sets:
        raise ConfigurationError(
            f"exact solver limited to {max_sets} sets, got {len(set_ids)}"
        )
    # Best-first search over (weight, covered) states.
    universe = instance.universe
    counter = 0
    heap: List[Tuple[float, int, FrozenSet[Element], List[SetId]]] = [
        (0.0, counter, frozenset(), [])
    ]
    best_seen: Dict[FrozenSet[Element], float] = {}
    while heap:
        weight, _tie, covered, chosen = heapq.heappop(heap)
        if covered >= universe:
            return chosen
        if best_seen.get(covered, math.inf) < weight:
            continue
        for set_id in set_ids:
            if set_id in chosen:
                continue
            members = instance.sets[set_id]
            new_covered = covered | members
            if new_covered == covered:
                continue
            new_weight = weight + instance.weights[set_id]
            if best_seen.get(new_covered, math.inf) <= new_weight:
                continue
            best_seen[new_covered] = new_weight
            counter += 1
            heapq.heappush(heap, (new_weight, counter, new_covered, chosen + [set_id]))
    raise ConfigurationError("instance is not coverable")


def harmonic_number(n: int) -> float:
    """``H_n = 1 + 1/2 + ... + 1/n`` — the greedy approximation factor."""
    if n < 0:
        raise ConfigurationError("n must be >= 0")
    return sum(1.0 / k for k in range(1, n + 1))
