"""Tests for the weighted set cover solvers."""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms.set_cover import (
    SetCoverInstance,
    exact_weighted_set_cover,
    greedy_weighted_set_cover,
    greedy_weighted_set_cover_dense,
    harmonic_number,
)
from repro.errors import ConfigurationError


def make(universe, sets, weights):
    return SetCoverInstance.build(universe, sets, weights)


class TestInstance:
    def test_uncoverable_universe_rejected(self):
        with pytest.raises(ConfigurationError, match="not coverable"):
            make([1, 2], {"s": [1]}, {"s": 1.0})

    def test_missing_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="no weight"):
            SetCoverInstance.build([1], {"s": [1]}, {})

    def test_negative_weight_rejected(self):
        with pytest.raises(ConfigurationError, match="negative"):
            make([1], {"s": [1]}, {"s": -1.0})

    def test_extraneous_elements_trimmed(self):
        instance = make([1], {"s": [1, 99]}, {"s": 1.0})
        assert instance.sets["s"] == frozenset({1})

    def test_is_cover(self):
        instance = make([1, 2], {"a": [1], "b": [2]}, {"a": 1, "b": 1})
        assert instance.is_cover(["a", "b"])
        assert not instance.is_cover(["a"])


class TestGreedy:
    def test_prefers_cheap_wide_sets(self):
        instance = make(
            [1, 2, 3],
            {"wide": [1, 2, 3], "n1": [1], "n2": [2], "n3": [3]},
            {"wide": 1.5, "n1": 1.0, "n2": 1.0, "n3": 1.0},
        )
        assert greedy_weighted_set_cover(instance) == ["wide"]

    def test_zero_weight_sets_are_free(self):
        instance = make(
            [1, 2],
            {"free": [1], "paid": [1, 2]},
            {"free": 0.0, "paid": 5.0},
        )
        chosen = greedy_weighted_set_cover(instance)
        assert chosen[0] == "free"
        assert set(chosen) == {"free", "paid"}

    def test_classic_greedy_trap_still_covers(self):
        # The instance where greedy is suboptimal but must still cover.
        instance = make(
            [1, 2, 3, 4],
            {"big": [1, 2, 3], "left": [1, 2], "right": [3, 4]},
            {"big": 1.0, "left": 1.0, "right": 1.0},
        )
        chosen = greedy_weighted_set_cover(instance)
        assert instance.is_cover(chosen)

    def test_deterministic(self):
        instance = make(
            list(range(10)),
            {f"s{i}": [i, (i + 1) % 10] for i in range(10)},
            {f"s{i}": 1.0 + i * 0.1 for i in range(10)},
        )
        assert greedy_weighted_set_cover(instance) == greedy_weighted_set_cover(
            instance
        )

    def test_greedy_within_harmonic_factor_of_exact(self):
        rng = random.Random(0)
        for _trial in range(25):
            n_elements = rng.randint(3, 8)
            n_sets = rng.randint(3, 7)
            universe = list(range(n_elements))
            sets = {}
            for s in range(n_sets):
                size = rng.randint(1, n_elements)
                sets[s] = rng.sample(universe, size)
            # Guarantee coverability.
            sets["all"] = universe
            weights = {k: rng.uniform(0.1, 5.0) for k in sets}
            instance = make(universe, sets, weights)
            greedy = instance.cover_weight(greedy_weighted_set_cover(instance))
            optimal = instance.cover_weight(exact_weighted_set_cover(instance))
            assert greedy <= harmonic_number(n_elements) * optimal + 1e-9


def reference_greedy(universe, sets, weights):
    """The greedy rule on frozensets: each round the min of
    ``(weight / len(new), -len(new), repr(set_id))``."""
    uncovered = set(universe)
    remaining = dict(sets)
    chosen = []
    while uncovered:
        best_id = None
        best_key = None
        for set_id, members in remaining.items():
            new = members & uncovered
            if not new:
                continue
            key = (weights[set_id] / len(new), -len(new), repr(set_id))
            if best_key is None or key < best_key:
                best_id = set_id
                best_key = key
        if best_key is None:
            raise ConfigurationError("instance is not coverable")
        chosen.append(best_id)
        uncovered -= remaining.pop(best_id)
    return chosen


def bitset(members):
    bits = 0
    for element in members:
        bits |= 1 << element
    return bits


@st.composite
def tie_heavy_instances(draw):
    """Instances over elements ``0..n-1`` (often more than 64), with
    integer set ids on both sides of 10, few distinct weights and
    repeated set shapes, so ratio and coverage ties are common; about
    one in four has an element no set covers."""
    num_elements = draw(st.integers(min_value=1, max_value=150))
    elements = st.integers(min_value=0, max_value=num_elements - 1)
    intervals = st.builds(
        lambda a, b: frozenset(range(min(a, b), max(a, b) + 1)), elements, elements
    )
    members = intervals | st.frozensets(elements, min_size=1)
    shapes = draw(st.lists(members, min_size=1, max_size=4))
    set_ids = draw(
        st.lists(st.integers(min_value=0, max_value=120), min_size=1, max_size=20, unique=True)
    )
    weight_pool = draw(
        st.lists(
            st.sampled_from([0.0, 0.5, 1.0, 3.0]) | st.floats(min_value=0.0, max_value=10.0),
            min_size=1,
            max_size=3,
        )
    )
    sets = {
        set_id: draw(st.sampled_from(shapes) | members)
        for set_id in set_ids
    }
    weights = {set_id: draw(st.sampled_from(weight_pool)) for set_id in set_ids}
    # Number the covered elements 0..k-1; sometimes add an element k
    # that no set covers.
    label = {e: i for i, e in enumerate(sorted(frozenset().union(*sets.values())))}
    sets = {set_id: frozenset(label[e] for e in members) for set_id, members in sets.items()}
    return len(label) + draw(st.sampled_from([0, 0, 0, 1])), sets, weights


class TestBitsetParity:
    """The bitset greedy picks exactly what the frozenset rule picks."""

    @given(instance=tie_heavy_instances())
    @settings(max_examples=300, deadline=None)
    def test_pick_order_matches_reference(self, instance):
        num_elements, sets, weights = instance
        set_ids = list(sets)
        args = (
            [bitset(sets[set_id]) for set_id in set_ids],
            [weights[set_id] for set_id in set_ids],
            [repr(set_id) for set_id in set_ids],
            num_elements,
        )
        universe = range(num_elements)
        try:
            expected = reference_greedy(universe, sets, weights)
        except ConfigurationError:
            with pytest.raises(ConfigurationError, match="not coverable"):
                greedy_weighted_set_cover_dense(*args)
            return
        chosen = greedy_weighted_set_cover_dense(*args)
        assert [set_ids[row] for row in chosen] == expected
        assert greedy_weighted_set_cover(make(universe, sets, weights)) == expected

    def test_equal_weights_break_ties_by_repr_not_value(self):
        # "10" < "9": the repr rank, not numeric order, decides.
        sets = {9: frozenset({0, 1}), 10: frozenset({0, 1}), 11: frozenset({2})}
        weights = {9: 1.0, 10: 1.0, 11: 1.0}
        instance = make([0, 1, 2], sets, weights)
        assert greedy_weighted_set_cover(instance) == [10, 11]
        assert reference_greedy([0, 1, 2], sets, weights) == [10, 11]

    def test_rows_wider_than_a_machine_word(self):
        universe = list(range(130))
        sets = {
            "low": universe[:70],
            "high": universe[60:],
            "all": universe,
            "tail": universe[128:],
        }
        weights = {"low": 1.0, "high": 1.0, "all": 2.5, "tail": 0.0}
        instance = make(universe, sets, weights)
        frozen = {set_id: frozenset(members) for set_id, members in sets.items()}
        expected = reference_greedy(universe, frozen, weights)
        assert greedy_weighted_set_cover(instance) == expected == ["tail", "low", "high"]

    def test_uncoverable_element_raises(self):
        rows = [bitset({0, 1}), bitset({2})]
        with pytest.raises(ConfigurationError, match="not coverable"):
            greedy_weighted_set_cover_dense(rows, [1.0, 1.0], ["0", "1"], 4)


class TestExact:
    def test_finds_cheaper_cover_than_naive(self):
        instance = make(
            [1, 2, 3, 4],
            {"a": [1, 2], "b": [3, 4], "c": [1, 2, 3, 4]},
            {"a": 1.0, "b": 1.0, "c": 1.5},
        )
        chosen = exact_weighted_set_cover(instance)
        assert instance.cover_weight(chosen) == pytest.approx(1.5)

    def test_too_many_sets_rejected(self):
        universe = [0]
        sets = {i: [0] for i in range(30)}
        weights = {i: 1.0 for i in range(30)}
        instance = make(universe, sets, weights)
        with pytest.raises(ConfigurationError, match="limited"):
            exact_weighted_set_cover(instance)

    @given(seed=st.integers(min_value=0, max_value=200))
    @settings(max_examples=40, deadline=None)
    def test_exact_never_worse_than_greedy(self, seed):
        rng = random.Random(seed)
        n_elements = rng.randint(2, 7)
        universe = list(range(n_elements))
        sets = {"all": universe}
        for s in range(rng.randint(1, 6)):
            sets[s] = rng.sample(universe, rng.randint(1, n_elements))
        weights = {k: rng.uniform(0.0, 4.0) for k in sets}
        instance = make(universe, sets, weights)
        greedy = instance.cover_weight(greedy_weighted_set_cover(instance))
        optimal = instance.cover_weight(exact_weighted_set_cover(instance))
        assert optimal <= greedy + 1e-9


class TestHarmonic:
    def test_values(self):
        assert harmonic_number(1) == 1.0
        assert harmonic_number(2) == 1.5
        assert harmonic_number(0) == 0.0

    def test_negative_rejected(self):
        with pytest.raises(ConfigurationError):
            harmonic_number(-1)
