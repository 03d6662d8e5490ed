"""Tests for the MWIS solvers."""

import itertools
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.strategies import small_problems

from repro.algorithms import independent_set
from repro.algorithms.graph import ConflictGraph
from repro.algorithms.independent_set import (
    exact_mwis,
    greedy_min_degree,
    gwmin,
    gwmin2,
    gwmin_weight_bound,
    independence_check,
    solve_mwis,
)
from repro.core.mwis import MWISOfflineScheduler
from repro.errors import ConfigurationError


def path_graph(weights):
    graph = ConflictGraph()
    for index, weight in enumerate(weights):
        graph.add_node(index, weight)
    for index in range(len(weights) - 1):
        graph.add_edge(index, index + 1)
    return graph


def random_graph(rng, n, edge_probability=0.3):
    graph = ConflictGraph()
    for node in range(n):
        graph.add_node(node, rng.uniform(0.0, 10.0))
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < edge_probability:
                graph.add_edge(u, v)
    return graph


ALL_SOLVERS = (gwmin, gwmin2, greedy_min_degree, exact_mwis)


class TestIndependence:
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_solution_is_independent(self, solver):
        rng = random.Random(17)
        for _ in range(10):
            graph = random_graph(rng, 15)
            independence_check(graph, solver(graph))

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_empty_graph(self, solver):
        assert solver(ConflictGraph()) == []

    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_isolated_nodes_all_selected(self, solver):
        graph = ConflictGraph()
        for node in range(5):
            graph.add_node(node, 1.0)
        assert sorted(solver(graph)) == [0, 1, 2, 3, 4]


class TestOptimality:
    def test_exact_on_path(self):
        # Path weights 1-9-1: optimum is the middle node alone (9).
        graph = path_graph([1.0, 9.0, 1.0])
        assert exact_mwis(graph) == [1]

    def test_exact_on_alternating_path(self):
        # Path 5-1-5-1-5: optimum = the three 5s.
        graph = path_graph([5.0, 1.0, 5.0, 1.0, 5.0])
        assert sorted(exact_mwis(graph)) == [0, 2, 4]

    def test_gwmin_matches_exact_on_easy_instances(self):
        graph = path_graph([1.0, 9.0, 1.0])
        assert gwmin(graph) == [1]

    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_greedy_never_beats_exact(self, seed):
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(2, 12))
        optimal = graph.total_weight(exact_mwis(graph))
        for greedy in (gwmin, gwmin2, greedy_min_degree):
            assert graph.total_weight(greedy(graph)) <= optimal + 1e-9

    @given(seed=st.integers(min_value=0, max_value=300))
    @settings(max_examples=40, deadline=None)
    def test_gwmin_meets_sakai_bound(self, seed):
        """Sakai et al. guarantee: GWMIN weight >= sum w(v)/(deg(v)+1)."""
        rng = random.Random(seed)
        graph = random_graph(rng, rng.randint(2, 15))
        achieved = graph.total_weight(gwmin(graph))
        assert achieved >= gwmin_weight_bound(graph) - 1e-9


class TestExactGuards:
    def test_node_limit(self):
        graph = ConflictGraph()
        for node in range(41):
            graph.add_node(node, 1.0)
        with pytest.raises(ConfigurationError, match="limited"):
            exact_mwis(graph)


class TestDispatch:
    def test_solve_mwis_methods(self):
        graph = path_graph([1.0, 9.0, 1.0])
        for method in ("gwmin", "gwmin2", "min-degree", "exact"):
            result = solve_mwis(graph, method)
            assert graph.is_independent_set(result)

    def test_unknown_method(self):
        with pytest.raises(ConfigurationError, match="unknown MWIS method"):
            solve_mwis(ConflictGraph(), "magic")


class TestDeterminism:
    @pytest.mark.parametrize("solver", ALL_SOLVERS)
    def test_repeatable(self, solver):
        rng = random.Random(5)
        graph = random_graph(rng, 20)
        assert solver(graph) == solver(graph)


def gwmin_key(live, node):
    return -live.weight(node) / (live.degree(node) + 1)


def gwmin2_key(live, node):
    weight = live.weight(node)
    closed = math.fsum([weight, *map(live.weight, live.neighbors(node))])
    if closed <= 0:
        return -1.0 / (live.degree(node) + 1)
    return -weight / closed


def min_degree_key(live, node):
    return live.degree(node)


GREEDY_DEFINITIONS = (
    (gwmin, gwmin_key),
    (gwmin2, gwmin2_key),
    (greedy_min_degree, min_degree_key),
)


def naive_greedy(graph, key):
    """The greedies by definition, in O(V^2): each round, take the live
    node with the smallest ``(key, insertion index)`` and remove its
    closed neighbourhood."""
    insertion = {node: index for index, node in enumerate(graph.nodes)}
    live = graph.copy()
    selected = []
    while len(live):
        node = min(live.nodes, key=lambda n: (key(live, n), insertion[n]))
        selected.append(node)
        live.remove_closed_neighborhood(node)
    return selected


#: Node ids of three kinds; labels are drawn in a shuffled order, so
#: insertion order is neither id order nor label order.
NODE_IDS = {
    "int": lambda label: label,
    "str": lambda label: f"n{label}",
    "tuple": lambda label: (label % 3, str(label)),
}


@st.composite
def conflict_graphs(draw):
    size = draw(st.integers(min_value=0, max_value=12))
    make_id = NODE_IDS[draw(st.sampled_from(sorted(NODE_IDS)))]
    ids = [make_id(label) for label in draw(st.permutations(range(size)))]
    # Few distinct weights and zeros, so keys tie and insertion order decides.
    weight = st.one_of(
        st.sampled_from([0.0, 1.0, 2.0]), st.floats(min_value=0.0, max_value=10.0)
    )
    graph = ConflictGraph()
    for node in ids:
        graph.add_node(node, draw(weight))
    pairs = list(itertools.combinations(range(size), 2))
    if pairs:
        for a, b in draw(st.lists(st.sampled_from(pairs), unique=True)):
            graph.add_edge(ids[a], ids[b])
    return graph


class TestGreediesMatchTheirDefinition:
    @given(graph=conflict_graphs())
    @settings(max_examples=200, deadline=None)
    def test_on_random_conflict_graphs(self, graph):
        for greedy, key in GREEDY_DEFINITIONS:
            assert greedy(graph) == naive_greedy(graph, key), greedy.__name__

    @given(problem=small_problems(max_requests=12))
    @settings(max_examples=100, deadline=None)
    def test_on_saving_term_graphs(self, problem):
        graph, _terms = MWISOfflineScheduler(neighborhood=None).build_graph(problem)
        for greedy, key in GREEDY_DEFINITIONS:
            assert greedy(graph) == naive_greedy(graph, key), greedy.__name__


#: Block sizes that split every drawn graph of more than three nodes
#: into several blocks.
SMALL_BLOCKS = (1, 3)


class TestBlockBoundaries:
    """Picks cross the greedy's key blocks as if the column were one."""

    @pytest.mark.parametrize("block_size", SMALL_BLOCKS)
    @given(graph=conflict_graphs())
    @settings(max_examples=100, deadline=None)
    def test_on_random_conflict_graphs(self, graph, block_size):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(independent_set, "BLOCK_SIZE", block_size)
            for greedy, key in GREEDY_DEFINITIONS:
                assert greedy(graph) == naive_greedy(graph, key), greedy.__name__

    @pytest.mark.parametrize("block_size", SMALL_BLOCKS)
    @given(problem=small_problems(max_requests=12))
    @settings(max_examples=60, deadline=None)
    def test_on_saving_term_graphs(self, problem, block_size):
        graph, _terms = MWISOfflineScheduler(neighborhood=None).build_graph(problem)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(independent_set, "BLOCK_SIZE", block_size)
            for greedy, key in GREEDY_DEFINITIONS:
                assert greedy(graph) == naive_greedy(graph, key), greedy.__name__

    @pytest.mark.parametrize("greedy, key", GREEDY_DEFINITIONS)
    def test_at_the_default_block_size(self, greedy, key):
        rng = random.Random(23)
        graph = random_graph(rng, 2 * independent_set.BLOCK_SIZE + 50, 0.02)
        assert greedy(graph) == naive_greedy(graph, key)


def tie_across_blocks():
    """Two equal components ``x - z`` and ``y - z2``, where ``y`` first
    has a second neighbour ``w``, which the first pick ``v`` removes.

    Once ``w`` is gone, ``x`` and ``y`` have equal keys under every rule,
    and ``y``'s key was written last, in a later block than ``x``'s.
    """
    graph = ConflictGraph()
    for node, weight in (
        ("v", 100.0), ("x", 2.0), ("z", 1.0), ("w", 1.0), ("y", 2.0), ("z2", 1.0)
    ):
        graph.add_node(node, weight)
    for u, v in (("v", "w"), ("w", "y"), ("x", "z"), ("y", "z2")):
        graph.add_edge(u, v)
    return graph


class TestTiesAcrossBlocks:
    @pytest.mark.parametrize("block_size", (1, 2, 4))
    @pytest.mark.parametrize("greedy, key", GREEDY_DEFINITIONS)
    def test_lower_insertion_index_wins(self, greedy, key, block_size, monkeypatch):
        monkeypatch.setattr(independent_set, "BLOCK_SIZE", block_size)
        graph = tie_across_blocks()
        assert greedy(graph) == naive_greedy(graph, key) == ["v", "x", "y"]

    @pytest.mark.parametrize("greedy, key", GREEDY_DEFINITIONS)
    def test_signed_zero_keys_tie(self, greedy, key, monkeypatch):
        # Weights -0.0 and 0.0 give GWMIN keys 0.0 and -0.0, which tie:
        # the first node wins although its key's sign bit is clear.
        monkeypatch.setattr(independent_set, "BLOCK_SIZE", 1)
        graph = ConflictGraph()
        graph.add_node("a", -0.0)
        graph.add_node("b", 0.0)
        graph.add_edge("a", "b")
        assert greedy(graph) == naive_greedy(graph, key) == ["a"]
