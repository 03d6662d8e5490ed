"""Tests for the MWIS solvers."""

import heapq
import itertools
import math
import random
from types import SimpleNamespace

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


class TestHeapCompaction:
    @pytest.mark.parametrize("solver", (gwmin, gwmin2, greedy_min_degree))
    def test_rebuilding_every_pick_keeps_picks(self, solver, monkeypatch):
        rng = random.Random(11)
        graphs = [random_graph(rng, 40, 0.15) for _ in range(5)]
        expected = [solver(graph) for graph in graphs]
        rebuilds = []

        def heapify(heap):
            rebuilds.append(len(heap))
            heapq.heapify(heap)

        monkeypatch.setattr(independent_set, "HEAP_COMPACTION_FACTOR", 0)
        monkeypatch.setattr(
            independent_set,
            "heapq",
            SimpleNamespace(
                heapify=heapify, heappush=heapq.heappush, heappop=heapq.heappop
            ),
        )
        assert [solver(graph) for graph in graphs] == expected
        # Beyond the one initial heapify per solve, the heap was rebuilt
        # before most picks.
        picks = sum(len(selected) for selected in expected)
        assert len(rebuilds) - len(graphs) > picks // 2


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
