"""Tests for the conflict graph."""

import pytest

from repro.algorithms.graph import ConflictGraph
from repro.errors import ConfigurationError


@pytest.fixture
def triangle():
    graph = ConflictGraph()
    for node, weight in (("a", 1.0), ("b", 2.0), ("c", 3.0)):
        graph.add_node(node, weight)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("a", "c")
    return graph


def test_len_and_contains(triangle):
    assert len(triangle) == 3
    assert "a" in triangle
    assert "z" not in triangle


def test_degree_and_neighbors(triangle):
    assert triangle.degree("b") == 2
    assert triangle.neighbors("a") == {"b", "c"}


def test_num_edges(triangle):
    assert triangle.num_edges == 3


def test_duplicate_edge_is_idempotent(triangle):
    triangle.add_edge("a", "b")
    assert triangle.num_edges == 3


def test_duplicate_node_rejected(triangle):
    with pytest.raises(ConfigurationError):
        triangle.add_node("a", 1.0)


def test_self_loop_rejected(triangle):
    with pytest.raises(ConfigurationError):
        triangle.add_edge("a", "a")


def test_edge_to_missing_node_rejected(triangle):
    with pytest.raises(ConfigurationError):
        triangle.add_edge("a", "zzz")


def test_negative_weight_rejected():
    graph = ConflictGraph()
    with pytest.raises(ConfigurationError):
        graph.add_node("x", -1.0)


def test_total_weight(triangle):
    assert triangle.total_weight(["a", "c"]) == 4.0


def test_independent_set_detection(triangle):
    assert triangle.is_independent_set(["a"])
    assert triangle.is_independent_set([])
    assert not triangle.is_independent_set(["a", "b"])
    assert not triangle.is_independent_set(["a", "a"])  # duplicates invalid


def test_independent_set_in_path_graph():
    graph = ConflictGraph()
    for node in "abcd":
        graph.add_node(node, 1.0)
    graph.add_edge("a", "b")
    graph.add_edge("b", "c")
    graph.add_edge("c", "d")
    assert graph.is_independent_set(["a", "c"])
    assert graph.is_independent_set(["b", "d"])
    assert not graph.is_independent_set(["c", "d"])

