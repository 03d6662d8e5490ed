"""Maximum weighted independent set (MWIS) solvers.

The offline scheduling algorithm (Section 3.1) reduces to MWIS; the paper
solves the reduced problem with the **GMIN/GWMIN** greedy of Sakai,
Togasaki & Yamazaki ("A note on greedy algorithms for the maximum weighted
independent set problem", Discrete Applied Mathematics 2003):

* :func:`gwmin` — repeatedly select the vertex maximising
  ``w(v) / (deg(v) + 1)``, add it to the solution, delete it and its
  neighbourhood. Guarantees a solution of weight at least
  ``sum_v w(v) / (deg(v)+1)``.
* :func:`gwmin2` — the sibling rule ``w(v) / w(N+(v))`` (weight over the
  closed neighbourhood's weight), often slightly stronger on weighted
  graphs.
* :func:`exact_mwis` — exact branch and bound with a greedy lower bound
  and weight-sum upper bound, for validating the greedies and for solving
  the small instances of the paper's worked examples optimally.

MWIS admits no constant-factor approximation on general graphs (Håstad),
which is why the paper accepts greedy solutions.
"""

from __future__ import annotations

import heapq
from typing import Callable, Dict, Hashable, List, Set, Tuple

from repro.algorithms.graph import ConflictGraph
from repro.errors import ConfigurationError

NodeId = Hashable

#: A greedy selection rule: value to *minimise* for ``node`` given the
#: current weights and adjacency (negate for maximisation).
Scorer = Callable[[NodeId, Dict[NodeId, float], Dict[NodeId, Set[NodeId]]], float]


def _working_copy(
    graph: ConflictGraph,
) -> Tuple[Dict[NodeId, float], Dict[NodeId, Set[NodeId]]]:
    weights = {node: graph.weight(node) for node in graph.nodes}
    adjacency = {node: graph.neighbors(node) for node in graph.nodes}
    return weights, adjacency


def gwmin(graph: ConflictGraph) -> List[NodeId]:
    """GWMIN greedy: pick argmax ``w(v) / (deg(v) + 1)`` until empty.

    Ties break deterministically on node insertion order. Returns the
    selected independent set in pick order.

    Implementation note: scores only change when a vertex loses neighbours,
    so a lazy max-heap with per-node version counters gives
    O((V + E) log V) instead of the naive O(V^2) rescan — the difference
    between seconds and hours on full-scale trace graphs.
    """

    def score(
        node: NodeId,
        weights: Dict[NodeId, float],
        adjacency: Dict[NodeId, Set[NodeId]],
    ) -> float:
        return -weights[node] / (len(adjacency[node]) + 1)

    return _lazy_heap_greedy(graph, score)


def _lazy_heap_greedy(graph: ConflictGraph, score: Scorer) -> List[NodeId]:
    """Shared lazy-heap skeleton for the greedy MWIS family.

    ``score(node, weights, adjacency)`` returns a value to *minimise*
    (negate for maximisation). A node's score may only depend on its own
    weight and its current neighbourhood, which is exactly what GWMIN,
    GWMIN2 and min-degree need: scores change only when a vertex loses
    neighbours, so stale heap entries are detected with per-node version
    counters.
    """
    weights, adjacency = _working_copy(graph)
    selected: List[NodeId] = []
    version: Dict[NodeId, int] = dict.fromkeys(weights, 0)
    order: Dict[NodeId, int] = {node: i for i, node in enumerate(weights)}

    def entry(node: NodeId) -> Tuple[float, int, int, NodeId]:
        return (score(node, weights, adjacency), order[node], version[node], node)

    heap = [entry(node) for node in weights]
    heapq.heapify(heap)
    while weights:
        _score, _order, entry_version, node = heapq.heappop(heap)
        if node not in weights or version[node] != entry_version:
            continue
        selected.append(node)
        removed = adjacency[node] | {node}
        touched: Set[NodeId] = set()
        for victim in removed:
            for neighbor in adjacency[victim]:
                if neighbor not in removed:
                    adjacency[neighbor].discard(victim)
                    touched.add(neighbor)
            del adjacency[victim]
            del weights[victim]
            version.pop(victim, None)
        for survivor in touched:
            version[survivor] += 1
            heapq.heappush(heap, entry(survivor))
    return selected


def gwmin2(graph: ConflictGraph) -> List[NodeId]:
    """GWMIN2 greedy: pick argmax ``w(v) / w(N[v])`` until empty.

    ``w(N[v])`` is the weight of the closed neighbourhood. Zero-weight
    neighbourhoods (possible when every weight is 0) fall back to degree.
    """

    def score(
        node: NodeId,
        weights: Dict[NodeId, float],
        adjacency: Dict[NodeId, Set[NodeId]],
    ) -> float:
        closed = weights[node] + sum(weights[n] for n in adjacency[node])
        if closed <= 0:
            return -1.0 / (len(adjacency[node]) + 1)
        return -weights[node] / closed

    return _lazy_heap_greedy(graph, score)


def greedy_min_degree(graph: ConflictGraph) -> List[NodeId]:
    """Unweighted classic: repeatedly take a minimum-degree vertex.

    The algorithm GMIN extends (Section 6 of the paper); included for
    ablations comparing weighted vs unweighted selection.
    """

    def score(
        node: NodeId,
        weights: Dict[NodeId, float],
        adjacency: Dict[NodeId, Set[NodeId]],
    ) -> float:
        return float(len(adjacency[node]))

    return _lazy_heap_greedy(graph, score)


def exact_mwis(
    graph: ConflictGraph, max_nodes: int = 40
) -> List[NodeId]:
    """Optimal MWIS by branch and bound (small graphs only).

    Branches on the highest-weight remaining vertex (include/exclude) with
    a remaining-weight-sum upper bound, seeded with the GWMIN solution as
    the incumbent.

    Raises:
        ConfigurationError: when the graph exceeds ``max_nodes``.
    """
    if len(graph) > max_nodes:
        raise ConfigurationError(
            f"exact solver limited to {max_nodes} nodes, got {len(graph)}"
        )
    incumbent = gwmin(graph)
    incumbent_weight = graph.total_weight(incumbent)
    insertion = {node: i for i, node in enumerate(graph.nodes)}
    order = sorted(graph.nodes, key=lambda n: (-graph.weight(n), insertion[n]))
    adjacency = {node: graph.neighbors(node) for node in graph.nodes}
    weights = {node: graph.weight(node) for node in graph.nodes}

    best_set = list(incumbent)
    best_weight = incumbent_weight

    def search(
        candidates: List[NodeId], current: List[NodeId], current_weight: float
    ) -> None:
        nonlocal best_set, best_weight
        if not candidates:
            if current_weight > best_weight:
                best_weight = current_weight
                best_set = list(current)
            return
        upper = current_weight + sum(weights[n] for n in candidates)
        if upper <= best_weight:
            return
        head, *rest = candidates
        # Branch 1: include head.
        allowed = [n for n in rest if n not in adjacency[head]]
        search(allowed, current + [head], current_weight + weights[head])
        # Branch 2: exclude head.
        search(rest, current, current_weight)

    search(order, [], 0.0)
    return best_set


def independence_check(graph: ConflictGraph, nodes: List[NodeId]) -> None:
    """Raise if ``nodes`` is not an independent set of ``graph``."""
    if not graph.is_independent_set(nodes):
        raise ConfigurationError("selected nodes are not an independent set")


def gwmin_weight_bound(graph: ConflictGraph) -> float:
    """Sakai et al.'s lower bound: ``sum_v w(v) / (deg(v) + 1)``.

    Any GWMIN solution is guaranteed to weigh at least this much — a
    property test pins our implementation to it.
    """
    return sum(
        graph.weight(node) / (graph.degree(node) + 1) for node in graph.nodes
    )


def solve_mwis(graph: ConflictGraph, method: str = "gwmin") -> List[NodeId]:
    """Dispatch by method name: gwmin | gwmin2 | min-degree | exact."""
    solvers = {
        "gwmin": gwmin,
        "gwmin2": gwmin2,
        "min-degree": greedy_min_degree,
        "exact": exact_mwis,
    }
    try:
        solver = solvers[method]
    except KeyError:
        raise ConfigurationError(
            f"unknown MWIS method {method!r}; known: {sorted(solvers)}"
        )
    return solver(graph)
