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
import math
from typing import Callable, Dict, List, Tuple

from repro.algorithms.graph import ConflictGraph, MWISGraph, N, NodeId
from repro.errors import ConfigurationError

#: A greedy selection rule: value to *minimise* for ``node`` in the live
#: graph (negate for maximisation).
Scorer = Callable[[MWISGraph[N], N], float]

#: The greedy rebuilds its heap from the valid entries once the stale
#: ones outnumber the live nodes this many times over.
HEAP_COMPACTION_FACTOR = 2


def gwmin(graph: MWISGraph[N]) -> List[N]:
    """GWMIN greedy: pick argmax ``w(v) / (deg(v) + 1)`` until empty.

    Ties break deterministically on node insertion order. Returns the
    selected independent set in pick order.

    Implementation note: scores only change when a vertex loses neighbours,
    so a lazy max-heap whose entries carry the degree they were scored at
    gives O((V + E) log V) instead of the naive O(V^2) rescan — the
    difference between seconds and hours on full-scale trace graphs.
    """

    def score(live: MWISGraph[N], node: N) -> float:
        return -live.weight(node) / (live.degree(node) + 1)

    return _lazy_heap_greedy(graph, score)


def _lazy_heap_greedy(graph: MWISGraph[N], score: Scorer[N]) -> List[N]:
    """Shared lazy-heap skeleton for the greedy MWIS family.

    ``score(live, node)`` returns a value to *minimise* (negate for
    maximisation). A node's score may only depend on its own weight and
    its current neighbourhood, which is exactly what GWMIN, GWMIN2 and
    min-degree need: scores change only when a vertex loses neighbours,
    and every such loss lowers its degree, so a heap entry carrying the
    degree it was scored at is stale once the degree has moved. The
    greedy works on ``graph.copy()``; ``graph`` is left as it was.

    Every live node has exactly one valid entry, and its key
    ``(score, insertion index)`` is unique, so rebuilding the heap from
    the valid entries never changes the pick order.
    """
    # Insertion index of every live node; removed nodes drop out.
    order: Dict[N, int] = {node: i for i, node in enumerate(graph.nodes)}
    live = graph.copy()
    degree = live.degree
    heap: List[Tuple[float, int, int, N]] = [
        (score(live, node), index, degree(node), node)
        for node, index in order.items()
    ]
    heapq.heapify(heap)
    push, pop = heapq.heappush, heapq.heappop
    selected: List[N] = []
    while order:
        if len(heap) > (HEAP_COMPACTION_FACTOR + 1) * len(order):
            heap = [
                item for item in heap
                if item[3] in order and degree(item[3]) == item[2]
            ]
            heapq.heapify(heap)
        _score, _order, scored_degree, node = pop(heap)
        if node not in order or degree(node) != scored_degree:
            continue
        selected.append(node)
        for victim in live.neighbors(node):
            del order[victim]
        del order[node]
        for survivor in live.remove_closed_neighborhood(node):
            push(
                heap,
                (score(live, survivor), order[survivor], degree(survivor), survivor),
            )
    return selected


def gwmin2(graph: MWISGraph[N]) -> List[N]:
    """GWMIN2 greedy: pick argmax ``w(v) / w(N[v])`` until empty.

    ``w(N[v])`` is the weight of the closed neighbourhood. Zero-weight
    neighbourhoods (possible when every weight is 0) fall back to degree.
    """

    def score(live: MWISGraph[N], node: N) -> float:
        # fsum rounds once, so the score does not depend on the order in
        # which a graph lists the neighbours.
        weight = live.weight(node)
        closed = math.fsum([weight, *map(live.weight, live.neighbors(node))])
        if closed <= 0:
            return -1.0 / (live.degree(node) + 1)
        return -weight / closed

    return _lazy_heap_greedy(graph, score)


def greedy_min_degree(graph: MWISGraph[N]) -> List[N]:
    """Unweighted classic: repeatedly take a minimum-degree vertex.

    The algorithm GMIN extends (Section 6 of the paper); included for
    ablations comparing weighted vs unweighted selection.
    """

    def score(live: MWISGraph[N], node: N) -> float:
        return float(live.degree(node))

    return _lazy_heap_greedy(graph, score)


def exact_mwis(graph: MWISGraph[N], max_nodes: int = 40) -> List[N]:
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
    nodes = graph.nodes
    insertion = {node: i for i, node in enumerate(nodes)}
    order = sorted(nodes, key=lambda n: (-graph.weight(n), insertion[n]))
    weight = graph.weight

    best_set = list(incumbent)
    best_weight = incumbent_weight

    def search(
        candidates: List[N], current: List[N], current_weight: float
    ) -> None:
        nonlocal best_set, best_weight
        if not candidates:
            if current_weight > best_weight:
                best_weight = current_weight
                best_set = list(current)
            return
        upper = current_weight + sum(weight(n) for n in candidates)
        if upper <= best_weight:
            return
        head, *rest = candidates
        # Branch 1: include head.
        allowed = [n for n in rest if not graph.has_edge(head, n)]
        search(allowed, current + [head], current_weight + weight(head))
        # Branch 2: exclude head.
        search(rest, current, current_weight)

    search(order, [], 0.0)
    return best_set


def independence_check(graph: ConflictGraph, nodes: List[NodeId]) -> None:
    """Raise if ``nodes`` is not an independent set of ``graph``."""
    if not graph.is_independent_set(nodes):
        raise ConfigurationError("selected nodes are not an independent set")


def gwmin_weight_bound(graph: MWISGraph[N]) -> float:
    """Sakai et al.'s lower bound: ``sum_v w(v) / (deg(v) + 1)``.

    Any GWMIN solution is guaranteed to weigh at least this much — a
    property test pins our implementation to it.
    """
    return sum(
        graph.weight(node) / (graph.degree(node) + 1) for node in graph.nodes
    )


def solve_mwis(graph: MWISGraph[N], method: str = "gwmin") -> List[N]:
    """Dispatch by method name: gwmin | gwmin2 | min-degree | exact."""
    solvers: Dict[str, Callable[[MWISGraph[N]], List[N]]] = {
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
