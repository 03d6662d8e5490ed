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
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Union, cast

from repro.algorithms.graph import ConflictGraph, MWISGraph, N, NodeId
from repro.errors import ConfigurationError

#: A greedy selection rule: value to *minimise* for ``node`` in the live
#: graph (negate for maximisation).
Scorer = Callable[[MWISGraph[N], N], float]

#: The greedy rebuilds its heap from the valid entries once the stale
#: ones outnumber the live nodes this many times over.
HEAP_COMPACTION_FACTOR = 2

#: Rules whose key the greedy computes inline, with no call per heap
#: entry: GWMIN's ``-w(v) / (deg(v) + 1)`` and min-degree's ``deg(v)``.
_GWMIN_KEY = "gwmin"
_MIN_DEGREE_KEY = "min-degree"


def gwmin(graph: MWISGraph[N]) -> List[N]:
    """GWMIN greedy: pick argmax ``w(v) / (deg(v) + 1)`` until empty.

    Ties break deterministically on node insertion order. Returns the
    selected independent set in pick order.

    Implementation note: scores only change when a vertex loses neighbours,
    so a lazy max-heap re-scoring only those vertices gives
    O((V + E) log V) instead of the naive O(V^2) rescan — the difference
    between seconds and hours on full-scale trace graphs. The greedy
    computes the key ``-w / (deg + 1)`` inline, from its own weight list.
    """
    return _lazy_heap_greedy(graph, _GWMIN_KEY)


def _lazy_heap_greedy(graph: MWISGraph[N], score: Union[Scorer[N], str]) -> List[N]:
    """Shared lazy-heap skeleton for the greedy MWIS family.

    ``score`` is ``_GWMIN_KEY``, ``_MIN_DEGREE_KEY`` or a
    ``score(live, node)`` returning a value to *minimise* (negate for
    maximisation). A node's score may only depend on its own weight and
    its current neighbourhood, which is exactly what GWMIN, GWMIN2 and
    min-degree need: scores change only when a vertex loses neighbours,
    so only the survivors of each removal are scored again. The greedy
    works on ``graph.copy()``; ``graph`` is left as it was.

    Heap entries are ``(score, insertion index)``. ``valid[i]`` holds
    node ``i``'s one valid entry, or None once the node is removed, so an
    entry is stale exactly when it is not the one its index holds. Valid
    keys are unique, so rebuilding the heap from ``valid`` never changes
    the pick order.
    """
    nodes = graph.nodes
    index_of: Dict[N, int] = {node: index for index, node in enumerate(nodes)}
    weights = [graph.weight(node) for node in nodes]
    by_ratio, by_degree = score == _GWMIN_KEY, score == _MIN_DEGREE_KEY
    scorer = cast(Scorer[N], score)  # called only for the other rules
    live = graph.copy()
    degree = live.degree
    valid: List[Optional[Tuple[float, int]]] = [None] * len(nodes)
    remaining = len(nodes)
    heap: List[Tuple[float, int]] = []
    push, pop = heapq.heappush, heapq.heappop
    selected: List[N] = []
    touched: Iterable[N] = nodes  # every node is scored once up front
    while True:
        for node in touched:
            index = index_of[node]
            if by_ratio:
                key = -weights[index] / (degree(node) + 1)
            elif by_degree:
                key = degree(node)
            else:
                key = scorer(live, node)
            entry = valid[index] = (key, index)
            push(heap, entry)
        if not remaining:
            return selected
        if len(heap) > (HEAP_COMPACTION_FACTOR + 1) * remaining:
            heap = [entry for entry in valid if entry is not None]
            heapq.heapify(heap)
        entry = pop(heap)
        while valid[entry[1]] is not entry:
            entry = pop(heap)
        node = nodes[entry[1]]
        selected.append(node)
        removed, touched = live.remove_closed_neighborhood(node)
        for victim in removed:
            valid[index_of[victim]] = None
        remaining -= len(removed)


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

    return _lazy_heap_greedy(graph, _MIN_DEGREE_KEY)


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
