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

import math
from typing import Callable, Collection, Dict, List, Union, cast

import numpy as np
from numpy.typing import NDArray

from repro.algorithms.graph import ConflictGraph, MWISGraph, N, NodeId
from repro.errors import ConfigurationError

#: A greedy selection rule: value to *minimise* for ``node`` in the live
#: graph (negate for maximisation).
Scorer = Callable[[MWISGraph[N], N], float]

#: Keys per block of the greedy's key column: a pick scans the block
#: minima, then one block.
BLOCK_SIZE = 256

#: Rules whose keys the greedy computes vectorised, with no call per
#: node: GWMIN's ``-w(v) / (deg(v) + 1)`` and min-degree's ``deg(v)``.
_GWMIN_KEY = "gwmin"
_MIN_DEGREE_KEY = "min-degree"


def gwmin(graph: MWISGraph[N]) -> List[N]:
    """GWMIN greedy: pick argmax ``w(v) / (deg(v) + 1)`` until empty.

    Ties break deterministically on node insertion order. Returns the
    selected independent set in pick order.

    Implementation note: scores only change when a vertex loses neighbours,
    so the greedy re-scores only those vertices and keeps the keys in a
    numpy column with a minimum per block: a pick costs O(V / B + B)
    at C speed for blocks of B keys, instead of the naive O(V^2) rescan
    in Python — the difference between seconds and hours on full-scale
    trace graphs. The key ``-w / (deg + 1)`` is computed vectorised,
    from the greedy's own weight column.
    """
    return _blocked_argmin_greedy(graph, _GWMIN_KEY)


def _blocked_argmin_greedy(
    graph: MWISGraph[N], score: Union[Scorer[N], str]
) -> List[N]:
    """Shared skeleton for the greedy MWIS family: a blocked argmin.

    ``score`` is ``_GWMIN_KEY``, ``_MIN_DEGREE_KEY`` or a
    ``score(live, node)`` returning a value to *minimise* (negate for
    maximisation). A node's score may only depend on its own weight and
    its current neighbourhood, which is exactly what GWMIN, GWMIN2 and
    min-degree need: scores change only when a vertex loses neighbours,
    so only the survivors of each removal are scored again. The greedy
    works on ``graph.copy()``; ``graph`` is left as it was.

    The keys sit in one float64 column indexed by insertion index,
    padded with ``+inf`` to whole blocks of :data:`BLOCK_SIZE`, beside
    a column of each block's minimum. A pick is the first minimum of
    the block minima, then the first minimum inside that block:
    ``argmin`` returns the first occurrence, so the smallest ``(key,
    insertion index)`` wins, ties included (``-0.0`` equals ``0.0``).
    After a pick the removed nodes' keys become ``+inf``, the touched
    survivors are scored again, and only the blocks whose keys changed
    get a new minimum. A live key is never ``+inf`` or NaN, and the
    loop stops when no node remains, so a removed node is never picked.
    """
    nodes = graph.nodes
    count = len(nodes)
    index_of: Dict[N, int] = {node: index for index, node in enumerate(nodes)}
    position = index_of.__getitem__
    # Negated once, so a GWMIN key is one division: -w / (deg + 1).
    negated_weights = -np.fromiter(map(graph.weight, nodes), np.float64, count)
    by_ratio, by_degree = score == _GWMIN_KEY, score == _MIN_DEGREE_KEY
    scorer = cast(Scorer[N], score)  # called only for the other rules
    live = graph.copy()
    degree = live.degree
    size = BLOCK_SIZE
    blocks = -(-count // size)
    keys: NDArray[np.float64] = np.full(blocks * size, np.inf)
    table = keys.reshape(blocks, size)

    def rescore(members: Collection[N], indices: NDArray[np.intp]) -> None:
        if by_ratio:
            degrees = np.fromiter(map(degree, members), np.int64, len(members))
            keys[indices] = negated_weights[indices] / (degrees + 1)
        elif by_degree:
            keys[indices] = np.fromiter(map(degree, members), np.float64, len(members))
        else:
            keys[indices] = [scorer(live, member) for member in members]

    rescore(nodes, np.arange(count, dtype=np.intp))
    block_min = table.min(axis=1)
    remaining = count
    selected: List[N] = []
    while remaining:
        block = int(block_min.argmin())
        node = nodes[block * size + int(table[block].argmin())]
        selected.append(node)
        removed, touched = live.remove_closed_neighborhood(node)
        remaining -= len(removed)
        changed = np.fromiter(map(position, removed), np.intp, len(removed))
        keys[changed] = np.inf
        if touched:
            indices = np.fromiter(map(position, touched), np.intp, len(touched))
            rescore(touched, indices)
            changed = np.concatenate((changed, indices))
        dirty = np.zeros(blocks, dtype=bool)
        dirty[changed // size] = True
        block_min[dirty] = table[dirty].min(axis=1)
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

    return _blocked_argmin_greedy(graph, score)


def greedy_min_degree(graph: MWISGraph[N]) -> List[N]:
    """Unweighted classic: repeatedly take a minimum-degree vertex.

    The algorithm GMIN extends (Section 6 of the paper); included for
    ablations comparing weighted vs unweighted selection.
    """

    return _blocked_argmin_greedy(graph, _MIN_DEGREE_KEY)


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
