"""Weighted conflict graphs for the MWIS solvers.

The MWIS solvers (:mod:`repro.algorithms.independent_set`) run over the
small :class:`MWISGraph` protocol, which two graphs implement:

* :class:`ConflictGraph` — a general graph with explicit adjacency sets,
  for arbitrary instances (tests, reductions, differential oracles).
* :class:`SavingTermGraph` — the implicit conflict graph of the offline
  scheduler's saving terms ``X(i, j, k)`` (Section 3.1). It stores no
  edges: one index of live terms per request gives every degree and
  neighbourhood on demand, so paper-scale traces, whose explicit graphs
  run to tens of millions of edges, fit in memory.
"""

from __future__ import annotations

from collections import defaultdict
from itertools import chain
from typing import (
    AbstractSet,
    Collection,
    Dict,
    Hashable,
    Iterable,
    Iterator,
    List,
    Protocol,
    Sequence,
    Set,
    Tuple,
    TypeVar,
)

from repro.errors import ConfigurationError

NodeId = Hashable
N = TypeVar("N", bound=Hashable)


class MWISGraph(Protocol[N]):
    """What the MWIS solvers need of a graph with nodes of type ``N``.

    Queries name live nodes and see the live graph: nodes gone through
    :meth:`remove_closed_neighborhood` no longer count, in degrees,
    neighbourhoods, ``nodes``, ``len`` or ``num_edges``.
    """

    def __len__(self) -> int: ...

    @property
    def nodes(self) -> Sequence[N]:
        """Live nodes in insertion order."""

    @property
    def num_edges(self) -> int: ...

    def weight(self, node: N) -> float:
        """The node's weight."""

    def degree(self, node: N) -> int:
        """Number of live neighbours of ``node``."""

    def neighbors(self, node: N) -> Collection[N]:
        """The live neighbours of ``node``."""

    def has_edge(self, u: N, v: N) -> bool:
        """True when ``u`` and ``v`` are adjacent."""

    def total_weight(self, nodes: Iterable[N]) -> float:
        """Sum of the given nodes' weights."""

    def copy(self) -> MWISGraph[N]:
        """An independent graph to remove nodes from."""

    def remove_closed_neighborhood(self, node: N) -> Tuple[Set[N], Set[N]]:
        """Remove ``node`` and its neighbours; return ``(removed,
        touched)``: the removed nodes, ``node`` included, and the
        surviving nodes that lost a neighbour (each lost at least one,
        so its degree fell)."""


class ConflictGraph:
    """Undirected graph with weighted nodes."""

    def __init__(self) -> None:
        self._weights: Dict[NodeId, float] = {}
        self._adjacency: Dict[NodeId, Set[NodeId]] = {}

    def __len__(self) -> int:
        return len(self._weights)

    def __contains__(self, node: NodeId) -> bool:
        return node in self._weights

    def __iter__(self) -> Iterator[NodeId]:
        return iter(self._weights)

    def add_node(self, node: NodeId, weight: float) -> None:
        """Add a node with a non-negative weight (duplicates rejected)."""
        if node in self._weights:
            raise ConfigurationError(f"duplicate node {node!r}")
        if weight < 0:
            raise ConfigurationError(f"node weight must be >= 0, got {weight}")
        self._weights[node] = weight
        self._adjacency[node] = set()

    def add_edge(self, u: NodeId, v: NodeId) -> None:
        """Connect two existing nodes (idempotent; self-loops rejected)."""
        if u == v:
            raise ConfigurationError("self-loops are not allowed")
        if u not in self._weights or v not in self._weights:
            raise ConfigurationError("both endpoints must be added first")
        self._adjacency[u].add(v)
        self._adjacency[v].add(u)

    def has_edge(self, u: NodeId, v: NodeId) -> bool:
        """True when ``u`` and ``v`` are adjacent."""
        return v in self._adjacency.get(u, ())

    def weight(self, node: NodeId) -> float:
        """The node's weight."""
        return self._weights[node]

    def degree(self, node: NodeId) -> int:
        """Number of neighbours of ``node``."""
        return len(self._adjacency[node])

    def neighbors(self, node: NodeId) -> Set[NodeId]:
        """A copy of the node's neighbour set."""
        return set(self._adjacency[node])

    @property
    def nodes(self) -> List[NodeId]:
        return list(self._weights)

    @property
    def num_edges(self) -> int:
        return sum(len(n) for n in self._adjacency.values()) // 2

    def total_weight(self, nodes: Iterable[NodeId]) -> float:
        """Sum of the given nodes' weights."""
        return sum(self._weights[node] for node in nodes)

    def is_independent_set(self, nodes: Iterable[NodeId]) -> bool:
        """True when no two of ``nodes`` are adjacent."""
        selected = list(nodes)
        selected_set = set(selected)
        if len(selected_set) != len(selected):
            return False
        for node in selected:
            if self._adjacency[node] & selected_set:
                return False
        return True

    def copy(self) -> ConflictGraph:
        """A deep copy (the adjacency sets are copied too)."""
        result = ConflictGraph()
        result._weights = dict(self._weights)
        result._adjacency = {
            node: set(neighbors) for node, neighbors in self._adjacency.items()
        }
        return result

    def remove_closed_neighborhood(
        self, node: NodeId
    ) -> Tuple[Set[NodeId], Set[NodeId]]:
        """Remove ``node`` and its neighbours; return ``(removed,
        touched)``: the removed nodes and the survivors that lost a
        neighbour."""
        removed = self._adjacency[node] | {node}
        touched: Set[NodeId] = set()
        for victim in removed:
            for neighbor in self._adjacency.pop(victim):
                if neighbor not in removed:
                    self._adjacency[neighbor].discard(victim)
                    touched.add(neighbor)
            del self._weights[victim]
        return removed, touched


_NO_TERMS: AbstractSet[int] = frozenset()


class SavingTermGraph:
    """Implicit conflict graph over chain terms ``(p, s, d)``.

    The terms arrive as parallel columns: node ``i`` is the term from
    ``pred[i]`` to ``succ[i]`` on ``disk[i]``, of weight ``weights[i]``.
    Two terms that share a request conflict unless they sit on the same
    disk and one's successor is the other's predecessor (the chain
    ``ri -> rj -> rk``), as in
    ``repro.core.saving.SavingTerm.conflicts_with`` (Section 3.1).
    No edge is stored. Live terms are indexed by the
    request they start at and the request they end at, so the
    neighbours of ``(p, s, d)`` are the live terms touching ``p`` or
    ``s``, less the chain partners on ``d``. With ``T(r)`` the live
    terms touching ``r``, its degree is::

        |T(p)| + |T(s)| - #(p, s, .) - 1 - #(., p, d) - #(s, ., d)

    Removing a node lowers each surviving neighbour's degree by one.

    Preconditions (met by terms built from one time-sorted request
    stream): a term's predecessor precedes its successor in one total
    order of requests, and no ``(p, s, d)`` appears twice.
    """

    def __init__(
        self,
        pred: Sequence[Hashable],
        succ: Sequence[Hashable],
        disk: Sequence[Hashable],
        weights: Sequence[float],
    ) -> None:
        # The columns are shared with the caller, never written.
        self._pred, self._succ, self._disk = pred, succ, disk
        self._weights = weights
        # Live terms by the request they start at / end at.
        self._out: Dict[Hashable, Set[int]] = defaultdict(set)
        self._into: Dict[Hashable, Set[int]] = defaultdict(set)
        for index, (pred, succ) in enumerate(zip(self._pred, self._succ)):
            self._out[pred].add(index)
            self._into[succ].add(index)
        self._degree = self._initial_degrees()

    def _initial_degrees(self) -> List[int]:
        """Every term's degree from the closed form, one request at a time."""
        pred, succ, disk = self._pred, self._succ, self._disk
        degree = [0] * len(pred)
        for request in self._out.keys() | self._into.keys():
            starting = self._out.get(request, _NO_TERMS)
            ending = self._into.get(request, _NO_TERMS)
            touching = len(starting) + len(ending)
            same_pair: Dict[Hashable, int] = {}
            starting_on: Dict[Hashable, int] = {}
            for index in starting:
                same_pair[succ[index]] = same_pair.get(succ[index], 0) + 1
                starting_on[disk[index]] = starting_on.get(disk[index], 0) + 1
            ending_on: Dict[Hashable, int] = {}
            for index in ending:
                ending_on[disk[index]] = ending_on.get(disk[index], 0) + 1
            # As predecessor: |T(p)| - #(p, s, .) - 1 - #(., p, d).
            for index in starting:
                degree[index] += (
                    touching
                    - same_pair[succ[index]]
                    - 1
                    - ending_on.get(disk[index], 0)
                )
            # As successor: |T(s)| - #(s, ., d).
            for index in ending:
                degree[index] += touching - starting_on.get(disk[index], 0)
        return degree

    def __len__(self) -> int:
        return sum(map(len, self._out.values()))

    @property
    def nodes(self) -> List[int]:
        return sorted(chain.from_iterable(self._out.values()))

    @property
    def num_edges(self) -> int:
        return sum(self._degree) // 2

    def weight(self, node: int) -> float:
        """The term's weight."""
        return self._weights[node]

    def degree(self, node: int) -> int:
        """Number of live terms conflicting with ``node``."""
        return self._degree[node]

    def total_weight(self, nodes: Iterable[int]) -> float:
        """Sum of the given terms' weights."""
        return sum(self._weights[node] for node in nodes)

    def has_edge(self, u: int, v: int) -> bool:
        """True when terms ``u`` and ``v`` conflict."""
        if u == v:
            return False
        pred_u, succ_u = self._pred[u], self._succ[u]
        pred_v, succ_v = self._pred[v], self._succ[v]
        if pred_u == pred_v or succ_u == succ_v:
            return True
        shares = pred_u == succ_v or succ_u == pred_v
        return shares and self._disk[u] != self._disk[v]

    def neighbors(self, node: int) -> List[int]:
        """The live terms conflicting with ``node``."""
        pred, disk = self._pred, self._disk
        p, s, d = pred[node], self._succ[node], disk[node]
        out_p = self._out.get(p, _NO_TERMS)
        into_p = self._into.get(p, _NO_TERMS)
        into_s = self._into.get(s, _NO_TERMS)
        out_s = self._out.get(s, _NO_TERMS)
        # Each term appears once: a term starting at p and ending at s is
        # taken from out_p only.
        result = [u for u in out_p if u != node]
        result += [u for u in into_p if disk[u] != d]
        result += [u for u in into_s if pred[u] != p]
        result += [u for u in out_s if disk[u] != d]
        return result

    def copy(self) -> SavingTermGraph:
        """An independent graph; the term arrays are shared, never written."""
        result = SavingTermGraph.__new__(SavingTermGraph)
        result._pred = self._pred
        result._succ = self._succ
        result._disk = self._disk
        result._weights = self._weights
        result._out = {request: set(terms) for request, terms in self._out.items()}
        result._into = {
            request: set(terms) for request, terms in self._into.items()
        }
        result._degree = list(self._degree)
        return result

    def remove_closed_neighborhood(self, node: int) -> Tuple[Set[int], Set[int]]:
        """Remove ``node`` and its neighbours; return ``(removed,
        touched)``: the removed terms and the survivors that lost a
        neighbour."""
        pred, succ, disk = self._pred, self._succ, self._disk
        out, into, degree = self._out, self._into, self._degree
        victims = self.neighbors(node)
        victims.append(node)
        for victim in victims:
            out[pred[victim]].remove(victim)
            into[succ[victim]].remove(victim)
            degree[victim] = 0
        # What is left in the indexes survives; each survivor loses one
        # neighbour per victim it conflicts with.
        touched: Set[int] = set()
        for victim in victims:
            p, s, d = pred[victim], succ[victim], disk[victim]
            for u in out[p]:
                degree[u] -= 1
                touched.add(u)
            for u in into.get(p, _NO_TERMS):
                if disk[u] != d:
                    degree[u] -= 1
                    touched.add(u)
            for u in into[s]:
                if pred[u] != p:
                    degree[u] -= 1
                    touched.add(u)
            for u in out.get(s, _NO_TERMS):
                if disk[u] != d:
                    degree[u] -= 1
                    touched.add(u)
        return set(victims), touched
