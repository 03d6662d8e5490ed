"""Property-based tests of the MWIS scheduler and offline evaluator.

Random small scheduling problems are generated with hypothesis; the
invariants checked are the load-bearing claims of Section 3.1:

* the derived schedule is always feasible;
* the selected terms form an independent set (constraints hold);
* the MWIS weight never exceeds the schedule's true saving (the
  interleaving subtlety makes it a lower bound, not an equality);
* objective energy == N * EPmax - true saving (the formulation identity);
* the exact solver is never beaten by any feasible schedule (optimality
  on brute-forceable instances);
* the columnar graph build makes exactly the terms of the pairwise
  specification (``SavingTerm.build`` on every same-disk pair), in order;
* the implicit saving-term graph is the explicit pairwise conflict graph:
  same edges, degrees and edge count, before and after every removal,
  and every solver picks the same nodes on both.
"""

import itertools
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from tests.strategies import small_problems

from repro.algorithms import independent_set
from repro.algorithms.graph import ConflictGraph
from repro.algorithms.independent_set import exact_mwis, solve_mwis
from repro.core.mwis import MWISOfflineScheduler
from repro.core.offline import OfflineEvaluator
from repro.core.saving import SavingTerm, saving_value, saving_window
from repro.power.profile import PAPER_EVAL, PAPER_UNIT
from repro.types import Assignment


@given(problem=small_problems())
@settings(max_examples=60, deadline=None)
def test_schedule_always_feasible(problem):
    assignment = MWISOfflineScheduler(neighborhood=None).schedule(problem)
    problem.validate_schedule(assignment)


@given(problem=small_problems())
@settings(max_examples=60, deadline=None)
def test_selected_terms_are_conflict_free(problem):
    result = MWISOfflineScheduler(neighborhood=None).schedule_detailed(problem)
    for a, b in itertools.combinations(result.selected, 2):
        assert not a.conflicts_with(b)


@given(problem=small_problems())
@settings(max_examples=60, deadline=None)
def test_estimated_saving_is_lower_bound(problem):
    result = MWISOfflineScheduler(neighborhood=None).schedule_detailed(problem)
    evaluation = OfflineEvaluator(problem).evaluate(result.assignment)
    assert result.estimated_saving <= evaluation.total_saving + 1e-6


@given(problem=small_problems())
@settings(max_examples=60, deadline=None)
def test_objective_identity(problem):
    """energy(schedule) = N * EPmax - saving(schedule)."""
    assignment = MWISOfflineScheduler(neighborhood=None).schedule(problem)
    evaluation = OfflineEvaluator(problem).evaluate(assignment)
    epmax = problem.profile.max_request_energy
    assert evaluation.objective_energy == pytest.approx(
        problem.num_requests * epmax - evaluation.total_saving
    )


@given(problem=small_problems())
@settings(max_examples=25, deadline=None)
def test_exact_mwis_schedule_is_optimal(problem):
    """No brute-force schedule beats the exact-MWIS-derived one."""
    result = MWISOfflineScheduler(
        method="exact", neighborhood=None
    ).schedule_detailed(problem)
    evaluator = OfflineEvaluator(problem)
    achieved = evaluator.evaluate(result.assignment).objective_energy

    options = [problem.locations_of(r) for r in problem.requests]
    total = 1
    for opts in options:
        total *= len(opts)
    if total > 600:
        return  # keep the brute force bounded
    best = min(
        evaluator.evaluate(
            Assignment.from_mapping(
                problem.requests,
                {i: disk for i, disk in enumerate(combo)},
            )
        ).objective_energy
        for combo in itertools.product(*options)
    )
    assert achieved == pytest.approx(best)


@given(problem=small_problems())
@settings(max_examples=40, deadline=None)
def test_every_request_energy_bounded_by_epmax(problem):
    assignment = MWISOfflineScheduler(neighborhood=None).schedule(problem)
    evaluation = OfflineEvaluator(problem).evaluate(assignment)
    epmax = problem.profile.max_request_energy
    for energy in evaluation.request_energy.values():
        assert -1e-9 <= energy <= epmax + 1e-9


#: Spin-up/down power below idle power: Eq. 3 goes negative for gaps
#: inside the saving window (from 76/9.3 ~ 8.2 s on), and the clamp drops
#: those terms.
SLOW_SPIN = replace(
    PAPER_EVAL, name="slow-spin", spin_up_power=2.0, spin_down_power=2.0
)


def test_slow_spin_clamps_terms_inside_the_window():
    assert 10.0 < saving_window(SLOW_SPIN)
    assert saving_value(0.0, 10.0, SLOW_SPIN) == 0.0


def reference_terms(problem, neighborhood):
    """Step 1 by the specification: ``SavingTerm.build`` for every pair of
    one disk's time-sorted requests, the successor among the next
    ``neighborhood`` (all when None), disks in order of first request."""
    on_disk = {}
    for request in problem.requests:
        for disk in problem.locations_of(request):
            on_disk.setdefault(disk, []).append(request)
    terms = []
    for disk, requests in on_disk.items():
        requests.sort()
        for a, ri in enumerate(requests):
            stop = None if neighborhood is None else a + 1 + neighborhood
            for rj in requests[a + 1 : stop]:
                term = SavingTerm.build(ri, rj, disk, problem.profile)
                if term is not None:
                    terms.append(term)
    return terms


@pytest.mark.parametrize(
    "profile", [PAPER_UNIT, PAPER_EVAL, SLOW_SPIN], ids=lambda profile: profile.name
)
@pytest.mark.parametrize("neighborhood", [None, 1, 4])
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_build_graph_makes_the_specified_terms(profile, neighborhood, data):
    problem = data.draw(small_problems(profile=profile, max_requests=20))
    graph, terms = MWISOfflineScheduler(neighborhood=neighborhood).build_graph(
        problem
    )
    expected = reference_terms(problem, neighborhood)
    assert list(terms) == expected
    assert len(graph) == len(expected)
    assert [graph.weight(node) for node in graph.nodes] == [
        term.weight for term in expected
    ]


def explicit_graph(terms):
    """The conflict graph built pairwise from ``SavingTerm.conflicts_with``."""
    graph = ConflictGraph()
    for index, term in enumerate(terms):
        graph.add_node(index, term.weight)
    for a, b in itertools.combinations(range(len(terms)), 2):
        if terms[a].conflicts_with(terms[b]):
            graph.add_edge(a, b)
    return graph


def assert_same_graph(implicit, explicit):
    assert len(implicit) == len(explicit)
    assert implicit.nodes == explicit.nodes
    assert implicit.num_edges == explicit.num_edges
    for node in explicit.nodes:
        assert implicit.degree(node) == explicit.degree(node), node
        assert sorted(implicit.neighbors(node)) == sorted(explicit.neighbors(node))


@pytest.mark.parametrize("neighborhood", [None, 1])
@given(problem=small_problems())
@settings(max_examples=60, deadline=None)
def test_implicit_graph_matches_explicit(problem, neighborhood):
    implicit, terms = MWISOfflineScheduler(
        neighborhood=neighborhood
    ).build_graph(problem)
    explicit = explicit_graph(terms)
    for u, v in itertools.product(range(len(terms)), repeat=2):
        assert implicit.has_edge(u, v) == explicit.has_edge(u, v), (u, v)
    assert_same_graph(implicit, explicit)

    for method in ("gwmin", "gwmin2", "min-degree"):
        assert solve_mwis(implicit, method) == solve_mwis(explicit, method), method
    if len(terms) <= 40:
        assert implicit.total_weight(exact_mwis(implicit)) == explicit.total_weight(
            exact_mwis(explicit)
        )

    # Removing the same closed neighbourhoods keeps the two graphs equal.
    implicit_live, explicit_live = implicit.copy(), explicit.copy()
    for node in solve_mwis(explicit, "gwmin"):
        touched = implicit_live.remove_closed_neighborhood(node)
        assert touched == explicit_live.remove_closed_neighborhood(node)
        assert_same_graph(implicit_live, explicit_live)
    assert len(implicit_live) == 0
    # The solvers worked on copies.
    assert_same_graph(implicit, explicit)


@given(problem=small_problems())
@settings(max_examples=40, deadline=None)
def test_picks_do_not_depend_on_the_block_size(problem):
    graph, _terms = MWISOfflineScheduler(neighborhood=None).build_graph(problem)
    expected = {m: solve_mwis(graph, m) for m in ("gwmin", "gwmin2", "min-degree")}
    with pytest.MonkeyPatch.context() as patch:
        for block_size in (1, 2, 5):
            # Every graph of more nodes than this spans several blocks.
            patch.setattr(independent_set, "BLOCK_SIZE", block_size)
            for method, picks in expected.items():
                assert solve_mwis(graph, method) == picks, (method, block_size)
