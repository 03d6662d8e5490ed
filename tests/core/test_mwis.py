"""Tests for the MWIS offline scheduler mechanics."""

import copy
from pathlib import Path

import pytest

from repro.core.mwis import MWISOfflineScheduler
from repro.core.offline import OfflineEvaluator
from repro.core.problem import SchedulingProblem
from repro.errors import ConfigurationError
from repro.experiments import pins
from repro.placement.catalog import PlacementCatalog
from repro.power.profile import PAPER_UNIT
from repro.types import Request

REPO_ROOT = Path(__file__).resolve().parents[2]


class TestGraphConstruction:
    def test_zero_weight_terms_excluded(self):
        # Two requests far apart on the same disk: no node.
        catalog = PlacementCatalog({0: [0], 1: [0]})
        requests = [
            Request(time=0.0, request_id=0, data_id=0),
            Request(time=100.0, request_id=1, data_id=1),
        ]
        problem = SchedulingProblem.build(requests, catalog, PAPER_UNIT, 1)
        graph, terms = MWISOfflineScheduler(neighborhood=None).build_graph(problem)
        assert len(terms) == 0
        assert len(graph) == 0

    def test_neighborhood_cap_limits_pairs(self):
        # Five requests in a burst on one disk: unbounded = C(5,2)=10 pairs,
        # neighborhood=1 = 4 pairs.
        catalog = PlacementCatalog({i: [0] for i in range(5)})
        requests = [
            Request(time=i * 0.1, request_id=i, data_id=i) for i in range(5)
        ]
        problem = SchedulingProblem.build(requests, catalog, PAPER_UNIT, 1)
        _g, unbounded = MWISOfflineScheduler(neighborhood=None).build_graph(problem)
        _g, capped = MWISOfflineScheduler(neighborhood=1).build_graph(problem)
        assert len(unbounded) == 10
        assert len(capped) == 4

    def test_terms_only_on_shared_disks(self, paper_problem):
        _graph, terms = MWISOfflineScheduler(neighborhood=None).build_graph(
            paper_problem
        )
        for term in terms:
            # Both requests' data must live on the term's disk.
            pred = paper_problem.requests[term.predecessor]
            succ = paper_problem.requests[term.successor]
            assert term.disk in paper_problem.locations_of(pred)
            assert term.disk in paper_problem.locations_of(succ)

    def test_edges_are_exactly_the_conflicts(self, paper_problem):
        graph, terms = MWISOfflineScheduler(neighborhood=None).build_graph(
            paper_problem
        )
        for a_id in range(len(terms)):
            for b_id in range(a_id + 1, len(terms)):
                expected = terms[a_id].conflicts_with(terms[b_id])
                assert graph.has_edge(a_id, b_id) == expected, (
                    terms[a_id],
                    terms[b_id],
                )


class TestScheduling:
    def test_schedule_is_complete_and_feasible(self, paper_problem):
        assignment = MWISOfflineScheduler().schedule(paper_problem)
        paper_problem.validate_schedule(assignment)

    def test_estimated_saving_never_exceeds_true_saving(self, paper_problem):
        """The interleaving subtlety: the MWIS weight is a lower bound."""
        result = MWISOfflineScheduler(neighborhood=None).schedule_detailed(
            paper_problem
        )
        evaluation = OfflineEvaluator(paper_problem).evaluate(result.assignment)
        assert result.estimated_saving <= evaluation.total_saving + 1e-9

    def test_requests_without_terms_repaired_to_cheap_disks(self):
        # One lonely request with two possible homes; one home already has
        # a chain nearby, the other is empty. Repair should prefer the
        # nearby chain (marginal energy ~gap) over opening a new disk
        # (marginal EPmax).
        catalog = PlacementCatalog({0: [0], 1: [0], 2: [0, 1]})
        requests = [
            Request(time=0.0, request_id=0, data_id=0),
            Request(time=1.0, request_id=1, data_id=1),
            Request(time=2.0, request_id=2, data_id=2),
        ]
        problem = SchedulingProblem.build(requests, catalog, PAPER_UNIT, 2)
        assignment = MWISOfflineScheduler(neighborhood=None).schedule(problem)
        assert assignment.disk_of(2) == 0

    def test_unknown_method_raises_at_solve_time(self, paper_problem):
        scheduler = MWISOfflineScheduler(method="bogus")
        with pytest.raises(ConfigurationError):
            scheduler.schedule(paper_problem)

    def test_problem_left_untouched(self, paper_problem):
        before = copy.copy(vars(paper_problem))
        MWISOfflineScheduler(neighborhood=None).schedule(paper_problem)
        assert vars(paper_problem) == before

    def test_name_mentions_method(self):
        assert "gwmin" in MWISOfflineScheduler().name

    def test_capped_neighborhood_still_feasible(self, paper_problem):
        for cap in (1, 2, 3):
            assignment = MWISOfflineScheduler(neighborhood=cap).schedule(
                paper_problem
            )
            paper_problem.validate_schedule(assignment)

    def test_tighter_cap_never_improves_exact_saving(self, paper_problem):
        savings = []
        for cap in (1, 2, None):
            result = MWISOfflineScheduler(
                method="exact", neighborhood=cap
            ).schedule_detailed(paper_problem)
            savings.append(result.estimated_saving)
        assert savings == sorted(savings)


def test_mwis_solver_pin():
    """Every greedy at cap 4 and GWMIN at caps 1/2/4/8 on a small cello
    binding, byte for byte (the fig6 pin covers GWMIN at cap 4 only)."""
    assert pins.main(["--check", "mwis_solver"], root=REPO_ROOT) == 0
