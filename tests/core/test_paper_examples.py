"""Exact-value reproduction of the paper's worked examples (Figs. 2-4).

These tests pin the library to the numbers printed in the paper:

* Fig. 2 (batch): schedule A = 15, schedule B = 10, always-on = 20.
* Fig. 3 (offline): schedule B = 23, schedule C = 19 (optimal).
* Fig. 4 (MWIS walkthrough): the graph, the selected set, the derived
  schedule.

Note: the paper states the Fig. 3 always-on energy as "76(=18*4)"; 18*4
is 72, and our evaluator agrees with the arithmetic (72), not the typo.
"""

import pytest

from repro.core.mwis import MWISOfflineScheduler
from repro.core.offline import OfflineEvaluator, chain_energies
from repro.types import Assignment


def assign(problem, mapping):
    return Assignment.from_mapping(problem.requests, mapping)


class TestFigure2Batch:
    """All six requests arrive simultaneously (batch queueing)."""

    def test_schedule_a_costs_15(self, batch_problem):
        # A: r1,r5 -> d1; r2,r3 -> d2; r4,r6 -> d3 (three disks x 5).
        schedule_a = assign(
            batch_problem, {0: 0, 4: 0, 1: 1, 2: 1, 3: 2, 5: 2}
        )
        evaluation = OfflineEvaluator(batch_problem).evaluate(schedule_a)
        assert evaluation.objective_energy == pytest.approx(15.0)

    def test_schedule_b_costs_10_and_uses_two_disks(self, batch_problem):
        # B: r1,r2,r3,r5 -> d1; r4,r6 -> d3.
        schedule_b = assign(
            batch_problem, {0: 0, 1: 0, 2: 0, 4: 0, 3: 2, 5: 2}
        )
        evaluation = OfflineEvaluator(batch_problem).evaluate(schedule_b)
        assert evaluation.objective_energy == pytest.approx(10.0)
        assert len(schedule_b.chains()) == 2

    def test_batch_energy_is_epmax_per_used_disk(self, batch_problem):
        """Theorem 2's core accounting: simultaneous requests cost one
        EPmax per disk used."""
        schedule_b = assign(
            batch_problem, {0: 0, 1: 0, 2: 0, 4: 0, 3: 2, 5: 2}
        )
        per_disk = chain_energies(schedule_b, batch_problem)
        assert per_disk == {0: pytest.approx(5.0), 2: pytest.approx(5.0)}

    def test_always_on_costs_20(self, batch_problem):
        # 4 disks x breakeven horizon 5 (all requests at t=0).
        assert OfflineEvaluator(batch_problem).always_on_energy() == pytest.approx(
            20.0
        )


class TestFigure3Offline:
    def test_schedule_b_costs_23(self, paper_problem):
        schedule_b = assign(paper_problem, {0: 0, 1: 0, 2: 0, 4: 0, 3: 2, 5: 2})
        evaluation = OfflineEvaluator(paper_problem).evaluate(schedule_b)
        assert evaluation.objective_energy == pytest.approx(23.0)

    def test_schedule_b_per_disk_energies(self, paper_problem):
        # Paper: "the energy consumption of d1 and d3 now becomes 13 and 10".
        schedule_b = assign(paper_problem, {0: 0, 1: 0, 2: 0, 4: 0, 3: 2, 5: 2})
        per_disk = chain_energies(schedule_b, paper_problem)
        assert per_disk[0] == pytest.approx(13.0)
        assert per_disk[2] == pytest.approx(10.0)

    def test_schedule_c_costs_19(self, paper_problem):
        schedule_c = assign(paper_problem, {0: 0, 1: 0, 2: 0, 3: 2, 4: 3, 5: 3})
        evaluation = OfflineEvaluator(paper_problem).evaluate(schedule_c)
        assert evaluation.objective_energy == pytest.approx(19.0)

    def test_request_level_energies_of_schedule_c(self, paper_problem):
        # Paper: energy of r1 is 1 (idle 0->1), energy of r3 is 5.
        schedule_c = assign(paper_problem, {0: 0, 1: 0, 2: 0, 3: 2, 4: 3, 5: 3})
        evaluation = OfflineEvaluator(paper_problem).evaluate(schedule_c)
        assert evaluation.request_energy[0] == pytest.approx(1.0)
        assert evaluation.request_energy[2] == pytest.approx(5.0)

    def test_saving_of_r1_is_4(self, paper_problem):
        schedule_c = assign(paper_problem, {0: 0, 1: 0, 2: 0, 3: 2, 4: 3, 5: 3})
        evaluation = OfflineEvaluator(paper_problem).evaluate(schedule_c)
        epmax = paper_problem.profile.max_request_energy
        assert epmax - evaluation.request_energy[0] == pytest.approx(4.0)

    def test_always_on_equals_horizon_times_disks(self, paper_problem):
        evaluator = OfflineEvaluator(paper_problem)
        assert evaluator.horizon() == pytest.approx(18.0)
        assert evaluator.always_on_energy() == pytest.approx(72.0)

    def test_no_schedule_beats_19(self, paper_problem):
        """Exhaustively verify schedule C is optimal (paper's claim)."""
        import itertools

        best = float("inf")
        options = [paper_problem.locations_of(r) for r in paper_problem.requests]
        for combo in itertools.product(*options):
            assignment = assign(
                paper_problem,
                {i: disk for i, disk in enumerate(combo)},
            )
            evaluation = OfflineEvaluator(paper_problem).evaluate(assignment)
            best = min(best, evaluation.objective_energy)
        assert best == pytest.approx(19.0)


class TestFigure4Walkthrough:
    def test_graph_nodes_match_eq3_eq4(self, paper_problem):
        """Step 1: the non-zero saving terms of the example.

        Fidelity notes against the paper's Fig. 4(a) walkthrough:

        * Eq. 3/4 produce X(3,4,4) — r3 and r4 both live on d4 at gap
          2 < TB — which the figure omits; including it does not change
          the optimum (an alternative 11-weight independent set runs
          through it).
        * The figure's X(4,6,4) has gap t6 - t4 = 8 >= TB = 5, so Eq. 3
          values it zero and Step 1 drops it; the walkthrough's selected
          saving of 4 on d4 comes from X(5,6,4) (gap 1), consistent with
          the derived schedule placing r5, r6 on d4 and r4 anywhere.
        """
        scheduler = MWISOfflineScheduler(method="gwmin", neighborhood=None)
        _graph, terms = scheduler.build_graph(paper_problem)
        labelled = {(t.predecessor, t.successor, t.disk) for t in terms}
        # 1-based paper names: X(1,2,1), X(1,3,1), X(2,3,1), X(2,3,2),
        # X(3,4,4), X(5,6,4). Our ids are 0-based.
        assert labelled == {
            (0, 1, 0),
            (0, 2, 0),
            (1, 2, 0),
            (1, 2, 1),
            (2, 3, 3),
            (4, 5, 3),
        }

    def test_graph_weights(self, paper_problem):
        scheduler = MWISOfflineScheduler(method="gwmin", neighborhood=None)
        _graph, terms = scheduler.build_graph(paper_problem)
        weights = {
            (t.predecessor, t.successor, t.disk): t.weight for t in terms
        }
        assert weights[(0, 1, 0)] == pytest.approx(4.0)  # gap 1
        assert weights[(0, 2, 0)] == pytest.approx(2.0)  # gap 3
        assert weights[(1, 2, 0)] == pytest.approx(3.0)  # gap 2
        assert weights[(4, 5, 3)] == pytest.approx(4.0)  # gap 1

    def test_selected_set_weight_is_11(self, paper_problem):
        """Step 3: the paper's selected set {X(2,3,1), X(1,2,1), X(4,6,4)}
        has total saving 3 + 4 + 4 = 11."""
        scheduler = MWISOfflineScheduler(method="exact", neighborhood=None)
        result = scheduler.schedule_detailed(paper_problem)
        assert result.estimated_saving == pytest.approx(11.0)

    def test_derived_schedule_matches_figure_3b(self, paper_problem):
        scheduler = MWISOfflineScheduler(method="gwmin", neighborhood=None)
        result = scheduler.schedule_detailed(paper_problem)
        evaluation = OfflineEvaluator(paper_problem).evaluate(result.assignment)
        assert evaluation.objective_energy == pytest.approx(19.0)

    def test_gwmin_matches_exact_here(self, paper_problem):
        for method in ("gwmin", "gwmin2", "exact"):
            scheduler = MWISOfflineScheduler(method=method, neighborhood=None)
            result = scheduler.schedule_detailed(paper_problem)
            evaluation = OfflineEvaluator(paper_problem).evaluate(
                result.assignment
            )
            assert evaluation.objective_energy == pytest.approx(19.0), method
