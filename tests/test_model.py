import numpy as np
import pytest

from rabench.errors import DimensionError, InvalidModelError
from rabench.generative import two_team_report_map
from rabench.model import (
    MIN_BIN_WIDTH,
    ActionSpace,
    Belief,
    DecisionProblem,
    InformationStructure,
    MatrixRule,
    StateSpace,
    TransitRule,
    binary_report_map,
    expected_score,
    expected_scores_all,
    optimal_action,
    outcome_scores,
    proper_score,
    realized_score,
    report_bins,
    validate,
)

from conftest import SALTING_SCORES, random_belief, random_matrix_problem


class TestSpaces:
    def test_state_space_rejects_duplicates(self):
        with pytest.raises(InvalidModelError):
            StateSpace(ids=("a", "a"))

    def test_state_space_rejects_empty(self):
        with pytest.raises(InvalidModelError):
            StateSpace(ids=())

    def test_integer_grid_expansion(self):
        grid = ActionSpace.integer_grid(0, 30)
        assert len(grid) == 31
        assert grid.ids[0] == "0" and grid.ids[-1] == "30"
        assert grid.values[10] == 10.0

    def test_grid_step_must_be_positive(self):
        with pytest.raises(InvalidModelError):
            ActionSpace.integer_grid(0, 10, step=0)

    def test_probability_report_bins(self):
        states = StateSpace(ids=("no", "yes"))
        space = ActionSpace.probability_reports(states, bin_width=0.02)
        assert len(space) == 50
        assert space.values[0] == pytest.approx(0.01)
        assert space.values[-1] == pytest.approx(0.99)

    def test_partial_last_bin_takes_its_own_midpoint(self):
        states = StateSpace(ids=("no", "yes"))
        space = ActionSpace.probability_reports(states, bin_width=0.3)
        assert space.values == pytest.approx((0.15, 0.45, 0.75, 0.95))
        assert space.ids == ("0.15", "0.45", "0.75", "0.95")

    def test_probability_report_needs_binary(self):
        with pytest.raises(InvalidModelError):
            ActionSpace.probability_reports(StateSpace(ids=("a", "b", "c")))

    def test_bin_width_bounds(self):
        states = StateSpace(ids=("no", "yes"))
        with pytest.raises(InvalidModelError):
            ActionSpace.probability_reports(states, bin_width=0.0)
        with pytest.raises(InvalidModelError):
            ActionSpace.probability_reports(states, bin_width=1.5)

    @pytest.mark.parametrize("width", [1e-300, 1e-6, 0.99e-5, float("nan")])
    def test_too_narrow_bins_refused(self, width):
        with pytest.raises(InvalidModelError, match="bin width must lie in"):
            report_bins(width)

    @pytest.mark.parametrize("width", [MIN_BIN_WIDTH, 1.7e-5, 3e-5])
    def test_narrowest_bins_have_distinct_ids(self, width):
        mids, ids = report_bins(width)
        assert len(set(ids)) == len(ids) == len(mids)


class TestBelief:
    def test_renormalizes_within_tolerance(self):
        b = Belief(np.array([0.5, 0.5 + 5e-10]))
        assert b.probabilities.sum() == pytest.approx(1.0, abs=1e-15)

    def test_rejects_beyond_tolerance(self):
        with pytest.raises(InvalidModelError):
            Belief(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidModelError):
            Belief(np.array([-0.2, 1.2]))

    def test_immutable(self):
        b = Belief.binary(0.3)
        with pytest.raises(ValueError):
            b.probabilities[0] = 0.9


class TestExpectedScore:
    def test_salting_certain_not_freezing(self, weather_problem):
        # certain non-freezing row of the table
        assert expected_score(weather_problem, "salt", Belief.binary(0.0)) == -10.0

    def test_salting_no_salt_at_prior(self, weather_problem):
        got = expected_score(weather_problem, "no-salt", Belief.binary(0.0796))
        assert got == pytest.approx(-7.96, abs=1e-12)

    def test_transit_catch_branch(self, transit_scenario2_problem):
        # point mass at 10, arrive at 10: 14*10 + 0 + 14*60
        belief = Belief(np.eye(31)[10])
        got = expected_score(transit_scenario2_problem, "10", belief)
        assert got == pytest.approx(980.0, abs=1e-9)

    def test_transit_miss_branch(self, transit_scenario2_problem):
        # point mass at 10, arrive at 11: 14*11 - 14*(10+30-11) + 14*60
        belief = Belief(np.eye(31)[10])
        got = expected_score(transit_scenario2_problem, "11", belief)
        assert got == pytest.approx(588.0, abs=1e-9)

    def test_dimension_mismatch_is_structured(self, weather_problem):
        with pytest.raises(DimensionError):
            expected_score(weather_problem, "salt", Belief(np.array([0.2, 0.3, 0.5])))

    def test_affine_in_belief(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            problem = random_matrix_problem(rng)
            n = len(problem.states)
            p, q = random_belief(rng, n), random_belief(rng, n)
            lam = rng.random()
            mix = Belief(lam * p.probabilities + (1 - lam) * q.probabilities)
            for action in problem.actions.ids:
                left = expected_score(problem, action, mix)
                right = (lam * expected_score(problem, action, p)
                         + (1 - lam) * expected_score(problem, action, q))
                assert left == pytest.approx(right, abs=1e-9)

    def test_exact_second_bus_matches_plugin(self, transit_scenario2_problem):
        # the literal expectation over the second arrival: the payoff is
        # linear in it, so the kernel's plug-in mean agrees to rounding
        problem = transit_scenario2_problem
        rule = problem.rule
        r0, rw, rd = rule.activity_rate, rule.waiting_rate, rule.destination_rate
        T, off = rule.max_destination_minutes, rule.second_bus_offset
        a = problem.actions.numeric_values()[:, None, None]
        theta = problem.states.numeric_values()
        first, second = theta[None, :, None], theta[None, None, :]
        catch = r0 * a + rw * (first - a) + rd * T
        miss = r0 * a + rw * (second + off - a) + rd * (T - (second - first))
        outcome = np.where(a <= first, catch, miss)  # (action, first, second)
        rng = np.random.default_rng(3)
        for _ in range(10):
            belief = random_belief(rng, 31)
            p = belief.probabilities
            exact = outcome @ p @ p
            np.testing.assert_allclose(expected_scores_all(problem, belief), exact,
                                       atol=1e-8)


class TestOptimalAction:
    def test_salting_low_probability(self, weather_problem):
        # -100 * 0.05 = -5 beats -10 * 0.95 = -9.5
        action, score = optimal_action(weather_problem, Belief.binary(0.05))
        assert action == "no-salt"
        assert score == pytest.approx(-5.0)

    def test_salting_high_probability(self, weather_problem):
        action, _ = optimal_action(weather_problem, Belief.binary(0.1587))
        assert action == "salt"

    def test_tie_breaks_to_lowest_index(self, weather_states):
        # identical rows are tied at every belief; the first action wins
        problem = DecisionProblem(
            states=weather_states,
            actions=ActionSpace.finite(("first", "second")),
            rule=MatrixRule(np.array([[1.0, -2.0], [1.0, -2.0]])),
            structure=InformationStructure(signals=("v",),
                                           joint=np.array([[0.5, 0.5]])),
        )
        action, _ = optimal_action(problem, Belief.binary(0.3))
        assert action == "first"

    def test_salting_indifference_is_near_one_eleventh(self, weather_problem):
        # the crossing point of -100p and -10(1-p) sits at p = 1/11; the
        # chosen action flips just either side of it
        eps = 1e-6
        below, _ = optimal_action(weather_problem, Belief.binary(1.0 / 11.0 - eps))
        above, _ = optimal_action(weather_problem, Belief.binary(1.0 / 11.0 + eps))
        assert below == "no-salt"
        assert above == "salt"

    def test_dominates_all_actions(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            problem = random_matrix_problem(rng)
            belief = random_belief(rng, len(problem.states))
            _, best = optimal_action(problem, belief)
            for action in problem.actions.ids:
                assert best >= expected_score(problem, action, belief) - 1e-12

    def test_hiring_rule_example(self):
        # two-team decision: keeping the roster pays 3.17 on the incumbent
        # win (probability 1/2); hiring pays 2.17 / -1 on the new-player win
        states = StateSpace(ids=("LL", "LW", "WL", "WW"))
        actions = ActionSpace.finite(("no-hire", "hire"))
        rule = MatrixRule(np.array([
            [0.0, 0.0, 3.17, 3.17],
            [-1.0, 2.17, -1.0, 2.17],
        ]))
        structure = InformationStructure(signals=("v",), joint=np.full((1, 4), 0.25))
        problem = DecisionProblem(states, actions, rule, structure)
        w = 0.9
        belief = Belief(np.array([0.5 * (1 - w), 0.5 * w, 0.5 * (1 - w), 0.5 * w]))
        action, score = optimal_action(problem, belief)
        assert action == "hire"
        assert score == pytest.approx(3.17 * 0.9 - 1.0, abs=1e-12)
        assert expected_score(problem, "no-hire", belief) == pytest.approx(1.585)


class TestProperScore:
    def test_report_below_threshold_freezing(self, weather_problem):
        assert proper_score(weather_problem, Belief.binary(0.05), "freezing") == -100.0

    def test_report_above_threshold_freezing(self, weather_problem):
        assert proper_score(weather_problem, Belief.binary(0.2), "freezing") == 0.0

    def test_certain_report(self, weather_problem):
        assert proper_score(weather_problem, Belief.binary(1.0), "freezing") == 0.0

    def test_propriety_brute_force(self):
        # averaging the proper score of the true belief over states recovers
        # the optimal expected score
        rng = np.random.default_rng(20)
        for _ in range(200):
            problem = random_matrix_problem(rng, n_states=int(rng.integers(2, 5)))
            q = random_belief(rng, len(problem.states))
            _, best = optimal_action(problem, q)
            avg = sum(
                q.probabilities[i] * proper_score(problem, q, sid)
                for i, sid in enumerate(problem.states.ids)
            )
            assert avg == pytest.approx(best, abs=1e-9)

    def test_transit_proper_uses_reported_belief(self, transit_scenario2_problem):
        rng = np.random.default_rng(8)
        belief = random_belief(rng, 31)
        best, best_score = optimal_action(transit_scenario2_problem, belief)
        avg = sum(
            belief.probabilities[i]
            * proper_score(transit_scenario2_problem, belief, sid)
            for i, sid in enumerate(transit_scenario2_problem.states.ids)
        )
        assert avg == pytest.approx(best_score, abs=1e-8)


class TestTabulation:
    def test_matrix_and_transit_agree_when_tabulated(self, transit_scenario2_problem):
        rng = np.random.default_rng(13)
        belief = random_belief(rng, 31)
        problem = transit_scenario2_problem
        n_actions = len(problem.actions)
        context = np.tile(belief.probabilities, (n_actions, 1))
        matrix = MatrixRule(outcome_scores(problem, np.arange(n_actions), context))
        wrapped = DecisionProblem(problem.states, problem.actions, matrix,
                                  problem.structure)
        a = expected_scores_all(problem, belief)
        b = expected_scores_all(wrapped, belief)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_realized_transit_score(self, transit_scenario2_problem):
        belief = Belief(np.eye(31)[10])
        got = realized_score(transit_scenario2_problem, "11", "10",
                             context_belief=belief)
        assert got == pytest.approx(588.0)


class TestValidate:
    def test_weather_problem_is_clean(self, weather_problem):
        assert validate(weather_problem) == []

    def test_bad_mass_is_reported(self, weather_states):
        structure = InformationStructure(
            signals=("v1", "v2"),
            joint=np.array([[0.4, 0.1], [0.3, 0.1]]),  # mass 0.9
            check=False,
        )
        problem = DecisionProblem(
            states=weather_states,
            actions=ActionSpace.finite(("no-salt", "salt")),
            rule=MatrixRule(np.array(SALTING_SCORES)),
            structure=structure,
        )
        assert any("mass" in v for v in validate(problem))

    def test_dimension_violation_is_reported(self):
        states = StateSpace(ids=("a", "b", "c"))
        structure = InformationStructure(
            signals=("v",), joint=np.full((1, 3), 1 / 3), check=True
        )
        problem = DecisionProblem(
            states=states,
            actions=ActionSpace.finite(("x", "y")),
            rule=MatrixRule(np.zeros((2, 2))),  # 2x2 against 3 states
            structure=structure,
        )
        assert any("dimension" in v for v in validate(problem))

    def test_all_violations_are_returned(self, weather_states):
        structure = InformationStructure(
            signals=("v1", "v2"),
            joint=np.array([[0.9, 0.1], [0.0, 0.0]]),  # mass 1 but empty row
            check=False,
        )
        problem = DecisionProblem(
            states=weather_states,
            actions=ActionSpace.finite(("x", "y")),
            rule=MatrixRule(np.zeros((3, 2))),
            structure=structure,
        )
        violations = validate(problem)
        assert len(violations) >= 2

    def test_zero_row_rejected_on_checked_construction(self):
        with pytest.raises(InvalidModelError):
            InformationStructure(
                signals=("v1", "v2"),
                joint=np.array([[1.0, 0.0], [0.0, 0.0]]),
            )

    def test_signal_index(self):
        structure = InformationStructure(
            signals=("v1", 2, "v1"), joint=np.full((3, 2), 1 / 6), check=False)
        assert structure.signal_index("v1") == 0  # a duplicate finds its first row
        assert structure.signal_index(2) == structure.signal_index("2") == 1
        with pytest.raises(InvalidModelError, match="unknown signal 'v3'"):
            structure.signal_index("v3")


class TestExperimentDesign:
    def test_prior_mismatch_rejected(self, weather_states):
        from rabench.model import ExperimentDesign

        s1 = InformationStructure(signals=("v",), joint=np.array([[0.9, 0.1]]))
        s2 = InformationStructure(signals=("v",), joint=np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidModelError):
            ExperimentDesign(
                states=weather_states,
                actions=ActionSpace.finite(("x", "y")),
                rule=MatrixRule(np.zeros((2, 2))),
                strategies={"a": s1, "b": s2},
            )

    def test_empty_strategy_set_rejected(self, weather_states):
        from rabench.model import ExperimentDesign

        with pytest.raises(InvalidModelError):
            ExperimentDesign(
                states=weather_states,
                actions=ActionSpace.finite(("x", "y")),
                rule=MatrixRule(np.zeros((2, 2))),
                strategies={},
            )

    @pytest.mark.parametrize("trials", [0, -3])
    def test_non_positive_trials_per_experiment_rejected(self, weather_states, trials):
        from rabench.model import ExperimentDesign

        structure = InformationStructure(signals=("v",), joint=np.array([[0.5, 0.5]]))
        with pytest.raises(InvalidModelError, match="^trials_per_experiment must be"):
            ExperimentDesign(
                states=weather_states,
                actions=ActionSpace.finite(("x", "y")),
                rule=MatrixRule(np.zeros((2, 2))),
                strategies={"a": structure},
                trials_per_experiment=trials,
            )


class TestReportMaps:
    """The vectorized ``to_beliefs`` and the scalar ``to_belief`` agree bit
    for bit, and refuse the same reports with the same error."""

    EDGES = [np.nextafter(0.0, 1.0), 1e-12, 0.02, 0.5, 0.98, 1.0 - 1e-12,
             np.nextafter(1.0, 0.0)]

    def check_rows(self, report_map, reports):
        matrix = report_map.to_beliefs(reports)
        assert matrix.shape[0] == len(reports)
        for r, row in zip(reports, matrix):
            scalar = report_map.to_belief(float(r)).probabilities
            assert row.tobytes() == scalar.tobytes(), r

    def check_refused(self, report_map, bad):
        with pytest.raises(InvalidModelError) as scalar:
            report_map.to_belief(bad)
        with pytest.raises(InvalidModelError) as vector:
            report_map.to_beliefs(np.array([0.5, bad, 0.5]))
        assert str(vector.value) == str(scalar.value)

    def test_binary_rows_match_scalar(self):
        grid = np.concatenate([[0.0, 1.0], self.EDGES, np.linspace(0, 1, 1001)])
        self.check_rows(binary_report_map(), grid)

    def test_pos_to_win_rows_match_scalar(self):
        grid = np.concatenate([self.EDGES, np.linspace(0, 1, 1001)[1:-1]])
        self.check_rows(two_team_report_map(), grid)

    @pytest.mark.parametrize("bad", [float("nan"), -0.01, 1.01, float("inf")])
    def test_binary_refuses_like_scalar(self, bad):
        self.check_refused(binary_report_map(), bad)

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.0, -0.5, 1.5])
    def test_pos_to_win_refuses_like_scalar(self, bad):
        self.check_refused(two_team_report_map(), bad)
