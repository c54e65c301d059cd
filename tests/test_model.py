from dataclasses import replace

import numpy as np
import pytest

from rabench.errors import DimensionError, InvalidModelError
from rabench.generative import two_team_report_map
from rabench.model import (
    MIN_BIN_WIDTH,
    ActionSpace,
    Belief,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    StateSpace,
    TransitRule,
    binary_report_map,
    joint_violations,
    optimal_action_indices,
    outcome_scores,
    report_bins,
    score_table,
)

from conftest import random_belief, random_matrix_problem, violations


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

    @pytest.mark.parametrize("bad", [0.5, 3.0, True, "3", None])
    @pytest.mark.parametrize("which", ["low", "high", "step"])
    def test_grid_bounds_and_step_must_be_integers(self, which, bad):
        args = {"low": 0, "high": 3, "step": 1, which: bad}
        with pytest.raises(InvalidModelError, match=(
                f"^grid {which} must be an integer, not {bad!r}$")):
            ActionSpace.integer_grid(**args)

    def test_probability_report_bins(self):
        mids, ids = report_bins(0.02)
        assert len(mids) == len(ids) == 50
        assert mids[0] == pytest.approx(0.01)
        assert mids[-1] == pytest.approx(0.99)

    def test_partial_last_bin_takes_its_own_midpoint(self):
        mids, ids = report_bins(0.3)
        assert mids == pytest.approx((0.15, 0.45, 0.75, 0.95))
        assert ids == ("0.15", "0.45", "0.75", "0.95")

    def test_probability_report_needs_binary(self):
        with pytest.raises(InvalidModelError):
            binary_report_map(3)

    def test_bin_width_bounds(self):
        with pytest.raises(InvalidModelError):
            report_bins(0.0)
        with pytest.raises(InvalidModelError):
            report_bins(1.5)

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
        b = Belief(np.array([0.7, 0.3]))
        with pytest.raises(ValueError):
            b.probabilities[0] = 0.9


def binary(p_positive: float) -> np.ndarray:
    """A one-row belief matrix over a 2-state space, given the second
    state's mass."""
    return np.array([[1.0 - p_positive, p_positive]])


def best_action(problem, belief) -> tuple[str, float]:
    """The best action under a one-row belief matrix, and its expected score."""
    i = optimal_action_indices(problem, belief)[0]
    return problem.actions.ids[i], score_table(problem, belief)[0, i]


class TestExpectedScore:
    def test_salting_certain_not_freezing(self, weather_problem):
        # certain non-freezing row of the table
        salt = weather_problem.actions.index("salt")
        assert score_table(weather_problem, binary(0.0))[0, salt] == -10.0

    def test_salting_no_salt_at_prior(self, weather_problem):
        no_salt = weather_problem.actions.index("no-salt")
        got = score_table(weather_problem, binary(0.0796))[0, no_salt]
        assert got == pytest.approx(-7.96, abs=1e-12)

    def test_transit_catch_branch(self, transit_scenario2_problem):
        # point mass at 10, arrive at 10: 14*10 + 0 + 14*60
        got = score_table(transit_scenario2_problem, np.eye(31)[10:11])[0, 10]
        assert got == pytest.approx(980.0, abs=1e-9)

    def test_transit_miss_branch(self, transit_scenario2_problem):
        # point mass at 10, arrive at 11: 14*11 - 14*(10+30-11) + 14*60
        got = score_table(transit_scenario2_problem, np.eye(31)[10:11])[0, 11]
        assert got == pytest.approx(588.0, abs=1e-9)

    def test_dimension_mismatch_is_structured(self, weather_problem):
        with pytest.raises(DimensionError):
            score_table(weather_problem, np.array([[0.2, 0.3, 0.5]]))

    def test_affine_in_belief(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            problem = random_matrix_problem(rng)
            n = len(problem.states)
            p, q = random_belief(rng, n), random_belief(rng, n)
            lam = rng.random()
            mix = Belief(lam * p.probabilities + (1 - lam) * q.probabilities)
            left, at_p, at_q = score_table(problem, np.stack(
                [mix.probabilities, p.probabilities, q.probabilities]))
            np.testing.assert_allclose(left, lam * at_p + (1 - lam) * at_q,
                                       rtol=0, atol=1e-9)

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
            p = random_belief(rng, 31).probabilities
            exact = outcome @ p @ p
            np.testing.assert_allclose(score_table(problem, p[None, :])[0], exact,
                                       atol=1e-8)


class TestOptimalAction:
    def test_salting_low_probability(self, weather_problem):
        # -100 * 0.05 = -5 beats -10 * 0.95 = -9.5
        action, score = best_action(weather_problem, binary(0.05))
        assert action == "no-salt"
        assert score == pytest.approx(-5.0)

    def test_salting_high_probability(self, weather_problem):
        action, _ = best_action(weather_problem, binary(0.1587))
        assert action == "salt"

    def test_tie_breaks_to_lowest_index(self, weather_states):
        # identical rows are tied at every belief; the first action wins
        problem = ExperimentDesign(
            states=weather_states,
            actions=ActionSpace.finite(("first", "second")),
            rule=MatrixRule(np.array([[1.0, -2.0], [1.0, -2.0]])),
            strategies={"s": InformationStructure(signals=("v",),
                                                  joint=np.array([[0.5, 0.5]]))},
        )
        action, _ = best_action(problem, binary(0.3))
        assert action == "first"

    def test_salting_indifference_is_near_one_eleventh(self, weather_problem):
        # the crossing point of -100p and -10(1-p) sits at p = 1/11; the
        # chosen action flips just either side of it
        eps = 1e-6
        below, _ = best_action(weather_problem, binary(1.0 / 11.0 - eps))
        above, _ = best_action(weather_problem, binary(1.0 / 11.0 + eps))
        assert below == "no-salt"
        assert above == "salt"

    def test_dominates_all_actions(self):
        rng = np.random.default_rng(5)
        for _ in range(100):
            problem = random_matrix_problem(rng)
            belief = random_belief(rng, len(problem.states)).probabilities[None, :]
            _, best = best_action(problem, belief)
            assert (best >= score_table(problem, belief)[0] - 1e-12).all()

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
        problem = ExperimentDesign(states, actions, rule, {"s": structure})
        w = 0.9
        belief = np.array([[0.5 * (1 - w), 0.5 * w, 0.5 * (1 - w), 0.5 * w]])
        action, score = best_action(problem, belief)
        assert action == "hire"
        assert score == pytest.approx(3.17 * 0.9 - 1.0, abs=1e-12)
        assert score_table(problem, belief)[0, 0] == pytest.approx(1.585)


def played_scores(problem, reported: np.ndarray) -> np.ndarray:
    """Score in every state of the best action under each reported belief
    row, with the row as the transit rule's second-bus context: the proper
    form of an arbitrary scoring rule."""
    return outcome_scores(problem, optimal_action_indices(problem, reported), reported)


class TestProperScore:
    def test_report_below_threshold_freezing(self, weather_problem):
        assert played_scores(weather_problem, binary(0.05))[0, 1] == -100.0

    def test_report_above_threshold_freezing(self, weather_problem):
        assert played_scores(weather_problem, binary(0.2))[0, 1] == 0.0

    def test_certain_report(self, weather_problem):
        assert played_scores(weather_problem, binary(1.0))[0, 1] == 0.0

    def test_propriety_brute_force(self):
        # averaging the proper score of the true belief over states recovers
        # the optimal expected score
        rng = np.random.default_rng(20)
        for _ in range(200):
            problem = random_matrix_problem(rng, n_states=int(rng.integers(2, 5)))
            q = random_belief(rng, len(problem.states)).probabilities[None, :]
            _, best = best_action(problem, q)
            avg = played_scores(problem, q)[0] @ q[0]
            assert avg == pytest.approx(best, abs=1e-9)

    def test_transit_proper_uses_reported_belief(self, transit_scenario2_problem):
        rng = np.random.default_rng(8)
        belief = random_belief(rng, 31).probabilities[None, :]
        _, best_score = best_action(transit_scenario2_problem, belief)
        avg = played_scores(transit_scenario2_problem, belief)[0] @ belief[0]
        assert avg == pytest.approx(best_score, abs=1e-8)


class TestTabulation:
    def test_matrix_and_transit_agree_when_tabulated(self, transit_scenario2_problem):
        rng = np.random.default_rng(13)
        belief = random_belief(rng, 31).probabilities[None, :]
        problem = transit_scenario2_problem
        n_actions = len(problem.actions)
        context = np.tile(belief, (n_actions, 1))
        matrix = MatrixRule(outcome_scores(problem, np.arange(n_actions), context))
        wrapped = replace(problem, rule=matrix)
        a = score_table(problem, belief)
        b = score_table(wrapped, belief)
        np.testing.assert_allclose(a, b, atol=1e-9)

    def test_realized_transit_score(self, transit_scenario2_problem):
        problem = transit_scenario2_problem
        got = outcome_scores(problem, [problem.actions.index("11")], np.eye(31)[10:11])
        assert got[0, problem.states.index("10")] == pytest.approx(588.0)


class TestValidate:
    def test_weather_problem_is_clean(self, weather_problem):
        assert violations(weather_problem) == []

    def test_bad_mass_is_reported(self, weather_states):
        joint = np.array([[0.4, 0.1], [0.3, 0.1]])  # mass 0.9
        assert any("mass" in v for v in joint_violations(("v1", "v2"), joint,
                                                         weather_states))

    def test_dimension_violation_is_reported(self):
        states = StateSpace(ids=("a", "b", "c"))
        structure = InformationStructure(
            signals=("v",), joint=np.full((1, 3), 1 / 3)
        )
        problem = ExperimentDesign(
            states=states,
            actions=ActionSpace.finite(("x", "y")),
            rule=MatrixRule(np.zeros((2, 2))),  # 2x2 against 3 states
            strategies={"s": structure},
        )
        assert any("dimension" in v for v in violations(problem))

    def test_all_violations_are_returned(self, weather_states):
        structure = InformationStructure(
            signals=("v",), joint=np.full((1, 3), 1 / 3)  # 3 states against 2
        )
        problem = ExperimentDesign(
            states=weather_states,
            actions=ActionSpace.finite(("x", "y")),
            rule=MatrixRule(np.zeros((3, 2))),
            strategies={"s": structure},
        )
        assert len(violations(problem)) >= 2

    def test_zero_row_rejected_on_checked_construction(self):
        with pytest.raises(InvalidModelError):
            InformationStructure(
                signals=("v1", "v2"),
                joint=np.array([[1.0, 0.0], [0.0, 0.0]]),
            )


class TestExperimentDesign:
    def test_prior_mismatch_rejected(self, weather_states):
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
        with pytest.raises(InvalidModelError):
            ExperimentDesign(
                states=weather_states,
                actions=ActionSpace.finite(("x", "y")),
                rule=MatrixRule(np.zeros((2, 2))),
                strategies={},
            )

    @staticmethod
    def design_of_trials(states, trials):
        structure = InformationStructure(signals=("v",), joint=np.array([[0.5, 0.5]]))
        return ExperimentDesign(states=states, actions=ActionSpace.finite(("x", "y")),
                                rule=MatrixRule(np.zeros((2, 2))),
                                strategies={"a": structure},
                                trials_per_experiment=trials)

    @pytest.mark.parametrize("trials", [0, -3, 2.5, 32.0, True, "32", None])
    def test_non_positive_trials_per_experiment_rejected(self, weather_states, trials):
        with pytest.raises(InvalidModelError, match=(
                f"^trials_per_experiment must be a positive integer, not {trials!r}$")):
            self.design_of_trials(weather_states, trials)

    @pytest.mark.parametrize("score", [
        float("nan"), float("inf"), -float("inf"), True, False, "108", None,
        pytest.param(10**400, id="1e400"), pytest.param(-10**400, id="-1e400")])
    def test_non_finite_or_boolean_initial_score_rejected(self, weather_states, score):
        design = self.design_of_trials(weather_states, 1)
        with pytest.raises(InvalidModelError, match=(
                f"^initial_score must be a finite number, not {score!r}$")):
            ExperimentDesign(design.states, design.actions, design.rule,
                             design.strategies, initial_score=score)

    @pytest.mark.parametrize("score", [108, 108.0, np.float64(108.0), np.int64(108)])
    def test_finite_initial_score_is_kept_as_a_float(self, weather_states, score):
        design = self.design_of_trials(weather_states, 1)
        design = ExperimentDesign(design.states, design.actions, design.rule,
                                  design.strategies, initial_score=score)
        assert type(design.initial_score) is float and design.initial_score == 108.0

    def test_integer_initial_score_beyond_int64_is_kept(self, weather_states):
        design = self.design_of_trials(weather_states, 1)
        design = ExperimentDesign(design.states, design.actions, design.rule,
                                  design.strategies, initial_score=10**20)
        assert design.initial_score == 1e20

    @pytest.mark.parametrize("trials", [1, 32, np.int64(32)])
    def test_integer_trials_per_experiment_accepted(self, weather_states, trials):
        design = self.design_of_trials(weather_states, trials)
        assert design.trials_per_experiment == trials


class TestReportMaps:
    """Each shipped map takes reports to belief rows and back, and refuses
    reports outside its domain."""

    EDGES = [np.nextafter(0.0, 1.0), 1e-12, 0.02, 0.5, 0.98, 1.0 - 1e-12,
             np.nextafter(1.0, 0.0)]

    def check_round_trip(self, report_map, reports):
        beliefs = report_map.to_beliefs(reports)
        assert beliefs.shape[0] == len(reports)
        np.testing.assert_allclose(report_map.from_beliefs(beliefs), reports,
                                   rtol=1e-9, atol=0)

    def test_binary_round_trip(self):
        grid = np.concatenate([[0.0, 1.0], self.EDGES, np.linspace(0, 1, 1001)])
        self.check_round_trip(binary_report_map(), grid)

    def test_pos_to_win_round_trip(self):
        # reports whose win probability rounds to 0 or 1 cannot come back:
        # see test_pos_to_win_refuses_a_certain_win
        grid = np.concatenate([self.EDGES[1:-2], np.linspace(0, 1, 1001)[1:-1]])
        self.check_round_trip(two_team_report_map(), grid)

    def test_pos_to_win_refuses_a_certain_win(self):
        report_map = two_team_report_map()
        for report in (self.EDGES[0], self.EDGES[-2]):
            beliefs = report_map.to_beliefs([0.5, report])
            with pytest.raises(InvalidModelError, match="^win probability"):
                report_map.from_beliefs(beliefs)

    @pytest.mark.parametrize("bad", [float("nan"), -0.01, 1.01, float("inf")])
    def test_binary_refuses(self, bad):
        with pytest.raises(InvalidModelError,
                           match="^belief entries must be finite and non-negative$"):
            binary_report_map().to_beliefs(np.array([0.5, bad, 0.5]))

    @pytest.mark.parametrize("bad", [float("nan"), 0.0, 1.0, -0.5, 1.5])
    def test_pos_to_win_refuses(self, bad):
        with pytest.raises(InvalidModelError, match=(
                f"^superiority probability {bad!r} must lie strictly inside")):
            two_team_report_map().to_beliefs(np.array([0.5, bad, 0.5]))
