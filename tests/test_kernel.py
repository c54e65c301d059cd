"""The batched scoring kernel against per-belief reference loops.

``score_table`` and ``outcome_scores`` replace per-signal and per-row
Python loops in ``rational_report``, ``behavioral_score`` and
``calibrate``. The references here write those loops out again, with the
transit payoff spelled out outcome by outcome, and the kernel must agree
with them to 1e-12 relative on random matrix and random transit designs.
"""

import numpy as np
import pytest

from rabench.behavioral import EmpiricalJoint, behavioral_score, calibrate
from rabench.cases import build_case
from rabench.errors import DimensionError, InvalidModelError
from rabench.model import (
    ActionSpace,
    Belief,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    StateSpace,
    TransitRule,
    binary_report_map,
    optimal_action_indices,
    outcome_scores,
    report_bins,
    score_table,
)

from conftest import optimum, posterior, random_matrix_problem

RTOL = 1e-12


def transit_outcome(rule: TransitRule, a: float, theta: float, m: float) -> float:
    """Score of arriving at ``a`` against a bus at ``theta``, with the second
    bus's mean arrival ``m``."""
    r0, rw, rd = rule.activity_rate, rule.waiting_rate, rule.destination_rate
    T = rule.max_destination_minutes
    if a <= theta:
        return r0 * a + rw * (theta - a) + rd * T
    return r0 * a + rw * (m + rule.second_bus_offset - a) + rd * (T - (m - theta))


def reference_outcomes(problem: ExperimentDesign, action: int, p: np.ndarray) -> np.ndarray:
    """Realized score of one action in every state, under context belief p."""
    rule = problem.rule
    if isinstance(rule, MatrixRule):
        return rule.scores[action]
    a = problem.actions.numeric_values()[action]
    theta = problem.states.numeric_values()
    m = float(p @ theta)
    return np.array([transit_outcome(rule, a, t, m) for t in theta])


def reference_expected(problem: ExperimentDesign, p: np.ndarray) -> np.ndarray:
    return np.array([float(p @ reference_outcomes(problem, a, p))
                     for a in range(len(problem.actions))])


def reference_visualization_optimal(problem: ExperimentDesign) -> float:
    structure = problem.strategies["s"]
    marginal = structure.signal_marginal()
    total = 0.0
    for i, signal in enumerate(structure.signals):
        q = posterior(structure, signal).probabilities
        total += marginal[i] * reference_expected(problem, q).max()
    return total


def reference_behavioral(joint: EmpiricalJoint, base: ExperimentDesign) -> float:
    masses = joint.masses
    total = 0.0
    for i in range(len(joint.action_ids)):
        if masses[i].sum() <= 0:
            continue
        if joint.kind == "action":
            cond = masses[i] / masses[i].sum()
            action = base.actions.index(joint.action_ids[i])
            total += masses[i].sum() * reference_expected(base, cond)[action]
        else:
            belief = binary_report_map().to_beliefs([joint.action_values[i]])[0]
            best = int(np.argmax(reference_expected(base, belief)))
            total += float(masses[i] @ reference_outcomes(base, best, belief))
    return total


def reference_calibrate(joint: EmpiricalJoint, base: ExperimentDesign,
                        alpha: float) -> tuple[float, dict[str, str]]:
    marginal = joint.action_marginal()
    total, policy = 0.0, {}
    for i, a in enumerate(joint.action_ids):
        if marginal[i] <= 0:
            continue
        row = joint.counts[i] + alpha
        ev = reference_expected(base, row / row.sum())
        policy[a] = base.actions.ids[int(np.argmax(ev))]
        total += marginal[i] * ev.max()
    return total, policy


def random_transit_problem(rng: np.random.Generator) -> ExperimentDesign:
    n_states = int(rng.integers(4, 25))
    minutes = np.sort(rng.choice(np.arange(0.0, 40.0, 0.5), n_states, replace=False))
    rule = TransitRule(
        activity_rate=rng.uniform(0.0, 20.0), waiting_rate=-rng.uniform(0.0, 20.0),
        destination_rate=rng.uniform(0.0, 20.0),
        max_destination_minutes=rng.uniform(30.0, 90.0),
        second_bus_offset=rng.uniform(5.0, 40.0),
    )
    n_signals = int(rng.integers(1, 7))
    joint = rng.random((n_signals, n_states)) + 1e-3
    return ExperimentDesign(
        states=StateSpace(ids=tuple(f"{m:g}" for m in minutes), values=tuple(minutes)),
        actions=ActionSpace.integer_grid(0, 40, int(rng.integers(1, 5))),
        rule=rule,
        strategies={"s": InformationStructure(
            signals=tuple(f"v{i}" for i in range(n_signals)), joint=joint / joint.sum()
        )},
    )


def random_action_joint(rng, problem: ExperimentDesign) -> EmpiricalJoint:
    counts = rng.integers(0, 50, size=(len(problem.actions), len(problem.states)))
    counts[rng.random(len(problem.actions)) < 0.3] = 0  # some actions unseen
    counts[0, 0] += 1  # at least one observation
    return EmpiricalJoint(problem.actions.ids, problem.states.ids, counts, "action")


def random_problems(seed: int):
    rng = np.random.default_rng(seed)
    for _ in range(20):
        yield rng, random_matrix_problem(rng)
        yield rng, random_transit_problem(rng)


class TestAgainstReferenceLoops:
    def test_visualization_optimal(self):
        for _, problem in random_problems(41):
            assert optimum(problem) == pytest.approx(
                reference_visualization_optimal(problem), rel=RTOL)

    def test_behavioral_score_on_action_joints(self):
        for rng, problem in random_problems(42):
            joint = random_action_joint(rng, problem)
            assert behavioral_score(joint, problem) == pytest.approx(
                reference_behavioral(joint, problem), rel=RTOL)

    def test_behavioral_score_on_report_joints(self):
        rng = np.random.default_rng(43)
        for _ in range(20):
            problem = random_matrix_problem(rng, n_states=2)
            width = float(rng.choice([0.02, 0.1, 0.3]))
            mids, ids = report_bins(width)
            counts = rng.integers(0, 30, size=(len(mids), 2))
            counts[0, 1] += 1
            joint = EmpiricalJoint(ids, problem.states.ids, counts, "report",
                                   action_values=tuple(mids))
            assert behavioral_score(joint, problem) == pytest.approx(
                reference_behavioral(joint, problem), rel=RTOL)

    @pytest.mark.parametrize("alpha", [0.0, 0.5])
    def test_calibrate(self, alpha):
        for rng, problem in random_problems(44):
            joint = random_action_joint(rng, problem)
            got = calibrate(joint, problem, smoothing_alpha=alpha)
            score, policy = reference_calibrate(joint, problem, alpha)
            assert got.calibrated_score == pytest.approx(score, rel=RTOL)
            assert got.policy == policy

    def test_outcome_rows_average_to_the_score_table(self):
        for rng, problem in random_problems(45):
            beliefs = problem.strategies["s"].posteriors()
            actions = rng.integers(0, len(problem.actions), size=len(beliefs))
            rows = outcome_scores(problem, actions, beliefs)
            table = score_table(problem, beliefs)
            np.testing.assert_allclose((rows * beliefs).sum(axis=1),
                                       table[np.arange(len(beliefs)), actions],
                                       rtol=RTOL)


@pytest.mark.parametrize("scenario", [1, 2, 3])
def test_transit_argmax_matches_per_posterior_optimum(scenario):
    design = build_case("fernandes2018", scenario=scenario).design
    for structure in design.strategies.values():
        batch = optimal_action_indices(design, structure.posteriors())
        single = [int(np.argmax(reference_expected(
            design, posterior(structure, v).probabilities)))
            for v in structure.signals]
        assert batch.tolist() == single


@pytest.mark.parametrize("case", ["weather", "kale2020", "fernandes2018"])
def test_posteriors_equal_posterior_bit_for_bit(case):
    for structure in build_case(case).design.strategies.values():
        expected = [posterior(structure, v).probabilities for v in structure.signals]
        np.testing.assert_array_equal(structure.posteriors(), np.array(expected))


def test_conditionals_equal_normalized_count_rows():
    joint = EmpiricalJoint(("a", "b", "c"), ("x", "y"),
                           np.array([[3.0, 1.0], [0.0, 0.0], [2.0, 7.0]]), "action")
    for alpha in (0.0, 0.5):
        rows = joint.counts[[0, 2]] + alpha
        expected = [Belief(r / r.sum()).probabilities for r in rows]
        np.testing.assert_array_equal(joint.conditionals([0, 2], alpha), expected)
    with pytest.raises(InvalidModelError, match="'b' was never observed"):
        joint.conditionals([0, 1])


def test_posteriors_never_meet_a_zero_mass_signal():
    # the constructor refuses a zero-mass signal; a tiny one still conditions
    with pytest.raises(InvalidModelError, match="every signal row needs positive"):
        InformationStructure(signals=("a", "b"),
                             joint=np.array([[0.6, 0.4], [0.0, 0.0]]))
    s = InformationStructure(signals=("a", "b"),
                             joint=np.array([[0.6, 0.4 - 2e-300], [1e-300, 1e-300]]))
    np.testing.assert_array_equal(s.posteriors()[1], [0.5, 0.5])


class TestBatchDimensionErrors:
    def test_matrix_rule(self, weather_problem):
        with pytest.raises(DimensionError):
            optimal_action_indices(weather_problem, np.full((2, 3), 1.0 / 3.0))

    def test_transit_rule(self, transit_scenario2_problem):
        with pytest.raises(DimensionError):
            optimal_action_indices(transit_scenario2_problem, np.full((2, 30), 1.0 / 30))

    def test_a_single_vector_is_not_a_batch(self, weather_problem):
        with pytest.raises(DimensionError):
            score_table(weather_problem, np.array([0.5, 0.5]))
