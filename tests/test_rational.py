import numpy as np
import pytest

from rabench.errors import InvalidModelError, ZeroMassSignalError
from rabench.model import (
    ActionSpace,
    DecisionProblem,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    StateSpace,
)
from rabench.rational import (
    information_loss,
    posterior,
    prior,
    rational_baseline,
    rational_benchmark,
    rational_report,
    value_of_information,
    visualization_optimal,
)

from conftest import random_matrix_problem, weather_design, write_generated_dists


class TestPriorPosterior:
    def test_weather_prior(self, weather_problem):
        p = prior(weather_problem.structure)
        assert p.probabilities[1] == pytest.approx(0.0796, abs=1e-12)

    def test_single_signal_prior_equals_conditional(self):
        s = InformationStructure(signals=("v",), joint=np.array([[0.3, 0.7]]))
        p = prior(s)
        q = posterior(s, "v")
        np.testing.assert_allclose(p.probabilities, q.probabilities)

    def test_weather_posteriors(self, weather_problem):
        q2 = posterior(weather_problem.structure, "sigma=2")
        assert q2.probabilities[1] == pytest.approx(0.0062, abs=1e-12)
        q5 = posterior(weather_problem.structure, "sigma=5")
        assert q5.probabilities[1] == pytest.approx(0.1588, abs=1e-12)

    def test_deterministic_signal_gives_point_mass(self):
        s = InformationStructure(
            signals=("a", "b"), joint=np.array([[0.4, 0.0], [0.0, 0.6]])
        )
        q = posterior(s, "a")
        np.testing.assert_allclose(q.probabilities, [1.0, 0.0])

    def test_zero_mass_signal_raises(self):
        s = InformationStructure(
            signals=("a", "b"),
            joint=np.array([[0.6, 0.4], [0.0, 0.0]]),
            check=False,
        )
        with pytest.raises(ZeroMassSignalError):
            posterior(s, "b")


class TestRationalQuantities:
    def test_weather_baseline(self, weather_problem):
        assert rational_baseline(weather_problem) == pytest.approx(-7.96, abs=1e-9)

    def test_weather_visualization_optimal(self, weather_problem):
        # no-salt on the two tight forecasts, salt on the two wide ones:
        # -100*(0.00155+0.01195) - 10*(0.2236+0.2103) = -5.689
        assert visualization_optimal(weather_problem) == pytest.approx(-5.689, abs=1e-9)

    def test_mean_only_strategy_equals_baseline(self):
        design = weather_design()
        problem = design.problem("mean")
        assert visualization_optimal(problem) == pytest.approx(
            rational_baseline(problem), abs=1e-12
        )

    def test_weather_benchmark(self):
        design = weather_design()
        assert rational_benchmark(design) == pytest.approx(-5.689, abs=1e-9)

    def test_weather_value_of_information(self):
        design = weather_design()
        assert value_of_information(design) == pytest.approx(2.271, abs=1e-9)

    def test_single_strategy_benchmark(self, weather_problem):
        design = ExperimentDesign(
            states=weather_problem.states,
            actions=weather_problem.actions,
            rule=weather_problem.rule,
            strategies={"only": weather_problem.structure},
        )
        assert rational_benchmark(design) == pytest.approx(
            visualization_optimal(weather_problem)
        )

    def test_independent_signals_have_zero_value(self):
        # signals carry no state information: posteriors equal the prior
        states = StateSpace(ids=("a", "b"))
        marginal = np.array([0.3, 0.7])
        joint = np.outer([0.5, 0.5], marginal)
        design = ExperimentDesign(
            states=states,
            actions=ActionSpace.finite(("x", "y")),
            rule=MatrixRule(np.array([[1.0, 0.0], [0.0, 1.0]])),
            strategies={"noise": InformationStructure(("v1", "v2"), joint)},
        )
        assert value_of_information(design) == pytest.approx(0.0, abs=1e-12)

    def test_zero_value_loss_refused(self):
        states = StateSpace(ids=("a", "b"))
        joint = np.outer([0.5, 0.5], [0.3, 0.7])
        design = ExperimentDesign(
            states=states,
            actions=ActionSpace.finite(("x", "y")),
            rule=MatrixRule(np.array([[1.0, 0.0], [0.0, 1.0]])),
            strategies={"noise": InformationStructure(("v1", "v2"), joint)},
        )
        with pytest.raises(InvalidModelError):
            information_loss(design, "noise")


class TestInformationLoss:
    def test_weather_mean_loses_everything(self):
        design = weather_design()
        assert information_loss(design, "mean") == pytest.approx(1.0, abs=1e-12)

    def test_weather_uncertainty_strategies_lose_nothing(self):
        design = weather_design()
        for strategy in ("CI", "gradient", "HOPs"):
            assert information_loss(design, strategy) == pytest.approx(0.0, abs=1e-12)

    def test_argmax_strategy_loss_is_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            base = random_matrix_problem(rng)
            # a garbled copy shares the base prior by construction
            n_sig = len(base.structure.signals)
            channel = rng.random((n_sig, 3)) + 1e-3
            channel /= channel.sum(axis=1, keepdims=True)
            garbled = channel.T @ base.structure.joint
            design = ExperimentDesign(
                states=base.states,
                actions=base.actions,
                rule=base.rule,
                strategies={
                    "full": base.structure,
                    "coarse": InformationStructure(("g1", "g2", "g3"), garbled),
                },
            )
            delta = value_of_information(design)
            if delta <= 1e-9:
                continue
            best = max(
                design.strategy_names(),
                key=lambda s: visualization_optimal(design.problem(s)),
            )
            assert information_loss(design, best) == pytest.approx(0.0, abs=1e-9)


class TestOrderingInvariants:
    def test_baseline_below_optimal_below_benchmark(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            base = random_matrix_problem(rng)
            n_sig = len(base.structure.signals)
            k = int(rng.integers(1, 4))
            channel = rng.random((n_sig, k)) + 1e-3
            channel /= channel.sum(axis=1, keepdims=True)
            garbled = channel.T @ base.structure.joint
            design = ExperimentDesign(
                states=base.states,
                actions=base.actions,
                rule=base.rule,
                strategies={
                    "full": base.structure,
                    "coarse": InformationStructure(
                        tuple(f"g{i}" for i in range(k)), garbled
                    ),
                },
            )
            baseline = rational_baseline(design.any_problem())
            benchmark = rational_benchmark(design)
            for name in design.strategy_names():
                rv = visualization_optimal(design.problem(name))
                assert baseline <= rv + 1e-9
                assert rv <= benchmark + 1e-9
            assert value_of_information(design) >= -1e-9

    def test_garbling_never_increases_optimal(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            base = random_matrix_problem(rng, n_signals=int(rng.integers(2, 5)))
            n_sig = len(base.structure.signals)
            k = int(rng.integers(1, n_sig + 1))
            channel = rng.random((n_sig, k)) + 1e-3
            channel /= channel.sum(axis=1, keepdims=True)
            garbled_joint = channel.T @ base.structure.joint
            garbled = DecisionProblem(
                base.states,
                base.actions,
                base.rule,
                InformationStructure(tuple(f"g{i}" for i in range(k)), garbled_joint),
            )
            assert (
                visualization_optimal(garbled)
                <= visualization_optimal(base) + 1e-9
            )

    def test_merging_identical_posteriors_is_lossless(self):
        # duplicate a signal row, then merge the duplicates back together
        rng = np.random.default_rng(37)
        for _ in range(50):
            base = random_matrix_problem(rng)
            joint = base.structure.joint
            split = np.vstack([joint[:1] * 0.5, joint[:1] * 0.5, joint[1:]])
            names = tuple(f"v{i}" for i in range(split.shape[0]))
            split_problem = DecisionProblem(
                base.states, base.actions, base.rule,
                InformationStructure(names, split),
            )
            assert visualization_optimal(split_problem) == pytest.approx(
                visualization_optimal(base), abs=1e-9
            )


class TestReport:
    def test_weather_report_contents(self):
        design = weather_design()
        report = rational_report(design)
        assert report.baseline == pytest.approx(-7.96, abs=1e-9)
        assert report.benchmark == pytest.approx(-5.689, abs=1e-9)
        assert report.value_of_information == pytest.approx(2.271, abs=1e-9)
        assert report.strategies["mean"].information_loss == pytest.approx(1.0)
        assert report.strategies["CI"].information_loss == pytest.approx(0.0)
        assert report.prior.probabilities[1] == pytest.approx(0.0796)
        assert set(report.strategies["CI"].signals) == {
            "sigma=2", "sigma=3", "sigma=4", "sigma=5",
        }

    def test_zero_value_report_has_none_loss(self):
        states = StateSpace(ids=("a", "b"))
        joint = np.outer([0.5, 0.5], [0.3, 0.7])
        design = ExperimentDesign(
            states=states,
            actions=ActionSpace.finite(("x", "y")),
            rule=MatrixRule(np.array([[1.0, 0.0], [0.0, 1.0]])),
            strategies={"noise": InformationStructure(("v1", "v2"), joint)},
        )
        report = rational_report(design)
        assert report.strategies["noise"].information_loss is None


def test_report_builds_no_belief_per_signal(tmp_path, monkeypatch):
    """``rational_report`` keeps each strategy's posteriors as one matrix:
    the number of ``Belief`` objects it builds does not grow with the
    number of signals."""
    from rabench import model
    from rabench.cases import build_fernandes

    built = []
    post_init = model.Belief.__post_init__

    def counting(self):
        built.append(1)
        post_init(self)

    counts = {}
    for n in (10, 1000):
        path = tmp_path / f"dists{n}.csv"
        write_generated_dists(path, n, seed=7)
        design = build_fernandes(scenario=2, trial_dists=path).design
        assert len(design.strategies["full"]) == n
        with monkeypatch.context() as patch:
            patch.setattr(model.Belief, "__post_init__", counting)
            report = rational_report(design)
        counts[n] = len(built)
        built.clear()
        full = report.strategies["full"]
        assert full.signals == design.strategies["full"].signals
        assert full.posteriors.shape == (n, len(design.states))
    assert counts[1000] == counts[10] <= 5
