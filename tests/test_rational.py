from dataclasses import replace

import numpy as np
import pytest

from rabench.behavioral import loss_report
from rabench.errors import InvalidModelError
from rabench.model import (
    ActionSpace,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    StateSpace,
)
from rabench.rational import prior, rational_baseline, rational_report

from conftest import (
    optimum,
    posterior,
    random_matrix_problem,
    trial_table,
    weather_design,
    write_generated_dists,
)


class TestPriorPosterior:
    def test_weather_prior(self, weather_problem):
        p = prior(weather_problem.strategies["s"])
        assert p.probabilities[1] == pytest.approx(0.0796, abs=1e-12)

    def test_single_signal_prior_equals_conditional(self):
        s = InformationStructure(signals=("v",), joint=np.array([[0.3, 0.7]]))
        p = prior(s)
        q = posterior(s, "v")
        np.testing.assert_allclose(p.probabilities, q.probabilities)

    def test_weather_posteriors(self, weather_problem):
        q2 = posterior(weather_problem.strategies["s"], "sigma=2")
        assert q2.probabilities[1] == pytest.approx(0.0062, abs=1e-12)
        q5 = posterior(weather_problem.strategies["s"], "sigma=5")
        assert q5.probabilities[1] == pytest.approx(0.1588, abs=1e-12)

    def test_deterministic_signal_gives_point_mass(self):
        s = InformationStructure(
            signals=("a", "b"), joint=np.array([[0.4, 0.0], [0.0, 0.6]])
        )
        q = posterior(s, "a")
        np.testing.assert_allclose(q.probabilities, [1.0, 0.0])

    def test_zero_mass_signal_raises(self):
        with pytest.raises(InvalidModelError,
                           match="every signal row needs positive total mass"):
            InformationStructure(
                signals=("a", "b"),
                joint=np.array([[0.6, 0.4], [0.0, 0.0]]),
            )


class TestRationalQuantities:
    def test_weather_baseline(self, weather_problem):
        assert rational_baseline(weather_problem) == pytest.approx(-7.96, abs=1e-9)

    def test_weather_visualization_optimal(self, weather_problem):
        # no-salt on the two tight forecasts, salt on the two wide ones:
        # -100*(0.00155+0.01195) - 10*(0.2236+0.2103) = -5.689
        assert optimum(weather_problem) == pytest.approx(-5.689, abs=1e-9)

    def test_mean_only_strategy_equals_baseline(self):
        design = weather_design()
        report = rational_report(design)
        assert report.strategies["mean"].visualization_optimal == pytest.approx(
            rational_baseline(design), abs=1e-12
        )

    def test_weather_benchmark(self):
        design = weather_design()
        assert rational_report(design).benchmark == pytest.approx(-5.689, abs=1e-9)

    def test_weather_value_of_information(self):
        design = weather_design()
        report = rational_report(design)
        assert report.value_of_information == pytest.approx(2.271, abs=1e-9)

    def test_single_strategy_benchmark(self, weather_problem):
        design = ExperimentDesign(
            states=weather_problem.states,
            actions=weather_problem.actions,
            rule=weather_problem.rule,
            strategies={"only": weather_problem.strategies["s"]},
        )
        report = rational_report(design)
        assert report.benchmark == report.strategies["only"].visualization_optimal

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
        assert rational_report(design).value_of_information == pytest.approx(
            0.0, abs=1e-12)

    def test_zero_value_loss_refused(self):
        states = StateSpace(ids=("a", "b"))
        joint = np.outer([0.5, 0.5], [0.3, 0.7])
        design = ExperimentDesign(
            states=states,
            actions=ActionSpace.finite(("x", "y")),
            rule=MatrixRule(np.array([[1.0, 0.0], [0.0, 1.0]])),
            strategies={"noise": InformationStructure(("v1", "v2"), joint)},
        )
        trials = trial_table([("1", "noise", "v1", "a", "action", "x")])
        with pytest.raises(InvalidModelError,
                           match="need a positive value of information"):
            loss_report(design, "noise", trials)


class TestInformationLoss:
    def test_weather_mean_loses_everything(self):
        report = rational_report(weather_design())
        assert report.strategies["mean"].information_loss == pytest.approx(
            1.0, abs=1e-12)

    def test_weather_uncertainty_strategies_lose_nothing(self):
        report = rational_report(weather_design())
        for strategy in ("CI", "gradient", "HOPs"):
            assert report.strategies[strategy].information_loss == pytest.approx(
                0.0, abs=1e-12)

    def test_argmax_strategy_loss_is_zero(self):
        rng = np.random.default_rng(17)
        for _ in range(20):
            base = random_matrix_problem(rng)
            # a garbled copy shares the base prior by construction
            n_sig = len(base.strategies["s"].signals)
            channel = rng.random((n_sig, 3)) + 1e-3
            channel /= channel.sum(axis=1, keepdims=True)
            garbled = channel.T @ base.strategies["s"].joint
            design = ExperimentDesign(
                states=base.states,
                actions=base.actions,
                rule=base.rule,
                strategies={
                    "full": base.strategies["s"],
                    "coarse": InformationStructure(("g1", "g2", "g3"), garbled),
                },
            )
            report = rational_report(design)
            if report.value_of_information <= 1e-9:
                continue
            best = max(
                design.strategy_names(),
                key=lambda s: report.strategies[s].visualization_optimal,
            )
            assert report.strategies[best].information_loss == pytest.approx(
                0.0, abs=1e-9)


class TestOrderingInvariants:
    def test_baseline_below_optimal_below_benchmark(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            base = random_matrix_problem(rng)
            n_sig = len(base.strategies["s"].signals)
            k = int(rng.integers(1, 4))
            channel = rng.random((n_sig, k)) + 1e-3
            channel /= channel.sum(axis=1, keepdims=True)
            garbled = channel.T @ base.strategies["s"].joint
            design = ExperimentDesign(
                states=base.states,
                actions=base.actions,
                rule=base.rule,
                strategies={
                    "full": base.strategies["s"],
                    "coarse": InformationStructure(
                        tuple(f"g{i}" for i in range(k)), garbled
                    ),
                },
            )
            report = rational_report(design)
            for summary in report.strategies.values():
                rv = summary.visualization_optimal
                assert report.baseline <= rv + 1e-9
                assert rv <= report.benchmark + 1e-9
            assert report.value_of_information >= -1e-9

    def test_garbling_never_increases_optimal(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            base = random_matrix_problem(rng, n_signals=int(rng.integers(2, 5)))
            n_sig = len(base.strategies["s"].signals)
            k = int(rng.integers(1, n_sig + 1))
            channel = rng.random((n_sig, k)) + 1e-3
            channel /= channel.sum(axis=1, keepdims=True)
            garbled_joint = channel.T @ base.strategies["s"].joint
            garbled = replace(base, strategies={"s": InformationStructure(
                tuple(f"g{i}" for i in range(k)), garbled_joint)})
            assert optimum(garbled) <= optimum(base) + 1e-9

    def test_merging_identical_posteriors_is_lossless(self):
        # duplicate a signal row, then merge the duplicates back together
        rng = np.random.default_rng(37)
        for _ in range(50):
            base = random_matrix_problem(rng)
            joint = base.strategies["s"].joint
            split = np.vstack([joint[:1] * 0.5, joint[:1] * 0.5, joint[1:]])
            names = tuple(f"v{i}" for i in range(split.shape[0]))
            split_problem = replace(
                base, strategies={"s": InformationStructure(names, split)})
            assert optimum(split_problem) == pytest.approx(optimum(base), abs=1e-9)


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
