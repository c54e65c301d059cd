import numpy as np
import pytest

from rabench.cases import (
    _coarsen,
    build_case,
    build_fernandes,
    build_kale,
    build_weather,
    bundled_demo_trials_path,
    quantile_text_partition,
    read_trial_distributions,
    two_team_decision_threshold,
)
from rabench.config_io import design_from_config, design_to_config
from rabench.errors import ConfigError, InvalidModelError
from rabench.model import MatrixRule
from rabench.payment import incentive_table
from rabench.rational import rational_report

from conftest import violations


class TestWeatherCase:
    def test_design_is_valid(self):
        case = build_weather()
        assert violations(case.design) == []

    def test_pinned_rational_quantities(self):
        case = build_weather()
        report = rational_report(case.design)
        e = case.expected
        assert abs(report.baseline - e["baseline"].value) <= e["baseline"].tol
        for strategy in ("CI", "gradient", "HOPs", "mean"):
            pin = e[f"visualization_optimal:{strategy}"]
            got = report.strategies[strategy].visualization_optimal
            assert abs(got - pin.value) <= pin.tol
        pin = e["value_of_information"]
        assert abs(report.value_of_information - pin.value) <= pin.tol
        assert report.strategies["mean"].information_loss == pytest.approx(1.0)

    def test_pinned_incentives(self):
        case = build_weather()
        row = incentive_table(case.design).benchmark
        e = case.expected
        assert abs(row.payment_baseline - e["payment_baseline"].value) \
            <= e["payment_baseline"].tol
        assert abs(row.payment_optimal - e["payment_optimal"].value) \
            <= e["payment_optimal"].tol
        assert abs(row.incentive - e["incentive"].value) <= e["incentive"].tol
        assert abs(row.incentive_ratio - e["incentive_ratio"].value) \
            <= e["incentive_ratio"].tol


class TestKaleCase:
    def test_design_is_valid(self):
        case = build_kale()
        assert violations(case.design) == []

    def test_prior_win_probability(self):
        case = build_kale()
        report = rational_report(case.design)
        win = report.prior.probabilities[1] + report.prior.probabilities[3]
        pin = case.expected["prior_win"]
        assert abs(win - pin.value) <= pin.tol

    def test_decision_threshold(self):
        case = build_kale()
        threshold = two_team_decision_threshold(case.design.rule)
        pin = case.expected["decision_threshold"]
        assert abs(threshold - pin.value) <= pin.tol

    def test_decision_threshold_is_the_closed_form(self):
        threshold = two_team_decision_threshold(build_kale().design.rule)
        assert abs(threshold - 2.585 / 3.17) < 1e-12

    @pytest.mark.parametrize("scores", [
        [[0.0, 0.0, 3.17, 3.17], [4.0, 5.0, 4.0, 5.0]],    # hiring dominates
        [[0.0, 0.0, 3.17, 3.17], [-1.0, 1.0, -1.0, 1.0]],  # keeping dominates
        [[0.0, 0.0, 0.0, 0.0], [0.0, 0.0, 0.0, 0.0]],      # indifferent
    ])
    def test_decision_threshold_refuses_rules_without_one(self, scores):
        with pytest.raises(InvalidModelError, match="threshold"):
            two_team_decision_threshold(MatrixRule(np.array(scores)))

    def test_baseline_band(self):
        case = build_kale()
        baseline = rational_report(case.design).baseline
        assert 1.55 <= baseline <= 1.60
        assert baseline == pytest.approx(1.585, abs=1e-9)

    def test_visualization_optimal_for_every_format(self):
        case = build_kale()
        pin = case.expected["visualization_optimal"]
        for name, summary in rational_report(case.design).strategies.items():
            rv = summary.visualization_optimal
            assert abs(rv - pin.value) <= pin.tol, name

    def test_value_of_information(self):
        case = build_kale()
        report = rational_report(case.design)
        pin = case.expected["value_of_information"]
        assert abs(report.value_of_information - pin.value) <= pin.tol

    def test_pinned_incentives(self):
        case = build_kale()
        row = incentive_table(case.design).benchmark
        for key, got in (
            ("payment_baseline", row.payment_baseline),
            ("payment_optimal", row.payment_optimal),
            ("incentive", row.incentive),
            ("incentive_ratio", row.incentive_ratio),
        ):
            pin = case.expected[key]
            assert abs(got - pin.value) <= pin.tol, key

    @staticmethod
    def config_with_levels(levels) -> dict:
        cfg = design_to_config(build_kale().design)
        cfg["strategies"] = {"QDP": {"dgm": {"kind": "two-team",
                                             "pos_levels": list(levels)}}}
        return cfg

    def test_explicit_levels_override(self):
        # overriding with the default levels reproduces the default case
        design = design_from_config(self.config_with_levels(np.round(np.array([
            0.55, 0.586198656357, 0.642980183948, 0.710860179066,
            0.784363687986, 0.856660188620, 0.917771131099, 0.95,
        ]), 12)))
        report = rational_report(design)
        assert report.value_of_information == pytest.approx(0.200, abs=1e-6)

    def test_bad_levels_rejected(self):
        geometric = tuple(0.55 * (0.95 / 0.55) ** (i / 7) for i in range(8))
        with pytest.raises(ConfigError, match="^strategy 'QDP': average win"):
            design_from_config(self.config_with_levels(geometric))


class TestFernandesCase:
    def test_design_is_valid(self):
        case = build_fernandes(scenario=2)
        assert violations(case.design) == []

    def test_demo_file_loads_forty_trials(self):
        ids, dists = read_trial_distributions(bundled_demo_trials_path())
        assert len(ids) == 40
        assert all(np.shape(v) == (40,) for v in (dists.mu, dists.sigma,
                                                   dists.nu, dists.tau))

    def test_missing_distribution_file_errors(self):
        with pytest.raises(ConfigError):
            build_fernandes(scenario=1, trial_dists="/nonexistent/file.csv")

    def test_unknown_scenario_rejected(self):
        with pytest.raises(ConfigError):
            build_fernandes(scenario=9)

    @pytest.mark.parametrize("step", [0.0, -1.0, float("nan"), float("inf")])
    def test_bad_grid_step_rejected(self, step):
        with pytest.raises(ConfigError, match=f"^grid_step must be positive and "
                                              f"finite, not {step!r}$"):
            build_fernandes(grid_step=step)

    def test_huge_integer_grid_step_rejected(self):
        # math.isfinite cannot convert it to a float
        with pytest.raises(ConfigError, match="^grid_step must be positive and "
                                              "finite, not an integer of 5001 digits$"):
            build_fernandes(grid_step=10**5000)

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_score_ordering_holds_for_any_distributions(self, scenario):
        case = build_fernandes(scenario=scenario)
        report = rational_report(case.design)
        baseline, benchmark = report.baseline, report.benchmark
        full = report.strategies["full"].visualization_optimal
        for name, summary in report.strategies.items():
            rv = summary.visualization_optimal
            assert baseline <= rv + 1e-9
            if name != "full":
                assert rv <= full + 1e-9
        assert benchmark == pytest.approx(full, abs=1e-12)

    def test_text_strategies_coarsen_trials(self):
        case = build_fernandes(scenario=2)
        full = case.design.strategies["full"]
        for name in ("text60", "text85", "text99"):
            assert len(case.design.strategies[name]) <= len(full)

    def test_conversion_parameters_pinned_exactly(self):
        for scenario, d in ((1, 0.01698), (2, 0.08228), (3, 0.016076)):
            case = build_fernandes(scenario=scenario)
            conv = case.design.conversion
            assert conv.base == 1.25
            assert conv.rate == d / 1000.0
            assert case.design.trials_per_experiment == 40

    def test_scenario2_payment_formula(self):
        # published scenario-2 scores pushed through the conversion:
        # f(r) = 0.08228/1000 * 40 r + 1.25
        case = build_fernandes(scenario=2)
        conv = case.design.conversion
        f_base = conv.convert(40 * 767.5)
        f_opt = conv.convert(40 * 852.0)
        assert f_base == pytest.approx(3.776, abs=5e-4)
        assert f_opt == pytest.approx(4.054, abs=5e-4)
        assert f_opt - f_base == pytest.approx(0.278, abs=5e-4)
        assert (f_opt - f_base) / f_base == pytest.approx(0.0737, abs=5e-4)

    def test_explicit_partition_override(self):
        full = build_fernandes(scenario=2).design.strategies["full"]
        # two arbitrary halves as one coarse display class each
        partition = {t: ("A" if i < 20 else "B") for i, t in enumerate(full.signals)}
        coarse = _coarsen(full, partition)
        assert coarse.signals == ("A", "B")
        np.testing.assert_allclose(coarse.joint,
                                   [full.joint[:20].sum(axis=0),
                                    full.joint[20:].sum(axis=0)], rtol=1e-12)

    def test_quantile_partition_rounds_display_minutes(self):
        ids, dists = read_trial_distributions(bundled_demo_trials_path())
        partition = quantile_text_partition(ids, dists, 0.99)
        assert len(partition) == 40
        assert all(v.startswith("within ") for v in partition.values())

    @pytest.mark.parametrize("scenario", [1, 2, 3])
    def test_baseline_matches_exhaustive_action_grid(self, scenario):
        # independent oracle: evaluate every integer departure against the
        # prior with a plain python loop and take the best
        case = build_fernandes(scenario=scenario)
        design = case.design
        rule = design.rule
        grid = design.states.values
        masses = design.strategies["full"].state_marginal()
        mean = float(sum(m * g for m, g in zip(masses, grid)))
        best = -np.inf
        for a in design.actions.values:
            total = 0.0
            for m, theta in zip(masses, grid):
                if a <= theta:
                    total += m * (rule.activity_rate * a
                                  + rule.waiting_rate * (theta - a)
                                  + rule.destination_rate
                                  * rule.max_destination_minutes)
                else:
                    total += m * (rule.activity_rate * a
                                  + rule.waiting_rate
                                  * (mean + rule.second_bus_offset - a)
                                  + rule.destination_rate
                                  * (rule.max_destination_minutes
                                     - (mean - theta)))
            best = max(best, total)
        assert rational_report(design).baseline == pytest.approx(best, rel=1e-12)

    def test_reference_table_values_are_flagged_not_asserted(self):
        case = build_fernandes(scenario=2)
        for key in ("baseline_reference", "benchmark_reference",
                    "value_of_information_reference",
                    "baseline_ratio_reference"):
            assert case.expected[key].provenance == "reference-only"


class TestBuildCase:
    def test_dispatch(self):
        assert build_case("weather").name == "weather"
        assert build_case("kale2020").name == "kale2020"
        assert build_case("fernandes2018", scenario=3).name == "fernandes2018-s3"

    def test_unknown_case(self):
        with pytest.raises(ConfigError):
            build_case("mystery")


DIST_HEADER = "trial_id,mu,sigma,nu,tau\n"


class TestReadTrialDistributionErrors:
    """Error texts of ``read_trial_distributions``; a faulty row is named by
    its trial id, and the first faulty row in file order is the one named."""

    @pytest.mark.parametrize("text, message", [
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,0.1,1,5\na,21,0.1,1,5\n",
         "duplicate trial id 'a'"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,x,0.1,1,5\n",
         "trial 'b': could not convert string to float: 'x'"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,0.1,1,\n",
         "trial 'b': could not convert string to float: ''"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,0,1,5\n",
         "trial 'b': mu, sigma, and tau must be positive"),
        (DIST_HEADER + "a,20,-0.1,1,5\n",
         "trial 'a': mu, sigma, and tau must be positive"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,0.1,1,0\n",
         "trial 'b': mu, sigma, and tau must be positive"),
        (DIST_HEADER + "a,0,0.1,1,5\n",
         "trial 'a': mu, sigma, and tau must be positive"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,inf,0.1,1,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,-inf,0.1,1,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,nan,0.1,1,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,inf,1,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,-inf,1,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,nan,1,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,0.1,inf,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,0.1,-inf,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,0.1,nan,5\n",
         "trial 'b': mu, sigma and nu must be finite"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,0.1,1,nan\n",
         "trial 'b': mu, sigma, and tau must be positive"),
        ("trial_id,mu,sigma,nu\na,20,0.1,1\n",
         "trial distribution file needs columns trial_id,mu,sigma,nu,tau"),
        ("", "trial distribution file needs columns trial_id,mu,sigma,nu,tau"),
        (DIST_HEADER, "trial distribution file contains no trials"),
        # the first fault in file order wins, whatever its kind
        (DIST_HEADER + "a,20,0.1,1,-5\nb,x,0.1,1,5\na,21,0.1,1,5\n",
         "trial 'a': mu, sigma, and tau must be positive"),
        (DIST_HEADER + "a,20,0.1,1,5\na,x,0.1,1,5\nb,20,0,1,5\n",
         "duplicate trial id 'a'"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,20,-1,y,5\nc,20,0.1,1,0\n",
         "trial 'b': could not convert string to float: 'y'"),
        (DIST_HEADER + "a,20,0.1,1,5\nb,z,-1,y,5\n",
         "trial 'b': could not convert string to float: 'z'"),
    ])
    def test_error_texts(self, tmp_path, text, message):
        path = tmp_path / "dists.csv"
        path.write_text(text, encoding="utf-8")
        with pytest.raises(ConfigError) as err:
            read_trial_distributions(path)
        assert str(err.value) == message

    def test_a_byte_order_mark_is_skipped(self, tmp_path):
        # Excel's "CSV UTF-8" leads the file with U+FEFF
        text = bundled_demo_trials_path().read_text(encoding="utf-8")
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(text, encoding="utf-8")
        marked.write_text("\ufeff" + text, encoding="utf-8")
        (ids, dists), (marked_ids, marked_dists) = map(read_trial_distributions,
                                                       (plain, marked))
        assert marked_ids == ids
        for name in ("mu", "sigma", "nu", "tau"):
            assert np.array_equal(getattr(marked_dists, name), getattr(dists, name))

    def test_infinite_tau_is_the_normal_limit(self, tmp_path):
        path = tmp_path / "dists.csv"
        path.write_text(DIST_HEADER + "a,20,0.1,1,inf\n", encoding="utf-8")
        ids, dists = read_trial_distributions(path)
        assert ids == ("a",)
        assert np.isinf(dists.tau).all()
