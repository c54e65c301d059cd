import math
import re
from dataclasses import replace

import numpy as np
import pytest

from rabench.cases import build_case
from rabench.errors import InvalidModelError
from rabench.generative import TWO_TEAM_STATE_IDS, TwoTeamDGM, kale_joint
from rabench.model import (ActionSpace, ExperimentDesign, MatrixRule, StateSpace,
                           optimal_action_indices, outcome_scores)
from rabench.payment import (
    AffineConversion,
    FlooredAffineConversion,
    incentive_table,
)
from rabench.rational import rational_report

from conftest import _simulated_payment, weather_design


def weather_design_with_conversion() -> ExperimentDesign:
    base = weather_design()
    return ExperimentDesign(
        states=base.states,
        actions=base.actions,
        rule=base.rule,
        strategies=base.strategies,
        conversion=AffineConversion(base=1.0, rate=0.01),
        name="weather",
    )


def kale_design() -> ExperimentDesign:
    return ExperimentDesign(
        states=StateSpace(ids=TWO_TEAM_STATE_IDS),
        actions=ActionSpace.finite(("no-hire", "hire")),
        rule=MatrixRule(np.array([
            [0.0, 0.0, 3.17, 3.17],
            [-1.0, 2.17, -1.0, 2.17],
        ])),
        strategies={"QDP": kale_joint(TwoTeamDGM())},
        conversion=FlooredAffineConversion(base=1.0, rate=0.08, floor=150.0),
        trials_per_experiment=32,
        initial_score=108.0,
        name="kale2020",
    )


class TestConvert:
    def test_weather_dollar_conversion(self):
        rule = AffineConversion(base=1.0, rate=0.01)
        assert rule.convert(-7.96) == pytest.approx(0.920, abs=5e-4)
        assert rule.convert(-5.69) == pytest.approx(0.943, abs=5e-4)

    def test_zero_rate_is_constant(self):
        rule = AffineConversion(base=2.5, rate=0.0)
        assert rule.convert(-100.0) == 2.5
        assert rule.convert(100.0) == 2.5

    def test_floored_conversion(self):
        rule = FlooredAffineConversion(base=1.0, rate=0.08, floor=150.0)
        assert rule.convert(140.0) == pytest.approx(1.0)
        assert rule.convert(160.0) == pytest.approx(1.8)

    def test_shifted_conversion(self):
        # paying for the score above a shift of 240 is an affine rule with
        # base 1.25 - 0.001 * 240
        rule = AffineConversion(base=1.25 - 0.001 * 240.0, rate=0.001)
        assert rule.convert(240.0) == pytest.approx(1.25)

    def test_negative_rate_rejected(self):
        with pytest.raises(InvalidModelError):
            AffineConversion(base=1.0, rate=-0.5)

    @pytest.mark.parametrize("value, shown", [
        ("1.0", "'1.0'"), (True, "True"), (None, "None"), (math.nan, "nan"),
        (math.inf, "inf"), (-math.inf, "-inf"), (10**400, "1" + "0" * 400)])
    @pytest.mark.parametrize("field", ["base", "rate", "floor"])
    def test_parameters_must_be_finite_numbers(self, field, value, shown):
        params = {"base": 1.0, "rate": 0.08, "floor": 150.0, field: value}
        refusal = f"^conversion {field} must be a finite number, not {re.escape(shown)}$"
        with pytest.raises(InvalidModelError, match=refusal):
            FlooredAffineConversion(**params)
        if field != "floor":
            del params["floor"]
            with pytest.raises(InvalidModelError, match=refusal):
                AffineConversion(**params)

    def test_integer_and_numpy_parameters_are_numbers(self):
        rule = FlooredAffineConversion(base=1, rate=np.float64(0.5), floor=np.int64(2))
        assert rule.convert(6.0) == 3.0

    def test_monotone_nondecreasing(self):
        rules = [
            AffineConversion(base=1.0, rate=0.01),
            FlooredAffineConversion(base=1.0, rate=0.08, floor=150.0),
        ]
        xs = np.linspace(-200, 400, 60)
        for rule in rules:
            ys = [rule.convert(x) for x in xs]
            assert all(b >= a - 1e-12 for a, b in zip(ys, ys[1:]))


class TestExperimentScore:
    def test_single_trial_identity(self):
        design = weather_design_with_conversion()
        assert (design.initial_score + design.trials_per_experiment * -7.96
                == pytest.approx(-7.96))

    def test_cumulative_accounting(self):
        design = kale_design()
        assert (design.initial_score + design.trials_per_experiment * 1.585
                == pytest.approx(108.0 + 32 * 1.585))


class TestIncentiveTable:
    def test_weather_matches_published_payments(self):
        table = incentive_table(weather_design_with_conversion())
        row = table.benchmark
        assert row.payment_baseline == pytest.approx(0.920, abs=1e-3)
        assert row.payment_optimal == pytest.approx(0.943, abs=1e-3)
        assert row.incentive == pytest.approx(0.023, abs=1e-3)
        assert row.incentive_ratio == pytest.approx(0.025, abs=1e-3)

    def test_weather_mean_strategy_has_no_incentive(self):
        table = incentive_table(weather_design_with_conversion())
        assert table.row("mean").incentive == pytest.approx(0.0, abs=1e-12)

    def test_kale_cumulative_incentives(self):
        table = incentive_table(kale_design())
        row = table.benchmark
        assert row.payment_baseline == pytest.approx(1.66, rel=0.05)
        assert row.payment_optimal == pytest.approx(2.17, rel=0.05)
        assert row.incentive == pytest.approx(0.51, rel=0.05)
        assert row.incentive_ratio == pytest.approx(0.3072, rel=0.05)

    def test_kale_exact_method_exposes_the_floor_convexity(self):
        # under the always-no-hire baseline the session balance clears the
        # 150 floor only ~83% of the time, so the exact expected payment
        # exceeds the linearized one; it follows from the binomial count K
        # of incumbent wins as E[1 + 0.08 max(0, 108 + 3.17 K - 150)]
        design = kale_design()
        linear = incentive_table(design)
        exact = incentive_table(design, method="exact")
        closed = sum(math.comb(32, k) / 2**32 * (1 + 0.08 * max(0.0, 108 + 3.17 * k - 150))
                     for k in range(33))
        assert exact.benchmark.payment_baseline == pytest.approx(closed, rel=0, abs=1e-12)
        assert exact.benchmark.payment_baseline > linear.benchmark.payment_baseline
        # the optimal policy rarely dips below the floor, so there the
        # linearization is good
        assert exact.benchmark.payment_optimal == pytest.approx(
            linear.benchmark.payment_optimal, abs=0.01
        )

    def test_monte_carlo_is_an_unknown_method(self):
        with pytest.raises(InvalidModelError,
                           match="^unknown incentive method 'monte-carlo'$"):
            incentive_table(kale_design(), method="monte-carlo")

    def test_missing_conversion_rejected(self):
        with pytest.raises(InvalidModelError):
            incentive_table(weather_design())

    @pytest.mark.parametrize("rate", [0.01, 1.0])
    def test_zero_baseline_payment_gives_no_ratio(self, rate):
        design = weather_design()
        # base exactly cancels the baseline payment, a score of -7.96
        rule = AffineConversion(base=-rate * rational_report(design).baseline, rate=rate)
        table = incentive_table(replace(design, conversion=rule))
        assert [row.strategy for row in table.rows] == \
            ["mean", "CI", "gradient", "HOPs", "benchmark"]
        for row in table.rows:
            assert row.payment_baseline == 0.0
            assert row.incentive == row.payment_optimal
            assert row.incentive_ratio is None
        assert table.row("mean").incentive == pytest.approx(0.0, abs=1e-12)
        # the benchmark's score, -5.689, is 2.271 above the baseline
        assert table.benchmark.incentive == pytest.approx(rate * 2.271, rel=1e-9)

    def test_shift_raises_the_incentive_ratio(self):
        # removing a guaranteed floor from payments leaves the incentive
        # unchanged but shrinks the guarantee it is compared against
        base = weather_design()
        plain = AffineConversion(base=10.0, rate=0.01)
        shifted = AffineConversion(base=10.0 - 0.01 * 50.0, rate=0.01)
        t_plain = incentive_table(replace(base, conversion=plain))
        t_shift = incentive_table(replace(base, conversion=shifted))
        assert t_shift.benchmark.incentive == pytest.approx(
            t_plain.benchmark.incentive, abs=1e-12
        )
        assert t_shift.benchmark.incentive_ratio > t_plain.benchmark.incentive_ratio

    def test_shift_improves_the_transit_incentive_ratio(self):
        # subtracting the score guaranteed by always leaving at minute 30
        # (30 minutes of activity per trial) from the transit payments
        from rabench.cases import build_fernandes

        design = build_fernandes(scenario=2).design
        plain = design.conversion
        guaranteed = 40 * 30 * 14.0  # trials x minutes x activity rate
        shifted = AffineConversion(base=plain.base - plain.rate * guaranteed,
                                   rate=plain.rate)
        t_plain = incentive_table(design)
        t_shift = incentive_table(replace(design, conversion=shifted))
        assert t_shift.benchmark.incentive == pytest.approx(
            t_plain.benchmark.incentive, abs=1e-9
        )
        assert t_shift.benchmark.incentive_ratio > t_plain.benchmark.incentive_ratio

    def test_a_strategy_named_benchmark_is_refused(self):
        # its row would collide with the table's own benchmark row
        base = weather_design_with_conversion()
        strategies = dict(base.strategies)
        strategies["benchmark"] = strategies.pop("mean")
        design = ExperimentDesign(states=base.states, actions=base.actions,
                                  rule=base.rule, strategies=strategies,
                                  conversion=base.conversion)
        with pytest.raises(InvalidModelError, match="named 'benchmark'"):
            incentive_table(design)

    def test_incentive_is_never_negative_for_monotone_rules(self):
        from conftest import random_matrix_problem
        from rabench.model import ExperimentDesign

        rng = np.random.default_rng(61)
        for _ in range(30):
            base = random_matrix_problem(rng)
            design = ExperimentDesign(
                states=base.states, actions=base.actions, rule=base.rule,
                strategies={"s": base.strategies["s"]},
                conversion=AffineConversion(base=float(rng.uniform(1, 5)),
                                            rate=float(rng.uniform(0, 2))),
            )
            table = incentive_table(design)
            assert table.benchmark.incentive >= -1e-9


def simulated_payments(design: ExperimentDesign, n: int,
                       seed: int) -> dict[str, tuple[float, float]]:
    """The incentive table's payments estimated by the ``_simulated_payment``
    oracle from ``n`` draws, as {row: (payment, SE bound)}, the baseline
    under ``"baseline"``.

    The baseline plays the prior's optimal action on the first strategy's
    cells, each cell scored with its signal's posterior as context, as the
    transit rule's ``outcome_scores`` does; ``rational_report.baseline``
    uses the prior as context instead. The bound is
    rate * sqrt(T * Var(trial score) / sessions): the standard error under
    an affine conversion, and above it under a floor, whose conversion is
    rate-Lipschitz in the session total.
    """
    report = rational_report(design)
    rule, trials = design.conversion, design.trials_per_experiment

    def simulate(structure, actions):
        scores = outcome_scores(design, actions, structure.posteriors())
        mean = (structure.joint * scores).sum()
        variance = (structure.joint * (scores - mean) ** 2).sum()
        se = rule.rate * math.sqrt(trials * variance / max(n // trials, 1))
        return _simulated_payment(design, rule, structure, actions, n, seed), se

    first = next(iter(design.strategies.values()))
    prior_action = optimal_action_indices(design, report.prior.probabilities[None, :])
    rows = {"baseline": simulate(first, np.broadcast_to(prior_action, len(first)))}
    for name, summary in report.strategies.items():
        rows[name] = simulate(design.strategies[name],
                              optimal_action_indices(design, summary.posteriors))
    best = max(report.strategies,
               key=lambda name: report.strategies[name].visualization_optimal)
    rows["benchmark"] = rows[best]
    return rows


#: simulated_payments(n=20_000, seed=4) of each case, as float.hex: (baseline
#: payment, {row: optimal payment}); ``incentive_table(method="monte-carlo")``
#: gave these same bits before its sampler became the test oracle.
INCENTIVE_PINS = {
    "weather": ("0x1.d68db8bac710dp-1", {
        "mean": "0x1.d68db8bac710dp-1",
        "CI": "0x1.e2bf338716097p-1",
        "gradient": "0x1.e2bf338716097p-1",
        "HOPs": "0x1.e2bf338716097p-1",
        "benchmark": "0x1.e2bf338716097p-1",
    }),
    "kale2020": ("0x1.c57b74c07149cp+0", {
        "interval": "0x1.1d858c7167f72p+1",
        "HOPs": "0x1.1d858c7167f72p+1",
        "density": "0x1.1d858c7167f72p+1",
        "QDP": "0x1.1d858c7167f72p+1",
        "benchmark": "0x1.1d858c7167f72p+1",
    }),
    "fernandes2018": ("0x1.1e2100ee10a88p+2", {
        "full": "0x1.2a6f180dc84d5p+2",
        "text60": "0x1.29c50341a62dfp+2",
        "text85": "0x1.294e178ce6b71p+2",
        "text99": "0x1.294cb1edaf592p+2",
        "benchmark": "0x1.2a6f180dc84d5p+2",
    }),
}


@pytest.mark.parametrize("case", list(INCENTIVE_PINS))
def test_monte_carlo_incentives_are_pinned(case):
    rows = simulated_payments(build_case(case).design, n=20_000, seed=4)
    baseline, optimal = INCENTIVE_PINS[case]
    assert rows.pop("baseline")[0].hex() == baseline
    assert {name: pay.hex() for name, (pay, _) in rows.items()} == optimal


@pytest.mark.parametrize("case", list(INCENTIVE_PINS))
def test_a_million_draws_lie_within_three_standard_errors_of_exact(case):
    design = build_case(case).design
    exact = incentive_table(design, method="exact")
    rows = simulated_payments(design, n=1_000_000, seed=4)
    pay, se = rows.pop("baseline")
    if case == "fernandes2018":
        # the oracle's baseline scores the transit rule's second bus with
        # each signal's posterior mean, not the prior's: 978.22 against
        # rational_report's 975.55 points per trial on scenario 2, 40 trials
        first = design.strategies["full"]
        actions = np.full(len(first), optimal_action_indices(
            design, rational_report(design).prior.probabilities[None, :])[0])
        per_trial = (first.joint * outcome_scores(design, actions, first.posteriors())).sum()
        assert per_trial == pytest.approx(978.22, abs=5e-3)
        assert abs(pay - exact.benchmark.payment_baseline) > 3 * se
        assert pay == pytest.approx(design.conversion.convert(
            design.initial_score + 40 * per_trial), abs=3 * se)
    else:
        assert pay == pytest.approx(exact.benchmark.payment_baseline, abs=3 * se)
    for name, (pay, se) in rows.items():
        assert pay == pytest.approx(exact.row(name).payment_optimal, abs=3 * se), name


class TestExactMethod:
    def test_kale_rows(self):
        table = incentive_table(build_case("kale2020").design, method="exact")
        assert len(table.rows) == 5
        for row in table.rows:
            assert (row.payment_baseline, row.payment_optimal, row.incentive_ratio) == \
                pytest.approx((1.760927, 2.213840, 0.257202), rel=0, abs=1e-6)

    @pytest.mark.parametrize("case", ["weather", "fernandes2018"])
    def test_an_affine_conversion_gives_the_linearized_table(self, case):
        design = build_case(case).design
        assert isinstance(design.conversion, AffineConversion)
        assert incentive_table(design, method="exact") == incentive_table(design)

    @pytest.mark.parametrize("case", ["weather", "kale2020"])
    def test_a_floor_below_every_session_total_gives_the_linearized_table(
            self, case, monkeypatch):
        from rabench import payment

        design = build_case(case).design
        # weather's lowest total is -100, kale2020's 108 - 32
        design = replace(design, conversion=FlooredAffineConversion(
            base=1.0, rate=0.01, floor=-1000.0))
        enumerated = []
        exact_payment = payment._exact_payment
        monkeypatch.setattr(payment, "_exact_payment", lambda *args: enumerated.append(
            args) or exact_payment(*args))
        exact = incentive_table(design, method="exact")
        linear = incentive_table(design)
        assert len(enumerated) == 1 + len(design.strategies)
        for a, b in zip(exact.rows, linear.rows, strict=True):
            assert (a.payment_baseline, a.payment_optimal) == \
                pytest.approx((b.payment_baseline, b.payment_optimal), rel=1e-12, abs=0)

    def test_a_floor_can_make_the_optimal_policy_pay_less(self):
        # never salting scores 0 or -100 and salting -10 or 0: above a
        # floor of -7, only never salting on a night that does not freeze
        # pays more than the base
        rule = FlooredAffineConversion(base=1.0, rate=0.01, floor=-7.0)
        design = replace(build_case("weather").design, conversion=rule)
        row = incentive_table(design, method="exact").benchmark
        assert row.payment_baseline == pytest.approx(1.064428, rel=0, abs=1e-12)
        assert row.payment_optimal == pytest.approx(1.038682, rel=0, abs=1e-12)
        assert row.incentive < 0

    def test_a_floored_transit_design_is_refused_with_its_count(self):
        from rabench.payment import _exact_payment

        design = build_case("fernandes2018").design
        rule = FlooredAffineConversion(base=design.conversion.base,
                                       rate=design.conversion.rate, floor=0.0)
        design = replace(design, conversion=rule)
        assert incentive_table(design).benchmark.payment_optimal > 0
        # the baseline, first: the prior's action scores 121 ways
        with pytest.raises(InvalidModelError, match=re.escape(
                f"C(160, 120) = {math.comb(160, 120)} count vectors of 121 scores")):
            incentive_table(design, method="exact")
        # the full display's optimal policy scores 3889 ways at 40 trials
        full = design.strategies["full"]
        with pytest.raises(InvalidModelError, match=re.escape(
                f"C(3928, 3888) = {math.comb(3928, 3888)} count vectors of 3889 scores")):
            _exact_payment(design, full.posteriors(), full.joint)
        # a count too long for Python to print is named by its digit count
        digits = math.floor(math.log10(math.comb(103888, 3888))) + 1
        assert digits > 4300
        with pytest.raises(InvalidModelError, match=re.escape(
                f"C(103888, 3888) = an integer of {digits} digits count vectors")):
            _exact_payment(replace(design, trials_per_experiment=100_000),
                           full.posteriors(), full.joint)
