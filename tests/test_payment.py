from dataclasses import replace

import numpy as np
import pytest

from rabench.cases import build_case
from rabench.errors import InvalidModelError
from rabench.generative import TWO_TEAM_STATE_IDS, TwoTeamDGM, kale_joint
from rabench.model import ActionSpace, ExperimentDesign, MatrixRule, StateSpace
from rabench.payment import (
    AffineConversion,
    FlooredAffineConversion,
    experiment_score,
    incentive_table,
)

from conftest import weather_design


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
        assert experiment_score(design, -7.96) == pytest.approx(-7.96)

    def test_cumulative_accounting(self):
        design = kale_design()
        assert experiment_score(design, 1.585) == pytest.approx(108.0 + 32 * 1.585)


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

    def test_kale_monte_carlo_mode_exposes_the_floor_convexity(self):
        # under the always-no-hire baseline the session balance clears the
        # 150 floor only ~83% of the time, so the exact expected payment
        # exceeds the linearized one; the exact value follows from the
        # binomial count of incumbent wins:
        #   E[1 + 0.08 max(0, 108 + 3.17 K - 150)],  K ~ Binomial(32, 1/2)
        design = kale_design()
        linear = incentive_table(design)
        mc = incentive_table(design, method="monte-carlo", n=200_000, seed=3)
        assert mc.benchmark.payment_baseline == pytest.approx(1.760927, abs=0.02)
        assert mc.benchmark.payment_baseline > linear.benchmark.payment_baseline
        # the optimal policy rarely dips below the floor, so there the
        # linearization is good
        assert mc.benchmark.payment_optimal == pytest.approx(
            linear.benchmark.payment_optimal, abs=0.03
        )

    def test_monte_carlo_mode_is_deterministic(self):
        design = kale_design()
        a = incentive_table(design, method="monte-carlo", n=50_000, seed=9)
        b = incentive_table(design, method="monte-carlo", n=50_000, seed=9)
        assert a == b

    @pytest.mark.parametrize("n", [0, -1])
    def test_monte_carlo_needs_a_draw(self, n):
        with pytest.raises(InvalidModelError, match="^need at least one draw$"):
            incentive_table(kale_design(), method="monte-carlo", n=n)

    def test_missing_conversion_rejected(self):
        with pytest.raises(InvalidModelError):
            incentive_table(weather_design())

    def test_zero_baseline_payment_rejected(self):
        design = weather_design()
        # base exactly cancels the baseline payment
        rule = AffineConversion(base=0.0796 * 100 * 0.01, rate=0.01)
        with pytest.raises(InvalidModelError):
            incentive_table(replace(design, conversion=rule))

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


#: incentive_table(method="monte-carlo", n=20_000, seed=4) of each case, as
#: float.hex: (baseline payment, {row: optimal payment}).
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
    table = incentive_table(build_case(case).design, method="monte-carlo",
                            n=20_000, seed=4)
    baseline, optimal = INCENTIVE_PINS[case]
    assert {r.payment_baseline.hex() for r in table.rows} == {baseline}
    assert {r.strategy: r.payment_optimal.hex() for r in table.rows} == optimal
