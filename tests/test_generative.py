from dataclasses import replace

import numpy as np
import pytest
from scipy import stats

from rabench import generative
from rabench.cases import build_case, quantile_text_partition
from rabench.errors import InvalidModelError
from rabench.generative import (
    BoxCoxTDist,
    DiscretizedDistribution,
    GaussianThresholdDGM,
    TwoTeamDGM,
    discretize,
    kale_joint,
    pos_to_win_probability,
    sample_cells,
    weather_joint,
    win_probability_to_pos,
)
from rabench.model import (
    ActionSpace,
    ExperimentDesign,
    InformationStructure,
    StateSpace,
    TransitRule,
)

from conftest import (
    BAD_SEEDS,
    GOOD_SEEDS,
    FixedUniforms,
    array_searches,
    constant_actions,
    monte_carlo_score,
    optimum,
    posterior,
    rational_actions,
    seed_refusal,
    violations,
)


def forecast_dgm() -> GaussianThresholdDGM:
    return GaussianThresholdDGM.uniform_sigmas(mean=5.0, sigmas=(2, 3, 4, 5))


class TestWeatherJoint:
    def test_cell_values_match_published_table(self):
        s = weather_joint(forecast_dgm())
        # 0.25 * Phi(-2.5) and 0.25 * (1 - Phi(-1))
        assert s.joint[0, 1] == pytest.approx(0.00155, abs=2e-5)
        assert s.joint[3, 0] == pytest.approx(0.2103, abs=5e-5)

    def test_marginals_match_analytic_tails(self):
        dgm = forecast_dgm()
        s = weather_joint(dgm)
        for i, (sigma, p_sigma) in enumerate(dgm.sigma_levels):
            tail = stats.norm.cdf((0.0 - 5.0) / sigma)
            assert s.joint[i, 1] == pytest.approx(p_sigma * tail, abs=1e-6)
            assert s.joint[i].sum() == pytest.approx(p_sigma, abs=1e-12)

    def test_symmetric_threshold_splits_evenly(self):
        dgm = GaussianThresholdDGM(mean=0.0, sigma_levels=((3.0, 1.0),), threshold=0.0)
        s = weather_joint(dgm)
        assert s.joint[0, 1] == pytest.approx(0.5, abs=1e-12)

    def test_structure_passes_validation(self, weather_problem):
        s = weather_joint(forecast_dgm())
        assert violations(replace(weather_problem, strategies={"s": s})) == []

    def test_posteriors_from_the_generative_route(self):
        # conditional freeze probabilities per spread level; the widest
        # forecast conditions to the plain Gaussian tail
        s = weather_joint(forecast_dgm())
        q = posterior(s, "sigma=5")
        assert q.probabilities[1] == pytest.approx(0.1587, abs=5e-5)
        q = posterior(s, "sigma=2")
        assert q.probabilities[1] == pytest.approx(0.0062, abs=5e-5)

    def test_above_direction_flips_the_tail(self):
        below = GaussianThresholdDGM(mean=1.0, sigma_levels=((2.0, 1.0),),
                                     threshold=0.0, direction="below")
        above = GaussianThresholdDGM(mean=1.0, sigma_levels=((2.0, 1.0),),
                                     threshold=0.0, direction="above")
        assert below.positive_probability(2.0) + above.positive_probability(2.0) \
            == pytest.approx(1.0)


class TestPosMapping:
    def test_even_odds_fixed_point(self):
        assert pos_to_win_probability(0.5) == pytest.approx(0.5, abs=1e-12)

    def test_high_superiority(self):
        assert pos_to_win_probability(0.95) == pytest.approx(0.9900, abs=5e-5)

    def test_low_superiority(self):
        assert pos_to_win_probability(0.55) == pytest.approx(0.5705, abs=5e-5)

    def test_endpoints_rejected(self):
        with pytest.raises(InvalidModelError):
            pos_to_win_probability(0.0)
        with pytest.raises(InvalidModelError):
            pos_to_win_probability(1.0)

    def test_inverse_round_trip(self):
        for pos in (0.51, 0.6, 0.75, 0.9, 0.99):
            assert win_probability_to_pos(pos_to_win_probability(pos)) \
                == pytest.approx(pos, abs=1e-10)

    def test_arrays_map_element_by_element(self):
        pos = np.array([0.51, 0.6, 0.75, 0.9, 0.99])
        win = pos_to_win_probability(pos)
        assert win.shape == pos.shape
        np.testing.assert_array_equal(win, [pos_to_win_probability(p) for p in pos])
        np.testing.assert_array_equal(win_probability_to_pos(win),
                                      [win_probability_to_pos(w) for w in win])


class TestKaleJoint:
    def test_default_levels_hit_the_prior_target(self):
        s = kale_joint(TwoTeamDGM())
        win_marginal = s.joint[:, 1].sum() + s.joint[:, 3].sum()
        assert win_marginal == pytest.approx(0.805, abs=1e-9)

    def test_even_levels_are_refused(self):
        # their average win probability 0.5 misses the 0.805 design target
        dgm = TwoTeamDGM(pos_levels=(0.5,) * 8)
        with pytest.raises(InvalidModelError,
                           match="^average win probability 0.5000 misses"):
            kale_joint(dgm)

    def test_default_levels_match_brute_force_average(self):
        levels = TwoTeamDGM().pos_levels
        s = kale_joint(TwoTeamDGM())
        brute = sum(pos_to_win_probability(p) for p in levels) / 8.0
        win_marginal = s.joint[:, 1].sum() + s.joint[:, 3].sum()
        assert win_marginal == pytest.approx(brute, abs=1e-12)

    def test_geometric_levels_fail_the_marginal_gate(self):
        levels = tuple(0.55 * (0.95 / 0.55) ** (i / 7) for i in range(8))
        with pytest.raises(InvalidModelError):
            kale_joint(TwoTeamDGM(pos_levels=levels))

    def test_rows_split_each_level_evenly(self):
        # each level's mass 1/n splits as (lose, win, lose, win) halves
        wins = TwoTeamDGM().win_probabilities()
        n = len(wins)
        rows = [[0.5 * (1.0 - w) / n, 0.5 * w / n, 0.5 * (1.0 - w) / n, 0.5 * w / n]
                for w in wins]
        np.testing.assert_array_equal(kale_joint(TwoTeamDGM()).joint, rows)

    def test_incumbent_marginal_is_half(self):
        s = kale_joint(TwoTeamDGM())
        incumbent_win = s.joint[:, 2].sum() + s.joint[:, 3].sum()
        assert incumbent_win == pytest.approx(0.5, abs=1e-12)


def truncated_t_cdf_oracle(x, mu, sigma, nu, tau):
    """Independent transcription of the Box-Cox t CDF for the tests."""
    x = np.asarray(x, dtype=float)
    if nu == 0:
        z = np.log(x / mu) / sigma
    else:
        z = ((x / mu) ** nu - 1.0) / (nu * sigma)
    raw = stats.t.cdf(z, tau)
    if nu > 0:
        edge = 1.0 / (sigma * nu)
        return (raw - stats.t.cdf(-edge, tau)) / stats.t.cdf(edge, tau)
    if nu < 0:
        edge = 1.0 / (sigma * abs(nu))
        return raw / stats.t.cdf(edge, tau)
    return raw


class TestBoxCoxT:
    def test_unit_power_is_shifted_scaled_t(self):
        # with nu=1 the latent variable is (x/mu - 1)/sigma; truncation is
        # negligible at this sigma, so the plain t CDF matches
        d = BoxCoxTDist(mu=10.0, sigma=0.05, nu=1.0, tau=30.0)
        for x in (9.0, 9.8, 10.0, 10.5, 11.2):
            z = (x / 10.0 - 1.0) / 0.05
            assert d.cdf(x) == pytest.approx(
                stats.t.cdf(z, 30.0), abs=1e-6
            )

    @pytest.mark.parametrize("nu", [1.0, 0.7, 0.0, -0.4])
    def test_cdf_matches_oracle(self, nu):
        d = BoxCoxTDist(mu=12.0, sigma=0.2, nu=nu, tau=6.0)
        xs = np.array([2.0, 7.5, 12.0, 18.0, 35.0])
        np.testing.assert_allclose(
            d.cdf(xs),
            truncated_t_cdf_oracle(xs, 12.0, 0.2, nu, 6.0),
            atol=1e-12,
        )

    @pytest.mark.parametrize("nu", [1.3, 0.5, 0.0, -0.6])
    def test_quantile_round_trip(self, nu):
        d = BoxCoxTDist(mu=14.0, sigma=0.18, nu=nu, tau=5.0)
        rng = np.random.default_rng(42)
        xs = rng.uniform(2.0, 40.0, size=25)
        back = d.quantile(d.cdf(xs))
        np.testing.assert_allclose(back, xs, rtol=1e-6)

    def test_large_tau_approaches_boxcox_normal(self):
        d = BoxCoxTDist(mu=10.0, sigma=0.15, nu=0.8, tau=1e6)
        for x in (6.0, 9.0, 11.0, 15.0):
            z = ((x / 10.0) ** 0.8 - 1.0) / (0.8 * 0.15)
            edge = 1.0 / (0.15 * 0.8)
            normal = (stats.norm.cdf(z) - stats.norm.cdf(-edge)) / stats.norm.cdf(edge)
            assert d.cdf(x) == pytest.approx(normal, abs=1e-6)

    def test_left_of_support_is_zero(self):
        d = BoxCoxTDist(mu=10.0, sigma=0.2, nu=0.5, tau=8.0)
        assert d.cdf(-3.0) == 0.0
        assert d.cdf(0.0) == 0.0

    def test_invalid_parameters_rejected(self):
        with pytest.raises(InvalidModelError):
            BoxCoxTDist(mu=10.0, sigma=-0.1, nu=0.5, tau=5.0)
        with pytest.raises(InvalidModelError):
            BoxCoxTDist(mu=10.0, sigma=0.1, nu=0.5, tau=0.0)


def scipy_stats_truncation(d):
    """The Box-Cox t truncation as computed with scipy.stats.t."""
    if d.nu == 0.0:
        return 0.0, 1.0
    edge = 1.0 / (d.sigma * abs(d.nu))
    if d.nu < 0.0:
        return 0.0, float(stats.t.cdf(edge, d.tau))
    return float(stats.t.cdf(-edge, d.tau)), float(stats.t.cdf(edge, d.tau))


def scipy_stats_cdf(d, x):
    """BoxCoxTDist.cdf written with scipy.stats.t, the reference formula."""
    x = np.atleast_1d(np.asarray(x, dtype=float))
    out = np.zeros_like(x)
    pos = x > 0.0
    lower, norm_mass = scipy_stats_truncation(d)
    out[pos] = (stats.t.cdf(d._z(x[pos]), d.tau) - lower) / norm_mass
    return np.clip(out, 0.0, 1.0)


def scipy_stats_quantile(d, p):
    """BoxCoxTDist.quantile written with scipy.stats.t."""
    p = np.atleast_1d(np.asarray(p, dtype=float))
    lower, norm_mass = scipy_stats_truncation(d)
    level = p * norm_mass + lower
    z = stats.t.ppf(level, d.tau)
    z[(z == np.inf) & (level < 0.5)] = -np.inf  # stdtrit's +inf at tiny levels
    if d.nu == 0.0:
        return d.mu * np.exp(d.sigma * z)
    base = np.maximum(d.nu * d.sigma * z + 1.0, 0.0)  # the support edge past the cap
    with np.errstate(divide="ignore"):
        return d.mu * base ** (1.0 / d.nu)


#: Open-interval probability grid: a dense sweep plus the extremes.
UNIT_GRID = np.concatenate([
    np.linspace(0.0, 1.0, 20_003)[1:-1],
    [5e-324, 1e-300, 1e-16, 0.5, 1.0 - 1e-16, np.nextafter(1.0, 0.0)],
])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at the edges
class TestMatchesScipyStats:
    """The special-function ufuncs give exactly what scipy.stats gave."""

    @pytest.mark.parametrize("tau", [1.0, 6.0, 1e6, np.inf])
    @pytest.mark.parametrize("nu", [1.3, 0.5, 0.0, -0.4, -1.5])
    def test_boxcox_cdf_and_quantile(self, nu, tau):
        d = BoxCoxTDist(mu=14.0, sigma=0.18, nu=nu, tau=tau)
        xs = np.concatenate([
            np.linspace(-5.0, 60.0, 2001),
            [5e-324, 1e-300, 1e-8, 14.0, 1e8, 1e300, np.inf],
        ])
        np.testing.assert_array_equal(d.cdf(xs), scipy_stats_cdf(d, xs))
        np.testing.assert_array_equal(d.quantile(UNIT_GRID),
                                      scipy_stats_quantile(d, UNIT_GRID))
        for x in (1e-8, 14.0, 31.5):
            np.testing.assert_array_equal(d.cdf(x), scipy_stats_cdf(d, x)[0])
        for p in (1e-300, 0.3, np.nextafter(1.0, 0.0)):
            np.testing.assert_array_equal(d.quantile(p),
                                          scipy_stats_quantile(d, p)[0])

    @pytest.mark.parametrize("tau", [1.0, 6.0, 1e6, np.inf])
    @pytest.mark.parametrize("nu", [1.3, 0.5, 0.0, -0.4, -1.5])
    def test_boxcox_quantile_has_no_nan_and_is_monotone(self, nu, tau):
        d = BoxCoxTDist(mu=14.0, sigma=0.18, nu=nu, tau=tau)
        levels = np.sort(UNIT_GRID)
        q = d.quantile(levels)
        assert not np.isnan(q).any()
        assert np.all(q[1:] >= q[:-1])

    def test_boxcox_quantile_past_the_edge_is_the_support_edge(self):
        assert BoxCoxTDist(10.0, 0.2, 1.3, 6.0).quantile(1e-20) == 0.0
        upper = BoxCoxTDist(14.0, 0.18, -1.5, 6.0).quantile(1.0 - 1e-16)
        assert upper == np.inf
        # stdtrit gives +inf at these levels; the quantile is the lower edge
        for nu in (0.0, -0.4, -1.5):
            assert BoxCoxTDist(14.0, 0.18, nu, 6.0).quantile(1e-300) == 0.0

    def test_pos_to_win_both_ways(self):
        root2 = np.sqrt(2.0)
        to_win = stats.norm.cdf(root2 * stats.norm.ppf(UNIT_GRID))
        to_pos = stats.norm.cdf(stats.norm.ppf(UNIT_GRID) / root2)
        np.testing.assert_array_equal(
            [pos_to_win_probability(p) for p in UNIT_GRID], to_win)
        np.testing.assert_array_equal(
            [win_probability_to_pos(w) for w in UNIT_GRID], to_pos)

    @pytest.mark.parametrize("direction", ["below", "above"])
    def test_gaussian_threshold_tail(self, direction):
        for mean in (-40.0, -1.0, 0.0, 5.0, 38.0):
            for threshold in (0.0, 2.5):
                dgm = GaussianThresholdDGM(mean=mean, sigma_levels=((1.0, 1.0),),
                                           threshold=threshold,
                                           direction=direction)
                for sigma in (1e-9, 0.3, 2.0, 5.0, 1e9):
                    tail = stats.norm.cdf((threshold - mean) / sigma)
                    expected = tail if direction == "below" else 1.0 - tail
                    assert dgm.positive_probability(sigma) == float(expected)


def random_boxcox_params(rng, n):
    """Parameter arrays of ``n`` Box-Cox t distributions: nu below, at and
    above zero, tau among 1, 6, 1e6 and inf.

    nu is drawn from continuous ranges (plus exact zeros): numpy's power
    rounds differently for a per-row exponent array than for a scalar one
    at exponents 2, 0.5 and -1, so rows with nu of exactly 0.5, 2 or -1 can
    differ from the scalar result in the last bits.
    """
    nu = rng.uniform(-1.5, 1.5, size=n)
    nu[rng.permutation(n)[:n // 4]] = 0.0
    return (rng.uniform(3.0, 26.0, size=n), rng.uniform(0.05, 0.4, size=n), nu,
            rng.choice([1.0, 6.0, 1e6, np.inf], size=n))


def scalar_rows(params):
    """One scalar distribution per row of the parameter arrays."""
    return [BoxCoxTDist(*(float(v[i]) for v in params)) for i in range(len(params[0]))]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow at the edges
class TestBatchedBoxCoxT:
    """Array parameters give, row by row, the scalar distributions' values
    to the bit."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_cdf_rows(self, seed):
        params = random_boxcox_params(np.random.default_rng(seed), 40)
        xs = np.concatenate([np.linspace(-5.0, 60.0, 521),
                             [0.0, 5e-324, 1e-8, 1e8, 1e300, np.inf]])
        batched = BoxCoxTDist(*params)
        np.testing.assert_array_equal(
            batched.cdf(xs), np.array([d.cdf(xs) for d in scalar_rows(params)]))
        np.testing.assert_array_equal(
            batched.cdf(12.5), np.array([d.cdf(12.5) for d in scalar_rows(params)]))

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_quantile_rows(self, seed):
        params = random_boxcox_params(np.random.default_rng(seed), 40)
        batched, rows = BoxCoxTDist(*params), scalar_rows(params)
        for level in (1e-300, 1e-16, 0.3, 0.6, 0.85, 0.99, 1.0 - 1e-16):
            np.testing.assert_array_equal(batched.quantile(level),
                                          np.array([d.quantile(level) for d in rows]))
        np.testing.assert_array_equal(batched.quantile(UNIT_GRID[::97]),
                                      np.array([d.quantile(UNIT_GRID[::97]) for d in rows]))

    @pytest.mark.parametrize("step", [0.125, 0.25, 0.5, 1.0])
    def test_discretize_rows(self, step):
        params = random_boxcox_params(np.random.default_rng(3), 60)
        grid = np.arange(0.0, 30.0 + 1e-9, step)
        got = discretize(BoxCoxTDist(*params), grid)
        np.testing.assert_array_equal(
            got.masses, np.array([discretize(d, grid).masses for d in scalar_rows(params)]))

    def test_text_partition_rows(self):
        params = random_boxcox_params(np.random.default_rng(4), 60)
        ids = tuple(f"trial{i}" for i in range(60))
        for level in (0.60, 0.85, 0.99):
            want = {}
            for tid, d in zip(ids, scalar_rows(params)):
                shown = round(d.quantile(level) / 1.0) * 1.0
                want[tid] = f"within {shown:g} min at {level:.0%}"
            assert quantile_text_partition(ids, BoxCoxTDist(*params), level) == want

    def test_scalar_parameters_give_floats(self):
        d = BoxCoxTDist(mu=12.0, sigma=0.2, nu=0.7, tau=6.0)
        assert type(d.cdf(12.0)) is float
        assert type(d.quantile(0.5)) is float
        assert d.cdf(np.array([3.0, 12.0])).shape == (2,)

    def test_array_shapes(self):
        d = BoxCoxTDist(mu=[10.0, 12.0, 14.0], sigma=0.2, nu=[0.5, 0.0, -0.3], tau=6.0)
        assert np.shape(d.tau) == (3,)
        assert d.cdf(12.0).shape == (3,)
        assert d.cdf(np.arange(1.0, 5.0)).shape == (3, 4)
        assert d.quantile(np.array([0.1, 0.9])).shape == (3, 2)

    def test_invalid_arrays_rejected(self):
        with pytest.raises(InvalidModelError, match="must be positive"):
            BoxCoxTDist(mu=[10.0, -1.0], sigma=0.2, nu=0.5, tau=6.0)
        with pytest.raises(InvalidModelError, match="must be positive"):
            BoxCoxTDist(mu=[10.0, 11.0], sigma=0.2, nu=0.5, tau=[6.0, 0.0])
        with pytest.raises(InvalidModelError, match="1-d"):
            BoxCoxTDist(mu=[[10.0]], sigma=0.2, nu=0.5, tau=6.0)


class TestDiscretize:
    def test_normal_tail_mass_below_zero(self):
        # grid with a cell edge exactly at zero, so the below-zero mass is
        # the exact Gaussian tail
        grid = np.arange(-10.125, 20.0, 0.25)
        d = discretize(stats.norm(5.0, 2.0), grid)
        below = d.masses[d.grid < 0].sum()
        assert below == pytest.approx(stats.norm.cdf(-2.5), abs=1e-12)
        assert below == pytest.approx(0.0062, abs=2e-5)

    def test_point_mass_lands_in_one_cell(self):
        grid = np.arange(0.0, 11.0)
        d = discretize(stats.norm(5.1, 1e-9), grid)
        assert d.masses[5] == pytest.approx(1.0)

    def test_boxcox_masses_conserve(self):
        dist = BoxCoxTDist(mu=12.0, sigma=0.25, nu=0.5, tau=5.0)
        d = discretize(dist, np.arange(0.0, 31.0))
        assert d.masses.sum() == pytest.approx(1.0, abs=1e-9)

    def test_unsorted_grid_rejected(self):
        with pytest.raises(InvalidModelError):
            discretize(stats.norm(0, 1), np.array([0.0, 2.0, 1.0]))

    def test_mean_of_discretized(self):
        grid = np.arange(-20.0, 25.0, 0.05)
        d = discretize(stats.norm(3.0, 1.5), grid)
        assert d.masses @ d.grid == pytest.approx(3.0, abs=1e-3)

    def test_refinement_keeps_transit_value_stable(self):
        # halving the arrival-grid cell width moves the strategy value by
        # far less than 0.1%
        dists = [
            BoxCoxTDist(mu=10.0, sigma=0.2, nu=0.6, tau=6.0),
            BoxCoxTDist(mu=16.0, sigma=0.15, nu=1.0, tau=10.0),
            BoxCoxTDist(mu=13.0, sigma=0.3, nu=0.0, tau=4.0),
        ]
        rule = TransitRule(activity_rate=14.0, waiting_rate=-14.0,
                           destination_rate=14.0, max_destination_minutes=60.0)
        values = []
        for step in (0.25, 0.125):
            grid = np.arange(0.0, 30.0 + 1e-9, step)
            states = StateSpace(
                ids=tuple(f"{g:g}" for g in grid),
                values=tuple(grid),
            )
            rows = np.array([discretize(d, grid).masses / len(dists) for d in dists])
            problem = ExperimentDesign(
                states=states,
                actions=ActionSpace.integer_grid(0, 30),
                rule=rule,
                strategies={"s": InformationStructure(
                    signals=tuple(f"trial{i}" for i in range(len(dists))),
                    joint=rows,
                )},
            )
            values.append(optimum(problem))
        assert abs(values[1] - values[0]) / abs(values[0]) < 1e-3


class TestMonteCarlo:
    def test_rational_policy_recovers_the_exact_value(self, weather_problem):
        actions = rational_actions(weather_problem)
        mean, se = monte_carlo_score(weather_problem, "s", actions, n=100_000, seed=11)
        assert abs(mean - (-5.689)) <= 3 * se

    def test_constant_policy_recovers_the_baseline(self, weather_problem):
        mean, se = monte_carlo_score(
            weather_problem, "s", constant_actions(weather_problem, "no-salt"),
            n=100_000, seed=13
        )
        assert abs(mean - (-7.96)) <= 3 * se

    def test_degenerate_joint_has_zero_variance(self, weather_problem):
        structure = InformationStructure(
            signals=("v1", "v2"),
            joint=np.array([[0.5, 0.0], [0.5, 0.0]]),
        )
        problem = replace(weather_problem, strategies={"s": structure})
        mean, se = monte_carlo_score(problem, "s", constant_actions(problem, "no-salt"),
                                     n=10_000, seed=5)
        assert mean == 0.0
        assert se == 0.0

    def test_one_action_per_signal_required(self, weather_problem):
        with pytest.raises(InvalidModelError, match="one action index per signal"):
            monte_carlo_score(weather_problem, "s", [0, 1], n=100, seed=0)

    @pytest.mark.parametrize("index", [-1, 2])
    def test_action_indices_must_be_in_range(self, weather_problem, index):
        with pytest.raises(InvalidModelError,
                           match=r"^action indices must lie in \[0, 2\)$"):
            monte_carlo_score(weather_problem, "s", [index] * 4, n=100, seed=0)

    @pytest.mark.parametrize("actions", [[0.9] * 4, [True] * 4, [0, 1, 0, 1.0],
                                         [0, 1, 0, np.True_]])
    def test_non_integer_action_indices_refused(self, weather_problem, actions):
        with pytest.raises(InvalidModelError,
                           match="^action indices must be integers, not "):
            monte_carlo_score(weather_problem, "s", actions, n=100, seed=0)

    @pytest.mark.parametrize("n", [2.5, 100.0, True])
    def test_non_integer_draw_count_refused(self, weather_problem, n):
        with pytest.raises(InvalidModelError,
                           match="^draw count must be an integer, not "):
            monte_carlo_score(weather_problem, "s", [0] * 4, n=n, seed=0)

    def test_numpy_integers_accepted(self, weather_problem):
        actions = np.asarray(rational_actions(weather_problem), dtype=np.int32)
        assert monte_carlo_score(weather_problem, "s", actions, n=np.int64(100),
                                 seed=0) == \
            monte_carlo_score(weather_problem, "s", actions.tolist(), n=100, seed=0)

    def test_unknown_strategy_refused(self, weather_problem):
        with pytest.raises(InvalidModelError, match="^unknown strategy 'nope'$"):
            monte_carlo_score(weather_problem, "nope", [0] * 4, n=100, seed=0)

    @pytest.mark.parametrize("seed, shown", BAD_SEEDS)
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(
            self, weather_problem, seed, shown):
        with pytest.raises(InvalidModelError, match=seed_refusal(shown)):
            monte_carlo_score(weather_problem, "s", [0] * 4, n=100, seed=seed)

    @pytest.mark.parametrize("seed", GOOD_SEEDS)
    def test_numpy_and_large_integer_seeds_are_accepted(self, weather_problem, seed):
        actions = rational_actions(weather_problem)
        assert monte_carlo_score(weather_problem, "s", actions, n=100, seed=seed) == \
            monte_carlo_score(weather_problem, "s", actions, n=100, seed=int(seed))

    def test_seeded_and_deterministic(self, weather_problem):
        actions = rational_actions(weather_problem)
        a = monte_carlo_score(weather_problem, "s", actions, n=5_000, seed=3)
        b = monte_carlo_score(weather_problem, "s", actions, n=5_000, seed=3)
        assert a == b

    def test_transit_policy_matches_exact_value(self):
        dists = [
            BoxCoxTDist(mu=9.0, sigma=0.2, nu=0.6, tau=6.0),
            BoxCoxTDist(mu=15.0, sigma=0.12, nu=1.0, tau=12.0),
        ]
        grid = np.arange(0.0, 30.0 + 1e-9, 0.25)
        states = StateSpace(ids=tuple(f"{g:g}" for g in grid), values=tuple(grid))
        rows = np.array([discretize(d, grid).masses / 2.0 for d in dists])
        problem = ExperimentDesign(
            states=states,
            actions=ActionSpace.integer_grid(0, 30),
            rule=TransitRule(activity_rate=8.0, waiting_rate=-14.0,
                             destination_rate=14.0, max_destination_minutes=90.0),
            strategies={"s": InformationStructure(signals=("t0", "t1"), joint=rows)},
        )
        exact = optimum(problem)
        mean, se = monte_carlo_score(
            problem, "s", rational_actions(problem), n=60_000, seed=21
        )
        assert abs(mean - exact) <= 3 * se


def direct_search_cells(joint, u):
    """The inverse-CDF search of each uniform in ``u``, one at a time in draw
    order: the reference that ``sample_cells`` must match on every joint."""
    cum = np.cumsum(joint.reshape(-1))
    cum[-1] = 1.0
    return np.unravel_index(np.searchsorted(cum, u, side="right"), joint.shape)


def sparse_joint(rng, shape) -> np.ndarray:
    """A random joint with about a third of its cells at zero mass, and so
    runs of equal CDF values. The last cell has mass: it takes whatever the
    rounded CDF leaves below 1."""
    joint = rng.random(shape) * (rng.random(shape) < 0.65)
    joint.flat[0] = 0.0
    joint.flat[-1] = 1.0
    return joint / joint.sum()


#: Joint shapes on both sides of the sampler's pass-search size: (8, 8) has
#: its 64 cells and (5, 13) one more.
SAMPLER_SHAPES = [(4, 2), (8, 4), (32, 32), (41, 25), (1000, 121),
                  (1, 1), (2, 1), (1, 2), (2, 3), (1, 8), (3, 3), (8, 8), (5, 13)]

#: Draw counts below the passes' draws per cell, and above them for every
#: joint of at most the pass-search size.
SAMPLER_DRAWS = [1, 7, 20_000]


class TestSampleCells:
    def test_shapes_straddle_the_sorted_search_size(self):
        # each joint of at most the pass size is searched in sorted order at
        # the fewest draws, and by passes at the most
        assert min(SAMPLER_DRAWS) < generative._PASS_DRAWS
        assert generative._PASS_CELLS * generative._PASS_DRAWS <= max(SAMPLER_DRAWS)

    def test_shapes_straddle_the_pass_search_size(self):
        sizes = {rows * columns for rows, columns in SAMPLER_SHAPES}
        assert {1, generative._PASS_CELLS, generative._PASS_CELLS + 1} <= sizes

    @pytest.mark.parametrize("shape, n, searched", [
        ((4, 2), 1_024, False), ((4, 2), 1_023, True), ((1, 8), 1_024, False),
        ((3, 3), 1_152, False), ((8, 4), 4_096, False), ((8, 8), 8_192, False),
        ((8, 8), 8_191, True), ((5, 13), 100_000, True)])
    def test_joints_of_at_most_the_pass_size_search_by_passes(
            self, monkeypatch, shape, n, searched):
        # given at least _PASS_DRAWS (128) draws per cell
        joint = sparse_joint(np.random.default_rng(1), shape)
        sizes = array_searches(monkeypatch)
        sample_cells(joint, n, np.random.default_rng(2))
        assert sizes == ([n] if searched else [])

    @pytest.mark.parametrize("shape", SAMPLER_SHAPES)
    @pytest.mark.parametrize("n", SAMPLER_DRAWS)
    def test_matches_the_direct_search(self, shape, n):
        joint = sparse_joint(np.random.default_rng(shape[0] * n), shape)
        got = sample_cells(joint, n, np.random.default_rng(n))
        want = direct_search_cells(joint, np.random.default_rng(n).uniform(size=n))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("regime, cells", [
        *(("passes", cells) for cells in (8, 64, 65, 128)),
        *(("sorted", cells) for cells in (8, 64, 65, 128, 1024))])
    @pytest.mark.parametrize("n", [100, 10_000])
    def test_each_search_regime_matches_searchsorted(self, monkeypatch, regime, cells, n):
        # _search forced into one regime by its bounds, as
        # tools/sampler_crossover.py times it; the int8 passes count the
        # entries below the last of at most 128. The draws take in every
        # CDF entry below 1, shuffled
        rng = np.random.default_rng(cells * n)
        cum = generative._cdf(rng.random(cells) / cells)
        u = np.concatenate([rng.uniform(size=n), cum[cum < 1.0]])
        rng.shuffle(u)
        want = np.searchsorted(cum, u, side="right")
        monkeypatch.setattr(generative, "_PASS_CELLS", 128 if regime == "passes" else 0)
        monkeypatch.setattr(generative, "_PASS_DRAWS", 0)
        sizes = array_searches(monkeypatch)
        np.testing.assert_array_equal(generative._search(cum, u), want)
        assert sizes == ([len(u)] if regime == "sorted" else [])

    @pytest.mark.parametrize("shape", SAMPLER_SHAPES)
    def test_draws_on_cdf_entries(self, shape):
        # every CDF entry below 1 (repeated ones included), its neighbours one
        # ulp away and 0.0, shuffled so that the draws come unsorted; on a
        # joint of at most the pass size, also repeated _PASS_DRAWS times,
        # which gives the passes enough draws
        joint = sparse_joint(np.random.default_rng(sum(shape)), shape)
        cum = np.cumsum(joint.reshape(-1))
        edges = cum[cum < 1.0]
        u = np.concatenate([edges, np.nextafter(edges, 0.0),
                            np.nextafter(edges, 1.0), [0.0, 0.0]])
        u = u[u < 1.0]
        np.random.default_rng(0).shuffle(u)
        copies = [1]
        if joint.size <= generative._PASS_CELLS:
            copies.append(generative._PASS_DRAWS)
        for draws in (np.tile(u, k) for k in copies):
            got = sample_cells(joint, len(draws), FixedUniforms(draws))
            np.testing.assert_array_equal(got, direct_search_cells(joint, draws))
            # no draw lands on a zero-mass cell
            assert (joint[got] > 0).all()


    @pytest.mark.parametrize("n_cells, copies", [(6, 1), (6, 192), (2_000, 1)])
    def test_trailing_zero_mass_cell_never_drawn(self, n_cells, copies):
        # the running sum of these masses rounds to one ulp below 1, so a
        # uniform in that gap must draw the last positive cell, 4; the larger
        # joint pads them with zero cells to take the sorted search, and the
        # 6-cell joint takes the passes at 192 copies of the draws
        masses = np.zeros(n_cells)
        masses[:5] = [0.13139089030396614, 0.019954829182505313,
                      0.00804925015178311, 0.3960769575916508,
                      0.44452807277009454]
        gap = np.cumsum(masses)[-1]
        assert gap == np.nextafter(1.0, 0.0)
        u = FixedUniforms(np.tile([gap, 0.5, 0.0, gap], copies))
        rows, cells = sample_cells(masses[None, :], 4 * copies, u)
        np.testing.assert_array_equal(rows, 0)
        np.testing.assert_array_equal(cells, np.tile([4, 3, 0, 4], copies))

    def test_six_cell_trailing_zero_mass_case_takes_the_pass_search(self, monkeypatch):
        # the 6-cell joint of test_trailing_zero_mass_cell_never_drawn, at
        # its 768 draws by passes
        masses = np.zeros(6)
        masses[:5] = [0.13139089030396614, 0.019954829182505313,
                      0.00804925015178311, 0.3960769575916508,
                      0.44452807277009454]
        assert 6 * generative._PASS_DRAWS == 768
        sizes = array_searches(monkeypatch)
        sample_cells(masses[None, :], 768, np.random.default_rng(0))
        assert sizes == []

    def test_negative_mass_searches_as_the_direct_search(self, monkeypatch):
        # joints may hold masses down to -NORMALIZATION_TOL; this one's CDF
        # falls by 1e-13 after its first cell, and a draw in that dip is
        # where counting entries and the binary search part
        joint = np.array([[0.5, -1e-13], [0.25, 0.25 + 1e-13]])
        cum = np.cumsum(joint.reshape(-1))
        assert cum[1] < cum[0]
        u = np.array([(cum[0] + cum[1]) / 2, cum[1], cum[0], 0.6, 0.0])
        sizes = array_searches(monkeypatch)
        got = sample_cells(joint, len(u), FixedUniforms(u))
        assert sizes == [len(u)]
        np.testing.assert_array_equal(got, direct_search_cells(joint, u))

    def test_cdf_is_one_from_the_last_positive_cell_on(self):
        masses = np.array([0.0, 0.25, 0.0, 0.5, 0.25 - 2**-54, 0.0, 0.0])
        cum = generative._cdf(masses)
        np.testing.assert_array_equal(cum[:4], np.cumsum(masses)[:4])
        np.testing.assert_array_equal(cum[4:], 1.0)


#: monte_carlo_score(n=20_000, seed=5) of each case strategy's rational and
#: last-action policies, as float.hex: (mean, se).
MONTE_CARLO_PINS = {
    ("weather", "mean", "rational"):
        ("-0x1.ff0a3d70a3d71p+2", "0x1.8889bbd26f7d6p-3"),
    ("weather", "mean", "constant"):
        ("-0x1.2672b020c49bap+3", "0x1.3a07c97525fe3p-6"),
    ("weather", "CI", "rational"):
        ("-0x1.6df3b645a1cacp+2", "0x1.612a431fb9f14p-4"),
    ("weather", "CI", "constant"):
        ("-0x1.25eb851eb851fp+3", "0x1.3cf9490894072p-6"),
    ("weather", "gradient", "rational"):
        ("-0x1.6df3b645a1cacp+2", "0x1.612a431fb9f14p-4"),
    ("weather", "gradient", "constant"):
        ("-0x1.25eb851eb851fp+3", "0x1.3cf9490894072p-6"),
    ("weather", "HOPs", "rational"):
        ("-0x1.6df3b645a1cacp+2", "0x1.612a431fb9f14p-4"),
    ("weather", "HOPs", "constant"):
        ("-0x1.25eb851eb851fp+3", "0x1.3cf9490894072p-6"),
    ("kale2020", "interval", "rational"):
        ("0x1.c88f42fe82518p+0", "0x1.226aaa684ab1ep-7"),
    ("kale2020", "interval", "constant"):
        ("0x1.8f76f6d762520p+0", "0x1.21793a62c2c8bp-7"),
    ("kale2020", "HOPs", "rational"):
        ("0x1.c88f42fe82518p+0", "0x1.226aaa684ab1ep-7"),
    ("kale2020", "HOPs", "constant"):
        ("0x1.8f76f6d762520p+0", "0x1.21793a62c2c8bp-7"),
    ("kale2020", "density", "rational"):
        ("0x1.c88f42fe82518p+0", "0x1.226aaa684ab1ep-7"),
    ("kale2020", "density", "constant"):
        ("0x1.8f76f6d762520p+0", "0x1.21793a62c2c8bp-7"),
    ("kale2020", "QDP", "rational"):
        ("0x1.c88f42fe82518p+0", "0x1.226aaa684ab1ep-7"),
    ("kale2020", "QDP", "constant"):
        ("0x1.8f76f6d762520p+0", "0x1.21793a62c2c8bp-7"),
    ("fernandes2018", "full", "rational"):
        ("0x1.03bc89dcafbcdp+10", "0x1.609c2e072d182p-1"),
    ("fernandes2018", "full", "constant"):
        ("0x1.e939c42574fb0p+9", "0x1.068d31c8d6e1cp-1"),
    ("fernandes2018", "text60", "rational"):
        ("0x1.023f2999187dcp+10", "0x1.8b3738445f179p-1"),
    ("fernandes2018", "text60", "constant"):
        ("0x1.e9214e357e949p+9", "0x1.07087d0d3993ap-1"),
    ("fernandes2018", "text85", "rational"):
        ("0x1.024247b216097p+10", "0x1.8aa5d6e8d0faep-1"),
    ("fernandes2018", "text85", "constant"):
        ("0x1.e9237bef389a8p+9", "0x1.06855e4e2be8fp-1"),
    ("fernandes2018", "text99", "rational"):
        ("0x1.01c82c92c6f36p+10", "0x1.8b40621d948e1p-1"),
    ("fernandes2018", "text99", "constant"):
        ("0x1.e921fea94da6bp+9", "0x1.07a076d4e449dp-1"),
}


@pytest.mark.parametrize("case, strategy, kind", list(MONTE_CARLO_PINS))
def test_monte_carlo_scores_are_pinned(case, strategy, kind):
    design = build_case(case).design
    actions = (rational_actions(design, strategy) if kind == "rational" else
               constant_actions(design, design.actions.ids[-1], strategy))
    got = monte_carlo_score(design, strategy, actions, n=20_000, seed=5)
    assert tuple(x.hex() for x in got) == MONTE_CARLO_PINS[case, strategy, kind]


class TestDiscretizedDistribution:
    def test_validation(self):
        with pytest.raises(InvalidModelError):
            DiscretizedDistribution(grid=np.array([1.0, 0.5]),
                                    masses=np.array([0.5, 0.5]))
        with pytest.raises(InvalidModelError):
            DiscretizedDistribution(grid=np.array([0.0, 1.0]),
                                    masses=np.array([0.7, 0.7]))

    def test_masses_as_given(self):
        d = DiscretizedDistribution(grid=np.array([0.0, 1.0]),
                                    masses=np.array([0.25, 0.75]))
        np.testing.assert_allclose(d.masses, [0.25, 0.75])
