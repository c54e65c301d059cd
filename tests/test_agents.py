import numpy as np
import pytest

from rabench.agents import AgentSpec, _draw_stimuli, simulate
from rabench.behavioral import behavioral_score, calibrate, ingest, loss_report
from rabench.errors import InvalidModelError

from conftest import FixedUniforms, trial_rows, weather_design


def masked_balanced_stimuli(joint, n_trials, rng):
    """Balanced stimuli drawn with one full-length mask per signal: the
    reference that balanced mode must match draw for draw."""
    n_signals = joint.shape[0]
    v_idx = np.arange(n_trials) % n_signals
    t_idx = np.empty(n_trials, dtype=int)
    conditionals = joint / joint.sum(axis=1, keepdims=True)
    u = rng.uniform(size=n_trials)
    for v in range(n_signals):
        mask = v_idx == v
        cum = np.cumsum(conditionals[v])
        cum[-1] = 1.0
        t_idx[mask] = np.searchsorted(cum, u[mask], side="right")
    return v_idx, t_idx


class TestAgentSpec:
    def test_unknown_kind_rejected(self):
        with pytest.raises(InvalidModelError):
            AgentSpec(kind="psychic")

    def test_lapse_needs_inner(self):
        with pytest.raises(InvalidModelError):
            AgentSpec(kind="lapse", lapse_rate=0.3)

    def test_lapse_inner_task_must_match(self):
        with pytest.raises(InvalidModelError):
            AgentSpec(kind="lapse", task="decision", lapse_rate=0.2,
                      inner=AgentSpec.rational("belief"))

    def test_negative_noise_rejected(self):
        with pytest.raises(InvalidModelError):
            AgentSpec.noisy_belief(-0.1)

    @pytest.mark.parametrize("sd", [float("nan"), float("inf")])
    def test_non_finite_noise_rejected(self, sd):
        with pytest.raises(InvalidModelError):
            AgentSpec.noisy_belief(sd)

    @pytest.mark.parametrize("sd", [pytest.param(10**400, id="10**400"), True])
    def test_huge_integer_or_bool_noise_rejected(self, sd):
        with pytest.raises(InvalidModelError, match="noise sd must be non-negative"):
            simulate(weather_design(), "CI",
                     AgentSpec(kind="noisy-belief", task="belief", noise_sd=sd), 10, 1)

    @pytest.mark.parametrize("kind, parameter, value", [
        *[(kind, "noise_sd", 0.5)
          for kind in ("rational", "prior", "uniform-random", "lapse")],
        *[(kind, "lapse_rate", 0.2)
          for kind in ("rational", "prior", "uniform-random", "noisy-belief")],
        *[(kind, "inner", AgentSpec.rational())
          for kind in ("rational", "prior", "uniform-random", "noisy-belief")],
    ])
    def test_parameters_of_another_kind_rejected(self, kind, parameter, value):
        params = {parameter: value}
        if kind == "lapse":
            params["inner"] = AgentSpec.rational()
        with pytest.raises(InvalidModelError,
                           match=f"^a '{kind}' agent takes no {parameter}$"):
            AgentSpec(kind=kind, **params)

    def test_zero_parameters_of_another_kind_accepted(self):
        for kind in ("rational", "prior", "uniform-random", "noisy-belief"):
            AgentSpec(kind=kind, noise_sd=0.0, lapse_rate=0.0)
        AgentSpec(kind="lapse", noise_sd=0.0, inner=AgentSpec.rational())

    @pytest.mark.parametrize("rate", [True, pytest.param(10**400, id="10**400"),
                                      pytest.param(-10**400, id="-10**400"),
                                      float("nan"), -0.1, 1.5])
    def test_bad_lapse_rate_rejected(self, rate):
        with pytest.raises(InvalidModelError, match=r"lapse rate must lie in \[0, 1\]"):
            AgentSpec(kind="lapse", lapse_rate=rate, inner=AgentSpec.rational())


@pytest.fixture(scope="module")
def transit_1000_structure(transit_dists_1000):
    """Strategy ``full`` of scenario 2 on the 1000-trial generated file."""
    from rabench.cases import build_fernandes

    design = build_fernandes(scenario=2, trial_dists=transit_dists_1000).design
    assert len(design.strategies["full"]) == 1_000
    return design.strategies["full"]


class TestSimulate:
    def test_deterministic_per_seed(self):
        design = weather_design()
        a = simulate(design, "CI", AgentSpec.rational(), 500, seed=7)
        b = simulate(design, "CI", AgentSpec.rational(), 500, seed=7)
        assert trial_rows(a) == trial_rows(b)

    def test_different_seeds_differ(self):
        design = weather_design()
        a = simulate(design, "CI", AgentSpec.rational(), 500, seed=7)
        b = simulate(design, "CI", AgentSpec.rational(), 500, seed=8)
        assert trial_rows(a) != trial_rows(b)

    def test_rational_recovers_visualization_optimal(self):
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.rational(), 100_000, seed=7)
        joint = ingest(records, design)
        b = behavioral_score(joint, design)
        # 3 standard errors of the per-trial score spread at this n
        assert abs(b - (-5.689)) <= 0.12

    def test_prior_agent_recovers_baseline(self):
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.prior_only(), 100_000, seed=7)
        assert {r[5] for r in trial_rows(records)} == {"no-salt"}
        b = behavioral_score(ingest(records, design), design)
        assert abs(b - (-7.96)) <= 0.26  # 3 se of a -100/0 bet at p=0.08

    def test_zero_noise_equals_rational(self):
        design = weather_design()
        a = simulate(design, "CI", AgentSpec.rational(), 2_000, seed=3)
        b = simulate(design, "CI", AgentSpec.noisy_belief(0.0), 2_000, seed=3)
        assert trial_rows(a) == trial_rows(b)

    def test_zero_noise_equals_rational_on_belief_task(self):
        design = weather_design()
        a = simulate(design, "CI", AgentSpec.rational("belief"), 2_000, seed=3)
        b = simulate(design, "CI", AgentSpec.noisy_belief(0.0, "belief"),
                     2_000, seed=3)
        assert trial_rows(a) == trial_rows(b)

    def test_zero_lapse_equals_inner(self):
        design = weather_design()
        inner = AgentSpec.rational()
        a = simulate(design, "CI", inner, 2_000, seed=3)
        b = simulate(design, "CI", AgentSpec.lapsing(0.0, inner), 2_000, seed=3)
        assert trial_rows(a) == trial_rows(b)

    def test_full_lapse_is_state_independent(self):
        design = weather_design()
        agent = AgentSpec.lapsing(1.0, AgentSpec.rational())
        records = simulate(design, "CI", agent, 50_000, seed=5)
        joint = ingest(records, design)
        # a full lapser is uniform over actions regardless of signal
        marginal = joint.action_marginal()
        assert marginal[0] == pytest.approx(0.5, abs=0.02)

    def test_balanced_mode_evens_out_signals(self):
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.rational(), 4_000, seed=5,
                           balanced=True)
        counts = np.bincount(records.signal, minlength=len(records.signal_ids))
        assert set(counts.tolist()) == {1_000}

    @pytest.mark.parametrize("n_trials", [1, 3, 4, 5, 4_001])
    def test_balanced_weather_matches_the_masked_draws(self, n_trials):
        structure = weather_design().strategies["CI"]
        got = _draw_stimuli(structure, n_trials, np.random.default_rng(9),
                            balanced=True)
        want = masked_balanced_stimuli(structure.joint, n_trials,
                                       np.random.default_rng(9))
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("n_trials", [999, 1_000, 20_001])
    def test_balanced_transit_matches_the_masked_draws(self, n_trials,
                                                        transit_1000_structure):
        structure = transit_1000_structure
        got = _draw_stimuli(structure, n_trials, np.random.default_rng(3),
                            balanced=True)
        want = masked_balanced_stimuli(structure.joint, n_trials,
                                       np.random.default_rng(3))
        np.testing.assert_array_equal(got, want)

    def test_balanced_draws_on_cdf_entries(self, transit_1000_structure):
        # each trial's draw is an entry of its signal's conditional CDF,
        # zero-mass runs included
        joint = transit_1000_structure.joint
        n_signals, n_states = joint.shape
        n_trials = 3 * n_signals + 7
        cum = np.array([np.cumsum(row / row.sum()) for row in joint])
        signal = np.arange(n_trials) % n_signals
        entry = np.random.default_rng(4).integers(0, n_states - 1, size=n_trials)
        u = FixedUniforms(cum[signal, entry])
        got = _draw_stimuli(transit_1000_structure, n_trials, u, balanced=True)
        want = masked_balanced_stimuli(joint, n_trials, u)
        np.testing.assert_array_equal(got, want)

    def test_belief_reports_live_in_unit_interval(self):
        design = weather_design()
        for agent in (AgentSpec.rational("belief"),
                      AgentSpec.uniform_random("belief"),
                      AgentSpec.noisy_belief(1.0, "belief")):
            records = simulate(design, "CI", agent, 1_000, seed=11)
            assert ((records.report >= 0.0) & (records.report <= 1.0)).all()

    def test_prior_belief_reports_are_constant(self):
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.prior_only("belief"),
                           100, seed=2)
        vals = np.unique(records.report)
        assert len(vals) == 1
        assert vals[0] == pytest.approx(0.0796)


class TestDecompositionRecovery:
    def test_rational_agent_has_no_losses(self):
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.rational(), 100_000, seed=7)
        report = loss_report(design, "CI", records)
        assert abs(report.belief_loss) <= 0.02
        assert abs(report.optimization_loss) <= 0.02

    def test_prior_agent_has_pure_belief_loss(self):
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.prior_only(), 100_000, seed=12)
        report = loss_report(design, "CI", records)
        assert report.belief_loss == pytest.approx(1.0, abs=0.02)
        assert report.optimization_loss == pytest.approx(0.0, abs=0.02)

    def test_belief_loss_grows_with_noise(self):
        design = weather_design()
        losses = []
        for kappa in (0.0, 1.0, 3.0):
            records = simulate(design, "CI", AgentSpec.noisy_belief(kappa),
                               100_000, seed=21)
            losses.append(loss_report(design, "CI", records).belief_loss)
        assert losses[0] < losses[1] < losses[2]

    def test_noisy_reporter_loses_in_optimization_not_only_belief(self):
        # a noisy belief reporter still transmits signal information (its
        # binned reports correlate with the state) but misreports it, so
        # calibration recovers score the raw reports give away
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.noisy_belief(1.5, "belief"),
                           100_000, seed=3)
        report = loss_report(design, "CI", records)
        assert report.optimization_loss > 0.0
        assert report.belief_loss < 1.0

    def test_transit_decomposition_recovery(self):
        # the pipeline generalizes to the transit case: grid states, 31
        # actions, second-bus accounting
        from rabench.cases import build_fernandes

        design = build_fernandes(scenario=2).design
        rational = simulate(design, "full", AgentSpec.rational(), 60_000, seed=3)
        report = loss_report(design, "full", rational)
        assert abs(report.belief_loss) <= 0.03
        assert abs(report.optimization_loss) <= 0.03
        fixed = simulate(design, "full", AgentSpec.prior_only(), 60_000, seed=3)
        report = loss_report(design, "full", fixed)
        assert report.belief_loss == pytest.approx(1.0, abs=0.03)
        assert report.optimization_loss == pytest.approx(0.0, abs=0.03)

    def test_random_agent_calibrates_to_baseline(self):
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.uniform_random(), 100_000,
                           seed=31)
        joint = ingest(records, design)
        c = calibrate(joint, design).calibrated_score
        # state-independent behavior carries no information; 3 se margin
        assert abs(c - (-7.96)) <= 0.26
