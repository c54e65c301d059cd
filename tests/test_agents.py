import tracemalloc
from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from rabench import generative
from rabench.agents import AgentSpec, _draw_stimuli, simulate
from rabench.behavioral import decompose, ingest, loss_report
from rabench.cases import build_kale
from rabench.cli import main
from rabench.errors import InvalidModelError
from rabench.model import InformationStructure, _resolve_report_map, optimal_action_indices

from conftest import (BAD_SEEDS, GOOD_SEEDS, FixedUniforms, array_searches, seed_refusal,
                      trial_rows, weather_design)


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
def transit_1000_design(transit_dists_1000):
    """Scenario 2 on the 1000-trial generated file."""
    from rabench.cases import build_fernandes

    return build_fernandes(scenario=2, trial_dists=transit_dists_1000).design


@pytest.fixture(scope="module")
def transit_1000_structure(transit_1000_design):
    """Strategy ``full`` of scenario 2 on the 1000-trial generated file."""
    assert len(transit_1000_design.strategies["full"]) == 1_000
    return transit_1000_design.strategies["full"]


class TestSimulate:
    @pytest.mark.parametrize("seed, shown", BAD_SEEDS)
    def test_a_seed_that_is_not_a_non_negative_integer_is_refused(self, seed, shown):
        with pytest.raises(InvalidModelError, match=seed_refusal(shown)):
            simulate(weather_design(), "CI", AgentSpec.rational(), 10, seed=seed)

    @pytest.mark.parametrize("seed", GOOD_SEEDS)
    def test_numpy_and_large_integer_seeds_are_accepted(self, seed):
        design = weather_design()
        a = simulate(design, "CI", AgentSpec.noisy_belief(0.8), 100, seed=seed)
        b = simulate(design, "CI", AgentSpec.noisy_belief(0.8), 100, seed=int(seed))
        assert trial_rows(a) == trial_rows(b)

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
        b = decompose(ingest(records, design), design, "CI").behavioral
        # 3 standard errors of the per-trial score spread at this n
        assert abs(b - (-5.689)) <= 0.12

    def test_prior_agent_recovers_baseline(self):
        design = weather_design()
        records = simulate(design, "CI", AgentSpec.prior_only(), 100_000, seed=7)
        assert {r[5] for r in trial_rows(records)} == {"no-salt"}
        b = decompose(ingest(records, design), design, "CI").behavioral
        assert abs(b - (-7.96)) <= 0.26  # 3 se of a -100/0 bet at p=0.08

    def test_a_table_holds_no_object_per_trial(self):
        # six 8-byte columns, trial ids among them
        tracemalloc.start()
        try:
            table = simulate(weather_design(), "CI", AgentSpec.noisy_belief(0.8),
                             100_000, seed=4)
            held = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert len(table) == 100_000
        assert held <= 56 * 100_000

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
        marginal = joint.masses.sum(axis=1)
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

    def test_balanced_weather_draws_on_cdf_entries(self, monkeypatch):
        # each trial's draw is an entry of its signal's conditional CDF or a
        # neighbour one ulp away, with enough trials for the passes
        joint = weather_design().strategies["CI"].joint
        n_signals, n_states = joint.shape
        n_trials = n_signals * n_states * generative._PASS_DRAWS + 3
        cum = np.array([np.cumsum(row / row.sum()) for row in joint])
        rng = np.random.default_rng(4)
        edge = cum[np.arange(n_trials) % n_signals,
                   rng.integers(0, n_states - 1, size=n_trials)]
        step = rng.integers(-1, 2, size=n_trials)
        u = FixedUniforms(np.where(step < 0, np.nextafter(edge, 0.0),
                                   np.where(step > 0, np.nextafter(edge, 1.0), edge)))
        searches = array_searches(monkeypatch)
        got = _draw_stimuli(SimpleNamespace(joint=joint), n_trials, u, balanced=True)
        assert searches == []
        np.testing.assert_array_equal(got, masked_balanced_stimuli(joint, n_trials, u))

    def test_balanced_transit_searches_each_signal_in_sorted_order(
            self, monkeypatch, transit_1000_structure):
        searched = []
        sizes = array_searches(monkeypatch, searched)
        _draw_stimuli(transit_1000_structure, 20_001, np.random.default_rng(1),
                      balanced=True)
        assert sizes == [21] + [20] * 999
        assert all((np.diff(u) >= 0).all() for u in searched)

    def test_balanced_row_never_draws_its_trailing_zero_cell(self):
        # signal 0's conditional CDF rounds to one ulp below 1 at its last
        # positive cell; a uniform in that gap draws that cell, not the zero
        # cell after it; signal 1 ends in a positive cell
        joint = np.array([[0.691, 0.179, 0.396, 0.006, 0.262, 0.0],
                          [0.421, 0.106, 0.633, 0.38, 0.725, 0.3]])
        joint /= joint.sum()
        conditionals = joint / joint.sum(axis=1, keepdims=True)
        gap = np.cumsum(conditionals[0])[-1]
        assert gap < 1.0
        u = FixedUniforms([gap, gap, np.nextafter(1.0, 0.0), 0.0])
        _, t_idx = _draw_stimuli(SimpleNamespace(joint=joint), 4, u, balanced=True)
        np.testing.assert_array_equal(t_idx, [4, 5, 4, 0])

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
        c = decompose(ingest(records, design), design, "CI").calibrated
        # state-independent behavior carries no information; 3 se margin
        assert abs(c - (-7.96)) <= 0.26


# The three response functions that answered trials before one rule per agent
# kind replaced them, kept as the reference that ``simulate`` must match.

def _logit(p):
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return np.log(p / (1.0 - p))


def _sigmoid(x):
    with np.errstate(over="ignore"):  # exp(-x) = inf gives the limit 0
        return 1.0 / (1.0 + np.exp(-x))


def reference_decisions(design, structure, agent, v_idx, rng):
    n = len(v_idx)
    n_actions = len(design.actions)
    if agent.kind == "rational":
        return optimal_action_indices(design, structure.posteriors())[v_idx]
    if agent.kind == "prior":
        p = structure.state_marginal()
        return np.full(n, optimal_action_indices(design, p[None, :])[0])
    if agent.kind == "uniform-random":
        return rng.integers(0, n_actions, size=n)
    if agent.kind == "noisy-belief":
        beliefs = reference_noisy_beliefs(design, structure, v_idx,
                                          agent.noise_sd, rng)
        return optimal_action_indices(design, beliefs)
    inner = reference_decisions(design, structure, agent.inner, v_idx, rng)
    mask = rng.uniform(size=n) < agent.lapse_rate
    picks = rng.integers(0, n_actions, size=n)
    return np.where(mask, picks, inner)


def reference_reports(design, structure, agent, v_idx, rng):
    from_beliefs = _resolve_report_map(design).from_beliefs
    n = len(v_idx)
    if agent.kind in ("rational", "noisy-belief"):
        reports = from_beliefs(structure.posteriors())[v_idx]
        if agent.noise_sd > 0:
            noise = rng.normal(0.0, agent.noise_sd, size=n)
            reports = np.clip(_sigmoid(_logit(reports) + noise), 1e-12, 1.0 - 1e-12)
        return reports
    if agent.kind == "prior":
        p = structure.state_marginal()
        return np.full(n, from_beliefs(p[None, :])[0])
    if agent.kind == "uniform-random":
        return rng.uniform(size=n)
    inner = reference_reports(design, structure, agent.inner, v_idx, rng)
    mask = rng.uniform(size=n) < agent.lapse_rate
    uniform = rng.uniform(size=n)
    return np.where(mask, uniform, inner)


def reference_noisy_beliefs(design, structure, v_idx, noise_sd, rng):
    n = len(v_idx)
    posteriors = structure.posteriors()
    if noise_sd == 0.0:
        return posteriors[v_idx]
    try:
        report_map = _resolve_report_map(design)
    except InvalidModelError:
        raw = posteriors[v_idx]
        bumped = _sigmoid(_logit(raw) + rng.normal(0.0, noise_sd, size=raw.shape))
        return bumped / bumped.sum(axis=1, keepdims=True)
    axis = report_map.from_beliefs(posteriors)[v_idx]
    bumped = _sigmoid(_logit(axis) + rng.normal(0.0, noise_sd, size=n))
    return report_map.to_beliefs(np.clip(bumped, 1e-12, 1.0 - 1e-12))


def reference_responses(design, strategy, agent, n_trials, seed, balanced):
    structure = design.strategies[strategy]
    rng = np.random.default_rng(seed)
    v_idx, _ = _draw_stimuli(structure, n_trials, rng, balanced)
    respond = reference_decisions if agent.task == "decision" else reference_reports
    return respond(design, structure, agent, v_idx, rng)


def agents_of_every_kind(task):
    """Each kind, noisy-belief at k = 0 and 0.8, and lapse at rate 0, 0.3
    and 1 over each of the others."""
    plain = [AgentSpec.rational(task), AgentSpec.prior_only(task),
             AgentSpec.uniform_random(task), AgentSpec.noisy_belief(0.0, task),
             AgentSpec.noisy_belief(0.8, task)]
    return plain + [AgentSpec.lapsing(rate, inner)
                    for rate in (0.0, 0.3, 1.0) for inner in plain]


class TestResponsesMatchTheReference:
    @pytest.mark.parametrize("balanced", [False, True], ids=["iid", "balanced"])
    @pytest.mark.parametrize("task", ["decision", "belief"])
    @pytest.mark.parametrize("case, strategy", [("weather", "CI"),
                                                ("kale2020", "interval")])
    def test_binary_cases(self, case, strategy, task, balanced):
        design = weather_design() if case == "weather" else build_kale().design
        self.check_every_agent(design, strategy, task, balanced, 2_000)

    @pytest.mark.parametrize("balanced", [False, True], ids=["iid", "balanced"])
    def test_transit_1000_decisions(self, transit_1000_design, balanced):
        self.check_every_agent(transit_1000_design, "full", "decision", balanced,
                               3_000)

    @pytest.mark.parametrize("task", ["decision", "belief"])
    def test_weather_noisy_agent_at_the_benchmark_size(self, task):
        # 100k trials, as the weather workload of perfbench/run.py simulates
        design = weather_design()
        agent = AgentSpec.noisy_belief(0.8, task)
        table = simulate(design, "CI", agent, 100_000, 11)
        got = table.action if task == "decision" else table.report
        want = reference_responses(design, "CI", agent, 100_000, 11, False)
        np.testing.assert_array_equal(got, want)
        assert got.dtype == want.dtype

    @pytest.mark.parametrize("task", ["decision", "belief"])
    def test_certain_posteriors(self, task):
        # posteriors of (1, 0) and (0, 1): their log-odds are infinite unless
        # clipped to the bound before the noise is added
        design = replace(weather_design(), strategies={"certain": InformationStructure(
            signals=("no", "yes", "maybe"), joint=[[0.5, 0.0], [0.0, 0.25], [0.125, 0.125]])})
        agent = AgentSpec.noisy_belief(0.8, task)
        table = simulate(design, "certain", agent, 2_000, 4)
        want = reference_responses(design, "certain", agent, 2_000, 4, False)
        if task == "decision":
            np.testing.assert_array_equal(table.action, want)
        else:  # reports reach both ends of the bound
            np.testing.assert_array_equal(table.report, want)
            assert (want == 1e-12).any() and (want == 1 - 1e-12).any()

    @staticmethod
    def check_every_agent(design, strategy, task, balanced, n_trials):
        for agent in agents_of_every_kind(task):
            for seed in (0, 7, 12):
                table = simulate(design, strategy, agent, n_trials, seed,
                                 balanced=balanced)
                got = table.action if task == "decision" else table.report
                want = reference_responses(design, strategy, agent, n_trials,
                                           seed, balanced)
                np.testing.assert_array_equal(got, want, err_msg=f"{agent} {seed}")
                assert got.dtype == want.dtype


class TestNoiselessLimits:
    @pytest.mark.parametrize("case, strategy, task", [
        ("weather", "CI", "decision"), ("weather", "CI", "belief"),
        ("kale2020", "interval", "decision"), ("kale2020", "interval", "belief"),
        ("transit", "full", "decision"),
    ])
    def test_zero_noise_and_zero_lapse_change_no_record(
            self, case, strategy, task, transit_1000_design):
        design = {"weather": weather_design, "kale2020": lambda: build_kale().design,
                  "transit": lambda: transit_1000_design}[case]()
        for balanced in (False, True):
            def rows(agent):
                return trial_rows(simulate(design, strategy, agent, 2_000, seed=3,
                                           balanced=balanced))

            assert rows(AgentSpec.noisy_belief(0.0, task)) == \
                rows(AgentSpec.rational(task))
            for inner in agents_of_every_kind(task)[:5]:
                assert rows(AgentSpec.lapsing(0.0, inner)) == rows(inner)


class TestLargeNoise:
    @pytest.mark.parametrize("case, strategy", [("weather", "CI"),
                                                ("kale2020", "interval")])
    def test_reports_stay_strictly_inside_the_unit_interval(self, case, strategy):
        design = weather_design() if case == "weather" else build_kale().design
        agent = AgentSpec.noisy_belief(50.0, "belief")
        for seed in range(5):
            table = simulate(design, strategy, agent, 2_000, seed)
            np.testing.assert_array_equal(
                table.report,
                reference_responses(design, strategy, agent, 2_000, seed, False))
            assert ((table.report > 0.0) & (table.report < 1.0)).all()
            assert table.report.min() == 1e-12
            assert table.report.max() == 1.0 - 1e-12
            # the decision task plays through the same bounded reports
            simulate(design, strategy, AgentSpec.noisy_belief(50.0), 2_000, seed)

    @pytest.mark.parametrize("case, strategy, task", [
        ("weather", "CI", "decision"), ("weather", "CI", "belief"),
        ("kale2020", "interval", "decision"), ("kale2020", "interval", "belief"),
        ("transit", "full", "decision"),
    ])
    def test_noise_that_overflows_exp_warns_of_nothing(
            self, case, strategy, task, transit_1000_design):
        # at k = 800 the noisy log-odds reach -exp's overflow, whose inf is
        # the sigmoid's limit; tests turn a RuntimeWarning into a failure
        design = {"weather": weather_design, "kale2020": lambda: build_kale().design,
                  "transit": lambda: transit_1000_design}[case]()
        agent = AgentSpec.noisy_belief(800.0, task)
        table = simulate(design, strategy, agent, 2_000, 1)
        got = table.action if task == "decision" else table.report
        want = reference_responses(design, strategy, agent, 2_000, 1, False)
        np.testing.assert_array_equal(got, want)

    def test_kale2020_cli_simulates_at_large_noise(self, tmp_path, capsys):
        out = tmp_path / "t.csv"
        assert main(["simulate", "--case", "kale2020", "--agent", "noisy:k=20",
                     "--n", "2000", "--seed", "1", "--out", str(out)]) == 0
        assert len(out.read_text().splitlines()) == 2_001


class TestTrialCount:
    @pytest.mark.parametrize("n", [2.5, 2.0, True, "3"])
    def test_non_integer_refused(self, n):
        with pytest.raises(InvalidModelError,
                           match="^trial count must be an integer, not "):
            simulate(weather_design(), "CI", AgentSpec.rational(), n, 1)

    def test_numpy_integer_accepted(self):
        table = simulate(weather_design(), "CI", AgentSpec.rational(),
                         np.int64(5), 1)
        assert len(table) == 5
