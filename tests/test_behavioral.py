import numpy as np
import pytest

from rabench.agents import AgentSpec, simulate
from rabench.behavioral import (
    EmpiricalJoint,
    LossReport,
    TrialRecord,
    TrialTable,
    behavioral_score,
    behavioral_value_of_information,
    belief_loss,
    calibrate,
    decisions_from_beliefs,
    ingest,
    loss_report,
    optimization_loss,
    pooled_loss_report,
    read_trials_csv,
    write_trials_csv,
)
from rabench.cases import build_case
from rabench.errors import InvalidModelError, TrialDataError
from rabench.generative import (
    TWO_TEAM_STATE_IDS,
    TwoTeamDGM,
    kale_joint,
    two_team_report_map,
)
from rabench.model import (
    ActionSpace,
    ExperimentDesign,
    MatrixRule,
    StateSpace,
)
from rabench.rational import rational_report

from conftest import weather_design


def record(i, strategy, signal, state, kind="action", response="no-salt"):
    return TrialRecord(str(i), strategy, signal, state, kind, response)


def exact_joint(design, masses, kind="action", scale=10_000.0):
    """Empirical joint with pseudo-counts equal to exact channel masses."""
    masses = np.asarray(masses, dtype=float)
    return EmpiricalJoint(
        action_ids=design.actions.ids,
        state_ids=design.states.ids,
        counts=masses * scale,
        kind=kind,
        action_values=design.actions.values,
        state_values=design.states.values,
    )


def rational_channel_masses():
    # no-salt on the two tight forecasts, salt on the two wide ones
    return np.array([
        [0.24845 + 0.23805, 0.00155 + 0.01195],
        [0.22360 + 0.21030, 0.02640 + 0.03970],
    ])


def prior_channel_masses():
    return np.array([[0.9204, 0.0796], [0.0, 0.0]])


def random_channel_masses():
    prior = np.array([0.9204, 0.0796])
    return np.vstack([0.5 * prior, 0.5 * prior])


class TestIngest:
    def test_counts_decision_pairs(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=5", "freezing", response="salt"),
            record(2, "CI", "sigma=5", "freezing", response="salt"),
            record(3, "CI", "sigma=2", "not-freezing", response="no-salt"),
            record(4, "CI", "sigma=2", "not-freezing", response="no-salt"),
        ]
        joint = ingest(records, design)
        assert joint.kind == "action"
        assert joint.masses[design.actions.index("salt"), 1] == pytest.approx(0.5)
        assert joint.masses[design.actions.index("no-salt"), 0] == pytest.approx(0.5)

    def test_nearby_reports_share_a_bin(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=5", "freezing", "probability", 0.551),
            record(2, "CI", "sigma=5", "freezing", "probability", 0.559),
        ]
        joint = ingest(records, design, bin_width=0.02)
        populated = np.flatnonzero(joint.counts.sum(axis=1))
        assert len(populated) == 1
        assert joint.action_values[populated[0]] == pytest.approx(0.55)

    def test_unknown_state_lists_offenders(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=5", "freezing", response="salt"),
            record(99, "CI", "sigma=5", "hail", response="salt"),
        ]
        with pytest.raises(TrialDataError) as err:
            ingest(records, design)
        assert "99" in str(err.value)

    def test_unknown_action_and_signal_rejected(self):
        design = weather_design()
        with pytest.raises(TrialDataError):
            ingest([record(1, "CI", "sigma=9", "freezing")], design)
        with pytest.raises(TrialDataError):
            ingest([record(1, "CI", "sigma=5", "freezing", response="shovel")],
                   design)

    def test_mixed_task_types_rejected(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=5", "freezing", "action", "salt"),
            record(2, "CI", "sigma=5", "freezing", "probability", 0.5),
        ]
        with pytest.raises(TrialDataError):
            ingest(records, design)

    def test_empty_records_rejected(self):
        with pytest.raises(TrialDataError):
            ingest([], weather_design())

    def test_partial_last_bin_midpoint(self):
        design = weather_design()
        records = [record(1, "CI", "sigma=5", "freezing", "probability", 1.0)]
        joint = ingest(records, design, bin_width=0.3)
        assert joint.action_values == pytest.approx((0.15, 0.45, 0.75, 0.95))
        assert joint.counts[3, 1] == 1.0

    def test_report_outside_unit_interval_rejected(self):
        design = weather_design()
        with pytest.raises(TrialDataError):
            ingest([record(1, "CI", "sigma=5", "freezing", "probability", 1.2)],
                   design)


class TestTrialCsv:
    def test_round_trip(self, tmp_path):
        records = [
            record(1, "CI", "sigma=5", "freezing", "action", "salt"),
            record(2, "CI", "sigma=3", "not-freezing", "probability", 0.0478),
        ]
        path = tmp_path / "trials.csv"
        write_trials_csv(records, path)
        back = read_trials_csv(path)
        assert back == records

    def test_round_trip_quotes_awkward_ids(self, tmp_path):
        records = [
            record("a,b", "CI", 'say "hi"', "freezing", "action", "salt"),
            record("two\nlines", "C,I", "sigma=3", 'x"\ny', "action", "no,salt"),
            record("", "CI", "sigma=2", "not-freezing", "probability", 0.1),
        ]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_trials_csv(records, first)
        back = read_trials_csv(first)
        write_trials_csv(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert back == records
        assert list(back) == records

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(TrialDataError):
            read_trials_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TrialDataError):
            read_trials_csv(path)


class TestTrialTable:
    def test_rows_index_and_select(self):
        records = [
            record(1, "CI", "sigma=5", "freezing", "action", "salt"),
            record(2, "mean", "mu=5", "not-freezing", "action", "no-salt"),
            record(3, "CI", "sigma=2", "not-freezing", "probability", 0.25),
        ]
        table = TrialTable.from_records(records)
        assert len(table) == 3
        assert table == records and records == table
        assert table[0] == records[0] and table[-1] == records[-1]
        with pytest.raises(IndexError):
            table[3]
        ci = table[table.strategy == table.strategy_ids.index("CI")]
        assert isinstance(ci, TrialTable)
        assert ci == [records[0], records[2]]
        assert table[1:] == records[1:]
        assert table != records[:2]

    def test_loss_report_refuses_other_strategies(self):
        # scored as CI, trials of the mean strategy would fold into the joint
        design = weather_design()
        trials = simulate(design, "mean", AgentSpec.rational(), 2_000, seed=1)
        with pytest.raises(TrialDataError) as err:
            loss_report(design, "CI", trials)
        assert err.value.trial_ids == [str(i) for i in range(2_000)]

        mixed = [record(1, "CI", "sigma=5", "freezing", response="salt"),
                 record(2, "mean", "mu=5", "freezing", response="salt")]
        with pytest.raises(TrialDataError) as err:
            loss_report(design, "CI", mixed)
        assert err.value.trial_ids == ["2"]


class TestBehavioralScore:
    def test_rational_channel_scores_at_the_optimal(self):
        design = weather_design()
        joint = exact_joint(design, rational_channel_masses())
        assert behavioral_score(joint, design) == pytest.approx(-5.689, abs=1e-9)

    def test_prior_channel_scores_at_the_baseline(self):
        design = weather_design()
        joint = exact_joint(design, prior_channel_masses())
        assert behavioral_score(joint, design) == pytest.approx(-7.96, abs=1e-9)

    def test_uniform_random_scores_the_row_average(self):
        design = weather_design()
        joint = exact_joint(design, random_channel_masses())
        # 0.5 * (-7.96) + 0.5 * (-10 * 0.9204) = -8.582
        assert behavioral_score(joint, design) == pytest.approx(-8.582, abs=1e-9)
        assert behavioral_score(joint, design) < -7.96

    def test_report_joint_scored_at_bin_midpoints(self):
        design = weather_design()
        records = [
            # above the salting threshold: salt, freezing scores 0
            record(1, "CI", "sigma=5", "freezing", "probability", 0.2),
            # below: no-salt, not freezing scores 0
            record(2, "CI", "sigma=2", "not-freezing", "probability", 0.05),
            # below but freezing: no-salt scores -100
            record(3, "CI", "sigma=3", "freezing", "probability", 0.05),
        ]
        joint = ingest(records, design)
        assert behavioral_score(joint, design) == pytest.approx(-100.0 / 3.0)


class TestCalibrate:
    def test_rational_channel_calibrates_to_itself(self):
        design = weather_design()
        joint = exact_joint(design, rational_channel_masses())
        result = calibrate(joint, design)
        assert result.calibrated_score == pytest.approx(-5.689, abs=1e-9)
        assert result.policy == {"no-salt": "no-salt", "salt": "salt"}

    def test_prior_channel_calibrates_to_baseline(self):
        design = weather_design()
        joint = exact_joint(design, prior_channel_masses())
        result = calibrate(joint, design)
        assert result.calibrated_score == pytest.approx(-7.96, abs=1e-9)

    def test_state_independent_behavior_calibrates_to_baseline(self):
        design = weather_design()
        joint = exact_joint(design, random_channel_masses())
        result = calibrate(joint, design)
        assert result.calibrated_score == pytest.approx(-7.96, abs=1e-9)

    def test_calibration_never_hurts(self):
        rng = np.random.default_rng(23)
        design = weather_design()
        for _ in range(100):
            masses = rng.random((2, 2)) + 1e-3
            masses /= masses.sum()
            joint = exact_joint(design, masses)
            b = behavioral_score(joint, design)
            c = calibrate(joint, design).calibrated_score
            assert c >= b - 1e-12

    def test_smoothing_pulls_tiny_samples_toward_uniform(self):
        design = weather_design()
        joint = exact_joint(design, np.array([[0.0, 1.0], [0.0, 0.0]]), scale=1.0)
        plain = calibrate(joint, design).calibrated_score
        smoothed = calibrate(joint, design, smoothing_alpha=1.0).calibrated_score
        assert plain == pytest.approx(0.0)  # conditional is certain freezing
        assert smoothed < plain  # smoothing admits doubt


class TestLossPieces:
    def test_behavioral_value_of_information(self):
        assert behavioral_value_of_information(-6.5, -7.96) == pytest.approx(1.46)
        assert behavioral_value_of_information(-9.0, -7.96) == 0.0
        assert behavioral_value_of_information(-7.96, -7.96) == 0.0

    def test_loss_ratios(self):
        assert belief_loss(-5.689, -5.689, 2.271) == pytest.approx(0.0)
        assert belief_loss(-5.689, -7.96, 2.271) == pytest.approx(1.0)
        assert optimization_loss(-7.0, -7.5, 2.271) == pytest.approx(0.5 / 2.271)

    def test_zero_delta_refused(self):
        with pytest.raises(InvalidModelError):
            belief_loss(1.0, 1.0, 0.0)
        with pytest.raises(InvalidModelError):
            optimization_loss(1.0, 1.0, 0.0)


class TestLossReports:
    def test_rational_records_have_no_losses(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=2", "not-freezing", response="no-salt"),
            record(2, "CI", "sigma=3", "not-freezing", response="no-salt"),
            record(3, "CI", "sigma=4", "not-freezing", response="salt"),
            record(4, "CI", "sigma=5", "freezing", response="salt"),
        ]
        # not a statistical test: these four records happen to produce
        # conditionals on the rational side of the threshold
        report = loss_report(design, "CI", records)
        assert report.optimization_loss == pytest.approx(0.0, abs=1e-12)

    def test_loss_identity(self):
        # belief + optimization + realized shares sum to one when B >= base
        design = ExperimentDesign(
            states=weather_design().states,
            actions=weather_design().actions,
            rule=weather_design().rule,
            strategies={"CI": weather_design().strategies["CI"]},
        )
        rng = np.random.default_rng(4)
        rep = rational_report(design)
        for _ in range(50):
            masses = rng.random((2, 2)) + 1e-3
            masses /= masses.sum()
            joint = exact_joint(design, masses)
            b = behavioral_score(joint, design)
            if b < rep.baseline:
                continue
            c = calibrate(joint, design).calibrated_score
            total = (
                belief_loss(rep.benchmark, c, rep.value_of_information)
                + optimization_loss(c, b, rep.value_of_information)
                + (b - rep.baseline) / rep.value_of_information
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_warning_when_behavior_below_baseline(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=2", "not-freezing", response="salt"),
            record(2, "CI", "sigma=3", "not-freezing", response="salt"),
        ]
        report = loss_report(design, "CI", records)
        assert any("baseline" in w for w in report.warnings)

    def test_pooling_weights_by_trial_count(self):
        a = LossReport("s1", 30.0, -6.0, -5.8, 1.0, 0.1, 0.05)
        b = LossReport("s2", 10.0, -7.0, -6.6, 0.5, 0.3, 0.15)
        pooled = pooled_loss_report([a, b])
        assert pooled.n_trials == 40.0
        assert pooled.behavioral == pytest.approx(0.75 * -6.0 + 0.25 * -7.0)
        assert pooled.belief_loss == pytest.approx(0.75 * 0.1 + 0.25 * 0.3)


class TestDecisionsFromBeliefs:
    def kale_design(self):
        structure = kale_joint(TwoTeamDGM())
        return ExperimentDesign(
            states=StateSpace(ids=TWO_TEAM_STATE_IDS),
            actions=ActionSpace.finite(("no-hire", "hire")),
            rule=MatrixRule(np.array([
                [0.0, 0.0, 3.17, 3.17],
                [-1.0, 2.17, -1.0, 2.17],
            ])),
            strategies={"QDP": structure},
            report_map=two_team_report_map(),
        )

    def test_high_report_hires(self):
        design = self.kale_design()
        signal = design.strategies["QDP"].signals[0]
        records = [TrialRecord("1", "QDP", signal, "win-win", "probability", 0.95)]
        out = decisions_from_beliefs(records, design)
        assert out[0].response == "hire"
        assert out[0].response_kind == "action"

    def test_low_report_does_not_hire(self):
        design = self.kale_design()
        signal = design.strategies["QDP"].signals[0]
        records = [
            TrialRecord("1", "QDP", signal, "win-win", "probability", 0.55),
            TrialRecord("2", "QDP", signal, "win-lose", "probability", 0.5),
        ]
        out = decisions_from_beliefs(records, design)
        assert [r.response for r in out] == ["no-hire", "no-hire"]

    def test_action_records_rejected(self):
        design = self.kale_design()
        signal = design.strategies["QDP"].signals[0]
        records = [TrialRecord("1", "QDP", signal, "win-win", "action", "hire")]
        with pytest.raises(TrialDataError):
            decisions_from_beliefs(records, design)

    def test_scoring_beliefs_matches_scoring_mapped_decisions(self):
        # on reports that sit exactly on bin midpoints, scoring the binned
        # reports and scoring their mapped decisions agree exactly (off the
        # midpoints the binned path carries the usual discretization error)
        design = self.kale_design()
        structure = design.strategies["QDP"]
        rng = np.random.default_rng(9)
        records = []
        for i in range(300):
            v = rng.integers(len(structure.signals))
            cond = structure.joint[v] / structure.joint[v].sum()
            state = rng.choice(TWO_TEAM_STATE_IDS, p=cond)
            raw = float(np.clip(rng.normal(0.75, 0.12), 0.01, 0.99))
            midpoint = (int(raw / 0.02) + 0.5) * 0.02
            records.append(TrialRecord(str(i), "QDP", structure.signals[v],
                                       str(state), "probability", midpoint))
        as_reports = behavioral_score(ingest(records, design), design)
        as_decisions = behavioral_score(
            ingest(decisions_from_beliefs(records, design), design), design
        )
        assert as_reports == pytest.approx(as_decisions, abs=1e-9)


class TestBinningConsistency:
    def test_finer_bins_never_lose_much(self):
        # noisy belief reports on the forecast task: shrinking the bin width
        # cannot decrease the calibrated score beyond discretization noise
        design = weather_design()
        structure = design.strategies["CI"]
        posteriors = {
            "sigma=2": 0.0062, "sigma=3": 0.0478,
            "sigma=4": 0.1056, "sigma=5": 0.1588,
        }
        rng = np.random.default_rng(77)
        flat = structure.joint.reshape(-1)
        records = []
        for i in range(20_000):
            cell = rng.choice(flat.size, p=flat / flat.sum())
            v, t = divmod(cell, 2)
            signal = structure.signals[v]
            q = posteriors[signal]
            noisy = 1.0 / (1.0 + np.exp(-(np.log(q / (1 - q)) + rng.normal(0, 0.6))))
            records.append(TrialRecord(str(i), "CI", signal,
                                       design.states.ids[t], "probability",
                                       float(noisy)))
        c_coarse = calibrate(ingest(records, design, bin_width=0.05),
                             design).calibrated_score
        c_fine = calibrate(ingest(records, design, bin_width=0.02),
                           design).calibrated_score
        c_finest = calibrate(ingest(records, design, bin_width=0.01),
                             design).calibrated_score
        tol = 0.05 * 2.271  # discretization slack, in score units
        assert c_fine >= c_coarse - tol
        assert c_finest >= c_fine - tol


def test_kale_belief_trials_at_a_partial_bin_width():
    # a bin width that does not divide 1 leaves a partial last bin, whose
    # midpoint must stay inside the pos-to-win map's open domain
    design = build_case("kale2020").design
    trials = simulate(design, "interval", AgentSpec.noisy_belief(0.5, "belief"),
                      2_000, seed=4)
    report = loss_report(design, "interval", trials, bin_width=0.3)
    assert report.n_trials == 2_000
    assert np.isfinite(report.belief_loss)
