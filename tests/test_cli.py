import hashlib
import json
import subprocess
import sys

import pytest

CLI = [sys.executable, "-m", "rabench.cli"]


def run(*args, expect=0):
    proc = subprocess.run([*CLI, *args], capture_output=True, text=True)
    assert proc.returncode == expect, proc.stderr or proc.stdout
    return proc


class TestPre:
    def test_weather_table_contains_published_values(self):
        proc = run("pre", "--case", "weather")
        assert "-7.9600" in proc.stdout
        assert "-5.6890" in proc.stdout
        assert "2.2710" in proc.stdout

    def test_weather_json_summary(self, tmp_path):
        out = tmp_path / "pre.json"
        run("pre", "--case", "weather", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["baseline"] == pytest.approx(-7.96)
        assert payload["benchmark"] == pytest.approx(-5.689)
        assert payload["value_of_information"] == pytest.approx(2.271)
        assert payload["strategies"]["mean"]["information_loss"] == pytest.approx(1.0)
        assert payload["incentives"]["benchmark"]["incentive_ratio"] == \
            pytest.approx(0.0247, abs=5e-4)
        assert payload["pinned"]["baseline"]["provenance"] == "published"

    def test_kale_summary(self, tmp_path):
        out = tmp_path / "kale.json"
        run("pre", "--case", "kale2020", "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["value_of_information"] == pytest.approx(0.200, abs=1e-9)

    def test_fernandes_emits_all_table_analogues(self, tmp_path):
        out = tmp_path / "fern.json"
        run("pre", "--case", "fernandes2018", "--scenario", "1",
            "--out", str(out))
        payload = json.loads(out.read_text())
        strategies = payload["strategies"]
        assert {"full", "text60", "text85", "text99"} <= set(strategies)
        base = payload["baseline"]
        full = strategies["full"]["visualization_optimal"]
        for name, s in strategies.items():
            assert base <= s["visualization_optimal"] + 1e-9
            assert s["visualization_optimal"] <= full + 1e-9

    def test_malformed_config_exits_2(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "states": {"ids": ["a", "b"]},
            "actions": {"kind": "finite", "ids": ["x"]},
            "rule": {"kind": "matrix", "scores": [[0.0, 0.0]]},
            "strategies": {"s": {"signals": ["v"], "joint": [[0.5, 0.4]]}},
        }), encoding="utf-8")
        proc = run("pre", "--config", str(cfg), expect=2)
        assert "mass" in proc.stderr

    def test_grid_step_changes_transit_resolution(self, tmp_path):
        coarse = tmp_path / "coarse.json"
        fine = tmp_path / "fine.json"
        run("pre", "--case", "fernandes2018", "--scenario", "2",
            "--grid-step", "0.5", "--out", str(coarse))
        run("pre", "--case", "fernandes2018", "--scenario", "2",
            "--grid-step", "0.25", "--out", str(fine))
        a = json.loads(coarse.read_text())
        b = json.loads(fine.read_text())
        # resolution nudges the value slightly and changes the grid size
        assert a["strategies"]["full"]["visualization_optimal"] == pytest.approx(
            b["strategies"]["full"]["visualization_optimal"], rel=5e-3
        )
        assert len(a["prior"]) != len(b["prior"])

    def test_config_source_works(self, tmp_path):
        cfg = tmp_path / "weather.json"
        run("export", "--case", "weather", "--out", str(cfg))
        out = tmp_path / "pre.json"
        run("pre", "--config", str(cfg), "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["baseline"] == pytest.approx(-7.96)

    def test_custom_trial_distribution_file(self, tmp_path):
        dists = tmp_path / "dists.csv"
        dists.write_text(
            "trial_id,mu,sigma,nu,tau\n"
            "a,18.0,0.08,0.5,10.0\n"
            "b,24.0,0.06,1.0,15.0\n",
            encoding="utf-8",
        )
        out = tmp_path / "pre.json"
        run("pre", "--case", "fernandes2018", "--scenario", "1",
            "--trial-dists", str(dists), "--out", str(out))
        payload = json.loads(out.read_text())
        assert len(payload["strategies"]["full"]["posteriors"]) == 2

    def test_baseline_ratio_reported(self, tmp_path):
        out = tmp_path / "pre.json"
        run("pre", "--case", "fernandes2018", "--scenario", "2",
            "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["baseline_ratio"] == pytest.approx(
            payload["baseline"] / payload["benchmark"]
        )


class TestSimulateAndPost:
    def test_rational_pipeline_recovers_the_optimal(self, tmp_path):
        trials = tmp_path / "trials.csv"
        run("simulate", "--case", "weather", "--agent", "rational",
            "--strategy", "CI", "--n", "100000", "--seed", "7",
            "--out", str(trials))
        out = tmp_path / "post.json"
        run("post", "--case", "weather", "--trials", str(trials),
            "--out", str(out))
        payload = json.loads(out.read_text())
        ci = payload["strategies"]["CI"]
        assert ci["behavioral"] == pytest.approx(-5.689, abs=0.12)
        assert abs(ci["belief_loss"]) <= 0.05
        assert abs(ci["optimization_loss"]) <= 0.05

    def test_prior_agent_shows_full_belief_loss(self, tmp_path):
        trials = tmp_path / "trials.csv"
        run("simulate", "--case", "weather", "--agent", "prior",
            "--strategy", "CI", "--n", "100000", "--seed", "11",
            "--out", str(trials))
        out = tmp_path / "post.json"
        run("post", "--case", "weather", "--trials", str(trials),
            "--out", str(out))
        payload = json.loads(out.read_text())
        ci = payload["strategies"]["CI"]
        assert ci["belief_loss"] == pytest.approx(1.0, abs=0.05)
        assert ci["optimization_loss"] == pytest.approx(0.0, abs=0.05)

    def test_same_seed_gives_byte_identical_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            run("simulate", "--case", "weather", "--agent", "noisy:k=0.8",
                "--n", "2000", "--seed", "5", "--out", str(path))
        assert a.read_bytes() == b.read_bytes()

    @pytest.mark.parametrize("args, sha256", [
        (["--case", "weather", "--agent", "noisy:k=0.8", "--seed", "5"],
         "dadf77bb4dbc468d477119024c889fce9a04129fc2a54cdd19c6a85b86088172"),
        (["--case", "kale2020", "--agent", "noisy:k=0.5", "--task", "belief"],
         "6e49bc0fae0ac397a6f7b2cd5dbca638eff58731bfd493b0e5ee943539677ac7"),
        (["--case", "fernandes2018", "--agent", "rational"],
         "10eeb81e51fa941d1736824b92988a8726030effb578b0464a6c066bfd8c805c"),
    ])
    def test_simulated_csv_bytes_are_pinned(self, tmp_path, args, sha256):
        out = tmp_path / "trials.csv"
        run("simulate", *args, "--n", "2000", "--out", str(out))
        assert hashlib.sha256(out.read_bytes()).hexdigest() == sha256

    def test_zero_noise_equals_rational_csv(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run("simulate", "--case", "weather", "--agent", "noisy:k=0",
            "--n", "2000", "--seed", "5", "--out", str(a))
        run("simulate", "--case", "weather", "--agent", "rational",
            "--n", "2000", "--seed", "5", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_post_json_is_deterministic(self, tmp_path):
        trials = tmp_path / "trials.csv"
        run("simulate", "--case", "weather", "--agent", "noisy:k=0.5",
            "--strategy", "CI", "--n", "5000", "--seed", "3",
            "--out", str(trials))
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("post", "--case", "weather", "--trials", str(trials), "--out", str(a))
        run("post", "--case", "weather", "--trials", str(trials), "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_pre_json_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        run("pre", "--case", "kale2020", "--out", str(a))
        run("pre", "--case", "kale2020", "--out", str(b))
        assert a.read_bytes() == b.read_bytes()

    def test_empty_trials_exits_2(self, tmp_path):
        trials = tmp_path / "empty.csv"
        trials.write_text("trial_id,strategy,signal,state,response_kind,response\n",
                          encoding="utf-8")
        run("post", "--case", "weather", "--trials", str(trials), expect=2)

    def test_unknown_signal_exits_2_and_names_rows(self, tmp_path):
        trials = tmp_path / "bad.csv"
        trials.write_text(
            "trial_id,strategy,signal,state,response_kind,response\n"
            "7,CI,sigma=9,freezing,action,salt\n",
            encoding="utf-8",
        )
        proc = run("post", "--case", "weather", "--trials", str(trials), expect=2)
        assert "7" in proc.stderr

    def test_bad_agent_spec_exits_2(self, tmp_path):
        run("simulate", "--case", "weather", "--agent", "telepath",
            "--out", str(tmp_path / "x.csv"), expect=2)

    def test_grid_step_reaches_simulate_and_post(self, tmp_path):
        trials = tmp_path / "trials.csv"
        run("simulate", "--case", "fernandes2018", "--grid-step", "0.5",
            "--agent", "rational", "--n", "2000", "--seed", "4",
            "--out", str(trials))
        states = {line.split(",")[3] for line in
                  trials.read_text(encoding="utf-8").splitlines()[1:]}
        assert states and all(float(s) * 2 == int(float(s) * 2) for s in states)
        coarse_pre, fine_pre = tmp_path / "coarse.json", tmp_path / "fine.json"
        run("pre", "--case", "fernandes2018", "--grid-step", "0.5",
            "--out", str(coarse_pre))
        run("pre", "--case", "fernandes2018", "--out", str(fine_pre))
        out = tmp_path / "post.json"
        run("post", "--case", "fernandes2018", "--grid-step", "0.5",
            "--trials", str(trials), "--out", str(out))
        post = json.loads(out.read_text())
        coarse = json.loads(coarse_pre.read_text())
        fine = json.loads(fine_pre.read_text())
        # post analyses the design on the half-minute grid it was asked for
        assert post["baseline"] == coarse["baseline"] != fine["baseline"]
        assert post["benchmark"] == coarse["benchmark"]
        assert post["strategies"]["full"]["n_trials"] == 2000

    def test_belief_task_simulation(self, tmp_path):
        trials = tmp_path / "beliefs.csv"
        run("simulate", "--case", "weather", "--agent", "noisy:k=0.5",
            "--task", "belief", "--strategy", "CI", "--n", "5000",
            "--seed", "2", "--out", str(trials))
        out = tmp_path / "post.json"
        run("post", "--case", "weather", "--trials", str(trials),
            "--out", str(out))
        payload = json.loads(out.read_text())
        assert "CI" in payload["strategies"]
