import hashlib
import json
import os
import subprocess
import sys
from dataclasses import replace
from functools import cached_property
from pathlib import Path

import numpy as np
import pytest

from rabench.cases import build_case
from rabench.cli import main
from rabench.config_io import save_design_config
from rabench.model import InformationStructure
from rabench.payment import AffineConversion
from rabench.rational import rational_report

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

    def test_zero_baseline_payment_writes_a_null_ratio(self, tmp_path, capsys):
        design = build_case("weather").design
        rule = AffineConversion(base=-rational_report(design).baseline, rate=1.0)
        cfg, out = tmp_path / "weather.json", tmp_path / "pre.json"
        save_design_config(replace(design, conversion=rule), cfg)
        assert main(["pre", "--config", str(cfg), "--out", str(out)]) == 0
        incentives = json.loads(out.read_text())["incentives"]
        assert set(incentives) == {"mean", "CI", "gradient", "HOPs", "benchmark"}
        assert {row["incentive_ratio"] for row in incentives.values()} == {None}
        rows = capsys.readouterr().out.splitlines()[-5:]
        assert [row.split()[-1] for row in rows] == ["n/a"] * 5

    def test_baseline_ratio_reported(self, tmp_path):
        out = tmp_path / "pre.json"
        run("pre", "--case", "fernandes2018", "--scenario", "2",
            "--out", str(out))
        payload = json.loads(out.read_text())
        assert payload["baseline_ratio"] == pytest.approx(
            payload["baseline"] / payload["benchmark"]
        )


def sha256_of(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestPreJsonBytes:
    """``pre --out`` bytes, pinned: every posterior row, optimum and payment
    stays the same to the bit."""

    @pytest.mark.parametrize("args, sha256", [
        (["--case", "weather"],
         "9376fc9b9039ffe30c021acdf1b8409909fda5d867322c8a350c847464fd09dc"),
        (["--case", "kale2020"],
         "51524d2d1bf66987e777ed819c58b3e48ed16c9ff9122eb8c09923a46b51caa1"),
        (["--case", "fernandes2018", "--scenario", "1"],
         "3b7be7ad1a5061a03c21d10d6024c3579dd7a465620626cbb0f2efeed78ca2d3"),
        (["--case", "fernandes2018", "--scenario", "2"],
         "1b44e36889cba6b8eb87d2a111edf3bb51ed290a4cd18b755f6a617f444d441a"),
        (["--case", "fernandes2018", "--scenario", "3"],
         "25cdd1d53c0275aba0342e998328d3890207f8b8be345a1df9577a0aacab1058"),
        (["--case", "fernandes2018", "--scenario", "2", "--grid-step", "0.5"],
         "95f232f143fb7bd0d7341d9ceda3a6326de29be59a94da8c0e08b529d1e1f541"),
    ])
    def test_builtin_cases(self, tmp_path, capsys, args, sha256):
        out = tmp_path / "pre.json"
        assert main(["pre", *args, "--out", str(out)]) == 0
        assert sha256_of(out) == sha256

    @pytest.mark.parametrize("args, sha256", [
        ([], "e0fce42522cd4acacd95e64fe7ab7e386ea54a07a49ac156f734261b3639ec62"),
        (["--grid-step", "0.5"],
         "14f37db49a4bcfa3c18ac45699fd5923af12b3efb3df1b40298987e48aaed5f4"),
    ])
    def test_generated_1000_trials(self, tmp_path, capsys, transit_dists_1000,
                                   args, sha256):
        assert sha256_of(transit_dists_1000) == \
            "2fccc2a7c3c354e52b28f13aae17d88fa1ec6b9fea1ed2740be628d908330f21"
        out = tmp_path / "pre.json"
        assert main(["pre", "--case", "fernandes2018", "--scenario", "2",
                     "--trial-dists", str(transit_dists_1000), *args,
                     "--out", str(out)]) == 0
        assert sha256_of(out) == sha256


#: ``simulate`` arguments of the 2000-trial files that the ``post --out``
#: pins read, by name.
POST_INPUTS = {
    "weather": ["--case", "weather", "--agent", "noisy:k=0.8", "--seed", "5"],
    "weather-CI": ["--case", "weather", "--strategy", "CI", "--agent", "noisy:k=0.8",
                   "--seed", "5"],
    "kale2020": ["--case", "kale2020", "--agent", "noisy:k=0.5", "--task", "belief"],
    "fernandes2018": ["--case", "fernandes2018", "--agent", "rational"],
}


class TestPostJsonBytes:
    """``post --out`` bytes, pinned: every score, loss ratio and warning of
    the decomposition stays the same to the bit."""

    @pytest.fixture(scope="class")
    def trial_files(self, tmp_path_factory) -> dict[str, Path]:
        """Each ``POST_INPUTS`` file, and "two-strategy": the weather file
        followed by the rows of the weather-CI file."""
        folder = tmp_path_factory.mktemp("post-inputs")
        files = {}
        for name, args in POST_INPUTS.items():
            files[name] = folder / f"{name}.csv"
            assert main(["simulate", *args, "--n", "2000",
                         "--out", str(files[name])]) == 0
        files["two-strategy"] = folder / "two-strategy.csv"
        ci_rows = files["weather-CI"].read_bytes().split(b"\n", 1)[1]
        files["two-strategy"].write_bytes(files["weather"].read_bytes() + ci_rows)
        return files

    @pytest.mark.parametrize("name, design, options, sha256", [
        ("weather", "weather", [],
         "c4927ec83b4b959a928f161bf9fef0caed81f8737552e084ddefcf39df0b0de5"),
        ("weather", "weather", ["--smoothing-alpha", "0.5"],
         "f2719a8221f4799479954d1ea801d2b4cf579032b9268dc492a2665a3a4696d8"),
        ("two-strategy", "weather", [],
         "c402b90f9434e03e67c9e90b2b8ea010cb8fe92db69255431c673e66a766e7a2"),
        ("kale2020", "kale2020", [],
         "a94c84f4ecb8246a4d652924c0234b6101ba365ce1f9720506ec9de167fc8241"),
        ("kale2020", "kale2020", ["--bin-width", "0.05"],
         "28b3205c861786c30c65fafe56098edac03474f674d247b0294daa328692f60e"),
        ("fernandes2018", "fernandes2018", [],
         "e7a15a8192a65ae46addcd461be7b82a3661f2a84ced91ef5588122d4fb2ac05"),
    ])
    def test_simulated_files(self, tmp_path, capsys, trial_files, name, design,
                             options, sha256):
        out = tmp_path / "post.json"
        assert main(["post", "--case", design, "--trials", str(trial_files[name]),
                     *options, "--out", str(out)]) == 0
        assert sha256_of(out) == sha256


@pytest.mark.parametrize("threads", ["1", "2"])
def test_outputs_do_not_depend_on_blas_threads(tmp_path, transit_dists_1000, threads):
    """Fresh processes under one and two OpenBLAS threads write the pinned
    transit-1000 ``pre`` and fernandes2018 ``post`` bytes."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("OMP_NUM_THREADS", "GOTO_NUM_THREADS")}
    env["OPENBLAS_NUM_THREADS"] = threads
    pre, trials, post = (tmp_path / name for name in ("pre.json", "trials.csv",
                                                      "post.json"))
    for args in (["pre", "--case", "fernandes2018", "--scenario", "2",
                  "--trial-dists", str(transit_dists_1000), "--out", str(pre)],
                 ["simulate", *POST_INPUTS["fernandes2018"], "--n", "2000",
                  "--out", str(trials)],
                 ["post", "--case", "fernandes2018", "--trials", str(trials),
                  "--out", str(post)]):
        proc = subprocess.run([*CLI, *args], env=env, capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
    # the pins of test_generated_1000_trials and test_simulated_files
    assert sha256_of(pre) == \
        "e0fce42522cd4acacd95e64fe7ab7e386ea54a07a49ac156f734261b3639ec62"
    assert sha256_of(post) == \
        "e7a15a8192a65ae46addcd461be7b82a3661f2a84ced91ef5588122d4fb2ac05"


#: Ids the JSON encoder has to escape, or writes as they are.
AWKWARD_IDS = ('quote"d', "back\\slash", "é日本", "\x01\n\t\x7f", "", " ", "z", "\u2028")


class TestPosteriorWriter:
    """The ``pre --out`` posterior rows, written by joins, are the bytes
    ``json.dumps(indent=2, sort_keys=True)`` gives."""

    def test_awkward_ids_and_floats(self, tmp_path):
        from rabench.cli import _posteriors_key, _write_json
        from rabench.model import Belief
        from rabench.rational import RationalReport, StrategySummary

        rng = np.random.default_rng(8)
        strategies, plain = {}, {}
        for name in ("CI", 'na"me\\é', "\x00"):
            rows = rng.uniform(size=(len(AWKWARD_IDS), 5)) ** rng.integers(1, 80, size=5)
            rows[0] = [0.0, 5e-324, 1e-300, 1.0, 0.1 + 0.2]
            ids = tuple(rng.permutation(AWKWARD_IDS))
            strategies[name] = StrategySummary(visualization_optimal=1.5,
                                               information_loss=None,
                                               signals=ids, posteriors=rows)
            plain[name] = {v: row for v, row in zip(ids, rows.tolist())}
        report = RationalReport(baseline=0.0, benchmark=1.5, value_of_information=1.5,
                                prior=Belief(np.ones(5) / 5), strategies=strategies)

        def payload(posteriors):
            return {"design": "\x00posteriors of CI", "strategies": {
                name: {"information_loss": None, "posteriors": posteriors(name),
                       "visualization_optimal": 1.5} for name in strategies}}

        out = tmp_path / "pre.json"
        _write_json(payload(_posteriors_key), out, report)
        assert out.read_text(encoding="utf-8") == \
            json.dumps(payload(plain.get), indent=2, sort_keys=True) + "\n"

    def test_pre_json_round_trips(self, tmp_path, capsys):
        joint = np.full((len(AWKWARD_IDS), 3), 1.0 / (3 * len(AWKWARD_IDS)))
        joint[:, 0] *= np.linspace(0.5, 1.5, len(AWKWARD_IDS))
        joint /= joint.sum()
        cfg = tmp_path / "awkward.json"
        cfg.write_text(json.dumps({
            "schema_version": 1,
            "states": {"ids": ["a", "b", "c"]},
            "actions": {"kind": "finite", "ids": ["x", "y"]},
            "rule": {"kind": "matrix", "scores": [[1.0, 0.0, 2.0], [0.0, 1.5, 0.5]]},
            "strategies": {"s\"1": {"signals": list(AWKWARD_IDS), "joint": joint.tolist()}},
        }), encoding="utf-8")
        out = tmp_path / "pre.json"
        assert main(["pre", "--config", str(cfg), "--out", str(out)]) == 0
        text = out.read_text(encoding="utf-8")
        assert json.dumps(json.loads(text), indent=2, sort_keys=True) + "\n" == text
        assert set(json.loads(text)["strategies"]['s"1']["posteriors"]) == set(AWKWARD_IDS)


def repr_join_rows(matrix: np.ndarray, sep: bytes) -> list[bytes]:
    """The reference ``repr_rows`` must match: each row's ``float.__repr__``
    texts joined by ``sep``."""
    return [sep.decode().join(map(float.__repr__, row)).encode() for row in matrix.tolist()]


def kernel_rows(matrix: np.ndarray, sep: bytes) -> list[bytes]:
    from rabench.floattext import repr_rows
    return [bytes(row) for row in repr_rows(matrix, sep)]


#: Values outside the kernel's domain, [2**-1022, 1), and its two ends.
EDGE_VALUES = [0.0, -0.0, 5e-324, 1e-310, np.nextafter(2.0**-1022, 0), 2.0**-1022,
               np.nextafter(1.0, 0), 1.0, 2.0, 1e300, -0.5, np.inf, -np.inf, np.nan]


class TestReprRows:
    """``floattext.repr_rows``, which writes the ``pre --out`` posterior rows,
    gives the bytes of the ``float.__repr__`` join."""

    def test_oracle_sweep(self):
        from rabench.floattext import _LOW_BITS, _ONE_BITS
        rng = np.random.default_rng(20180618)
        random = rng.integers(_LOW_BITS, _ONE_BITS, size=1_000_000, dtype=np.uint64)
        # each count of trailing zero bits of the mantissa, on exponents near
        # 1, where the truncated digits can be exact, and on random ones
        odd = rng.integers(0, 2**51, size=(53, 120), dtype=np.uint64) * 2 + 1
        fraction = (odd << np.arange(53, dtype=np.uint64)[:, None]) & np.uint64(2**52 - 1)
        biased = np.concatenate([np.arange(963, 1023), rng.integers(1, 1023, size=60)])
        trailing = (biased.astype(np.uint64) << np.uint64(52)) | fraction
        powers_of_two = 2.0 ** -np.arange(1, 1023)
        powers_of_ten = np.array([float(f"1e-{k}") for k in range(301)])
        values = np.concatenate([
            random.view(np.float64), trailing.ravel().view(np.float64), powers_of_two,
            powers_of_ten, np.nextafter(powers_of_ten, 0), np.nextafter(powers_of_ten, 1),
            EDGE_VALUES])
        values = np.concatenate([values, np.zeros(-len(values) % 1000)]).reshape(-1, 1000)
        assert kernel_rows(values, b",") == repr_join_rows(values, b",")

    def test_chunk_edges(self):
        from rabench.floattext import CHUNK
        rng = np.random.default_rng(3)
        for n in (1, CHUNK - 1, CHUNK, CHUNK + 1):
            values = rng.uniform(size=n) ** rng.integers(1, 60, size=n)
            values[rng.integers(0, n, size=3)] = EDGE_VALUES[:3]
            for matrix in (values[:, None], values[None, :]):
                assert kernel_rows(matrix, b", ") == repr_join_rows(matrix, b", ")

    @pytest.mark.parametrize("shape", [(3, 0), (0, 0), (0, 3)])
    def test_matrices_with_no_rows_or_no_columns(self, shape):
        # a row of no values is sep.join([]), an empty row
        matrix = np.zeros(shape)
        assert kernel_rows(matrix, b", ") == repr_join_rows(matrix, b", ") == [b""] * shape[0]

    def test_only_zeros_take_the_fallback_on_the_workload(self, tmp_path, capsys,
                                                          monkeypatch, transit_dists_1000):
        from rabench import floattext
        outside = []
        repr_text = floattext._repr_text

        def recording_repr_text(value):
            outside.append(value)
            return repr_text(value)

        monkeypatch.setattr(floattext, "_repr_text", recording_repr_text)
        assert main(["pre", "--case", "fernandes2018", "--scenario", "2",
                     "--trial-dists", str(transit_dists_1000),
                     "--out", str(tmp_path / "pre.json")]) == 0
        assert outside and {np.float64(v).view(np.uint64) for v in outside} == {0}


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
        (["--case", "fernandes2018", "--agent", "rational", "--scenario", "1"],
         "a80a9fb4ecbdd2e98576a02f84dd2908f9567afe3ea122c202fd77e1be0888b3"),
        (["--case", "fernandes2018", "--agent", "rational", "--scenario", "3"],
         "1805ade78bd6dddbd482d51ceb00262a74b78a5bd4db7421e9f6ec75b6f2ab00"),
        (["--case", "fernandes2018", "--agent", "rational", "--grid-step", "0.5"],
         "b98388ea68e0a5fb221b3733087e684593ab0d0fb4c5621fbc75cf59155625ef"),
        (["--case", "fernandes2018", "--agent", "noisy:k=0.6", "--seed", "3"],
         "3f95e3284d64f4664647c7a9982bdd3e413528e8bdaaee6d1b3a49362c6db3db"),
        (["--case", "fernandes2018", "--agent", "rational", "--balanced",
          "--seed", "2"],
         "3922638b76f695664ee1b1702a1f8779966cf3ec6d936344cfe1ab346dd72c8b"),
        (["--case", "kale2020", "--agent", "rational", "--task", "belief"],
         "5f29c98691e5c6f4af3a12a6ed3b692212ff3f0c972ea81467bc2993aeed1985"),
        (["--case", "kale2020", "--agent", "prior", "--task", "belief"],
         "7446d8e13b587a6a0e1ba48f9629dfffd16bd32db918b335981d4442c18f16a8"),
        (["--case", "weather", "--strategy", "CI", "--agent", "rational",
          "--task", "belief"],
         "83a8c0a52883e25a6e7924f1b333da7eb0551c6430c3dae1077f8b92c2867cc4"),
        (["--case", "weather", "--strategy", "CI", "--agent", "noisy:k=0.8",
          "--task", "belief"],
         "2447615cf6157ace7d189cf9331692b2e306fc61d31942ff980481d06fa30604"),
        (["--case", "weather", "--strategy", "CI", "--agent", "prior",
          "--task", "belief"],
         "2aafb9c34e411c9fb75bdf6e151c47a5a3d30d9f965a97dd4250c2c22a31063b"),
        (["--case", "weather", "--strategy", "CI", "--agent", "prior"],
         "0eba9abd9a648247a97b42be62c9dd394757fc41fe416a01b2b4406c473661ee"),
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

    def test_zero_value_of_information_writes_null_losses(self, tmp_path, capsys):
        # the mean strategy alone: its one signal tells nothing of the state
        design = build_case("weather").design
        cfg, trials, out = (tmp_path / name for name in ("mean.json", "trials.csv",
                                                         "post.json"))
        save_design_config(replace(design, strategies={"mean": design.strategies["mean"]}),
                           cfg)
        assert main(["simulate", "--config", str(cfg), "--agent", "rational",
                     "--n", "100", "--out", str(trials)]) == 0
        capsys.readouterr()
        assert main(["post", "--config", str(cfg), "--trials", str(trials),
                     "--out", str(out)]) == 0
        mean = json.loads(out.read_text())["strategies"]["mean"]
        assert mean["n_trials"] == 100.0
        assert mean["belief_loss"] is None and mean["optimization_loss"] is None
        row = capsys.readouterr().out.splitlines()[2]
        assert row.split()[0] == "mean" and row.split()[-2:] == ["n/a", "n/a"]

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


#: A well-formed two-state config; each config case below replaces one section.
SMALL_CONFIG = {
    "schema_version": 1,
    "states": {"ids": ["a", "b"]},
    "actions": {"kind": "finite", "ids": ["x", "y"]},
    "rule": {"kind": "matrix", "scores": [[0.0, 1.0], [1.0, 0.0]]},
    "strategies": {"s": {"signals": ["v", "w"], "joint": [[0.4, 0.1], [0.1, 0.4]]}},
}

TRIALS = ["post", "--case", "weather", "--trials", "trials.csv"]

#: Options that only --case fernandes2018 takes, and the names the refusal
#: gives; the last gives each of them.
FERNANDES_ONLY = (
    (["--scenario", "7"], "--scenario"),
    (["--trial-dists", "/nonexistent.csv"], "--trial-dists"),
    (["--grid-step", "0.5"], "--grid-step"),
    (["--trial-dists", "/nonexistent.csv", "--scenario", "7", "--grid-step", "0.5"],
     "--scenario, --trial-dists, --grid-step"),
)


def _trial_dists(row: str) -> str:
    return f"trial_id,mu,sigma,nu,tau\na,20,0.1,1,5\n{row}\n"


@pytest.mark.parametrize("source, bad, message", [
    ("config", {}, None),
    ("dists", "b,20,0.1,1,inf", None),
    ("argv", TRIALS, None),
    *[("dists", row, "trial 'b': mu, sigma and nu must be finite") for row in (
        "b,inf,0.1,1,5", "b,nan,0.1,1,5", "b,20,inf,1,5",
        "b,20,nan,1,5", "b,20,0.1,inf,5", "b,20,0.1,nan,5")],
    ("dists", "b,20,0.1,1,nan", "trial 'b': mu, sigma, and tau must be positive"),
    ("config", {"strategies": {"s": {"signals": ["v", "w"],
                                     "joint": [[0.5], [0.25, 0.25]]}}},
     "strategy 's': "),
    ("config", {"strategies": {"s": {"signals": ["v"], "joint": [["x", 0.5]]}}},
     "strategy 's': "),
    ("config", {"rule": {"kind": "matrix", "scores": [[0, "one"], [1, 0]]}}, "rule: "),
    ("config", {"strategies": ["s"]}, "strategies: "),
    ("config", {"trials_per_experiment": 0}, "trials_per_experiment"),
    *[("config", {"initial_score": score}, "initial_score")
      for score in ("nan", "inf", True, float("nan"))],
    *[("config", {"actions": {"kind": "grid", "low": 0, "high": 1, **grid}},
       "actions: ") for grid in ({"low": 0.5}, {"high": 1.5}, {"step": 1.5},
                                 {"step": True})],
    *[("argv", ["simulate", "--case", "weather", "--agent", "rational", "--n", "10",
                "--seed", seed, "--out", "x.csv"], "--seed") for seed in ("-1", "1.5")],
    *[("argv", ["pre", "--case", "fernandes2018", "--grid-step", step], "--grid-step")
      for step in ("0", "-1", "nan", "inf")],
    *[("argv", ["simulate", "--case", "weather", "--agent", agent, "--out", "x.csv"],
       "--agent") for agent in ("noisy:k=abc", "lapse:rate=abc")],
    *[("argv", [*TRIALS, "--smoothing-alpha", alpha], "--smoothing-alpha")
      for alpha in ("-1", "nan", "inf")],
    ("argv", [*TRIALS, "--bin-width", "1e-300"], "bin width must lie in"),
    ("argv", [*TRIALS[:-1], "long.csv"], "line 2: field larger than field limit"),
    *[("argv", argv, message) for path, message in (("latin-1.txt", "not UTF-8"),
                                                     (".", "Is a directory"))
      for argv in (["post", "--case", "weather", "--trials", path],
                   ["pre", "--config", path],
                   ["pre", "--case", "fernandes2018", "--trial-dists", path])],
    ("config", {"strategies": {"benchmark": SMALL_CONFIG["strategies"]["s"]},
                "conversion": {"kind": "affine", "base": 1.0, "rate": 0.1}},
     "named 'benchmark'"),
    ("config", {"initial_score": 10**400}, "initial_score must be a finite number"),
    *[("config", {"conversion": {"kind": kind, "base": 1.0, "rate": 0.1, "floor": 0.0,
                                 key: value}},
       f"conversion: conversion {key} must be a finite number, not {shown}")
      for kind, keys in (("affine", ("base", "rate")),
                         ("floored-affine", ("base", "rate", "floor")))
      for key in keys
      for value, shown in (("1.0", "'1.0'"), (True, "True"), (float("nan"), "nan"),
                           (float("inf"), "inf"), (float("-inf"), "-inf"))],
    pytest.param("config", json.dumps(SMALL_CONFIG)[:-1] + ', "initial_score": 1'
                 + "0" * 5000 + "}", "cannot be read as JSON",
                 id="config-5001-digit-integer"),
    *[("argv", ["simulate", "--case", "weather", "--agent", agent, "--out", "x.csv"],
       f"takes no parameter {key!r}")
      for agent, key in (("noisy:sd=2", "sd"), ("rational:k=3", "k"),
                         ("lapse:rate=0.1,k=2", "k"), ("lapse:inner=prior:k=2", "k"))],
    ("argv", ["simulate", "--case", "weather", "--strategy", "nope", "--agent",
              "rational", "--out", "x.csv"], "unknown strategy 'nope'"),
    *[("config", {"trials_per_experiment": trials,
                  "conversion": {"kind": "affine", "base": 1.0, "rate": 0.1}},
       "trials_per_experiment must be at most 2**53") for trials in (2**53 + 1, 10**400)],
    ("config", {"report_map": "pos-to-win"},
     "report_map: dimension: map 'pos-to-win' gives 4 states but the space has 2"),
    ("argv", [*TRIALS[:-1], "actions.csv"], None),
    *[("argv", [*TRIALS[:-1], path, "--bin-width", width],
       f"bin width must lie in [1e-05, 1], not {float(width)!r}")
      for width in ("nan", "0", "-1", "2") for path in ("trials.csv", "actions.csv")],
    *[("argv", ["pre", *source, *options], f"only --case fernandes2018 takes {names}")
      for source in (["--case", "weather"], ["--case", "kale2020"],
                     ["--config", "design.json"])
      for options, names in FERNANDES_ONLY],
    *[("argv", [command, "--case", "weather", *FERNANDES_ONLY[-1][0], *tail],
       f"only --case fernandes2018 takes {FERNANDES_ONLY[-1][1]}")
      for command, tail in (("post", ["--trials", "trials.csv"]),
                            ("simulate", ["--agent", "rational", "--out", "x.csv"]),
                            ("export", ["--out", "x.json"]))],
])
def test_malformed_inputs_exit_2(tmp_path, capsys, monkeypatch, source, bad,
                                 message):
    """Each malformed input exits 2 with a message naming where it is, and
    prints nothing to stdout; the first cases are well formed and exit 0."""
    monkeypatch.chdir(tmp_path)
    header = "trial_id,strategy,signal,state,response_kind,response\n"
    Path("trials.csv").write_text(header + "0,CI,sigma=5,freezing,probability,0.5\n",
                                  encoding="utf-8")
    Path("actions.csv").write_text(header + "0,CI,sigma=5,freezing,action,salt\n",
                                   encoding="utf-8")
    Path("long.csv").write_text(header + f'"{"x" * 200_000}",CI,sigma=5,freezing,'
                                "action,salt\n", encoding="utf-8")
    Path("latin-1.txt").write_bytes("é,".encode("latin-1"))
    if source == "dists":
        Path("dists.csv").write_text(_trial_dists(bad), encoding="utf-8")
        argv = ["pre", "--case", "fernandes2018", "--trial-dists", "dists.csv"]
    elif source == "config":  # a str is the config's text, as is
        text = bad if isinstance(bad, str) else json.dumps({**SMALL_CONFIG, **bad})
        Path("design.json").write_text(text, encoding="utf-8")
        argv = ["pre", "--config", "design.json"]
    else:
        argv = bad
    try:
        code = main(argv)
    except SystemExit as exit:  # argparse refuses an option value
        code = exit.code
    out, err = capsys.readouterr()
    assert code == (0 if message is None else 2), err
    assert message is None or (message in err and out == "")


@pytest.fixture
def posterior_builds(monkeypatch):
    """The structures whose posterior matrix was built, one entry per build."""
    builds = []
    build = InformationStructure._posteriors.func

    def counted(structure):
        builds.append(structure)
        return build(structure)

    counting = cached_property(counted)
    counting.__set_name__(InformationStructure, "_posteriors")
    monkeypatch.setattr(InformationStructure, "_posteriors", counting)
    return builds


def test_each_command_builds_a_posterior_matrix_once_per_strategy(
        tmp_path, capsys, posterior_builds):
    """fernandes2018 has 4 strategies: ``pre`` and ``post`` analyse all of
    them and share each matrix between the rational report, the incentive
    table and the loss report; ``simulate`` needs the simulated one only."""
    trials = tmp_path / "trials.csv"
    assert main(["simulate", "--case", "fernandes2018", "--agent", "rational",
                 "--n", "200", "--seed", "1", "--out", str(trials)]) == 0
    assert len(posterior_builds) == 1
    posterior_builds.clear()
    assert main(["pre", "--case", "fernandes2018"]) == 0
    assert len(posterior_builds) == 4
    assert len(set(map(id, posterior_builds))) == 4
    posterior_builds.clear()
    assert main(["post", "--case", "fernandes2018", "--trials", str(trials)]) == 0
    assert len(posterior_builds) == 4
