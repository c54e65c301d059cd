"""Acceptance suite: one test per release criterion, each printing a
pass/fail verdict line. Run with ``pytest tests/test_acceptance.py -v -s``.

All tolerances are pinned here, not configured elsewhere.
"""

import json
import time

import numpy as np

from rabench.agents import AgentSpec, simulate
from rabench.behavioral import (
    EmpiricalJoint,
    behavioral_score,
    calibrate,
    ingest,
    loss_report,
)
from rabench.cases import build_fernandes, build_kale, \
    two_team_decision_threshold
from rabench.cli import main
from rabench.generative import (
    BoxCoxTDist,
    discretize,
    monte_carlo_score,
)
from rabench.model import (
    ActionSpace,
    ExperimentDesign,
    InformationStructure,
    StateSpace,
    TransitRule,
    optimal_action_indices,
    outcome_scores,
    score_table,
)
from rabench.payment import incentive_table
from rabench.rational import (
    prior,
    rational_report,
)

from conftest import (
    constant_actions,
    random_belief,
    random_matrix_problem,
    rational_actions,
)


def verdict(number: int, description: str, failures: list[str]) -> None:
    status = "PASS" if not failures else "FAIL"
    print(f"CRITERION {number} [{status}] {description}")
    assert not failures, f"criterion {number}: " + "; ".join(failures)


def check(failures: list[str], ok: bool, label: str) -> None:
    if not ok:
        failures.append(label)


# ---------------------------------------------------------------------------


def test_criterion_1_weather_exact_reproduction(tmp_path):
    failures: list[str] = []
    t0 = time.perf_counter()

    out = tmp_path / "weather.json"
    code = main(["pre", "--case", "weather", "--out", str(out)])
    elapsed = time.perf_counter() - t0
    check(failures, code == 0, f"exit code {code}")
    payload = json.loads(out.read_text())

    check(failures, abs(payload["baseline"] - (-7.96)) <= 0.005,
          f"baseline {payload['baseline']}")
    for strategy in ("CI", "gradient", "HOPs"):
        rv = payload["strategies"][strategy]["visualization_optimal"]
        check(failures, abs(rv - (-5.69)) <= 0.005, f"{strategy} optimal {rv}")
    rv_mean = payload["strategies"]["mean"]["visualization_optimal"]
    check(failures, abs(rv_mean - (-7.96)) <= 0.005, f"mean optimal {rv_mean}")
    check(failures, abs(payload["value_of_information"] - 2.27) <= 0.01,
          f"info value {payload['value_of_information']}")
    loss_mean = payload["strategies"]["mean"]["information_loss"]
    check(failures, abs(loss_mean - 1.0) <= 1e-9, f"mean loss {loss_mean}")

    row = payload["incentives"]["benchmark"]
    check(failures, abs(row["payment_baseline"] - 0.920) <= 0.001,
          f"pay(base) {row['payment_baseline']}")
    check(failures, abs(row["payment_optimal"] - 0.943) <= 0.001,
          f"pay(opt) {row['payment_optimal']}")
    check(failures, abs(row["incentive"] - 0.023) <= 0.001,
          f"incentive {row['incentive']}")
    check(failures, abs(row["incentive_ratio"] - 0.025) <= 0.001,
          f"ratio {row['incentive_ratio']}")
    check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s")
    verdict(1, "weather case reproduces the published analysis", failures)


def test_criterion_2_kale_pre_experimental(tmp_path):
    failures: list[str] = []
    t0 = time.perf_counter()

    case = build_kale()
    report = rational_report(case.design)
    table = incentive_table(case.design)
    elapsed = time.perf_counter() - t0

    win = float(report.prior.probabilities[1] + report.prior.probabilities[3])
    check(failures, abs(win - 0.805) <= 0.005, f"prior win {win}")
    threshold = two_team_decision_threshold(case.design.rule)
    check(failures, abs(threshold - 0.8155) <= 0.0005, f"threshold {threshold}")
    check(failures, 1.55 <= report.baseline <= 1.60,
          f"baseline {report.baseline}")
    for name, s in report.strategies.items():
        check(failures, abs(s.visualization_optimal - 1.77) <= 0.03,
              f"{name} optimal {s.visualization_optimal}")
    check(failures, abs(report.value_of_information - 0.20) <= 0.03,
          f"info value {report.value_of_information}")

    row = table.benchmark
    for label, got, want in (
        ("pay(base)", row.payment_baseline, 1.66),
        ("pay(opt)", row.payment_optimal, 2.17),
        ("incentive", row.incentive, 0.51),
        ("ratio", row.incentive_ratio, 0.3072),
    ):
        check(failures, abs(got - want) <= 0.05 * want,
              f"{label} {got} vs {want} (5% rel)")
    check(failures, elapsed < 1.0, f"runtime {elapsed:.2f}s")
    verdict(2, "two-team case matches the published pre-analysis", failures)


def transit_expected_score_oracle(rule: TransitRule, grid, masses, action):
    """Brute-force enumeration of the two-branch transit expectation."""
    mean = 0.0
    for m, theta in zip(masses, grid):
        mean += m * theta
    total = 0.0
    for m, theta in zip(masses, grid):
        if action <= theta:
            total += m * (rule.activity_rate * action
                          + rule.waiting_rate * (theta - action)
                          + rule.destination_rate * rule.max_destination_minutes)
        else:
            total += m * (rule.activity_rate * action
                          + rule.waiting_rate
                          * (mean + rule.second_bus_offset - action)
                          + rule.destination_rate
                          * (rule.max_destination_minutes - (mean - theta)))
    return total


def test_criterion_3_transit_pipeline(tmp_path):
    failures: list[str] = []
    t0 = time.perf_counter()

    # (a) expected-score operation vs brute-force oracle on random triples
    rng = np.random.default_rng(2024)
    scenarios = {1: (8.0, -14.0, 14.0, 90.0),
                 2: (14.0, -14.0, 14.0, 60.0),
                 3: (8.0, -17.0, 17.0, 120.0)}
    grid = np.arange(0.0, 30.0 + 1e-9, 0.25)
    states = StateSpace(ids=tuple(f"{g:g}" for g in grid), values=tuple(grid))
    actions = ActionSpace.integer_grid(0, 30)
    for _ in range(50):
        sc = int(rng.integers(1, 4))
        r0, rw, rd, T = scenarios[sc]
        rule = TransitRule(r0, rw, rd, T)
        dist = BoxCoxTDist(
            mu=float(rng.uniform(3, 26)), sigma=float(rng.uniform(0.05, 0.4)),
            nu=float(rng.uniform(-0.5, 1.5)), tau=float(rng.uniform(4, 40)),
        )
        masses = discretize(dist, grid).masses
        problem = ExperimentDesign(
            states, actions, rule,
            {"s": InformationStructure(("only",), masses[None, :])},
        )
        a = int(rng.integers(0, 31))
        got = score_table(problem, masses[None, :])[0, actions.index(str(a))]
        want = transit_expected_score_oracle(rule, grid, masses, float(a))
        rel = abs(got - want) / max(abs(want), 1e-12)
        check(failures, rel < 1e-6,
              f"oracle mismatch scenario {sc} action {a}: rel {rel:.2e}")

    # (b) full pre-analysis emits every table analogue with the ordering
    for sc in (1, 2, 3):
        out = tmp_path / f"fern{sc}.json"
        code = main(["pre", "--case", "fernandes2018", "--scenario", str(sc),
                     "--out", str(out)])
        check(failures, code == 0, f"scenario {sc} exit {code}")
        payload = json.loads(out.read_text())
        strategies = payload["strategies"]
        check(failures,
              {"full", "text60", "text85", "text99"} <= set(strategies),
              f"scenario {sc} strategy analogues missing")
        base = payload["baseline"]
        full = strategies["full"]["visualization_optimal"]
        for name, s in strategies.items():
            rv = s["visualization_optimal"]
            check(failures, base <= rv + 1e-9,
                  f"scenario {sc} {name}: baseline {base} > optimal {rv}")
            check(failures, rv <= full + 1e-9,
                  f"scenario {sc} {name}: optimal {rv} > full {full}")
            check(failures, s["information_loss"] is not None,
                  f"scenario {sc} {name}: missing loss analogue")
        check(failures, payload["incentives"] is not None,
              f"scenario {sc}: missing incentive analogue")

    # (c) conversion constants applied exactly
    for sc, d in ((1, 0.01698), (2, 0.08228), (3, 0.016076)):
        case = build_fernandes(scenario=sc)
        conv = case.design.conversion
        check(failures, conv.base == 1.25, f"scenario {sc} base {conv.base}")
        check(failures, conv.rate == d / 1000.0, f"scenario {sc} rate {conv.rate}")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 30.0, f"runtime {elapsed:.2f}s")
    verdict(3, "transit scoring matches its oracle and the pipeline emits "
               "ordered table analogues", failures)


def test_criterion_4_decomposition_recovery():
    from conftest import weather_design

    design = weather_design()
    failures: list[str] = []

    t0 = time.perf_counter()
    records = simulate(design, "CI", AgentSpec.rational(), 100_000, seed=0)
    report = loss_report(design, "CI", records)
    elapsed = time.perf_counter() - t0
    check(failures, abs(report.belief_loss) <= 0.02,
          f"rational belief loss {report.belief_loss:.4f}")
    check(failures, abs(report.optimization_loss) <= 0.02,
          f"rational optimization loss {report.optimization_loss:.4f}")
    check(failures, elapsed < 10.0, f"rational runtime {elapsed:.2f}s")

    t0 = time.perf_counter()
    records = simulate(design, "CI", AgentSpec.prior_only(), 100_000, seed=0)
    report = loss_report(design, "CI", records)
    elapsed = time.perf_counter() - t0
    check(failures, abs(report.belief_loss - 1.0) <= 0.02,
          f"prior belief loss {report.belief_loss:.4f}")
    check(failures, abs(report.optimization_loss) <= 0.02,
          f"prior optimization loss {report.optimization_loss:.4f}")
    check(failures, elapsed < 10.0, f"prior runtime {elapsed:.2f}s")

    t0 = time.perf_counter()
    records = simulate(design, "CI", AgentSpec.uniform_random(), 100_000, seed=0)
    c = calibrate(ingest(records, design), design).calibrated_score
    elapsed = time.perf_counter() - t0
    # the calibrated value of state-independent behavior estimates the
    # baseline -100 p; its standard error is that of the freeze rate
    se = 100.0 * np.sqrt(0.0796 * 0.9204 / 100_000)
    check(failures, abs(c - (-7.96)) <= 3 * se,
          f"random-agent calibrated {c:.4f} vs baseline -7.96 (3se={3*se:.4f})")
    check(failures, elapsed < 10.0, f"random runtime {elapsed:.2f}s")

    verdict(4, "simulated agents recover their known loss structure", failures)


def exact_channel_joint(problem: ExperimentDesign, kind: str,
                        rng: np.random.Generator) -> np.ndarray:
    """Exact (action, state) joint of a synthetic agent on the one strategy
    ``s``, no sampling."""
    structure = problem.strategies["s"]
    n_actions = len(problem.actions)
    n_signals, n_states = structure.joint.shape
    masses = np.zeros((n_actions, n_states))
    if kind == "rational":
        best = optimal_action_indices(problem, structure.posteriors())
        np.add.at(masses, best, structure.joint)
    elif kind == "prior":
        p = prior(structure).probabilities
        masses[optimal_action_indices(problem, p[None, :])[0]] = \
            structure.state_marginal()
    elif kind == "uniform":
        masses[:] = structure.state_marginal()[None, :] / n_actions
    elif kind == "garbled-rational":
        k = int(rng.integers(1, n_signals + 1))
        channel = rng.random((n_signals, k)) + 1e-3
        channel /= channel.sum(axis=1, keepdims=True)
        garbled = channel.T @ structure.joint
        q = garbled / garbled.sum(axis=1, keepdims=True)
        np.add.at(masses, optimal_action_indices(problem, q), garbled)
    else:
        raise ValueError(kind)
    return masses


def test_criterion_5_invariant_suite():
    failures: list[str] = []
    rng = np.random.default_rng(555)
    t0 = time.perf_counter()
    n_problems = 500

    for trial in range(n_problems):
        base = random_matrix_problem(rng)
        n_sig = len(base.strategies["s"].signals)

        # a garbled second strategy shares the prior by construction
        k = int(rng.integers(1, n_sig + 1))
        channel = rng.random((n_sig, k)) + 1e-3
        channel /= channel.sum(axis=1, keepdims=True)
        garbled_joint = channel.T @ base.strategies["s"].joint
        garbled = InformationStructure(
            tuple(f"g{i}" for i in range(k)), garbled_joint
        )
        design = ExperimentDesign(
            states=base.states, actions=base.actions, rule=base.rule,
            strategies={"full": base.strategies["s"], "coarse": garbled},
        )

        report = rational_report(design)
        baseline, benchmark = report.baseline, report.benchmark
        rv_full = report.strategies["full"].visualization_optimal
        rv_coarse = report.strategies["coarse"].visualization_optimal
        for rv, name in ((rv_full, "full"), (rv_coarse, "coarse")):
            check(failures, baseline <= rv + 1e-9,
                  f"trial {trial}: baseline > optimal ({name})")
            check(failures, rv <= benchmark + 1e-9,
                  f"trial {trial}: optimal ({name}) > benchmark")
        check(failures, benchmark - baseline >= -1e-9,
              f"trial {trial}: negative info value")
        check(failures, rv_coarse <= rv_full + 1e-9,
              f"trial {trial}: garbling increased the optimal")

        # propriety of the derived proper scoring rule
        q = random_belief(rng, len(base.states)).probabilities[None, :]
        best = score_table(base, q).max()
        avg = outcome_scores(base, optimal_action_indices(base, q), q)[0] @ q[0]
        check(failures, abs(avg - best) <= 1e-9,
              f"trial {trial}: propriety violated")

        # exact synthetic-agent joints: calibration inequalities
        for kind in ("rational", "prior", "uniform", "garbled-rational"):
            masses = exact_channel_joint(base, kind, rng)
            joint = EmpiricalJoint(
                action_ids=base.actions.ids, state_ids=base.states.ids,
                counts=masses * 1e6, kind="action",
            )
            b = behavioral_score(joint, design)
            c = calibrate(joint, design).calibrated_score
            check(failures, c >= b - 1e-9,
                  f"trial {trial} {kind}: calibrated {c} < behavioral {b}")
            check(failures, c >= baseline - 1e-9,
                  f"trial {trial} {kind}: calibrated {c} < baseline {baseline}")
            check(failures, c <= rv_full + 1e-9,
                  f"trial {trial} {kind}: calibrated {c} > optimal {rv_full}")

    elapsed = time.perf_counter() - t0
    check(failures, elapsed < 60.0, f"runtime {elapsed:.2f}s")
    if failures:
        failures.insert(0, f"{len(failures)} violations over {n_problems} problems")
    verdict(5, "rational/behavioral inequalities hold on 500 random problems",
            failures)


def test_criterion_6_monte_carlo_consistency():
    from conftest import weather_design

    design = weather_design()
    failures: list[str] = []
    bad_runs = 0
    for seed in range(100):
        m1, se1 = monte_carlo_score(design, "CI",
                                    constant_actions(design, "no-salt", "CI"),
                                    100_000, seed)
        m2, se2 = monte_carlo_score(design, "CI", rational_actions(design, "CI"),
                                    100_000, seed)
        if abs(m1 - (-7.96)) > 3 * se1 or abs(m2 - (-5.689)) > 3 * se2:
            bad_runs += 1
    check(failures, bad_runs <= 1, f"{bad_runs} of 100 runs exceeded 3 se")
    verdict(6, "Monte Carlo estimates track the exact values", failures)


def test_criterion_7_determinism(tmp_path):
    failures: list[str] = []

    def run_twice(label: str, argv_builder) -> None:
        outs = []
        for tag in ("a", "b"):
            out = tmp_path / f"{label}-{tag}"
            code = main(argv_builder(str(out)))
            if code != 0:
                failures.append(f"{label}: exit {code}")
                return
            outs.append(out.read_bytes())
        check(failures, outs[0] == outs[1], f"{label}: outputs differ")

    run_twice("pre-weather", lambda o: ["pre", "--case", "weather", "--out", o])
    run_twice("pre-kale", lambda o: ["pre", "--case", "kale2020", "--out", o])
    run_twice("pre-fern", lambda o: ["pre", "--case", "fernandes2018",
                                     "--scenario", "3", "--out", o])
    run_twice("export", lambda o: ["export", "--case", "kale2020", "--out", o])
    run_twice("simulate", lambda o: ["simulate", "--case", "weather",
                                     "--agent", "noisy:k=0.7", "--n", "5000",
                                     "--seed", "11", "--out", o])

    trials = tmp_path / "trials.csv"
    main(["simulate", "--case", "weather", "--agent", "noisy:k=0.5",
          "--n", "5000", "--seed", "4", "--out", str(trials)])
    run_twice("post", lambda o: ["post", "--case", "weather",
                                 "--trials", str(trials), "--out", o])

    verdict(7, "identical seeds give byte-identical outputs", failures)
