"""Command-line interface.

Three commands share one design source (a builtin case or a JSON config):

* ``pre``       rational baseline/benchmark/value-of-information analysis
                plus the incentive table, before any data exist;
* ``post``      behavioral scores, calibration, and the loss decomposition
                from a trial CSV;
* ``simulate``  synthetic-agent trial CSVs for pipeline testing;
* ``export``    write a builtin case as an editable JSON config.

Commands print a human-readable table to stdout and, with --out, a
machine-readable JSON summary. Identical inputs and seeds produce
byte-identical JSON/CSV outputs. Exit codes: 0 success, 2 input error,
3 internal invariant violation.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from pathlib import Path

from .agents import AgentSpec, simulate
from .behavioral import (
    DEFAULT_BIN_WIDTH,
    loss_report,
    pooled_loss_report,
    read_trials_csv,
    write_trials_csv,
)
from .cases import CaseStudy, build_case
from .config_io import load_design_config, save_design_config
from .errors import RabenchError
from .model import ExperimentDesign
from .payment import incentive_table
from .rational import RationalReport, StrategySummary, rational_report

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _finite_number(positive: bool):
    """argparse type of a finite number that is > 0 (``positive``) or >= 0."""
    def number(text: str) -> float:
        value = float(text)  # argparse reports a ValueError as an invalid value
        if not (math.isfinite(value) and (value > 0.0 if positive else value >= 0.0)):
            sign = "positive" if positive else "non-negative"
            raise argparse.ArgumentTypeError(f"must be {sign} and finite, not {text!r}")
        return value
    return number


def _non_negative_int(text: str) -> int:
    """argparse type of an integer >= 0."""
    value = int(text)  # argparse reports a ValueError as an invalid value
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a non-negative integer, not {text!r}")
    return value


def _add_design_source(parser: argparse.ArgumentParser) -> None:
    group = parser.add_mutually_exclusive_group(required=True)
    group.add_argument("--case", choices=("weather", "kale2020", "fernandes2018"),
                       help="builtin case study")
    group.add_argument("--config", type=Path, help="design config JSON")
    parser.add_argument("--scenario", type=int, default=2,
                        help="transit payoff scenario (fernandes2018 only)")
    parser.add_argument("--trial-dists", type=Path, default=None,
                        help="per-trial arrival distribution CSV "
                             "(fernandes2018 only; defaults to the bundled demo)")
    parser.add_argument("--grid-step", type=_finite_number(positive=True),
                        default=0.25,
                        help="arrival grid resolution (fernandes2018 only)")


def _resolve_design(args) -> tuple[ExperimentDesign, CaseStudy | None]:
    if args.case:
        case = build_case(args.case, scenario=args.scenario,
                          trial_dists=args.trial_dists,
                          grid_step=args.grid_step)
        return case.design, case
    return load_design_config(args.config), None


def _write_json(payload: dict, out: Path | None,
                report: RationalReport | None = None) -> None:
    """Write ``payload`` as ``json.dumps(indent=2, sort_keys=True)`` text.

    With ``report``, the value of each ``strategies[name]["posteriors"]``
    is the placeholder ``_posteriors_key(name)``, written out as that
    strategy's posterior rows. The placeholder is found with its key: a
    JSON string escapes every quote, so no string holds that text.
    """
    if out is None:
        return
    text = json.dumps(payload, indent=2, sort_keys=True)
    for name, summary in (report.strategies.items() if report else ()):
        text = text.replace(f'"posteriors": {json.dumps(_posteriors_key(name))}',
                            f'"posteriors": {_posteriors_json(summary, depth=3)}', 1)
    out.write_text(text + "\n", encoding="utf-8")


def _posteriors_key(strategy: str) -> str:
    return f"\0posteriors of {strategy}"


def _posteriors_json(summary: StrategySummary, depth: int) -> str:
    """``json.dumps({signal: row})`` of a strategy's posterior rows, with
    ``indent=2`` and ``sort_keys=True`` for a value ``depth`` levels deep,
    built by joins of ``float.__repr__`` (the encoder's text for a finite
    float) rather than the encoder's per-element calls."""
    close = "\n" + "  " * depth
    key_pad, value_pad = close + "  ", close + "    "
    rows, signals = summary.posteriors.tolist(), summary.signals
    items = [json.dumps(signals[i]) + ": [" + value_pad
             + ("," + value_pad).join(map(float.__repr__, rows[i])) + key_pad + "]"
             for i in sorted(range(len(signals)), key=signals.__getitem__)]
    return "{" + key_pad + ("," + key_pad).join(items) + close + "}"


def _fmt(x: float | None, width: int = 12, digits: int = 4) -> str:
    if x is None:
        return "n/a".rjust(width)
    return f"{x:.{digits}f}".rjust(width)


def _pinned_payload(case: CaseStudy | None) -> dict | None:
    if case is None:
        return None
    return {
        key: {
            "value": pin.value,
            "tol": pin.tol,
            "provenance": pin.provenance,
            **({"note": pin.note} if pin.note else {}),
        }
        for key, pin in case.expected.items()
    }


def cmd_pre(args) -> int:
    design, case = _resolve_design(args)
    report = rational_report(design)

    print(f"design: {design.name}")
    print(f"{'strategy':<16}{'optimal':>12}{'info loss':>12}")
    for name, summary in report.strategies.items():
        loss = summary.information_loss
        print(f"{name:<16}{_fmt(summary.visualization_optimal)}"
              f"{_fmt(loss, digits=4)}")
    print(f"{'baseline':<16}{_fmt(report.baseline)}")
    print(f"{'benchmark':<16}{_fmt(report.benchmark)}")
    print(f"{'info value':<16}{_fmt(report.value_of_information)}")
    baseline_ratio = (report.baseline / report.benchmark
                      if report.benchmark != 0 else None)
    if baseline_ratio is not None:
        print(f"{'base/benchmark':<16}{_fmt(baseline_ratio)}")

    incentives = None
    if design.conversion is not None:
        table = incentive_table(design)
        print()
        print(f"{'strategy':<16}{'pay(base)':>12}{'pay(opt)':>12}"
              f"{'incentive':>12}{'ratio':>12}")
        for row in table.rows:
            print(f"{row.strategy:<16}{_fmt(row.payment_baseline, digits=3)}"
                  f"{_fmt(row.payment_optimal, digits=3)}"
                  f"{_fmt(row.incentive, digits=3)}"
                  f"{_fmt(row.incentive_ratio)}")
        incentives = {
            row.strategy: {
                "payment_baseline": row.payment_baseline,
                "payment_optimal": row.payment_optimal,
                "incentive": row.incentive,
                "incentive_ratio": row.incentive_ratio,
            }
            for row in table.rows
        }

    payload = {
        "command": "pre",
        "schema_version": 1,
        "design": design.name,
        "baseline": report.baseline,
        "benchmark": report.benchmark,
        "value_of_information": report.value_of_information,
        "baseline_ratio": baseline_ratio,
        "prior": list(report.prior.probabilities),
        "strategies": {
            name: {
                "visualization_optimal": s.visualization_optimal,
                "information_loss": s.information_loss,
                "posteriors": _posteriors_key(name),
            }
            for name, s in report.strategies.items()
        },
        "incentives": incentives,
        "pinned": _pinned_payload(case),
    }
    _write_json(payload, args.out, report)
    return EXIT_OK


def cmd_post(args) -> int:
    design, _ = _resolve_design(args)
    trials = read_trials_csv(args.trials)

    report = rational_report(design)
    reports = []
    print(f"design: {design.name}")
    print(f"{'strategy':<16}{'n':>8}{'behavioral':>12}{'calibrated':>12}"
          f"{'info gain':>12}{'belief':>10}{'optim.':>10}")
    for name in sorted(trials.strategy_ids):
        own = trials[trials.strategy == trials.strategy_ids.index(name)]
        lr = loss_report(design, name, own,
                         bin_width=args.bin_width,
                         smoothing_alpha=args.smoothing_alpha)
        reports.append(lr)
        print(f"{name:<16}{int(lr.n_trials):>8}{_fmt(lr.behavioral)}"
              f"{_fmt(lr.calibrated)}"
              f"{_fmt(lr.behavioral_value_of_information)}"
              f"{_fmt(lr.belief_loss, width=10)}"
              f"{_fmt(lr.optimization_loss, width=10)}")
        for warning in lr.warnings:
            print(f"  warning [{name}]: {warning}")
    pooled = pooled_loss_report(reports) if len(reports) > 1 else None
    if pooled:
        print(f"{'pooled':<16}{int(pooled.n_trials):>8}{_fmt(pooled.behavioral)}"
              f"{_fmt(pooled.calibrated)}"
              f"{_fmt(pooled.behavioral_value_of_information)}"
              f"{_fmt(pooled.belief_loss, width=10)}"
              f"{_fmt(pooled.optimization_loss, width=10)}")

    def loss_payload(lr):
        return {
            "n_trials": lr.n_trials,
            "behavioral": lr.behavioral,
            "calibrated": lr.calibrated,
            "behavioral_value_of_information":
                lr.behavioral_value_of_information,
            "belief_loss": lr.belief_loss,
            "optimization_loss": lr.optimization_loss,
            "warnings": list(lr.warnings),
        }

    payload = {
        "command": "post",
        "schema_version": 1,
        "design": design.name,
        "baseline": report.baseline,
        "benchmark": report.benchmark,
        "value_of_information": report.value_of_information,
        "strategies": {lr.strategy: loss_payload(lr) for lr in reports},
        "pooled": loss_payload(pooled) if pooled else None,
    }
    _write_json(payload, args.out)
    return EXIT_OK


#: Each ``--agent`` kind and the parameters it takes.
_AGENT_PARAMS = {"rational": (), "prior": (), "random": (), "uniform-random": (),
                 "noisy": ("k",), "noisy-belief": ("k",), "lapse": ("rate", "inner")}


def _parse_agent(text: str, task: str) -> AgentSpec:
    head, _, params_text = text.partition(":")
    kind = head.strip().lower()
    if kind not in _AGENT_PARAMS:
        raise RabenchError(
            f"unknown agent {head!r}; use rational, prior, random, "
            f"noisy[:k=SD], or lapse[:rate=R,inner=KIND]"
        )
    params = {}
    if params_text:
        for chunk in params_text.split(","):
            key, _, value = chunk.partition("=")
            if not value:
                raise RabenchError(f"malformed agent parameter {chunk!r}")
            key = key.strip()
            if key not in _AGENT_PARAMS[kind]:
                raise RabenchError(f"--agent: {kind} takes no parameter {key!r}")
            params[key] = value.strip()
    if kind == "rational":
        return AgentSpec.rational(task)
    if kind == "prior":
        return AgentSpec.prior_only(task)
    if kind in ("random", "uniform-random"):
        return AgentSpec.uniform_random(task)
    if kind in ("noisy", "noisy-belief"):
        return AgentSpec.noisy_belief(_agent_number(params, "k", "0.5"), task)
    inner = _parse_agent(params.get("inner", "rational"), task)
    return AgentSpec.lapsing(_agent_number(params, "rate", "0.1"), inner)


def _agent_number(params: dict[str, str], key: str, default: str) -> float:
    text = params.get(key, default)
    try:
        return float(text)
    except ValueError:
        raise RabenchError(f"--agent: {key} must be a number, not {text!r}") from None


def cmd_simulate(args) -> int:
    design, _ = _resolve_design(args)
    agent = _parse_agent(args.agent, args.task)
    strategy = args.strategy or design.strategy_names()[0]
    trials = simulate(design, strategy, agent, args.n, seed=args.seed,
                      balanced=args.balanced)
    write_trials_csv(trials, args.out)
    print(f"wrote {len(trials)} trials for agent {args.agent!r} on "
          f"strategy {strategy!r} to {args.out}")
    return EXIT_OK


def cmd_export(args) -> int:
    design, _ = _resolve_design(args)
    save_design_config(design, args.out)
    print(f"wrote design config to {args.out}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rabench",
        description="Rational-agent benchmarks and loss decomposition "
                    "for decision experiments.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_pre = sub.add_parser("pre", help="pre-experimental rational analysis")
    _add_design_source(p_pre)
    p_pre.add_argument("--out", type=Path, default=None,
                       help="write a JSON summary here")
    p_pre.set_defaults(func=cmd_pre)

    p_post = sub.add_parser("post", help="behavioral loss decomposition")
    _add_design_source(p_post)
    p_post.add_argument("--trials", type=Path, required=True,
                        help="trial CSV (trial_id,strategy,signal,state,"
                             "response_kind,response)")
    p_post.add_argument("--bin-width", type=float, default=DEFAULT_BIN_WIDTH,
                        help="probability-report bin width")
    p_post.add_argument("--smoothing-alpha", type=_finite_number(positive=False),
                        default=0.0,
                        help="additive smoothing for empirical conditionals")
    p_post.add_argument("--out", type=Path, default=None,
                        help="write a JSON summary here")
    p_post.set_defaults(func=cmd_post)

    p_sim = sub.add_parser("simulate", help="generate synthetic trial CSVs")
    _add_design_source(p_sim)
    p_sim.add_argument("--agent", required=True,
                       help="rational | prior | random | noisy[:k=SD] | "
                            "lapse[:rate=R,inner=KIND]")
    p_sim.add_argument("--task", choices=("decision", "belief"),
                       default="decision")
    p_sim.add_argument("--strategy", default=None,
                       help="strategy to simulate (default: first)")
    p_sim.add_argument("--n", type=int, default=10_000, help="trial count")
    p_sim.add_argument("--seed", type=_non_negative_int, default=0)
    p_sim.add_argument("--balanced", action="store_true",
                       help="cycle signals in balanced blocks instead of "
                            "i.i.d. draws")
    p_sim.add_argument("--out", type=Path, required=True,
                       help="output trial CSV path")
    p_sim.set_defaults(func=cmd_simulate)

    p_exp = sub.add_parser("export", help="write a builtin case as JSON config")
    _add_design_source(p_exp)
    p_exp.add_argument("--out", type=Path, required=True)
    p_exp.set_defaults(func=cmd_export)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (RabenchError, OSError) as err:  # OSError: a file that cannot be opened
        print(f"error: {err}", file=sys.stderr)
        return EXIT_INPUT
    except UnicodeDecodeError as err:
        print(f"error: an input file is not UTF-8 text: {err}", file=sys.stderr)
        return EXIT_INPUT
    except Exception as err:  # internal invariant violation
        print(f"internal error: {type(err).__name__}: {err}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
