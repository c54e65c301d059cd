"""Score-to-currency conversion and incentive tables.

Scores are dimensionless points everywhere else in the package; this module
owns the translation to real payments. Experiment-level accounting
(per-trial scores accumulated over a session, plus any starting balance)
happens before conversion.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError
from .generative import sample_cells
from .model import (
    ExperimentDesign,
    InformationStructure,
    _check_count,
    _check_seed,
    optimal_action_indices,
    outcome_scores,
)
from .rational import rational_report


@dataclass(frozen=True)
class AffineConversion:
    """payment = base + rate * score"""

    base: float
    rate: float

    def __post_init__(self):
        _check_rate(self.rate)

    def convert(self, score: float) -> float:
        return self.base + self.rate * score


@dataclass(frozen=True)
class FlooredAffineConversion:
    """payment = base + rate * max(0, score - floor)

    Used when only the score above a threshold is rewarded (e.g. simulated
    account balances that must clear a minimum before paying out).
    """

    base: float
    rate: float
    floor: float

    def __post_init__(self):
        _check_rate(self.rate)

    def convert(self, score: float) -> float:
        return self.base + self.rate * max(0.0, score - self.floor)


ConversionRule = AffineConversion | FlooredAffineConversion


def _check_rate(rate: float) -> None:
    if not np.isfinite(rate):
        raise InvalidModelError("conversion rate must be finite")
    if rate < 0:
        raise InvalidModelError(
            "conversion must be nondecreasing in score (rate >= 0)"
        )


@dataclass(frozen=True)
class IncentiveRow:
    """``incentive_ratio`` is the incentive over the baseline payment, and
    ``None`` when that payment is zero."""

    strategy: str
    payment_baseline: float
    payment_optimal: float
    incentive: float
    incentive_ratio: float | None


@dataclass(frozen=True)
class IncentiveTable:
    rows: tuple[IncentiveRow, ...]

    def row(self, strategy: str) -> IncentiveRow:
        for r in self.rows:
            if r.strategy == strategy:
                return r
        raise InvalidModelError(f"no incentive row for strategy {strategy!r}")

    @property
    def benchmark(self) -> IncentiveRow:
        return self.row("benchmark")


def incentive_table(design: ExperimentDesign,
                    method: str = "linearized",
                    n: int = 100_000,
                    seed: int = 0) -> IncentiveTable:
    """Expected payments to a rational agent with and without the signal,
    under the design's conversion rule.

    One row per strategy plus a ``benchmark`` row for the best strategy, so
    no strategy may be named ``benchmark``. The default evaluates the
    conversion at the expected cumulative score; for floored conversions
    that is a linearization, and ``method="monte-carlo"`` instead simulates
    ``n`` per-trial scores, accumulates each session, converts, and averages.
    Each row's incentive ratio is ``None`` when the baseline payment is zero.
    """
    rule = design.conversion
    if rule is None:
        raise InvalidModelError("the design carries no conversion rule")
    if method not in ("linearized", "monte-carlo"):
        raise InvalidModelError(f"unknown incentive method {method!r}")
    if method == "monte-carlo":
        _check_count(n, "draw")
        _check_seed(seed)
    if "benchmark" in design.strategies:
        raise InvalidModelError("a strategy named 'benchmark' clashes with the "
                                "incentive table's benchmark row")

    report = rational_report(design)

    # each signal plays its optimal action under its row of ``beliefs`` (or the prior's)
    def payment(per_trial: float, strategy: str, beliefs: np.ndarray) -> float:
        if method == "linearized":
            return rule.convert(design.initial_score
                                + design.trials_per_experiment * per_trial)
        structure = design.strategies[strategy]
        actions = np.broadcast_to(optimal_action_indices(design, beliefs),
                                  len(structure))
        return _simulated_payment(design, rule, structure, actions, n, seed)

    base_payment = payment(report.baseline, next(iter(report.strategies)),
                           report.prior.probabilities[None, :])
    optimal = {name: payment(s.visualization_optimal, name, s.posteriors)
               for name, s in report.strategies.items()}
    best = max(optimal, key=lambda name: report.strategies[name].visualization_optimal)
    rows = [IncentiveRow(strategy=name,
                         payment_baseline=base_payment,
                         payment_optimal=pay,
                         incentive=pay - base_payment,
                         incentive_ratio=(pay - base_payment) / base_payment
                         if base_payment != 0.0 else None)
            for name, pay in [*optimal.items(), ("benchmark", optimal[best])]]
    return IncentiveTable(rows=tuple(rows))


def _simulated_payment(design: ExperimentDesign, rule: ConversionRule,
                       structure: InformationStructure, actions: np.ndarray,
                       n: int, seed: int) -> float:
    """Average converted payment over simulated sessions of playing action
    index ``actions[i]`` on signal i of ``structure``.

    Sessions draw ``trials_per_experiment`` i.i.d. trial scores, so floors
    and other nonlinearities are honored exactly up to Monte Carlo error.
    """
    trials = design.trials_per_experiment
    sessions = max(n // trials, 1)
    # one long score stream reshaped into sessions keeps the estimate
    # seeded and deterministic without per-session generator churn
    cells = sample_cells(structure.joint, sessions * trials,
                         np.random.default_rng(seed))
    scores = outcome_scores(design, actions, structure.posteriors())[cells]
    per_session = scores.reshape(sessions, trials).sum(axis=1)
    payments = [rule.convert(design.initial_score + s) for s in per_session]
    return float(np.mean(payments))
