"""Score-to-currency conversion and incentive tables.

Scores are dimensionless points everywhere else in the package; this module
owns the translation to real payments. Experiment-level accounting
(per-trial scores accumulated over a session, plus any starting balance)
happens before conversion, on the expected session score or, exactly, on
the session total's law; nothing here samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from itertools import chain, combinations

import numpy as np

from .errors import InvalidModelError
from .model import (ExperimentDesign, _is_finite_number, _shown, optimal_action_indices,
                    outcome_scores)
from .rational import rational_report

#: The most terms (count vectors x distinct scores) of one exact payment.
MAX_EXACT_TERMS = 2**22


@dataclass(frozen=True)
class AffineConversion:
    """payment = base + rate * score"""

    base: float
    rate: float

    def __post_init__(self):
        _check_conversion(self)

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
        _check_conversion(self)

    def convert(self, score: float) -> float:
        return self.base + self.rate * max(0.0, score - self.floor)


ConversionRule = AffineConversion | FlooredAffineConversion


def _check_conversion(rule) -> None:
    """Refuse a parameter of ``rule`` that is not a finite number (a bool,
    a string, NaN and an infinity included), and a negative rate."""
    for field in fields(rule):
        value = getattr(rule, field.name)
        if not _is_finite_number(value):
            raise InvalidModelError(f"conversion {field.name} must be a finite number, "
                                    f"not {_shown(value)}")
    if rule.rate < 0:
        raise InvalidModelError("conversion must be nondecreasing in score (rate >= 0)")


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
                    method: str = "linearized") -> IncentiveTable:
    """Expected payments to a rational agent with and without the signal,
    under the design's conversion rule.

    One row per strategy plus a ``benchmark`` row for the best strategy, so
    no strategy may be named ``benchmark``. The default evaluates the
    conversion at the expected session score: exact for an affine
    conversion, a linearization for any other, which ``method="exact"``
    instead averages over the session total's law (see ``_exact_payment``).
    Each row's incentive ratio is ``None`` when the baseline payment is zero.
    """
    rule = design.conversion
    if rule is None:
        raise InvalidModelError("the design carries no conversion rule")
    if method not in ("linearized", "exact"):
        raise InvalidModelError(f"unknown incentive method {method!r}")
    if "benchmark" in design.strategies:
        raise InvalidModelError("a strategy named 'benchmark' clashes with the "
                                "incentive table's benchmark row")

    report = rational_report(design)

    def payment(per_trial: float, beliefs: np.ndarray, masses: np.ndarray) -> float:
        if method == "exact" and not isinstance(rule, AffineConversion):
            return _exact_payment(design, beliefs, masses)
        return rule.convert(design.initial_score
                            + design.trials_per_experiment * per_trial)

    prior = report.prior.probabilities[None, :]
    base_payment = payment(report.baseline, prior, prior)
    optimal = {name: payment(s.visualization_optimal, s.posteriors,
                             design.strategies[name].joint)
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


def _exact_payment(design: ExperimentDesign, beliefs, masses) -> float:
    """Expected converted payment of a session in which row i of ``beliefs``
    plays its optimal action on the cells of row i of ``masses``: the sum,
    over every count vector c of the k distinct trial scores v, of c's
    multinomial mass times the conversion of ``initial_score + c @ v``."""
    trials = design.trials_per_experiment
    scores = outcome_scores(design, optimal_action_indices(design, beliefs), beliefs)
    # one sort merges equal scores; np.unique would load numpy.ma
    order = np.argsort(scores, axis=None, kind="stable")
    scores, masses = scores.ravel()[order], masses.ravel()[order]
    first = np.flatnonzero(np.r_[True, scores[1:] != scores[:-1]])
    values, probs = scores[first], np.add.reduceat(masses, first)
    values, probs = values[probs > 0], probs[probs > 0]
    k = len(values)
    vectors = math.comb(trials + k - 1, k - 1)
    if vectors * k > MAX_EXACT_TERMS:
        raise InvalidModelError(f"an exact payment sums C({trials + k - 1}, {k - 1}) = "
                                f"{_shown(vectors)} count vectors of {k} scores each, "
                                f"past the cap of {MAX_EXACT_TERMS} terms")
    if k == 1:  # a certain total, and T (up to 2**53) too long for a table
        return design.conversion.convert(design.initial_score + trials * float(values[0]))
    # stars and bars: k - 1 bar positions among trials + k - 1 slots
    bars = np.fromiter(chain.from_iterable(combinations(range(trials + k - 1), k - 1)),
                       np.intp, vectors * (k - 1)).reshape(vectors, k - 1)
    counts = np.diff(bars, axis=1, prepend=-1, append=trials + k - 1) - 1
    log_factorial = np.r_[0.0, np.cumsum(np.log(np.arange(1, trials + 1)))]
    log_mass = log_factorial[-1] - log_factorial[counts].sum(axis=1) + counts @ np.log(probs)
    totals = design.initial_score + counts @ values
    pays = np.fromiter(map(design.conversion.convert, totals.tolist()), float, vectors)
    return float(np.exp(log_mass) @ pays)
