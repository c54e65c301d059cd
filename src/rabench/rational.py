"""Rational-agent quantities: baseline, per-strategy optima, benchmark,
value of information, and information loss.

All quantities are computed exactly from the tabular joint; Monte Carlo
estimation lives in :mod:`rabench.generative`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidModelError, ZeroMassSignalError
from .model import (
    Belief,
    DecisionProblem,
    ExperimentDesign,
    InformationStructure,
    score_table,
)


def prior(structure: InformationStructure) -> Belief:
    """Marginal state distribution implied by the joint: p(theta) = sum_v pi(v, theta)."""
    return Belief(structure.state_marginal())


def posterior(structure: InformationStructure, signal_id: str) -> Belief:
    """Bayesian update on one signal: q(theta) = pi(v, theta) / pi(v)."""
    idx = structure.signal_index(signal_id)
    row = structure.joint[idx]
    mass = row.sum()
    if mass <= 0.0:
        raise ZeroMassSignalError(
            f"signal {signal_id!r} has zero marginal mass; no posterior exists"
        )
    return Belief(row / mass)


def rational_baseline(problem: DecisionProblem) -> float:
    """Expected score of an optimal agent who only knows the prior."""
    p = prior(problem.structure).probabilities
    return float(score_table(problem, p[None, :]).max())


def visualization_optimal(problem: DecisionProblem) -> float:
    """Expected score of an optimal agent acting on the posterior of each
    signal, weighted by the signal marginal."""
    return _optimum(problem, problem.structure.posteriors())


def _optimum(problem: DecisionProblem, posteriors: np.ndarray) -> float:
    """:func:`visualization_optimal`, given the structure's posteriors."""
    best = score_table(problem, posteriors).max(axis=1)
    return float(problem.structure.signal_marginal() @ best)


def rational_benchmark(design: ExperimentDesign) -> float:
    """Best visualization optimal across all compared strategies."""
    names = design.strategy_names()
    if not names:
        raise InvalidModelError("empty strategy set")
    return max(visualization_optimal(design.problem(name)) for name in names)


def value_of_information(design: ExperimentDesign) -> float:
    """Headroom the signals add over the prior: benchmark minus baseline."""
    base = rational_baseline(design.any_problem())
    return rational_benchmark(design) - base


def information_loss(design: ExperimentDesign, strategy: str) -> float:
    """Fraction of the information value lost by showing ``strategy``
    instead of the most informative strategy."""
    delta = value_of_information(design)
    if delta <= 0.0:
        raise InvalidModelError(
            "no information value to normalize by (benchmark equals baseline)"
        )
    rv = visualization_optimal(design.problem(strategy))
    return (rational_benchmark(design) - rv) / delta


@dataclass(frozen=True, eq=False)
class StrategySummary:
    """One strategy's optimum and information loss, and the posterior over
    states given each of its signals: row i of ``posteriors`` (the
    structure's ``posteriors()``) belongs to ``signals[i]``."""

    visualization_optimal: float
    information_loss: float | None
    signals: tuple[str, ...]
    posteriors: np.ndarray


@dataclass(frozen=True)
class RationalReport:
    """Every pre-experimental rational-agent quantity for one design.

    ``information_loss`` entries are ``None`` when the design carries no
    information value (the ratio is undefined rather than NaN).
    """

    baseline: float
    benchmark: float
    value_of_information: float
    prior: Belief
    strategies: dict[str, StrategySummary]

    def visualization_optimal(self, strategy: str) -> float:
        return self.strategies[strategy].visualization_optimal


def rational_report(design: ExperimentDesign) -> RationalReport:
    """Compute baseline, benchmark, information value, and per-strategy
    optima/losses in one pass."""
    base_problem = design.any_problem()
    baseline = rational_baseline(base_problem)
    p = prior(base_problem.structure)

    optima, posteriors = {}, {}
    for name in design.strategy_names():
        problem = design.problem(name)
        posteriors[name] = problem.structure.posteriors()
        posteriors[name].setflags(write=False)
        optima[name] = _optimum(problem, posteriors[name])
    benchmark = max(optima.values())
    delta = benchmark - baseline

    strategies = {}
    for name, rv in optima.items():
        loss = (benchmark - rv) / delta if delta > 0 else None
        strategies[name] = StrategySummary(
            visualization_optimal=rv,
            information_loss=loss,
            signals=design.strategies[name].signals,
            posteriors=posteriors[name],
        )
    return RationalReport(
        baseline=baseline,
        benchmark=benchmark,
        value_of_information=delta,
        prior=p,
        strategies=strategies,
    )
