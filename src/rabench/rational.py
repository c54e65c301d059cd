"""Rational-agent quantities: baseline, per-strategy optima, benchmark,
value of information, and information loss.

All quantities are computed exactly from the tabular joint by
:func:`rational_report`; Monte Carlo estimation lives in
:mod:`rabench.generative`.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .model import (
    Belief,
    ExperimentDesign,
    InformationStructure,
    score_table,
)


def prior(structure: InformationStructure) -> Belief:
    """Marginal state distribution implied by the joint: p(theta) = sum_v pi(v, theta)."""
    return Belief(structure.state_marginal())


def rational_baseline(design: ExperimentDesign) -> float:
    """Expected score of an optimal agent who only knows the shared prior."""
    p = prior(next(iter(design.strategies.values()))).probabilities
    return float(score_table(design, p[None, :]).max())


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


def rational_report(design: ExperimentDesign) -> RationalReport:
    """Compute baseline, benchmark, information value, and per-strategy
    optima/losses in one pass.

    A strategy's visualization optimum is the expected score of an optimal
    agent acting on the posterior of each signal, weighted by the signal
    marginal; the benchmark is the best optimum, and a strategy's
    information loss is the share of the value of information (benchmark
    minus baseline) that it gives up.
    """
    baseline = rational_baseline(design)
    p = prior(next(iter(design.strategies.values())))

    optima, posteriors = {}, {}
    for name, structure in design.strategies.items():
        posteriors[name] = structure.posteriors()
        posteriors[name].setflags(write=False)
        best = score_table(design, posteriors[name]).max(axis=1)
        optima[name] = float(structure.signal_marginal() @ best)
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
