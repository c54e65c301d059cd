"""Behavioral trial ingestion and the loss decomposition of a joint.

Observed trials induce an empirical joint distribution over (action, state),
which ``ingest`` builds and ``decompose`` splits. The behavioral score
evaluates that joint as-is; the calibrated score replaces each observed
action with the best response to its empirical state-conditional, which
bounds what the agent's information was worth. The gap to the rational
benchmark then splits into a belief loss (stimuli not differentiated) and
an optimization loss (information not acted on), both in units of the
design's value of information.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import InvalidModelError, TrialDataError
from .model import (
    NORMALIZATION_TOL,
    ExperimentDesign,
    _is_finite_number,
    _normalized_beliefs,
    _resolve_report_map,
    _shown,
    optimal_action_indices,
    outcome_scores,
    report_bins,
    score_table,
)
from .rational import rational_report

if TYPE_CHECKING:
    from .trials import TrialTable

#: Default width of the probability-report bins.
DEFAULT_BIN_WIDTH = 0.02


def _check_smoothing_alpha(alpha) -> None:
    if not (_is_finite_number(alpha) and alpha >= 0.0):
        raise InvalidModelError(f"smoothing_alpha must be non-negative and "
                                f"finite, not {_shown(alpha)}")


@dataclass(frozen=True, eq=False)
class EmpiricalJoint:
    """Counts and normalized masses over (observed action, realized state).

    ``kind`` records the provenance: raw action counts, or binned
    probability reports with one row per bin (midpoints in
    ``action_values``).
    """

    action_ids: tuple[str, ...]
    state_ids: tuple[str, ...]
    counts: np.ndarray
    kind: str  # "action" | "report"
    action_values: tuple[float, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("action", "report"):
            raise InvalidModelError(f"joint kind must be 'action' or 'report', "
                                    f"not {_shown(self.kind)}")
        if self.kind == "report" and (self.action_values is None
                                      or len(self.action_values) != len(self.action_ids)):
            raise InvalidModelError("a report joint needs one action value per row")
        c = np.array(self.counts, dtype=float)
        if c.shape != (len(self.action_ids), len(self.state_ids)):
            raise InvalidModelError("count matrix does not match action/state ids")
        with np.errstate(all="ignore"):  # a nan, an inf or a sum that overflows
            total = c.sum()
        if not np.isfinite(total):
            raise InvalidModelError("counts and their total must be finite")
        if np.any(c < 0):
            raise InvalidModelError("counts must be non-negative")
        if total <= 0:
            raise InvalidModelError("empirical joint needs at least one observation")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> float:
        return float(self.counts.sum())

    @property
    def masses(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    def conditionals(self, rows, smoothing_alpha: float = 0.0) -> np.ndarray:
        """Empirical state-conditional of each row index in ``rows``, one
        belief row each; ``smoothing_alpha`` is added to every count first."""
        _check_smoothing_alpha(smoothing_alpha)
        rows = np.asarray(rows, dtype=np.intp)
        counts = self.counts[rows]
        if smoothing_alpha > 0.0:
            counts = counts + smoothing_alpha
        totals = counts.sum(axis=1, keepdims=True)
        empty = totals[:, 0] <= 0
        if empty.any():
            raise InvalidModelError(
                f"action {self.action_ids[rows[np.argmax(empty)]]!r} was never observed"
            )
        return _normalized_beliefs(counts / totals)


def _lookup(ids: Sequence[str], known: Iterable[str]) -> np.ndarray:
    """Index of each id in ``known``, or -1 where it is unknown."""
    index = {k: i for i, k in enumerate(known)}
    return np.array([index.get(i, -1) for i in ids], dtype=np.intp)


def ingest(table: TrialTable, design: ExperimentDesign,
           bin_width: float = DEFAULT_BIN_WIDTH) -> EmpiricalJoint:
    """Fold a trial table into an empirical (action, state) joint.

    Decision tasks count (action, state) pairs directly; belief tasks bin
    the probability reports at ``bin_width`` and treat each bin as an
    action; ``report_bins`` refuses a bad ``bin_width`` for either task.
    Trials must be of one task type, every referenced strategy, signal,
    state, and action must exist in the design, and every report must lie
    in [0, 1]; offenders are reported by trial id.
    """
    if not len(table):
        raise TrialDataError("no trial records to ingest")
    is_action = table.action >= 0
    if is_action.any() and not is_action.all():
        raise TrialDataError("records mix decision and belief responses")
    decision = bool(is_action[0])
    states = design.states
    mids, bin_ids = report_bins(bin_width)
    n_rows = len(design.actions) if decision else len(mids)

    # each distinct id is looked up once; a trial's first problem names it
    strategy = _lookup(table.strategy_ids, design.strategies)
    signal_ok = np.zeros((len(table.strategy_ids), len(table.signal_ids)), dtype=bool)
    for code, name in enumerate(table.strategy_ids):
        if name in design.strategies:
            known = design.strategies[name].signals
            signal_ok[code] = _lookup(table.signal_ids, known) >= 0
    state = _lookup(table.state_ids, states.ids)[table.state]
    if decision:
        row = _lookup(table.action_ids, design.actions.ids)[table.action]
        bad_response = row < 0
    else:
        p = table.report
        bad_response = ~((p >= 0.0) & (p <= 1.0))
        # a report on a bin edge, such as 0.58 at width 0.02, is in the bin
        # above it, however the division rounds
        bins = np.where(bad_response, 0.0, p) / bin_width + NORMALIZATION_TOL
        row = np.minimum(bins.astype(np.intp), n_rows - 1)

    bad = np.zeros(len(table), dtype=bool)
    problems: set[str] = set()
    checks = [
        (strategy[table.strategy] < 0, table.strategy, table.strategy_ids,
         "unknown strategy"),
        (~signal_ok[table.strategy, table.signal], table.signal,
         table.signal_ids, "unknown signal"),
        (state < 0, table.state, table.state_ids, "unknown state"),
    ]
    if decision:
        checks.append((bad_response, table.action, table.action_ids,
                       "unknown action"))
    # np.unique imports numpy.ma (numpy 2.4), so it runs only on a fault
    for mask, codes, ids, what in checks:
        mask = mask & ~bad
        if mask.any():
            bad |= mask
            problems.update(f"{what} {ids[c]!r}" for c in np.unique(codes[mask]))
    if not decision:
        mask = bad_response & ~bad
        if mask.any():
            bad |= mask
            problems.update(f"probability report {float(v)!r} outside [0, 1]"
                            for v in np.unique(p[mask]))
    if bad.any():
        raise TrialDataError(
            f"{int(bad.sum())} record(s) refused: "
            + "; ".join(sorted(problems)),
            trial_ids=table.trial_ids[bad].tolist(),
        )

    n_states = len(states)
    counts = np.bincount(row * n_states + state, minlength=n_rows * n_states)
    counts = counts.reshape(n_rows, n_states).astype(float)
    if decision:
        return EmpiricalJoint(
            action_ids=design.actions.ids,
            state_ids=states.ids,
            counts=counts,
            kind="action",
            action_values=design.actions.values,
        )
    return EmpiricalJoint(
        action_ids=bin_ids,
        state_ids=states.ids,
        counts=counts,
        kind="report",
        action_values=tuple(float(m) for m in mids),
    )


def decisions_from_beliefs(table: TrialTable, design: ExperimentDesign) -> TrialTable:
    """Convert belief reports to decision trials by playing the optimal
    action under each report's belief, mapped by the design's report map."""
    actions = table.action >= 0
    if actions.any():
        raise TrialDataError(
            "decisions_from_beliefs needs probability records",
            trial_ids=table.trial_ids[actions].tolist(),
        )
    beliefs = _resolve_report_map(design).to_beliefs(table.report)
    best = optimal_action_indices(design, beliefs)
    return replace(table, action_ids=design.actions.ids, action=best,
                   report=np.full(len(table), np.nan))


def _running_total(terms: np.ndarray) -> float:
    """Sum of ``terms`` added one at a time in row-major order; unlike a BLAS
    dot or numpy's pairwise sum, it does not depend on how terms are blocked."""
    return float(np.cumsum(terms)[-1])


@dataclass(frozen=True)
class LossReport:
    """Behavioral performance of one strategy, decomposed.

    ``behavioral_value_of_information`` is the behavioral score's gain over
    the no-signal baseline, clamped at zero. Both losses are fractions of
    the design's value of information: ``belief_loss`` is the strategy's
    optimum minus the calibrated score (stimuli not differentiated), and
    ``optimization_loss`` the calibrated minus the behavioral score
    (information not acted on). Both are ``None`` when the design's value
    of information is not positive, as ``StrategySummary.information_loss``
    is. The loss ratios are raw (not clamped); out-of-range values are
    flagged in ``warnings`` rather than hidden.
    """

    strategy: str
    n_trials: float
    behavioral: float
    calibrated: float
    behavioral_value_of_information: float
    belief_loss: float | None
    optimization_loss: float | None
    warnings: tuple[str, ...] = ()


def decompose(joint: EmpiricalJoint, design: ExperimentDesign, strategy: str,
              smoothing_alpha: float = 0.0) -> LossReport:
    """Split the behavior in ``joint``, observed under ``strategy``, into
    its score, what its information was worth, and the two losses.

    The behavioral score averages each observed action's score against its
    empirical state-conditional (the score table averaged over the joint,
    well defined for the transit rule); a report joint's bin plays the
    optimal action of its midpoint belief. The calibrated score plays the
    best response to each row's conditional, smoothed by adding
    ``smoothing_alpha`` to every count: what a rational agent would earn
    from the information in the behavior. Unobserved rows weigh nothing.
    On a design whose value of information, the losses' unit, is not
    positive, both losses are ``None``. The behavioral score is flagged as
    below the no-signal baseline only when it is more than two standard
    errors below it, the error being that of a mean of ``joint.n`` realized
    scores, one per observed (row, state) cell at its mass.
    """
    if tuple(joint.state_ids) != design.states.ids:
        raise InvalidModelError(f"joint states {tuple(joint.state_ids)!r} are not "
                                f"the design's {design.states.ids!r}")
    if strategy not in design.strategies:
        raise InvalidModelError(f"unknown strategy {strategy!r}")
    report = rational_report(design)
    delta = report.value_of_information
    _check_smoothing_alpha(smoothing_alpha)

    masses = joint.masses
    marginal = masses.sum(axis=1)
    rows = np.flatnonzero(marginal > 0)
    at = np.arange(len(rows))
    conditionals = joint.conditionals(rows)
    ev = score_table(design, conditionals if smoothing_alpha == 0.0
                     else joint.conditionals(rows, smoothing_alpha))
    if joint.kind == "action":
        raw = ev if smoothing_alpha == 0.0 else score_table(design, conditionals)
        actions = [design.actions.index(joint.action_ids[i]) for i in rows]
        b = _running_total(marginal[rows] * raw[at, actions])
        realized = outcome_scores(design, actions, conditionals)
    else:
        mids = np.asarray(joint.action_values)[rows]
        beliefs = _resolve_report_map(design).to_beliefs(mids)
        best = optimal_action_indices(design, beliefs)
        realized = outcome_scores(design, best, beliefs)
        b = _running_total(masses[rows] * realized)
    c = _running_total(marginal[rows] * ev[at, np.argmax(ev, axis=1)])
    rv = report.strategies[strategy].visualization_optimal
    se = float(np.sqrt(np.sum(masses[rows] * (realized - b) ** 2) / joint.n))

    warnings = []
    if b < report.baseline - 2.0 * se:
        warnings.append(
            "behavioral score is below the no-signal baseline; the data are "
            "consistent with the signal having been ignored"
        )
    bl = ol = None
    if delta > 0.0:
        bl = (rv - c) / delta
        ol = (c - b) / delta
        for name, value in (("belief loss", bl), ("optimization loss", ol)):
            if value < -1e-9 or value > 1.0 + 1e-9:
                warnings.append(f"{name} {value:.4f} falls outside [0, 1]")
    return LossReport(
        strategy=strategy,
        n_trials=joint.n,
        behavioral=b,
        calibrated=c,
        behavioral_value_of_information=max(b - report.baseline, 0.0),
        belief_loss=bl,
        optimization_loss=ol,
        warnings=tuple(warnings),
    )


def loss_report(design: ExperimentDesign, strategy: str,
                table: TrialTable,
                bin_width: float = DEFAULT_BIN_WIDTH,
                smoothing_alpha: float = 0.0) -> LossReport:
    """``decompose`` of one strategy's trial table, ingested at
    ``bin_width``. Trials of any other strategy are refused, by trial id,
    rather than folded into the joint.
    """
    own = table.strategy_ids.index(strategy) if strategy in table.strategy_ids else -1
    foreign = table.strategy != own
    if foreign.any():
        raise TrialDataError(
            f"{int(foreign.sum())} trial(s) belong to a strategy other than "
            f"{strategy!r}",
            trial_ids=table.trial_ids[foreign].tolist(),
        )
    joint = ingest(table, design, bin_width=bin_width)
    return decompose(joint, design, strategy, smoothing_alpha=smoothing_alpha)


def pooled_loss_report(reports: Sequence[LossReport]) -> LossReport:
    """Pool per-strategy reports, weighting by trial counts; a loss that
    some report lacks is pooled to ``None``."""
    if not reports:
        raise InvalidModelError("nothing to pool")
    weights = np.array([r.n_trials for r in reports], dtype=float)
    weights /= weights.sum()

    def avg(attr: str) -> float | None:
        values = [getattr(r, attr) for r in reports]
        if None in values:
            return None
        return float(sum(w * v for w, v in zip(weights, values)))

    warnings = tuple(w for r in reports for w in r.warnings)
    return LossReport(
        strategy="pooled",
        n_trials=float(sum(r.n_trials for r in reports)),
        behavioral=avg("behavioral"),
        calibrated=avg("calibrated"),
        behavioral_value_of_information=avg("behavioral_value_of_information"),
        belief_loss=avg("belief_loss"),
        optimization_loss=avg("optimization_loss"),
        warnings=warnings,
    )
