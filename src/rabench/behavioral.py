"""Behavioral trial ingestion, scoring, calibration, and loss decomposition.

Observed trials induce an empirical joint distribution over (action, state).
The behavioral score evaluates that joint as-is; the calibrated score
replaces each observed action with the best response to its empirical
state-conditional, which bounds what the agent's information was worth. The
gap to the rational benchmark then splits into a belief loss (stimuli not
differentiated) and an optimization loss (information not acted on), both in
units of the design's value of information.
"""

from __future__ import annotations

import csv
import io
from collections.abc import Callable, Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import chain, compress, islice, repeat
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import InvalidModelError, TrialDataError
from .model import (
    ExperimentDesign,
    ReportMap,
    _normalized_beliefs,
    binary_report_map,
    optimal_action_indices,
    outcome_scores,
    report_bins,
    score_table,
)
from .rational import RationalReport, rational_report

#: Default width of the probability-report bins.
DEFAULT_BIN_WIDTH = 0.02

TRIAL_CSV_HEADER = ("trial_id", "strategy", "signal", "state",
                    "response_kind", "response")

#: Rows per chunk when writing a trial CSV, or when reading one with
#: ``csv.reader``; this bounds the memory held by rows not yet joined or
#: encoded.
_CSV_CHUNK_ROWS = 8192
#: Characters read per chunk of a trial CSV before it is completed to a
#: line end: 6k to 8k rows of the weather and transit cases' files.
_CSV_CHUNK_CHARS = 1 << 18


@dataclass(frozen=True)
class TrialRecord:
    """One observed trial: what was shown, what happened, what the agent did.

    ``response`` is an action id for decision tasks and a probability report
    in [0, 1] for belief tasks, per ``response_kind``.
    """

    trial_id: str
    strategy: str
    signal: str
    state: str
    response_kind: str  # "action" | "probability"
    response: str | float

    def __post_init__(self):
        if self.response_kind not in ("action", "probability"):
            raise InvalidModelError(
                f"response_kind must be 'action' or 'probability', "
                f"got {self.response_kind!r}"
            )


def _decode(ids: Sequence[str], codes: np.ndarray) -> list[str]:
    return np.array(ids, dtype=object)[codes].tolist()


@dataclass(frozen=True, eq=False)
class TrialTable(Sequence):
    """Trials stored by column, one row per trial.

    ``strategy``, ``signal``, ``state`` and ``action`` are integer codes
    into ``strategy_ids``, ``signal_ids``, ``state_ids`` and ``action_ids``.
    A decision row has an action code and a NaN ``report``; a probability
    row has action code -1 and its report in ``report``.

    The table is a sequence of :class:`TrialRecord` rows: an integer index
    gives one record, while a slice, boolean mask or index array gives the
    selected rows as a table. A table equals any sequence of the same
    records in the same order.
    """

    trial_ids: np.ndarray
    strategy_ids: tuple[str, ...]
    strategy: np.ndarray
    signal_ids: tuple[str, ...]
    signal: np.ndarray
    state_ids: tuple[str, ...]
    state: np.ndarray
    action_ids: tuple[str, ...]
    action: np.ndarray
    report: np.ndarray

    def __post_init__(self):
        columns = {"trial_ids": np.asarray(self.trial_ids, dtype=object),
                   "report": np.asarray(self.report, dtype=float)}
        for name in ("strategy", "signal", "state", "action"):
            columns[name] = np.asarray(getattr(self, name), dtype=np.intp)
        if len({c.shape for c in columns.values()}) != 1 \
                or columns["trial_ids"].ndim != 1:
            raise InvalidModelError("trial table columns must be 1-D and of one length")
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    @classmethod
    def from_records(cls, records: Iterable[TrialRecord]) -> "TrialTable":
        records = list(records)
        builder = _TableBuilder()
        builder.add(
            [r.trial_id for r in records], [r.strategy for r in records],
            [r.signal for r in records], [r.state for r in records],
            [r.response_kind for r in records],
            [str(r.response) if r.response_kind == "action" else r.response
             for r in records],
        )
        return builder.table()

    def __len__(self) -> int:
        return len(self.trial_ids)

    def __getitem__(self, index):
        if isinstance(index, (int, np.integer)):
            i = range(len(self))[index]  # raises IndexError as a list does
            return next(iter(self[i:i + 1]))
        return replace(self, trial_ids=self.trial_ids[index],
                       strategy=self.strategy[index], signal=self.signal[index],
                       state=self.state[index], action=self.action[index],
                       report=self.report[index])

    def __iter__(self):
        return map(TrialRecord, *self._columns(report_format=float))

    def __eq__(self, other):
        if not isinstance(other, Sequence):
            return NotImplemented
        return len(self) == len(other) and all(a == b for a, b in zip(self, other))

    __hash__ = None

    def _columns(self, report_format: Callable[[float], object]) -> tuple[list, ...]:
        """The six trial columns as lists, in ``TRIAL_CSV_HEADER`` order.

        Responses are action ids, and probability reports passed through
        ``report_format``.
        """
        is_action = self.action >= 0
        if is_action.all():
            responses = _decode(self.action_ids, self.action)
        else:
            # code -1 picks the placeholder id appended at the end
            actions = _decode(self.action_ids + ("",), self.action)
            reports = map(report_format, self.report.tolist())
            responses = [a if k else r
                         for k, a, r in zip(is_action.tolist(), actions, reports)]
        return (self.trial_ids.tolist(),
                _decode(self.strategy_ids, self.strategy),
                _decode(self.signal_ids, self.signal),
                _decode(self.state_ids, self.state),
                _decode(("probability", "action"), is_action.astype(np.intp)),
                responses)


class _TableBuilder:
    """Encodes trial columns into a :class:`TrialTable`, a chunk of rows at
    a time; ids get codes in order of first appearance."""

    def __init__(self):
        self.trial_ids: list[str] = []
        self.index: dict[str, dict[str, int]] = {
            name: {} for name in ("strategy", "signal", "state", "action")}
        self.chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in ("strategy", "signal", "state", "action", "report")}

    def _codes(self, name: str, values: Sequence[str]) -> np.ndarray:
        index = self.index[name]
        try:
            return np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                               count=len(values))
        except KeyError:  # new ids: most chunks bring none
            for value in dict.fromkeys(values):
                index.setdefault(value, len(index))
        return np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                           count=len(values))

    def add(self, trial_ids: Sequence[str], strategies: Sequence[str],
            signals: Sequence[str], states: Sequence[str],
            kinds: Sequence[str], responses: Sequence) -> None:
        """Append rows given as six columns in ``TRIAL_CSV_HEADER`` order.

        Responses are action ids on ``action`` rows and anything ``float``
        accepts on ``probability`` rows; a report that is not a number raises
        ``ValueError``.
        """
        for kind in set(kinds):
            if kind not in ("action", "probability"):
                raise InvalidModelError(
                    f"response_kind must be 'action' or 'probability', got {kind!r}"
                )
        n = len(kinds)
        is_action = np.fromiter(map("action".__eq__, kinds), dtype=bool, count=n)
        action = np.full(n, -1, dtype=np.intp)
        action[is_action] = self._codes("action", list(compress(responses, is_action)))
        report = np.full(n, np.nan)
        report[~is_action] = [float(r) for r in compress(responses, ~is_action)]
        self.trial_ids.extend(trial_ids)
        for name, values in (("strategy", strategies), ("signal", signals),
                             ("state", states)):
            self.chunks[name].append(self._codes(name, values))
        self.chunks["action"].append(action)
        self.chunks["report"].append(report)

    def table(self) -> TrialTable:
        columns = {name: np.concatenate(chunks) if chunks else ()
                   for name, chunks in self.chunks.items()}
        ids = {f"{name}_ids": tuple(index) for name, index in self.index.items()}
        return TrialTable(trial_ids=self.trial_ids, **ids, **columns)


def _as_table(trials: Iterable[TrialRecord]) -> TrialTable:
    """A table as is; any other iterable of records converted to one."""
    if isinstance(trials, TrialTable):
        return trials
    return TrialTable.from_records(trials)


def _csv_fields(values: Iterable) -> tuple[str, ...]:
    """Each value as ``csv.writer`` writes it as one field of a row."""
    buf = io.StringIO()
    # the default "\r\n" terminator, stripped below: the writer quotes a
    # field holding any character of its terminator, so an empty terminator
    # would leave ids with a lone "\r" or "\n" unquoted
    writer = csv.writer(buf)
    fields = []
    for value in values:
        # a second, empty field: a row of one empty field is written '""'
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[:-3])
        buf.seek(0)
        buf.truncate()
    return tuple(fields)


def write_trials_csv(trials: Iterable[TrialRecord], path: str | Path) -> None:
    """Write trials (a table or records) as CSV; probability reports are
    written as ``repr`` of their float.

    The bytes are those of ``csv.writer``: each distinct id is quoted once
    by it, and the rows are joined a chunk at a time.
    """
    table = _as_table(trials)
    table = replace(table, **{
        f"{name}_ids": _csv_fields(getattr(table, f"{name}_ids"))
        for name in ("strategy", "signal", "state", "action")})
    trial_ids = table.trial_ids.tolist()
    try:
        quote = any(c in "".join(trial_ids) for c in ',"\r\n')
    except TypeError:  # an id that is not a str: csv.writer formats it
        quote = True
    if quote:
        table = replace(table, trial_ids=_csv_fields(trial_ids))
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(TRIAL_CSV_HEADER) + "\r\n")
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            columns = table[start:start + _CSV_CHUNK_ROWS]._columns(report_format=repr)
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _add_rows(builder: _TableBuilder, rows: list[list[str]], first_line: int) -> None:
    """Append rows parsed from the file, a blank line being an empty row;
    ``first_line`` is the line number of the first."""
    width = len(TRIAL_CSV_HEADER)
    kept = rows
    if set(map(len, rows)) - {width}:
        for i, row in enumerate(rows, start=first_line):
            if row and len(row) != width:
                raise TrialDataError(f"line {i}: expected {width} fields")
        kept = [row for row in rows if row]
    try:
        builder.add(*(list(map(itemgetter(k), kept)) for k in range(width)))
    except ValueError:
        for i, row in enumerate(rows, start=first_line):
            if row and row[4] == "probability":
                try:
                    float(row[5])
                except ValueError:
                    raise TrialDataError(
                        f"line {i}: probability response {row[5]!r} "
                        f"is not a number"
                    ) from None
        raise


def _add_text(builder: _TableBuilder, text: str, first_line: int) -> int:
    """Append the rows of a chunk of whole lines that holds no quote and no
    NUL, where every field is the text between commas; return the number
    of lines in it.

    Line ends are "\\r\\n", "\\r" or "\\n", as for ``csv.reader``; a line
    that is not blank must hold ``len(TRIAL_CSV_HEADER) - 1`` commas.
    """
    lines = text.replace("\r\n", "\n").replace("\r", "\n").split("\n")
    if not lines[-1]:
        lines.pop()  # the text ends with a line end
    records = list(filter(None, lines))
    if not records:
        return len(lines)
    width = len(TRIAL_CSV_HEADER)
    if not set(map(str.count, records, repeat(","))) - {width - 1}:
        fields = ",".join(records).split(",")
        try:
            builder.add(*(fields[k::width] for k in range(width)))
            return len(lines)
        except ValueError:
            pass
    # a fault in the chunk: the row-wise path names its line
    _add_rows(builder, [line.split(",") if line else [] for line in lines], first_line)
    return len(lines)


def read_trials_csv(path: str | Path) -> TrialTable:
    """Read a trial CSV into a table. Blank lines are skipped; a wrong
    header, a line with the wrong number of fields, or a probability report
    that is not a number raises ``TrialDataError``.

    The file is read a chunk of whole lines at a time. Up to the first
    chunk that holds a quote or a NUL, fields are split at commas;
    from there on ``csv.reader`` parses the rest of the file.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            header = next(csv.reader(fh))
        except StopIteration:
            raise TrialDataError("trial file is empty") from None
        if tuple(h.strip() for h in header) != TRIAL_CSV_HEADER:
            raise TrialDataError(
                f"trial file header must be {','.join(TRIAL_CSV_HEADER)}"
            )
        builder = _TableBuilder()
        line = 2
        # the readline ends the chunk on a line end, a "\r\n" kept whole
        while chunk := fh.read(_CSV_CHUNK_CHARS) + fh.readline():
            if '"' in chunk or "\0" in chunk:
                rows = csv.reader(chain(io.StringIO(chunk, newline=""), fh))
                while part := list(islice(rows, _CSV_CHUNK_ROWS)):
                    _add_rows(builder, part, line)
                    line += len(part)
                break
            line += _add_text(builder, chunk, line)
    if not builder.trial_ids:
        raise TrialDataError("trial file contains no records")
    return builder.table()


@dataclass(frozen=True, eq=False)
class EmpiricalJoint:
    """Counts and normalized masses over (observed action, realized state).

    ``kind`` records the provenance: raw action counts, or probability
    reports binned at ``bin_width`` with one row per bin (midpoints in
    ``action_values``).
    """

    action_ids: tuple[str, ...]
    state_ids: tuple[str, ...]
    counts: np.ndarray
    kind: str  # "action" | "report"
    action_values: tuple[float, ...] | None = None
    state_values: tuple[float, ...] | None = None
    bin_width: float | None = None

    def __post_init__(self):
        c = np.array(self.counts, dtype=float)
        if c.shape != (len(self.action_ids), len(self.state_ids)):
            raise InvalidModelError("count matrix does not match action/state ids")
        if np.any(c < 0):
            raise InvalidModelError("counts must be non-negative")
        if c.sum() <= 0:
            raise InvalidModelError("empirical joint needs at least one observation")
        c.setflags(write=False)
        object.__setattr__(self, "counts", c)

    @property
    def n(self) -> float:
        return float(self.counts.sum())

    @property
    def masses(self) -> np.ndarray:
        return self.counts / self.counts.sum()

    def action_marginal(self) -> np.ndarray:
        return self.masses.sum(axis=1)

    def state_marginal(self) -> np.ndarray:
        return self.masses.sum(axis=0)

    def conditionals(self, rows, smoothing_alpha: float = 0.0) -> np.ndarray:
        """Empirical state-conditional of each row index in ``rows``, one
        belief row each; ``smoothing_alpha`` is added to every count first."""
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


def ingest(trials: Sequence[TrialRecord], design: ExperimentDesign,
           bin_width: float = DEFAULT_BIN_WIDTH) -> EmpiricalJoint:
    """Fold trials (a table or records) into an empirical (action, state)
    joint.

    Decision tasks count (action, state) pairs directly; belief tasks bin
    the probability reports at ``bin_width`` and treat each bin as an
    action. Trials must be of one task type, and every referenced strategy,
    signal, state, and action must exist in the design; offenders are
    reported by trial id.
    """
    table = _as_table(trials)
    if not len(table):
        raise TrialDataError("no trial records to ingest")
    is_action = table.action >= 0
    if is_action.any() and not is_action.all():
        raise TrialDataError("records mix decision and belief responses")
    decision = bool(is_action[0])
    states = design.states
    if decision:
        n_rows = len(design.actions)
    else:
        mids, bin_ids = report_bins(bin_width)
        n_rows = len(mids)

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
        row = np.minimum((np.where(bad_response, 0.0, p) / bin_width).astype(np.intp),
                         n_rows - 1)

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
    for mask, codes, ids, what in checks:
        mask = mask & ~bad
        bad |= mask
        problems.update(f"{what} {ids[c]!r}" for c in np.unique(codes[mask]))
    if not decision:
        mask = bad_response & ~bad
        bad |= mask
        problems.update(f"probability report {float(v)!r} outside [0, 1]"
                        for v in np.unique(p[mask]))
    if bad.any():
        raise TrialDataError(
            f"{int(bad.sum())} record(s) reference unknown design elements: "
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
            state_values=states.values,
        )
    return EmpiricalJoint(
        action_ids=bin_ids,
        state_ids=states.ids,
        counts=counts,
        kind="report",
        action_values=tuple(float(m) for m in mids),
        state_values=states.values,
        bin_width=float(bin_width),
    )


def _resolve_report_map(design: ExperimentDesign) -> ReportMap:
    if design.report_map is not None:
        return design.report_map
    return binary_report_map(len(design.states))


def _running_total(terms: np.ndarray) -> float:
    """Sum of ``terms`` added one at a time in row-major order; unlike a BLAS
    dot or numpy's pairwise sum, it does not depend on how terms are blocked."""
    return float(np.cumsum(terms)[-1])


def behavioral_score(joint: EmpiricalJoint, design: ExperimentDesign) -> float:
    """Expected score of the observed behavior under the empirical joint.

    Action joints average each observed action's score against that action's
    empirical state-conditional (identical to averaging the score table over
    the joint, and well defined for the transit rule). Report joints score
    each bin by playing the optimal action of the bin-midpoint belief.
    """
    base = design.any_problem()
    if joint.kind == "action":
        marginal = joint.action_marginal()
        rows = np.flatnonzero(marginal > 0)
        actions = [base.actions.index(joint.action_ids[i]) for i in rows]
        ev = score_table(base, joint.conditionals(rows))
        return _running_total(marginal[rows] * ev[np.arange(len(rows)), actions])

    masses = joint.masses
    rows = np.flatnonzero(masses.sum(axis=1) > 0)
    mids = np.asarray(joint.action_values)[rows]
    beliefs = _resolve_report_map(design).to_beliefs(mids)
    best = optimal_action_indices(base, beliefs)
    return _running_total(masses[rows] * outcome_scores(base, best, beliefs))


@dataclass(frozen=True)
class CalibrationResult:
    calibrated_score: float
    policy: dict[str, str]  # observed action/bin -> best response


def calibrate(joint: EmpiricalJoint, design: ExperimentDesign,
              smoothing_alpha: float = 0.0) -> CalibrationResult:
    """Replace each observed action with the optimal action against its
    empirical state-conditional; the resulting score is what a rational
    agent would earn from the information in the behavior.

    Rows that were never observed carry no weight and are skipped. Optional
    additive smoothing stabilizes conditionals from tiny samples.
    """
    marginal = joint.action_marginal()
    rows = np.flatnonzero(marginal > 0)
    ev = score_table(design.any_problem(),
                     joint.conditionals(rows, smoothing_alpha=smoothing_alpha))
    best = np.argmax(ev, axis=1)
    policy = {joint.action_ids[i]: design.actions.ids[b] for i, b in zip(rows, best)}
    score = _running_total(marginal[rows] * ev[np.arange(len(rows)), best])
    return CalibrationResult(calibrated_score=score, policy=policy)


def behavioral_value_of_information(behavioral: float, baseline: float) -> float:
    """Score gained over the no-signal baseline, clamped at zero."""
    return max(behavioral - baseline, 0.0)


def belief_loss(visualization_optimal: float, calibrated: float,
                delta: float) -> float:
    """Fraction of the information value lost to not differentiating stimuli."""
    if delta <= 0.0:
        raise InvalidModelError("loss ratios need a positive value of information")
    return (visualization_optimal - calibrated) / delta


def optimization_loss(calibrated: float, behavioral: float, delta: float) -> float:
    """Fraction of the information value lost to acting suboptimally on the
    information the behavior contains."""
    if delta <= 0.0:
        raise InvalidModelError("loss ratios need a positive value of information")
    return (calibrated - behavioral) / delta


def decisions_from_beliefs(trials: Sequence[TrialRecord],
                           design: ExperimentDesign,
                           report_map: ReportMap | None = None) -> TrialTable:
    """Convert belief reports to decision trials by playing the optimal
    action under each report's mapped belief."""
    table = _as_table(trials)
    actions = table.action >= 0
    if actions.any():
        raise TrialDataError(
            "decisions_from_beliefs needs probability records",
            trial_ids=table.trial_ids[actions].tolist(),
        )
    mapping = report_map or _resolve_report_map(design)
    base = design.any_problem()
    best = optimal_action_indices(base, mapping.to_beliefs(table.report))
    return replace(table, action_ids=base.actions.ids, action=best,
                   report=np.full(len(table), np.nan))


@dataclass(frozen=True)
class LossReport:
    """Behavioral performance of one strategy, decomposed.

    All loss ratios are raw (not clamped); out-of-range values are flagged
    in ``warnings`` rather than hidden.
    """

    strategy: str
    n_trials: float
    behavioral: float
    calibrated: float
    behavioral_value_of_information: float
    belief_loss: float
    optimization_loss: float
    warnings: tuple[str, ...] = ()


def loss_report(design: ExperimentDesign, strategy: str,
                trials: Sequence[TrialRecord],
                bin_width: float = DEFAULT_BIN_WIDTH,
                smoothing_alpha: float = 0.0,
                *,
                report: RationalReport | None = None) -> LossReport:
    """Full post-experimental decomposition for one strategy's trials (a
    table or records). Trials of any other strategy are refused, by trial
    id, rather than folded into the joint.

    ``report`` must be ``rational_report(design)``; a caller that already
    holds it passes it to skip the recomputation.
    """
    if report is None:
        report = rational_report(design)
    delta = report.value_of_information
    if delta <= 0.0:
        raise InvalidModelError("loss ratios need a positive value of information")
    table = _as_table(trials)
    own = table.strategy_ids.index(strategy) if strategy in table.strategy_ids else -1
    foreign = table.strategy != own
    if foreign.any():
        raise TrialDataError(
            f"{int(foreign.sum())} trial(s) belong to a strategy other than "
            f"{strategy!r}",
            trial_ids=table.trial_ids[foreign].tolist(),
        )
    joint = ingest(table, design, bin_width=bin_width)
    b = behavioral_score(joint, design)
    c = calibrate(joint, design, smoothing_alpha=smoothing_alpha).calibrated_score
    rv = report.strategies[strategy].visualization_optimal

    warnings = []
    if b < report.baseline:
        warnings.append(
            "behavioral score is below the no-signal baseline; the data are "
            "consistent with the signal having been ignored"
        )
    bl = belief_loss(rv, c, delta)
    ol = optimization_loss(c, b, delta)
    for name, value in (("belief loss", bl), ("optimization loss", ol)):
        if value < -1e-9 or value > 1.0 + 1e-9:
            warnings.append(f"{name} {value:.4f} falls outside [0, 1]")
    return LossReport(
        strategy=strategy,
        n_trials=joint.n,
        behavioral=b,
        calibrated=c,
        behavioral_value_of_information=behavioral_value_of_information(
            b, report.baseline
        ),
        belief_loss=bl,
        optimization_loss=ol,
        warnings=tuple(warnings),
    )


def pooled_loss_report(reports: Sequence[LossReport]) -> LossReport:
    """Pool per-strategy reports, weighting by trial counts."""
    if not reports:
        raise InvalidModelError("nothing to pool")
    weights = np.array([r.n_trials for r in reports], dtype=float)
    weights /= weights.sum()

    def avg(attr: str) -> float:
        return float(sum(w * getattr(r, attr) for w, r in zip(weights, reports)))

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
