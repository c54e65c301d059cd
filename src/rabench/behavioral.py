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
from collections.abc import Iterable, Sequence
from dataclasses import dataclass, replace
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import InvalidModelError, TrialDataError
from .model import (
    NORMALIZATION_TOL,
    ExperimentDesign,
    ReportMap,
    _normalized_beliefs,
    binary_report_map,
    optimal_action_indices,
    outcome_scores,
    report_bins,
    score_table,
)
from .rational import rational_report

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


def _decode(ids: Sequence[str], codes: np.ndarray) -> list[str]:
    return np.array(ids, dtype=object)[codes].tolist()


@dataclass(frozen=True, eq=False)
class TrialTable:
    """Trials stored by column, one row per trial.

    ``strategy``, ``signal``, ``state`` and ``action`` are integer codes
    into ``strategy_ids``, ``signal_ids``, ``state_ids`` and ``action_ids``.
    A decision row has an action code and a NaN ``report``; a probability
    row has action code -1 and its report in ``report``.

    ``len`` gives the number of rows, and a slice, boolean mask or index
    array gives the selected rows as a table.
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

    def __len__(self) -> int:
        return len(self.trial_ids)

    def __getitem__(self, index) -> "TrialTable":
        return replace(self, trial_ids=self.trial_ids[index],
                       strategy=self.strategy[index], signal=self.signal[index],
                       state=self.state[index], action=self.action[index],
                       report=self.report[index])

    def _columns(self) -> tuple[list, ...]:
        """The six trial columns as lists, in ``TRIAL_CSV_HEADER`` order.

        Responses are action ids, and ``repr`` of probability reports.
        """
        is_action = self.action >= 0
        if is_action.all():
            responses = _decode(self.action_ids, self.action)
        else:
            # code -1 picks the placeholder id appended at the end
            actions = _decode(self.action_ids + ("",), self.action)
            reports = map(repr, self.report.tolist())
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
            self.register(name, dict.fromkeys(values))
        return np.fromiter(map(index.__getitem__, values), dtype=np.intp,
                           count=len(values))

    def register(self, name: str, values: Iterable[str]) -> np.ndarray:
        """The code of each value, new ids getting the next codes in order."""
        index = self.index[name]
        return np.array([index.setdefault(v, len(index)) for v in values],
                        dtype=np.intp)

    def append(self, trial_ids: Sequence[str], **columns: np.ndarray) -> None:
        """Append rows given as trial ids and the coded columns."""
        self.trial_ids.extend(trial_ids)
        for name, values in columns.items():
            self.chunks[name].append(values)

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
        self.append(trial_ids, strategy=self._codes("strategy", strategies),
                    signal=self._codes("signal", signals),
                    state=self._codes("state", states), action=action, report=report)

    def table(self) -> TrialTable:
        columns = {name: np.concatenate(chunks) if chunks else ()
                   for name, chunks in self.chunks.items()}
        ids = {f"{name}_ids": tuple(index) for name, index in self.index.items()}
        return TrialTable(trial_ids=self.trial_ids, **ids, **columns)


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


def write_trials_csv(table: TrialTable, path: str | Path) -> None:
    """Write a trial table as CSV; probability reports are written as
    ``repr`` of their float.

    The bytes are those of ``csv.writer``: each distinct id is quoted once
    by it, and the rows are joined a chunk at a time.
    """
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
            columns = table[start:start + _CSV_CHUNK_ROWS]._columns()
            fh.write("\r\n".join(map(",".join, zip(*columns))) + "\r\n")


def _add_rows(builder: _TableBuilder, rows: list[list[str]],
              first_lines: list[int]) -> None:
    """Append rows parsed from the file, a blank line being an empty row;
    ``first_lines[i]`` is the number of the line that row i starts on."""
    width = len(TRIAL_CSV_HEADER)
    kept = [row for row in rows if row]
    if set(map(len, kept)) - {width}:
        _raise_first_fault(rows, first_lines)
    try:
        builder.add(*(list(map(itemgetter(k), kept)) for k in range(width)))
    except (ValueError, InvalidModelError):
        _raise_first_fault(rows, first_lines)
        raise


def _raise_first_fault(rows: list[list[str]], first_lines: list[int]) -> None:
    """Raise ``TrialDataError`` naming the first line, in file order, with
    the wrong number of fields, an unknown response kind or a probability
    report that is not a number; return if there is none."""
    width = len(TRIAL_CSV_HEADER)
    for i, row in zip(first_lines, rows):
        if not row:
            continue
        if len(row) != width:
            raise TrialDataError(f"line {i}: expected {width} fields")
        kind, response = row[4], row[5]
        if kind not in ("action", "probability"):
            raise TrialDataError(f"line {i}: response_kind must be 'action' or "
                                 f"'probability', got {kind!r}")
        if kind == "probability":
            try:
                float(response)
            except ValueError:
                raise TrialDataError(f"line {i}: probability response "
                                     f"{response!r} is not a number") from None


#: ``_MASKS[k]`` keeps the first k bytes of a little-endian 8-byte word.
_MASKS = np.array([(1 << 8 * k) - 1 for k in range(9)], dtype=np.uint64)
#: The most bytes of words that ``_add_ascii`` makes per char of a chunk:
#: a few long fields among short ones would make many times the chunk's
#: size, and such a chunk is read row by row.
_WORD_BYTES_PER_CHAR = 16


def _field_words(windows: np.ndarray, start: np.ndarray,
                 length: np.ndarray) -> list[np.ndarray]:
    """The 8-byte words that cover each field, its bytes in text order and
    the bytes past its end zeroed."""
    words = [windows[start] & _MASKS[np.minimum(length, 8)]]
    for offset in range(8, int(length.max(initial=0)), 8):
        # a window past the field's end is read at the end, inside the text
        at = np.minimum(start + offset, start + length)
        words.append(windows[at] & _MASKS[np.clip(length - offset, 0, 8)])
    return words


def _first_rows(group: np.ndarray) -> np.ndarray:
    """The first row of each group, given each row's group."""
    first = np.full(group.max(initial=-1) + 1, len(group))
    np.minimum.at(first, group, np.arange(len(group)))
    return first


def _distinct(text: str, start: np.ndarray, length: np.ndarray,
              words: list[np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The distinct fields of a column in order of first appearance, and
    each row's index into them."""
    # the text holds no NUL, so a field's words, zeroed past its end, are
    # equal only for equal fields
    _, group = np.unique(words[0], return_inverse=True)
    first = _first_rows(group)
    for word in words[1:]:
        if (word[first[group]] != word).any():
            # split the groups by this word: both codes are below the
            # number of rows, so each pair is one exact int64 key
            _, code = np.unique(word, return_inverse=True)
            _, group = np.unique(group * (code.max() + 1) + code, return_inverse=True)
            first = _first_rows(group)
    order = np.argsort(first)
    first = first[order]
    values = [text[s:s + n] for s, n in zip(start[first].tolist(),
                                            length[first].tolist())]
    return values, np.argsort(order)[group]


def _strings(words: list[np.ndarray]) -> list[str]:
    """The fields covered by ``words``, as str."""
    # each ASCII byte widened to a UCS-4 code point; the zeroed bytes past a
    # field's end are the padding of a "U" item
    data = np.stack(words, axis=1).astype("<u8", copy=False)
    return data.view(np.uint8).astype("<u4").view(f"<U{8 * len(words)}").ravel().tolist()


def _add_ascii(builder: _TableBuilder, text: str) -> int | None:
    """Append the rows of a chunk of whole lines, coding each column with
    numpy; return the number of lines in it.

    Return None, adding nothing, if the text is not ASCII or holds a quote
    or a NUL, a line that is not blank does not hold
    ``len(TRIAL_CSV_HEADER) - 1`` commas, the words of the fields would
    exceed ``_WORD_BYTES_PER_CHAR`` bytes per char, a response kind is
    unknown, or a report is not a number.
    """
    if not text.isascii() or '"' in text or "\0" in text:
        return None
    raw = (text + "\0" * 8).encode("ascii")
    data = np.frombuffer(raw, dtype=np.uint8)
    if "\r" not in text:
        ends, step = np.flatnonzero(data == ord("\n")), 1
    else:
        ends, step = np.flatnonzero(data == ord("\r")), 2
        if np.count_nonzero(data == ord("\n")) != len(ends) \
                or not (data[ends + 1] == ord("\n")).all():
            # lone "\r" or "\n" line ends: make every line end a "\n"
            return _add_ascii(builder, text.replace("\r\n", "\n").replace("\r", "\n"))
    if not len(ends) or ends[-1] + step < len(text):
        ends = np.append(ends, len(text))  # a last line with no line end
    starts = np.concatenate(([0], ends[:-1] + step))
    kept = ends > starts
    if not kept.any():
        return len(ends)
    width = len(TRIAL_CSV_HEADER)
    commas = np.flatnonzero(data == ord(","))
    if (np.diff(np.searchsorted(commas, ends), prepend=0)[kept] != width - 1).any():
        return None
    commas = commas.reshape(-1, width - 1).T
    fields = [(start, stop - start) for start, stop in
              zip([starts[kept], *(commas + 1)], [*commas, ends[kept]])]
    # every field takes as many words as its column's longest one, and the
    # words of trial ids and responses are also copied and widened to UCS-4
    widths = [max(1, -(-int(length.max()) // 8)) for _, length in fields]
    rows = len(fields[0][0])
    if 8 * rows * (sum(widths) + 5 * (widths[0] + widths[-1])) \
            > _WORD_BYTES_PER_CHAR * len(text):
        return None
    # the 8 bytes from every offset of the text, read unaligned
    windows = np.ndarray((len(text) + 1,), dtype="<u8", buffer=raw, strides=(1,))
    columns = [(start, length, _field_words(windows, start, length))
               for start, length in fields]
    (_, _, trial_words), *named, kind, (r_start, r_length, r_words) = columns

    kinds, kind_group = _distinct(text, *kind)
    if not set(kinds) <= {"action", "probability"}:
        return None
    is_action = np.array([k == "action" for k in kinds], dtype=bool)[kind_group]
    try:
        reports = [float(r) for r in _strings([w[~is_action] for w in r_words])]
    except ValueError:
        return None
    coded = [_distinct(text, *column) for column in named]
    actions = _distinct(text, r_start[is_action], r_length[is_action],
                        [w[is_action] for w in r_words])

    action = np.full(len(is_action), -1, dtype=np.intp)
    action[is_action] = builder.register("action", actions[0])[actions[1]]
    report = np.full(len(is_action), np.nan)
    report[~is_action] = reports
    builder.append(
        _strings(trial_words),
        **{name: builder.register(name, values)[group]
           for name, (values, group) in zip(("strategy", "signal", "state"), coded)},
        action=action, report=report)
    return len(ends)


def _add_parsed(builder: _TableBuilder, lines: Iterable[str], line: int) -> int:
    """Append the rows that ``csv.reader`` parses from ``lines``, a part of
    ``_CSV_CHUNK_ROWS`` rows at a time; ``line`` is the line number of the
    first line. Return the line number after the last.

    A quoted field can hold line ends, so a row's first line is counted
    from the lines that the reader has taken, not from the rows before it.
    """
    reader, start = csv.reader(lines), line
    part, first_lines = [], []
    try:
        for row in reader:
            part.append(row)
            first_lines.append(line)
            line = start + reader.line_num
            if len(part) == _CSV_CHUNK_ROWS:
                _add_rows(builder, part, first_lines)
                part, first_lines = [], []
    except csv.Error as err:  # such as a field over csv's field size limit
        _raise_first_fault(part, first_lines)
        raise TrialDataError(f"line {line}: {err}") from None
    if part:
        _add_rows(builder, part, first_lines)
    return line


def read_trials_csv(path: str | Path) -> TrialTable:
    """Read a trial CSV into a table. Blank lines are skipped; a wrong
    header raises ``TrialDataError``, and so does a line with the wrong
    number of fields, an unknown response kind, a probability report that
    is not a number or a field that ``csv.reader`` refuses, naming the first
    such line.

    The file is read a chunk of whole lines at a time. ``_add_ascii`` codes
    a chunk with numpy; ``csv.reader`` parses each chunk it refuses, and
    from a chunk that holds a quote on, the rest of the file, since a
    quoted field can hold a line end.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrialDataError("trial file is empty") from None
        except csv.Error as err:
            raise TrialDataError(f"line 1: {err}") from None
        if tuple(h.strip() for h in header) != TRIAL_CSV_HEADER:
            raise TrialDataError(
                f"trial file header must be {','.join(TRIAL_CSV_HEADER)}"
            )
        builder = _TableBuilder()
        line = reader.line_num + 1
        # the readline ends the chunk on a line end, a "\r\n" kept whole
        while chunk := fh.read(_CSV_CHUNK_CHARS) + fh.readline():
            count = _add_ascii(builder, chunk)
            if count is not None:
                line += count
                continue
            lines = io.StringIO(chunk, newline="")
            line = _add_parsed(builder, chain(lines, fh) if '"' in chunk else lines,
                               line)
    if not builder.trial_ids:
        raise TrialDataError("trial file contains no records")
    return builder.table()


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

    def conditionals(self, rows, smoothing_alpha: float = 0.0) -> np.ndarray:
        """Empirical state-conditional of each row index in ``rows``, one
        belief row each; ``smoothing_alpha`` is added to every count first."""
        if not (0.0 <= smoothing_alpha < np.inf):
            raise InvalidModelError(f"smoothing_alpha must be non-negative and "
                                    f"finite, not {smoothing_alpha!r}")
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
    action. Trials must be of one task type, and every referenced strategy,
    signal, state, and action must exist in the design; offenders are
    reported by trial id.
    """
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
        )
    return EmpiricalJoint(
        action_ids=bin_ids,
        state_ids=states.ids,
        counts=counts,
        kind="report",
        action_values=tuple(float(m) for m in mids),
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
    if joint.kind == "action":
        marginal = joint.action_marginal()
        rows = np.flatnonzero(marginal > 0)
        actions = [design.actions.index(joint.action_ids[i]) for i in rows]
        ev = score_table(design, joint.conditionals(rows))
        return _running_total(marginal[rows] * ev[np.arange(len(rows)), actions])

    masses = joint.masses
    rows = np.flatnonzero(masses.sum(axis=1) > 0)
    mids = np.asarray(joint.action_values)[rows]
    beliefs = _resolve_report_map(design).to_beliefs(mids)
    best = optimal_action_indices(design, beliefs)
    return _running_total(masses[rows] * outcome_scores(design, best, beliefs))


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
    ev = score_table(design, joint.conditionals(rows, smoothing_alpha=smoothing_alpha))
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
                table: TrialTable,
                bin_width: float = DEFAULT_BIN_WIDTH,
                smoothing_alpha: float = 0.0) -> LossReport:
    """Full post-experimental decomposition for one strategy's trial table.
    Trials of any other strategy are refused, by trial id, rather than
    folded into the joint.
    """
    report = rational_report(design)
    delta = report.value_of_information
    if delta <= 0.0:
        raise InvalidModelError("loss ratios need a positive value of information")
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
