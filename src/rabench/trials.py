"""The trial CSV format: ``TrialTable``, and its writer and reader.

A trial file has ``TRIAL_CSV_HEADER``'s six columns and a row per trial: a
decision row's response is an action id, a probability row's a report.
``write_trials_csv`` writes the bytes of ``csv.writer``. ``read_trials_csv``
reads the rows after the header as bytes, a chunk of whole lines at a time,
on two paths: ``_add_ascii`` codes a quote-free ASCII chunk with numpy, and
``csv.reader`` parses each chunk it refuses and, from a chunk with a quote
on, the rest of the file.
"""

from __future__ import annotations

import csv
import io
import re
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass
from functools import lru_cache
from itertools import chain, compress
from operator import itemgetter
from pathlib import Path

import numpy as np

from .errors import InvalidModelError, TrialDataError
from .floattext import repr_rows

#: A character that makes ``csv.writer`` quote the field holding it.
_QUOTED_CHAR = re.compile('[,"\r\n]')

TRIAL_CSV_HEADER = ("trial_id", "strategy", "signal", "state",
                    "response_kind", "response")

#: Rows per chunk when writing a trial CSV, or when reading one with
#: ``csv.reader``; this bounds the memory held by rows not yet written or
#: encoded.
_CSV_CHUNK_ROWS = 8192
#: Bytes of the matrix that a chunk of rows is written from, at most: a
#: chunk of wider rows is written in parts (one row, if it is wider still).
_CSV_BLOCK_BYTES = 1 << 20
#: A byte that UTF-8 never holds: it pads each piece of a row to its
#: column's width in that matrix, and is dropped from what is written.
_PAD = 0xFF
#: Bytes read at a time from a trial CSV, about the length of a chunk of
#: whole lines: 6k to 8k rows of the weather and transit cases' files.
_CSV_CHUNK_CHARS = 1 << 18


@dataclass(frozen=True, eq=False)
class TrialTable:
    """Trials stored by column, one row per trial.

    ``strategy``, ``signal``, ``state`` and ``action`` are integer codes
    into ``strategy_ids``, ``signal_ids``, ``state_ids`` and ``action_ids``.
    A decision row has an action code and a NaN ``report``; a probability
    row has action code -1 and its report in ``report``.

    ``trial_ids`` is kept as an integer array when given one (``simulate``
    numbers its rows so) and as an object array otherwise; an integer id is
    written to a CSV, and named by ``TrialDataError``, as ``str(id)``.

    ``len`` gives the number of rows, and a slice, boolean mask or index
    array gives the selected rows as a table. A code outside its ids, or
    other than -1 outside them in ``action``, raises ``InvalidModelError``.
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
        ids = self.trial_ids
        if not (isinstance(ids, np.ndarray) and ids.dtype.kind in "iu"):
            # not a bare asarray: a fixed-width "U" array of n ids would
            # take n times the longest one's width
            ids = np.asarray(ids, dtype=object)
        columns = {"trial_ids": ids, "report": np.asarray(self.report, dtype=float)}
        for name in ("strategy", "signal", "state", "action"):
            columns[name] = np.asarray(getattr(self, name), dtype=np.intp)
        if len({c.shape for c in columns.values()}) != 1 \
                or columns["trial_ids"].ndim != 1:
            raise InvalidModelError("trial table columns must be 1-D and of one length")
        for name in ("strategy", "signal", "state", "action"):
            codes, count = columns[name], len(getattr(self, f"{name}_ids"))
            low = -1 if name == "action" else 0
            if len(codes) and not (low <= codes.min() and codes.max() < count):
                raise InvalidModelError(f"{name} codes must lie in [{low}, {count})")
        for name, value in columns.items():
            object.__setattr__(self, name, value)

    def __len__(self) -> int:
        return len(self.trial_ids)

    def __getitem__(self, index) -> "TrialTable":
        # rows of a valid table: their codes need no second check
        rows = object.__new__(TrialTable)
        vars(rows).update(vars(self), **{
            name: getattr(self, name)[index] for name in
            ("trial_ids", "strategy", "signal", "state", "action", "report")})
        if rows.trial_ids.ndim != 1:
            raise InvalidModelError("trial table columns must be 1-D and of one length")
        return rows


class _TableBuilder:
    """Encodes trial columns into a :class:`TrialTable`, a chunk of rows at
    a time; ids get codes in order of first appearance."""

    def __init__(self):
        self.trial_ids: list[np.ndarray] = []  # an object array per chunk
        self.index: dict[str, dict[str, int]] = {
            name: {} for name in ("strategy", "signal", "state", "action")}
        self.chunks: dict[str, list[np.ndarray]] = {
            name: [] for name in ("strategy", "signal", "state", "action", "report")}

    def register(self, name: str, values: Iterable[str]) -> np.ndarray:
        """The code of each value, new ids getting the next codes in order."""
        index = self.index[name]
        return np.array([index.setdefault(v, len(index)) for v in values],
                        dtype=np.intp)

    def append(self, trial_ids: Sequence[str], **columns: np.ndarray) -> None:
        """Append rows given as trial ids and the coded columns."""
        if not len(trial_ids):
            return
        self.trial_ids.append(np.array(trial_ids, dtype=object))
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
        action[is_action] = self.register("action", compress(responses, is_action))
        report = np.full(n, np.nan)
        report[~is_action] = [float(r) for r in compress(responses, ~is_action)]
        self.append(trial_ids, strategy=self.register("strategy", strategies),
                    signal=self.register("signal", signals),
                    state=self.register("state", states), action=action, report=report)

    def table(self) -> TrialTable:
        columns = {name: np.concatenate(chunks) if chunks else ()
                   for name, chunks in self.chunks.items()}
        ids = {f"{name}_ids": tuple(index) for name, index in self.index.items()}
        trial_ids = np.concatenate(self.trial_ids) if self.trial_ids else ()
        return TrialTable(trial_ids=trial_ids, **ids, **columns)


def _csv_fields(values: Sequence) -> Sequence[str]:
    """Each value as ``csv.writer`` writes it as one field of a row; values
    that are all ``str`` and that ``_QUOTED_CHAR`` does not match are
    returned as they are."""
    try:
        if not _QUOTED_CHAR.search("".join(values)):
            return values
    except TypeError:  # a value that is not a str
        pass
    buf = io.StringIO()
    # the default "\r\n" terminator, stripped below: the writer quotes a
    # field holding any character of its terminator, so an empty terminator
    # would leave ids with a lone "\r" or "\n" unquoted
    writer = csv.writer(buf)
    fields = []
    for value in values:
        if type(value) is str and not _QUOTED_CHAR.search(value):
            fields.append(value)
            continue
        # a second, empty field: a row of one empty field is written '""'
        writer.writerow((value, ""))
        fields.append(buf.getvalue()[:-3])
        buf.seek(0)
        buf.truncate()
    return fields


def _padded(data: np.ndarray, lengths: np.ndarray, width: int) -> np.ndarray:
    """Pieces given as their bytes joined and their lengths, each a row of
    ``width`` bytes padded on its right with ``_PAD``."""
    rows = np.full((len(lengths), width), _PAD, dtype=np.uint8)
    # each row's run of bytes and run of padding
    runs = np.stack((lengths, width - lengths), axis=1).reshape(-1)
    rows.reshape(-1)[np.repeat(np.tile([True, False], len(lengths)), runs)] = data
    return rows


def _joined(pieces: list[str]) -> tuple[np.ndarray, np.ndarray]:
    """The UTF-8 bytes of ``pieces`` joined, and the offset of each piece's
    start and of their end."""
    data = "".join(pieces).encode("utf-8")
    offsets = np.zeros(len(pieces) + 1, dtype=np.intp)
    np.cumsum(np.fromiter(map(len, pieces), dtype=np.intp, count=len(pieces)),
              out=offsets[1:])
    if offsets[-1] != len(data):  # not ASCII: count each piece's bytes
        np.cumsum([len(p.encode("utf-8")) for p in pieces], out=offsets[1:])
    return np.frombuffer(data, dtype=np.uint8), offsets


def _paired(first: tuple, second: tuple) -> tuple[np.ndarray, np.ndarray]:
    """Every pair of the joined pieces ``first`` and ``second`` as one
    piece, joined: pair (i, j) is piece i * len(second) + j."""
    (a, a_offsets), (b, b_offsets) = first, second
    a_lengths, b_lengths = np.diff(a_offsets), np.diff(b_offsets)
    pairs = np.concatenate([
        np.repeat(_padded(a, a_lengths, int(a_lengths.max(initial=0))), len(b_lengths), axis=0),
        np.tile(_padded(b, b_lengths, int(b_lengths.max(initial=0))), (len(a_lengths), 1))],
        axis=1).ravel()
    lengths = np.add.outer(a_lengths, b_lengths).ravel()
    return pairs[pairs != _PAD], np.concatenate(([0], np.cumsum(lengths)))


class _Pieces:
    """A column's distinct pieces, given joined, each a row of ``table``
    padded on its right with ``_PAD``.

    The table takes about as many bytes as the pieces, or as
    ``_CSV_BLOCK_BYTES`` if that is more: a piece longer than its width is
    written as the own piece of each row that shows it.
    """

    def __init__(self, data: np.ndarray, offsets: np.ndarray):
        self.data, self.offsets = data, offsets
        self.lengths = np.diff(offsets)
        self.long = self.lengths > max(_CSV_BLOCK_BYTES, len(data)) // max(len(offsets) - 1, 1)
        kept = np.where(self.long, 0, self.lengths)  # a long piece's row is all padding
        width = int(kept.max(initial=0))
        if 0 < width < 16:  # numpy copies rows of 1, 2, 4, 8 or 16 bytes fastest
            width = 1 << (width - 1).bit_length()
        self.table = _padded(data[np.repeat(~self.long, self.lengths)], kept, width)

    def part(self, codes: np.ndarray, *own: tuple) -> "_Part":
        """A chunk's rows of the column, given their codes and any rows with
        their own pieces: the rows and their pieces, joined."""
        # a row of code -1 is given its own piece
        rows = np.flatnonzero(self.long[codes] & (codes >= 0)) if self.long.any() else ()
        if len(rows):
            starts, lengths = self.offsets[codes[rows]], self.lengths[codes[rows]]
            own += (rows, np.concatenate([self.data[s:s + n] for s, n in
                                          zip(starts.tolist(), lengths.tolist())]),
                    np.concatenate(([0], np.cumsum(lengths)))),
        return _Part(self, codes, own)


class _Part:
    """A chunk's rows of one column: a row's piece is its code's row of the
    column's table, or its own piece."""

    def __init__(self, pieces: _Pieces, codes: np.ndarray, own: tuple):
        self.pieces, self.codes, self.own = pieces, codes, own
        #: each row's width in the chunk's matrix, or one width for every row
        self.widths = pieces.table.shape[1]
        if self.widths > _CSV_BLOCK_BYTES // _CSV_CHUNK_ROWS:
            # the rows of a wide table are as wide as their pieces
            self.widths = pieces.lengths[codes]
        elif own:
            self.widths = np.full(len(codes), self.widths)
        for rows, _, offsets in own:
            self.widths[rows] = np.diff(offsets)

    def fill(self, out: np.ndarray, lo: int, hi: int) -> None:
        """Write rows ``lo`` to ``hi`` of the chunk into ``out``, a matrix
        as wide as the widest of them."""
        table = self.pieces.table
        width, have = out.shape[1], table.shape[1]
        spans = [(rows, data, offsets, *np.searchsorted(rows, (lo, hi)))
                 for rows, data, offsets in self.own]
        if sum(end - start for *_, start, end in spans) < hi - lo:
            codes = self.codes[lo:hi]  # code -1 wraps to a row given its own piece
            if width < have:  # each row's piece fits: cut padding off the table
                out[...] = table[codes, :width]
            else:
                out[:, have:] = _PAD
                # each row gathered as one item of ``have`` bytes
                out[:, :have].view(f"V{have}")[...] = np.take(
                    table.view(f"V{have}"), codes, axis=0)
        for rows, data, offsets, start, end in spans:
            if start < end:
                out[rows[start:end] - lo] = _padded(
                    data[offsets[start]:offsets[end]],
                    np.diff(offsets[start:end + 1]), width)


@lru_cache
def _digit_groups() -> _Pieces:
    """The pieces of each group of four digits, of value g from 0 to 9999:
    the empty piece (code 0), ``str(g)`` (code 1 + g) and its four digits,
    zeros leading (code 10001 + g)."""
    values = range(10_000)
    return _Pieces(*_joined(["", *map(str, values), *(f"{g:04d}" for g in values)]))


def _digit_parts(ids: np.ndarray) -> list[_Part]:
    """A chunk's non-negative integer ids, as ``str`` of each: a part per
    group of four digits, the most significant first. A group after a
    nonzero one is its four digits; a leading zero group other than the
    last is empty, and any other group is ``str`` of its value."""
    rest, values = ids.astype(np.uint64), []
    for _ in range(-(-len(str(int(ids.max()))) // 4)):
        quotient = rest // 10_000  # divides faster than % does
        values.append((rest - quotient * 10_000).astype(np.intp))
        rest = quotient
    pieces, parts = _digit_groups(), []
    offset = 1  # 10_001 in a row once it has had a nonzero group
    for value in values[:0:-1]:
        code = value + offset
        begun = code != 1  # code 1 is "0", of a leading zero group,
        code *= begun  # which takes the empty piece
        offset = np.where(begun, 10_001, 1)
        parts.append(pieces.part(code))
    parts.append(pieces.part(values[0] + offset))
    return parts


def _write_rows(fh, parts: list, lo: int, hi: int) -> None:
    """Write rows ``lo`` to ``hi`` of a chunk from a matrix of the parts'
    pieces side by side, each padded to the part's width in the rows; rows
    that would take more than ``_CSV_BLOCK_BYTES`` are halved."""
    widths = [w if isinstance(w, int) else int(w[lo:hi].max())
              for w in (part.widths for part in parts)]
    if (hi - lo) * sum(widths) > _CSV_BLOCK_BYTES and hi - lo > 1:
        middle = (lo + hi) // 2
        _write_rows(fh, parts, lo, middle)
        _write_rows(fh, parts, middle, hi)
        return
    rows = np.empty((hi - lo, sum(widths)), dtype=np.uint8)
    at = 0
    for part, width in zip(parts, widths):
        part.fill(rows[:, at:at + width], lo, hi)
        at += width
    data = rows.ravel()
    fh.write(data[data != _PAD])


def _mixed_radix(group: list, rows: slice) -> np.ndarray:
    """The code of each row's pieces in a group's table of pairs, from the
    codes of its columns and the counts of their pieces."""
    code = 0
    for codes, count in group:
        code = code * count + codes[rows]
    return code


def write_trials_csv(table: TrialTable, path: str | Path) -> None:
    """Write a trial table as CSV; probability reports are written as
    ``repr`` of their float, and integer trial ids as ``str`` of them.

    The bytes are those of ``csv.writer``: each distinct id that it would
    quote is quoted once by it. A chunk of rows is written from one matrix
    of bytes, a row each: the row's pieces side by side, each padded on its
    right with ``_PAD`` to its column's width, and written without the
    padding. A non-negative integer trial id is written as groups of four
    digits, each gathered from one table of the pieces of 0 to 9999. An id
    column's piece, its field with the comma before it, is gathered from a
    table of its distinct ones, and so is a decision's response, with the
    line end after it; neighbouring columns with few pairs of pieces share
    one table of the pairs. Other trial ids, negative integers among them,
    are made row by row, and a chunk's probability responses by one
    ``repr_rows`` call.
    """
    columns = [(getattr(table, name), _joined([
        f",{f}" for f in _csv_fields(getattr(table, f"{name}_ids"))]))
        for name in ("strategy", "signal", "state")]
    responses = _joined([f",action,{f}\r\n" for f in _csv_fields(table.action_ids)])
    decided = bool((table.action >= 0).all())
    if decided:
        columns.append((table.action, responses))
    # a column joins the group before it while the group's table of pairs
    # stays small beside the trials and its pieces narrow
    groups: list[tuple[list, tuple]] = []
    for codes, pieces in columns:
        count = len(pieces[1]) - 1
        if groups:
            group, joined = groups[-1]
            longest = sum(np.diff(offsets).max(initial=0) for _, offsets in (joined, pieces))
            if (len(joined[1]) - 1) * count <= len(table) // 8 \
                    and longest <= _CSV_BLOCK_BYTES // _CSV_CHUNK_ROWS:
                groups[-1] = ([*group, (codes, count)], _paired(joined, pieces))
                continue
        groups.append(([(codes, count)], pieces))
    groups = [(group, _Pieces(*joined)) for group, joined in groups]
    actions = _Pieces(*responses)
    ids = table.trial_ids
    numbered = ids.dtype.kind in "iu" and not (ids < 0).any()
    if not numbered:
        text_ids = _csv_fields(ids.tolist())
        no_pieces = _Pieces(*_joined([]))
    with open(path, "wb") as fh:
        fh.write((",".join(TRIAL_CSV_HEADER) + "\r\n").encode("utf-8"))
        for start in range(0, len(table), _CSV_CHUNK_ROWS):
            rows = slice(start, start + _CSV_CHUNK_ROWS)
            count = min(_CSV_CHUNK_ROWS, len(table) - start)
            parts = _digit_parts(ids[rows]) if numbered else [no_pieces.part(
                # every row has its own piece
                np.full(count, -1), (np.arange(count), *_joined(text_ids[rows])))]
            parts += [pieces.part(_mixed_radix(group, rows)) for group, pieces in groups]
            if not decided:
                action = table.action[rows]
                reports = np.flatnonzero(action < 0)
                text = b""
                if len(reports):  # an empty row would still add a piece
                    # the reports as one row: a piece ends after each "\n"
                    (row,) = repr_rows(table.report[rows][reports][None], b"\r\n,probability,")
                    text = b"".join((b",probability,", row, b"\r\n"))
                data = np.frombuffer(text, dtype=np.uint8)
                offsets = np.concatenate(([0], np.flatnonzero(data == ord("\n")) + 1))
                parts.append(actions.part(action, (reports, data, offsets)))
            _write_rows(fh, parts, 0, count)


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


def _distinct(data: bytes, start: np.ndarray, length: np.ndarray,
              words: list[np.ndarray]) -> tuple[list[str], np.ndarray]:
    """The distinct fields of a column of ASCII ``data`` in order of first
    appearance, and each row's index into them."""
    # the data holds no NUL, so a field's words, zeroed past its end, are
    # equal only for equal fields
    if len(start) and all((word == word[0]).all() for word in words):
        # a column of one value, as a file's strategy often is: no sort
        return [data[start[0]:start[0] + length[0]].decode("ascii")], \
            np.zeros(len(start), dtype=np.intp)
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
    values = [data[s:s + n].decode("ascii") for s, n in
              zip(start[first].tolist(), length[first].tolist())]
    return values, np.argsort(order)[group]


def _strings(words: list[np.ndarray]) -> np.ndarray:
    """The fields covered by ``words``, as a "U" array."""
    # each ASCII byte widened to a UCS-4 code point; the zeroed bytes past a
    # field's end are the padding of a "U" item
    data = np.stack(words, axis=1).astype("<u8", copy=False)
    return data.view(np.uint8).astype("<u4").view(f"<U{8 * len(words)}").ravel()


def _rows_of(kind: bytes, length: np.ndarray, words: list[np.ndarray]) -> np.ndarray:
    """Whether each field is ``kind``, told by its length and its words."""
    rows = length == len(kind)
    if rows.any():  # then the fields have at least as many words as kind
        for word, value in zip(words, np.frombuffer(kind + bytes(-len(kind) % 8), "<u8")):
            rows &= word == value
    return rows


def _add_ascii(builder: _TableBuilder, text: bytes) -> int | None:
    """Append the rows of a chunk of whole lines, coding each column with
    numpy; return the number of lines in it.

    Return None, adding nothing, if the bytes are not ASCII or hold a quote
    or a NUL, a line that is not blank does not hold
    ``len(TRIAL_CSV_HEADER) - 1`` commas, the words of the fields would
    exceed ``_WORD_BYTES_PER_CHAR`` bytes per char, a response kind is
    unknown, or a report is not a number.
    """
    if not text.isascii() or b'"' in text or b"\0" in text:
        return None
    raw = text + bytes(8)
    data = np.frombuffer(raw, dtype=np.uint8)
    if b"\r" not in text:
        ends, step = np.flatnonzero(data == ord("\n")), 1
    else:
        ends, step = np.flatnonzero(data == ord("\r")), 2
        if np.count_nonzero(data == ord("\n")) != len(ends) \
                or not (data[ends + 1] == ord("\n")).all():
            # lone "\r" or "\n" line ends: make every line end a "\n"
            return _add_ascii(builder, text.replace(b"\r\n", b"\n").replace(b"\r", b"\n"))
    if not len(ends) or ends[-1] + step < len(text):
        ends = np.append(ends, len(text))  # a last line with no line end
    starts = np.concatenate(([0], ends[:-1] + step))
    kept = ends > starts
    if not kept.any():
        return len(ends)
    width = len(TRIAL_CSV_HEADER)
    line_starts, line_ends = starts[kept], ends[kept]
    commas = np.flatnonzero(data == ord(","))
    if len(commas) != (width - 1) * len(line_starts):
        return None
    # width - 1 commas per line in all: each line holds width - 1 of them
    # if each group of width - 1, in order, starts and ends inside its line
    commas = commas.reshape(-1, width - 1).T
    if (commas[0] < line_starts).any() or (commas[-1] >= line_ends).any():
        return None
    fields = [(start, stop - start) for start, stop in
              zip([line_starts, *(commas + 1)], [*commas, line_ends])]
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
    (_, _, trial_words), *named, (_, *kind), (r_start, r_length, r_words) = columns

    is_action = _rows_of(b"action", *kind)
    if not (is_action | _rows_of(b"probability", *kind)).all():
        return None
    try:
        reports = [float(r) for r in _strings([w[~is_action] for w in r_words]).tolist()]
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


def _skip_byte_order_mark(fh) -> None:
    """Read past a text file's leading U+FEFF, if it has one, as Excel's
    "CSV UTF-8" writes; the file is decoded as plain UTF-8 all the same."""
    if fh.read(1) != "\ufeff":
        fh.seek(0)


def _line_chunks(fh) -> Iterator[bytes]:
    """The rest of a binary file in chunks of whole lines, read
    ``_CSV_CHUNK_CHARS`` bytes at a time. A chunk ends after its last "\n",
    or, with none, after its last "\r" but a final one, which may be half of
    a "\r\n"; the rest is carried into the next chunk. A chunk with no line
    end grows by further reads until it has one or the file ends."""
    held = []  # read and not given: no line end in them but a final "\r"
    while piece := fh.read(_CSV_CHUNK_CHARS):
        end = piece.rfind(b"\n") + 1 or piece.rfind(b"\r", 0, len(piece) - 1) + 1
        # a "\r" ending what is held is a line end: with end 0, no "\n" follows
        if end or held and held[-1].endswith(b"\r"):
            yield b"".join([*held, memoryview(piece)[:end]])
            held, piece = [], piece[end:]
        if piece:
            held.append(piece)
    if held:
        yield b"".join(held)


#: A line end, as ``csv.reader`` and ``_add_ascii`` count lines.
_LINE_END = re.compile(rb"\r\n?|\n")


def _undecodable_line(path: str | Path) -> int:
    """The number of the line that holds the file's first byte that is not
    UTF-8."""
    line = 1
    with open(path, "rb") as fh:
        for chunk in _line_chunks(fh):
            try:
                chunk.decode("utf-8")
            except UnicodeDecodeError as err:
                return line + len(_LINE_END.findall(chunk, 0, err.start))
            line += len(_LINE_END.findall(chunk))
    return line


def read_trials_csv(path: str | Path) -> TrialTable:
    """Read a trial CSV into a table. A leading byte-order mark and blank
    lines are skipped; a wrong header raises ``TrialDataError``, and so does
    a line with the wrong number of fields, an unknown response kind, a
    probability report that is not a number, a field that ``csv.reader``
    refuses or a byte that is not UTF-8, naming the first such line.

    The header is parsed by ``csv.reader``, and the rest of the file is read
    by ``_line_chunks``. ``_add_ascii`` codes a chunk with numpy;
    ``csv.reader`` parses each chunk it refuses, and from a chunk that holds
    a quote on, the rest of the file, since a quoted field can hold a line
    end.
    """
    try:
        with open(path, "rb") as fh:
            text = io.TextIOWrapper(fh, encoding="utf-8", newline="")
            _skip_byte_order_mark(text)
            offset = text.tell()  # 3 after a byte-order mark, else 0
            taken = []
            reader = csv.reader(taken.append(s) or s for s in iter(text.readline, ""))
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
            # the header's end in bytes: tell() fails after a lone "\r"
            text.detach().seek(offset + len("".join(taken).encode("utf-8")))
            builder = _TableBuilder()
            line = reader.line_num + 1
            chunks = _line_chunks(fh)
            for chunk in chunks:
                count = _add_ascii(builder, chunk)
                if count is not None:
                    line += count
                    continue
                # a quoted field can hold a line end: from a chunk with a
                # quote on, csv.reader parses the rest of the chunks
                parsed = chain([chunk], chunks) if b'"' in chunk else [chunk]
                line = _add_parsed(builder, chain.from_iterable(
                    io.StringIO(c.decode("utf-8"), newline="") for c in parsed), line)
    except UnicodeDecodeError as err:
        raise TrialDataError(f"line {_undecodable_line(path)}: not UTF-8 text "
                             f"({err.reason})") from None
    if not builder.trial_ids:
        raise TrialDataError("trial file contains no records")
    return builder.table()
