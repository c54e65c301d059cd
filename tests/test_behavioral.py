import csv
import io
import re
import tracemalloc
from dataclasses import replace
from itertools import accumulate, islice
from operator import itemgetter

import numpy as np
import pytest

from rabench import trials
from rabench.agents import AgentSpec, simulate
from rabench.behavioral import (
    EmpiricalJoint,
    LossReport,
    decisions_from_beliefs,
    decompose,
    ingest,
    loss_report,
    pooled_loss_report,
)
from rabench.cases import build_case
from rabench.errors import InvalidModelError, TrialDataError
from rabench.generative import (
    TWO_TEAM_STATE_IDS,
    TwoTeamDGM,
    kale_joint,
    two_team_report_map,
)
from rabench.model import (
    ActionSpace,
    ExperimentDesign,
    InformationStructure,
    MatrixRule,
    StateSpace,
)
from rabench.rational import rational_report
from rabench.trials import TRIAL_CSV_HEADER, TrialTable, read_trials_csv, write_trials_csv

from conftest import trial_rows, trial_table, weather_design


def record(i, strategy, signal, state, kind="action", response="no-salt"):
    return str(i), strategy, signal, state, kind, response


def exact_joint(design, masses, kind="action", scale=10_000.0):
    """Empirical joint with pseudo-counts equal to exact channel masses."""
    masses = np.asarray(masses, dtype=float)
    return EmpiricalJoint(
        action_ids=design.actions.ids,
        state_ids=design.states.ids,
        counts=masses * scale,
        kind=kind,
        action_values=design.actions.values,
    )


def rational_channel_masses():
    # no-salt on the two tight forecasts, salt on the two wide ones
    return np.array([
        [0.24845 + 0.23805, 0.00155 + 0.01195],
        [0.22360 + 0.21030, 0.02640 + 0.03970],
    ])


def prior_channel_masses():
    return np.array([[0.9204, 0.0796], [0.0, 0.0]])


def random_channel_masses():
    prior = np.array([0.9204, 0.0796])
    return np.vstack([0.5 * prior, 0.5 * prior])


class TestIngest:
    def test_counts_decision_pairs(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=5", "freezing", response="salt"),
            record(2, "CI", "sigma=5", "freezing", response="salt"),
            record(3, "CI", "sigma=2", "not-freezing", response="no-salt"),
            record(4, "CI", "sigma=2", "not-freezing", response="no-salt"),
        ]
        joint = ingest(trial_table(records), design)
        assert joint.kind == "action"
        assert joint.masses[design.actions.index("salt"), 1] == pytest.approx(0.5)
        assert joint.masses[design.actions.index("no-salt"), 0] == pytest.approx(0.5)

    def test_nearby_reports_share_a_bin(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=5", "freezing", "probability", 0.551),
            record(2, "CI", "sigma=5", "freezing", "probability", 0.559),
        ]
        joint = ingest(trial_table(records), design, bin_width=0.02)
        populated = np.flatnonzero(joint.counts.sum(axis=1))
        assert len(populated) == 1
        assert joint.action_values[populated[0]] == pytest.approx(0.55)

    def test_unknown_state_lists_offenders(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=5", "freezing", response="salt"),
            record(99, "CI", "sigma=5", "hail", response="salt"),
        ]
        with pytest.raises(TrialDataError) as err:
            ingest(trial_table(records), design)
        assert "99" in str(err.value)

    def test_unknown_action_and_signal_rejected(self):
        design = weather_design()
        with pytest.raises(TrialDataError):
            ingest(trial_table([record(1, "CI", "sigma=9", "freezing")]), design)
        with pytest.raises(TrialDataError):
            ingest(trial_table([record(1, "CI", "sigma=5", "freezing",
                                       response="shovel")]), design)

    def test_mixed_task_types_rejected(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=5", "freezing", "action", "salt"),
            record(2, "CI", "sigma=5", "freezing", "probability", 0.5),
        ]
        with pytest.raises(TrialDataError):
            ingest(trial_table(records), design)

    def test_empty_records_rejected(self):
        with pytest.raises(TrialDataError):
            ingest(trial_table([]), weather_design())

    def test_partial_last_bin_midpoint(self):
        design = weather_design()
        records = [record(1, "CI", "sigma=5", "freezing", "probability", 1.0)]
        joint = ingest(trial_table(records), design, bin_width=0.3)
        assert joint.action_values == pytest.approx((0.15, 0.45, 0.75, 0.95))
        assert joint.counts[3, 1] == 1.0

    @pytest.mark.parametrize("width, per_bin", [(0.02, 2), (0.05, 5), (0.1, 10)])
    def test_reports_on_bin_edges_land_in_the_bin_above(self, width, per_bin):
        # bin k covers [k w, (k + 1) w), so report k/100 is in bin
        # floor(k / (100 w)), the last bin also holding 1
        design = weather_design()
        n_bins = 100 // per_bin
        for k in range(101):
            table = trial_table([record(k, "CI", "sigma=5", "freezing",
                                        "probability", k / 100)])
            joint = ingest(table, design, bin_width=width)
            assert np.flatnonzero(joint.counts.sum(axis=1)).tolist() == \
                [min(k // per_bin, n_bins - 1)], k

    def test_report_outside_unit_interval_rejected(self):
        design = weather_design()
        with pytest.raises(TrialDataError):
            ingest(trial_table([record(1, "CI", "sigma=5", "freezing",
                                       "probability", 1.2)]), design)


class TestTrialCsv:
    def test_round_trip(self, tmp_path):
        records = [
            record(1, "CI", "sigma=5", "freezing", "action", "salt"),
            record(2, "CI", "sigma=3", "not-freezing", "probability", 0.0478),
        ]
        path = tmp_path / "trials.csv"
        write_trials_csv(trial_table(records), path)
        assert trial_rows(read_trials_csv(path)) == trial_rows(trial_table(records))

    def test_round_trip_quotes_awkward_ids(self, tmp_path):
        records = [
            record("a,b", "CI", 'say "hi"', "freezing", "action", "salt"),
            record("two\nlines", "C,I", "sigma=3", 'x"\ny', "action", "no,salt"),
            record("", "CI", "sigma=2", "not-freezing", "probability", 0.1),
        ]
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        write_trials_csv(trial_table(records), first)
        back = read_trials_csv(first)
        write_trials_csv(back, second)
        assert second.read_bytes() == first.read_bytes()
        assert trial_rows(back) == trial_rows(trial_table(records))

    def test_missing_header_rejected(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
        with pytest.raises(TrialDataError):
            read_trials_csv(path)

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("", encoding="utf-8")
        with pytest.raises(TrialDataError):
            read_trials_csv(path)


# -- the csv-module trial CSV writer and reader, kept as the reference ----


def reference_write_trials_csv(table, path):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_CSV_HEADER)
        writer.writerows(trial_rows(table))


def numbered_rows(reader):
    """(number of the first line, row) of each row ``reader`` gives: a
    quoted field can hold line ends, so rows are not lines."""
    line = reader.line_num + 1
    for row in reader:
        yield line, row
        line = reader.line_num + 1


def reference_read_trials_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise TrialDataError("trial file is empty") from None
        if tuple(h.strip() for h in header) != TRIAL_CSV_HEADER:
            raise TrialDataError(
                f"trial file header must be {','.join(TRIAL_CSV_HEADER)}"
            )
        builder = trials._TableBuilder()
        width = len(TRIAL_CSV_HEADER)
        rows = numbered_rows(reader)
        while chunk := list(islice(rows, trials._CSV_CHUNK_ROWS)):
            for i, row in chunk:
                if not row:
                    continue
                if len(row) != width:
                    raise TrialDataError(f"line {i}: expected {width} fields")
                if row[4] not in ("action", "probability"):
                    raise TrialDataError(
                        f"line {i}: response_kind must be 'action' or "
                        f"'probability', got {row[4]!r}"
                    )
                if row[4] == "probability":
                    try:
                        float(row[5])
                    except ValueError:
                        raise TrialDataError(
                            f"line {i}: probability response {row[5]!r} "
                            f"is not a number"
                        ) from None
            kept = [row for _, row in chunk if row]
            builder.add(*(list(map(itemgetter(k), kept)) for k in range(width)))
    if not builder.trial_ids:
        raise TrialDataError("trial file contains no records")
    return builder.table()


def counting_csv_reader(parsed):
    """A stand-in for ``csv.reader`` that appends each row it parses to
    ``parsed``."""
    reader = csv.reader

    class CountingReader:
        def __init__(self, lines):
            self.reader = reader(lines)

        def __iter__(self):
            return self

        def __next__(self):
            parsed.append(next(self.reader))
            return parsed[-1]

        @property
        def line_num(self):
            return self.reader.line_num

    return CountingReader


def traced_peak(call, *args):
    """The peak of memory traced by ``tracemalloc`` during the call."""
    tracemalloc.start()
    try:
        call(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def read_outcome(read, path):
    """Every column of the table read, or the error raised."""
    try:
        t = read(path)
    except (TrialDataError, InvalidModelError) as err:
        return type(err).__name__, str(err)
    return (t.trial_ids.tolist(), t.strategy_ids, t.strategy.tolist(),
            t.signal_ids, t.signal.tolist(), t.state_ids, t.state.tolist(),
            t.action_ids, t.action.tolist(), list(map(repr, t.report.tolist())))


#: Pieces of ids: the csv module quotes a field holding any of the first
#: six; the rest are written as they are.
AWKWARD_PIECES = (",", '"', "\r", "\n", "\r\n", '""', " ", "é", "日本", "", "a", "b7")
PLAIN_PIECES = (" ", "é", "", "a", "b7", "-", "=")
#: ASCII pieces of one, two and three 8-byte words that share their first
#: word, so ids are keyed by several words and end in a short last one.
LONG_PIECES = ("abcdefgh", "abcdefghi", "abcdefgh12345678x", "", "a", "-")


def random_table(rng, n, pieces):
    def new_id():
        return "".join(rng.choice(pieces, size=rng.integers(0, 4)).tolist())

    ids = {name: tuple(dict.fromkeys(new_id() for _ in range(rng.integers(1, 6))))
           for name in ("strategy", "signal", "state", "action")}
    codes = {name: rng.integers(0, len(ids[name]), size=n)
             for name in ("strategy", "signal", "state")}
    action = rng.integers(-1, len(ids["action"]), size=n)  # -1: a report
    report = np.where(action < 0, rng.uniform(size=n) ** rng.integers(1, 60, size=n),
                      np.nan)
    return TrialTable(trial_ids=[new_id() for _ in range(n)],
                      **{f"{name}_ids": v for name, v in ids.items()},
                      **codes, action=action, report=report)


def csv_lines(n, start=0):
    return [f"{i},CI,sigma={2 + i % 4},{('freezing', 'not-freezing')[i % 2]},"
            + ("action,salt" if i % 3 else f"probability,{i / (n + start + 1)!r}")
            for i in range(start, start + n)]


HEADER_LINE = ",".join(TRIAL_CSV_HEADER)
ROWS = csv_lines(6)
#: Trial files that read well, as text.
GOOD_CSVS = {
    "lf": "\n".join([HEADER_LINE, *ROWS]) + "\n",
    "cr": "\r".join([HEADER_LINE, *ROWS]) + "\r",
    "crlf": "\r\n".join([HEADER_LINE, *ROWS]) + "\r\n",
    "mixed line ends": "".join(line + end for line, end in zip(
        [HEADER_LINE, *ROWS], ["\r", "\n", "\r\n", "\r", "\r", "\n", "\r\n"])),
    "blank lines": "\r\n".join([HEADER_LINE, "", ROWS[0], "", "", *ROWS[1:3]])
                   + "\n\r\r\n" + "\r".join(ROWS[3:]) + "\n\n\r\n\r",
    "no final line end": "\r\n".join([HEADER_LINE, *ROWS]),
    "spaces kept": "\r\n".join([HEADER_LINE, " 0 , CI,sigma=5 ,freezing,action, salt"]),
    "quoted header": "\r\n".join(['"trial_id",strategy,signal,state,response_kind,'
                                   '" response"', *ROWS]),
    "quote after the first chunk": "\r\n".join(
        [HEADER_LINE, *csv_lines(9000), '9000,"C,I","a\r\nb","",action,"x""y"',
         *csv_lines(50, 9001)]) + "\r\n",
    "quote in a late row": "\r\n".join(
        [HEADER_LINE, *ROWS, '6,CI,sigma=2,freezing,action,"salt"', ""]) + "\r\n",
    "nul": "\r\n".join([HEADER_LINE, *ROWS[:3], "3,C\0I,sigma=2,freezing,action,salt",
                         *ROWS[4:]]),
}
#: Trial files that must be refused, as text.
BAD_CSVS = {
    "empty": "",
    "header only": HEADER_LINE + "\r\n",
    "header only, no line end": HEADER_LINE,
    "blank lines only": HEADER_LINE + "\r\n\r\n\n\r",
    "wrong header": "a,b,c\n1,2,3\n",
    "too few fields": "\n".join([HEADER_LINE, *ROWS[:4], "4,CI,sigma=2,freezing,action",
                                 *ROWS[5:]]),
    "too many fields after blank lines": "\r".join(
        [HEADER_LINE, "", ROWS[0], "", "1,CI,sigma=2,freezing,action,salt,x", *ROWS[2:]]),
    # the right number of commas in all, each line's kind where numpy looks
    "too many fields, then as many too few": "\r\n".join(
        [HEADER_LINE, ROWS[0], "1,CI,sigma=2,freezing,action,salt,x",
         "2,CI,freezing,action,salt", *ROWS[3:]]),
    "too few fields, then as many too many": "\r\n".join(
        [HEADER_LINE, ROWS[0], "1,CI,sigma=2,freezing",
         "2,action,CI,sigma=2,freezing,action,salt,x", *ROWS[3:]]),
    "too few fields after the first chunk": "\r\n".join(
        [HEADER_LINE, *csv_lines(9000), "9000,CI", *csv_lines(5, 9001)]),
    "a blank field list": "\r\n".join([HEADER_LINE, ROWS[0], ",,,,,", ROWS[1]]),
    "not a number": "\r\n".join([HEADER_LINE, *ROWS[:4],
                                   "4,CI,sigma=2,freezing,probability,often", *ROWS[5:]]),
    "not a number after a quote": "\r\n".join(
        [HEADER_LINE, '0,"CI",sigma=2,freezing,action,salt', *ROWS[1:4],
         "4,CI,sigma=2,freezing,probability,", *ROWS[5:]]),
    "bad kind": "\n".join([HEADER_LINE, *ROWS[:2], "2,CI,sigma=2,freezing,guess,1"]),
    "a kind as long as action": "\n".join([HEADER_LINE, *ROWS[:2],
                                           "2,CI,sigma=2,freezing,actioN,salt", *ROWS[3:]]),
    "a kind as long as probability": "\n".join(
        [HEADER_LINE, *ROWS[:4], "4,CI,sigma=2,freezing,probabilitY,0.5", *ROWS[5:]]),
    "not a number before too few fields": "\r\n".join(
        [HEADER_LINE, "0,CI,sigma=2,freezing,probability,often",
         "1,CI,sigma=2,freezing,action", *ROWS[2:]]),
    "bad kind after a quote, before too few fields": "\r\n".join(
        [HEADER_LINE, '0,"CI",sigma=2,freezing,action,salt', *ROWS[1:3],
         "3,CI,sigma=2,freezing,Action,salt", "4,CI", *ROWS[5:]]),
    "not a number after a quoted line end": "\r\n".join(
        [HEADER_LINE, '"a\r\nb",CI,sigma=5,freezing,action,salt',
         "1,CI,sigma=2,freezing,probability,often", *ROWS[2:]]),
    "not a number after a header with a quoted line end": "\r\n".join(
        ['"trial_id\r\n",strategy,signal,state,response_kind,response', ROWS[0],
         "1,CI,sigma=2,freezing,probability,often", *ROWS[2:]]),
    "too few fields in a later part after a quoted line end": "\n".join(
        [HEADER_LINE, *csv_lines(5), '"a\nb\rc",CI,sigma=5,freezing,action,salt',
         *csv_lines(9000, 6), "9006,CI", *csv_lines(5, 9007)]),
}
#: Characters per read chunk: the default, and sizes that put chunk ends
#: inside lines and inside "\r\n".
CHUNK_CHARS = [trials._CSV_CHUNK_CHARS, 1, 7, 40]


class TestTrialCsvMatchesCsvModule:
    """The chunked reader and writer give what the csv module gives."""

    @pytest.mark.parametrize("pieces", [AWKWARD_PIECES, PLAIN_PIECES, LONG_PIECES])
    def test_random_tables(self, tmp_path, monkeypatch, pieces):
        rng = np.random.default_rng(11)
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        for n in [0, 1, 2, 3, 17, 200, 700]:
            table = random_table(rng, n, pieces)
            write_trials_csv(table, path)
            reference_write_trials_csv(table, reference)
            assert path.read_bytes() == reference.read_bytes()
            for chars in CHUNK_CHARS:
                monkeypatch.setattr(trials, "_CSV_CHUNK_CHARS", chars)
                assert read_outcome(read_trials_csv, path) == \
                    read_outcome(reference_read_trials_csv, path)

    @pytest.mark.parametrize("column", [0, 1, 5])
    def test_a_long_field_costs_no_more_memory_than_the_csv_module(
            self, tmp_path, column):
        lines = csv_lines(20_000)
        fields = lines[3001].split(",")  # an action row
        fields[column] = "x" * 100_000
        lines[3001] = ",".join(fields)
        path = tmp_path / "trials.csv"
        path.write_text("\r\n".join([HEADER_LINE, *lines]) + "\r\n", newline="")
        assert read_outcome(read_trials_csv, path) == \
            read_outcome(reference_read_trials_csv, path)
        assert traced_peak(read_trials_csv, path) <= \
            1.1 * traced_peak(reference_read_trials_csv, path)

    def test_ids_that_are_not_str(self, tmp_path):
        table = trial_table([(7, 1, "sigma=2", 2.5, "action", "salt"),
                             (None, "CI", None, "freezing", "probability", 0.5)])
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        write_trials_csv(table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()

    def test_quote_free_str_ids_are_searched_once(self, monkeypatch):
        searched = []
        pattern = trials._QUOTED_CHAR

        class CountingPattern:
            def search(self, text):
                searched.append(text)
                return pattern.search(text)

        monkeypatch.setattr(trials, "_QUOTED_CHAR", CountingPattern())
        ids = ("sigma=2", "é", "", "b7")
        assert trials._csv_fields(ids) is ids
        assert searched == ["sigma=2éb7"]
        searched.clear()
        # a match, or a value that is not a str, sends each id to csv.writer
        assert list(trials._csv_fields(("a,b", "c", ""))) == ['"a,b"', "c", ""]
        assert searched == ["a,bc", "a,b", "c", ""]
        assert list(trials._csv_fields((7, "c", None))) == ["7", "c", ""]

    def test_large_table_writes_in_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        table = random_table(rng, 2 * trials._CSV_CHUNK_ROWS + 5, AWKWARD_PIECES)
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        write_trials_csv(table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("pieces", [AWKWARD_PIECES, PLAIN_PIECES, LONG_PIECES])
    def test_decision_tables_write_in_chunks(self, tmp_path, pieces):
        # with no probability row, neighbouring columns of few pieces are
        # written from one table of their pairs
        rng = np.random.default_rng(6)
        table = random_table(rng, 2 * trials._CSV_CHUNK_ROWS + 5, pieces)
        table = replace(table, action=np.where(table.action < 0, 0, table.action),
                        report=np.full(len(table), np.nan))
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        write_trials_csv(table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("mixed", [False, True, "after a chunk of decisions"])
    def test_probability_reports_are_written_as_repr(self, tmp_path, mixed):
        reports = [0.0, -0.0, 5e-324, 1e-300, 0.1 + 0.2, 1 - 2**-53, 1.0]
        n = 3 * len(reports)
        action = np.full(n, -1)
        if mixed:
            action[1::3] = [0, 1] * (len(reports) // 2) + [0] * (len(reports) % 2)
        table = TrialTable(
            trial_ids=np.arange(n), strategy_ids=("CI",), strategy=np.zeros(n, dtype=int),
            signal_ids=("sigma=2",), signal=np.zeros(n, dtype=int),
            state_ids=("freezing", "not-freezing"), state=np.arange(n) % 2,
            action_ids=("salt", "no-salt"), action=action,
            report=np.where(action < 0, np.resize(reports, n), np.nan))
        if mixed == "after a chunk of decisions":
            # a mixed table whose first chunk holds no report row
            decisions = np.resize(np.flatnonzero(action >= 0), trials._CSV_CHUNK_ROWS)
            table = table[np.concatenate((decisions, np.arange(n)))]
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        write_trials_csv(table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert b"probability,-0.0\r\n" in path.read_bytes()

    @pytest.mark.parametrize("column", ["trial_ids", "signal", "action"])
    def test_a_long_id_costs_a_few_times_the_file_s_size(self, tmp_path, column):
        n, long_id = 20_000, "x" * 1_000_000
        rng = np.random.default_rng(7)
        table = TrialTable(
            trial_ids=list(map(str, range(n))), strategy_ids=("CI",),
            strategy=np.zeros(n, dtype=int), signal_ids=("sigma=2", "sigma=3"),
            signal=rng.integers(0, 2, n), state_ids=("freezing", "not-freezing"),
            state=rng.integers(0, 2, n), action_ids=("salt", "no-salt"),
            action=rng.integers(-1, 2, n), report=rng.uniform(size=n))
        if column == "trial_ids":
            ids = table.trial_ids.copy()
            ids[3001] = long_id
            table = replace(table, trial_ids=ids)
        else:
            # a probability row beside the long action, whose code -1 is
            # the long id's code wrapped
            codes = getattr(table, column).copy()
            codes[3000:3002] = [-1 if column == "action" else 0, 2]
            table = replace(table, **{column: codes, f"{column}_ids":
                                      getattr(table, f"{column}_ids") + (long_id,)})
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        peak = traced_peak(write_trials_csv, table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()
        # the long id is written once, and no chunk is assembled as wide as
        # it; the file is 1.8 MB, and the peak 2.5 to 3 times that
        assert peak <= 4 * path.stat().st_size

    def test_wide_ids_write_in_parts(self, tmp_path):
        # pieces too wide for a chunk of 8192 rows in 1 MB, yet kept in
        # their table: each part of a chunk is as wide as its widest piece
        n = 20_000
        rng = np.random.default_rng(9)
        table = TrialTable(
            trial_ids=np.arange(n), strategy_ids=("CI",), strategy=np.zeros(n, dtype=int),
            signal_ids=("s" * 300, "t" * 150, "u"), signal=rng.choice(3, n, p=[0.001, 0.01, 0.989]),
            state_ids=("freezing", "not-" + "é" * 200), state=rng.integers(0, 2, n),
            action_ids=("salt", "no-salt"), action=rng.integers(-1, 2, n),
            report=rng.uniform(size=n))
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        write_trials_csv(table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("name", ["crlf", "quoted header", "quote after the first chunk"])
    def test_a_byte_order_mark_is_skipped(self, tmp_path, name):
        # Excel's "CSV UTF-8" leads the file with U+FEFF
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_bytes(GOOD_CSVS[name].encode("utf-8"))
        marked.write_bytes(("\ufeff" + GOOD_CSVS[name]).encode("utf-8"))
        assert read_outcome(read_trials_csv, marked) == read_outcome(read_trials_csv, plain)

    @pytest.mark.parametrize("chars", CHUNK_CHARS)
    @pytest.mark.parametrize("name", sorted(GOOD_CSVS.keys() | BAD_CSVS.keys()))
    def test_files(self, tmp_path, monkeypatch, name, chars):
        path = tmp_path / "trials.csv"
        path.write_bytes(GOOD_CSVS.get(name, BAD_CSVS.get(name)).encode("utf-8"))
        monkeypatch.setattr(trials, "_CSV_CHUNK_CHARS", chars)
        outcome = read_outcome(read_trials_csv, path)
        assert outcome == read_outcome(reference_read_trials_csv, path)
        assert (len(outcome) == 2) == (name in BAD_CSVS)

    @pytest.mark.parametrize("name, message", [
        ("too few fields", "line 6: expected 6 fields"),
        ("too many fields after blank lines", "line 5: expected 6 fields"),
        ("too few fields after the first chunk", "line 9002: expected 6 fields"),
        ("too many fields, then as many too few", "line 3: expected 6 fields"),
        ("too few fields, then as many too many", "line 3: expected 6 fields"),
        ("not a number", "line 6: probability response 'often' is not a number"),
        ("not a number after a quote", "line 6: probability response '' is not a number"),
        ("not a number before too few fields",
         "line 2: probability response 'often' is not a number"),
        ("bad kind",
         "line 4: response_kind must be 'action' or 'probability', got 'guess'"),
        ("a kind as long as action",
         "line 4: response_kind must be 'action' or 'probability', got 'actioN'"),
        ("a kind as long as probability",
         "line 6: response_kind must be 'action' or 'probability', got 'probabilitY'"),
        ("bad kind after a quote, before too few fields",
         "line 5: response_kind must be 'action' or 'probability', got 'Action'"),
        ("not a number after a quoted line end",
         "line 4: probability response 'often' is not a number"),
        ("not a number after a header with a quoted line end",
         "line 4: probability response 'often' is not a number"),
        ("too few fields in a later part after a quoted line end",
         "line 9010: expected 6 fields"),
    ])
    def test_errors_name_the_line(self, tmp_path, name, message):
        path = tmp_path / "trials.csv"
        path.write_bytes(BAD_CSVS[name].encode("utf-8"))
        with pytest.raises(TrialDataError, match=f"^{message}$"):
            read_trials_csv(path)

    def test_quote_free_rows_skip_the_csv_module(self, tmp_path, monkeypatch):
        parsed, written, row_wise = [], [], []
        writer = csv.writer

        class CountingWriter:
            def __init__(self, fh):
                self.writer = writer(fh)

            def writerow(self, row):
                written.append(row)
                return self.writer.writerow(row)

        table = simulate(weather_design(), "CI", AgentSpec.noisy_belief(0.8), 5000, seed=2)
        path = tmp_path / "trials.csv"
        monkeypatch.setattr(trials.csv, "reader", counting_csv_reader(parsed))
        monkeypatch.setattr(trials.csv, "writer", CountingWriter)
        monkeypatch.setattr(trials, "_add_rows", lambda *args: row_wise.append(args))
        write_trials_csv(table, path)
        assert trial_rows(read_trials_csv(path)) == trial_rows(table)
        assert parsed == [list(TRIAL_CSV_HEADER)]
        assert row_wise == []
        # no weather id holds a character csv.writer quotes, so none is
        # formatted by it
        assert written == []

    def test_a_refused_chunk_alone_goes_through_the_csv_module(self, tmp_path,
                                                               monkeypatch):
        lines = csv_lines(300)
        lines[150] = lines[150].replace(",CI,", ",Cé,")
        path = tmp_path / "trials.csv"
        path.write_bytes(("\r\n".join([HEADER_LINE, *lines]) + "\r\n").encode("utf-8"))
        parsed, coded = [], []
        add_ascii = trials._add_ascii

        def counting_add_ascii(builder, text):
            coded.append(add_ascii(builder, text))
            return coded[-1]

        monkeypatch.setattr(trials, "_CSV_CHUNK_CHARS", 2000)
        monkeypatch.setattr(trials.csv, "reader", counting_csv_reader(parsed))
        monkeypatch.setattr(trials, "_add_ascii", counting_add_ascii)
        outcome = read_outcome(read_trials_csv, path)
        monkeypatch.undo()
        assert outcome == read_outcome(reference_read_trials_csv, path)
        # one chunk is refused, and the chunks after it are coded by numpy
        assert coded.count(None) == 1 and coded[-1] is not None
        header, *rows = parsed
        assert header == list(TRIAL_CSV_HEADER)
        first = lines.index(",".join(rows[0]))
        assert [",".join(row) for row in rows] == lines[first:first + len(rows)]
        assert lines[150] in lines[first:first + len(rows)]
        assert len(rows) + sum(c for c in coded if c is not None) == len(lines)

    @pytest.mark.parametrize("fault, message", [
        (False, "line 7: field larger than field limit (131072)"),
        (True, "line 4: probability response 'often' is not a number"),
    ])
    @pytest.mark.parametrize("field", ['"' + "x" * 200_000 + '"', "x" * 200_000,
                                       "é" * 200_000])
    def test_a_field_over_the_csv_field_limit_names_the_first_fault(
            self, tmp_path, field, fault, message):
        lines = csv_lines(20)
        lines[5] = ",".join([field, *lines[5].split(",")[1:]])
        if fault:
            lines[2] = "2,CI,sigma=2,freezing,probability,often"
        path = tmp_path / "trials.csv"
        path.write_bytes(("\r\n".join([HEADER_LINE, *lines]) + "\r\n").encode("utf-8"))
        with pytest.raises(TrialDataError, match=f"^{re.escape(message)}$"):
            read_trials_csv(path)

    @pytest.mark.parametrize("chars", CHUNK_CHARS)
    @pytest.mark.parametrize("name", ["lf", "cr", "crlf", "mixed line ends", "blank lines",
                                      "no final line end", "spaces kept", "quoted header"])
    @pytest.mark.parametrize("mark", ["", "\ufeff"])
    def test_quote_free_ascii_files_skip_the_csv_module(self, tmp_path, monkeypatch,
                                                        name, chars, mark):
        # the header goes through csv.reader, and every row through numpy
        plain, path = tmp_path / "plain.csv", tmp_path / "trials.csv"
        plain.write_bytes(GOOD_CSVS[name].encode("utf-8"))
        path.write_bytes((mark + GOOD_CSVS[name]).encode("utf-8"))
        parsed = []
        monkeypatch.setattr(trials, "_CSV_CHUNK_CHARS", chars)
        monkeypatch.setattr(trials.csv, "reader", counting_csv_reader(parsed))
        outcome = read_outcome(read_trials_csv, path)
        monkeypatch.undo()
        assert outcome == read_outcome(reference_read_trials_csv, plain)
        assert len(outcome) > 2
        assert len(parsed) == 1
        assert [h.strip() for h in parsed[0]] == list(TRIAL_CSV_HEADER)

    @pytest.mark.parametrize("chars", CHUNK_CHARS)
    @pytest.mark.parametrize("where", ["header", "first chunk", "late chunk",
                                       "late chunk after a quote", "last line after a quote"])
    def test_a_byte_that_is_not_utf_8_names_its_line(self, tmp_path, monkeypatch,
                                                     chars, where):
        # more rows than the first chunk holds at the default size, line
        # ends of each kind, and a valid non-ASCII character on line 2
        n = 9000 if chars == trials._CSV_CHUNK_CHARS else 60
        bad_line, quote_line = {"header": (1, None), "first chunk": (4, None),
                                "late chunk": (n - 10, None),
                                "late chunk after a quote": (n - 10, 3),
                                "last line after a quote": (n + 1, n - 1)}[where]
        lines = [HEADER_LINE, *csv_lines(n)]
        lines[1] = lines[1].replace(",CI,", ",Cé,")
        if quote_line:
            lines[quote_line - 1] = lines[quote_line - 1].replace(",CI,", ',"CI",')
        data = [(line + ("\r\n", "\r", "\n")[i % 3]).encode("utf-8")
                for i, line in enumerate(lines)]
        data[bad_line - 1] = data[bad_line - 1].replace(b"r", b"\xe9", 1)
        path = tmp_path / "trials.csv"
        path.write_bytes(b"".join(data))
        monkeypatch.setattr(trials, "_CSV_CHUNK_CHARS", chars)
        with pytest.raises(TrialDataError,
                           match=f"^line {bad_line}: not UTF-8 text \\(invalid"):
            read_trials_csv(path)

    def test_a_header_over_the_csv_field_limit_names_line_1(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_bytes(("x" * 200_000 + "\r\n" + ROWS[0]).encode("utf-8"))
        with pytest.raises(TrialDataError, match="^line 1: field larger than field limit"):
            read_trials_csv(path)

    @pytest.mark.parametrize("chars", [1, 2, 3, 7, 64])
    def test_chunks_end_on_line_ends(self, monkeypatch, chars):
        lines = [b"ab\r\n", b"cd\r", b"ef\n", b"\r", b"g\r", b"\r\n", b"\n", b"h"]
        monkeypatch.setattr(trials, "_CSV_CHUNK_CHARS", chars)
        chunks = list(trials._line_chunks(io.BytesIO(b"".join(lines))))
        assert b"".join(chunks) == b"".join(lines)
        # each chunk is whole lines: read a byte at a time, one line
        ends = list(accumulate(map(len, lines)))
        assert set(accumulate(map(len, chunks))) <= set(ends)
        if chars == 1:
            assert chunks == lines

    def test_lone_cr_line_ends_are_read_in_chunks(self, tmp_path):
        # a file whose lines all end in a lone "\r" holds no "\n" to end a
        # chunk on
        table = simulate(weather_design(), "CI", AgentSpec.noisy_belief(0.8),
                         100_000, seed=4)
        crlf, cr = tmp_path / "crlf.csv", tmp_path / "cr.csv"
        write_trials_csv(table, crlf)
        cr.write_bytes(crlf.read_bytes().replace(b"\r\n", b"\r"))
        assert read_outcome(read_trials_csv, cr) == read_outcome(read_trials_csv, crlf)
        assert traced_peak(read_trials_csv, cr) <= 1.5 * traced_peak(read_trials_csv, crlf)

    def test_memory_within_the_csv_module_s(self, tmp_path):
        table = simulate(weather_design(), "CI", AgentSpec.noisy_belief(0.8),
                         100_000, seed=4)
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        assert traced_peak(write_trials_csv, table, path) <= \
            1.1 * traced_peak(reference_write_trials_csv, table, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert traced_peak(read_trials_csv, path) <= \
            1.1 * traced_peak(reference_read_trials_csv, path)


class TestTrialTable:
    def test_rows_index_and_select(self):
        records = [
            record(1, "CI", "sigma=5", "freezing", "action", "salt"),
            record(2, "mean", "mu=5", "not-freezing", "action", "no-salt"),
            record(3, "CI", "sigma=2", "not-freezing", "probability", 0.25),
        ]
        table = trial_table(records)
        assert len(table) == 3
        ci = table[table.strategy == table.strategy_ids.index("CI")]
        assert isinstance(ci, TrialTable)
        assert trial_rows(ci) == trial_rows(trial_table([records[0], records[2]]))
        assert trial_rows(table[1:]) == trial_rows(trial_table(records[1:]))
        assert trial_rows(table[[2, 0]]) == trial_rows(trial_table(records[::-2]))

    @pytest.mark.parametrize("column, code", [
        ("strategy", -1), ("strategy", 1), ("signal", -1), ("signal", 4),
        ("state", 5), ("state", -1), ("action", -2), ("action", 2)])
    def test_codes_outside_their_ids_are_refused(self, column, code):
        columns = {"strategy": [0] * 4, "signal": [3, 2, 1, 0], "state": [0, 1, 1, 0],
                   "action": [0, 1, -1, 1]}
        columns[column][1] = code
        with pytest.raises(InvalidModelError, match=f"^{column} codes must lie in"):
            TrialTable(trial_ids=np.arange(4), strategy_ids=("CI",),
                       signal_ids=("sigma=2", "sigma=3", "sigma=4", "sigma=5"),
                       state_ids=("freezing", "not-freezing"), action_ids=("salt", "no-salt"),
                       report=[np.nan, np.nan, 0.5, np.nan], **columns)

    def test_selected_rows_are_not_checked_again(self, monkeypatch):
        table = simulate(weather_design(), "CI", AgentSpec.rational(), 50, seed=1)
        checked = []
        monkeypatch.setattr(TrialTable, "__post_init__", lambda self: checked.append(self))
        assert trial_rows(table[5:9]) == trial_rows(table)[5:9]
        assert len(table[table.state == 0]) == int((table.state == 0).sum())
        assert checked == []

    def test_loss_report_refuses_other_strategies(self):
        # scored as CI, trials of the mean strategy would fold into the joint
        design = weather_design()
        trials = simulate(design, "mean", AgentSpec.rational(), 2_000, seed=1)
        with pytest.raises(TrialDataError) as err:
            loss_report(design, "CI", trials)
        assert err.value.trial_ids == [str(i) for i in range(2_000)]

        mixed = [record(1, "CI", "sigma=5", "freezing", response="salt"),
                 record(2, "mean", "mu=5", "freezing", response="salt")]
        with pytest.raises(TrialDataError) as err:
            loss_report(design, "CI", trial_table(mixed))
        assert err.value.trial_ids == ["2"]

    def test_loss_report_names_integer_ids_as_the_file_shows_them(self):
        n = 5
        table = TrialTable(
            trial_ids=np.arange(n), strategy_ids=("mean",),
            strategy=np.zeros(n, dtype=int), signal_ids=("mu=5",),
            signal=np.zeros(n, dtype=int), state_ids=("freezing",),
            state=np.zeros(n, dtype=int), action_ids=("salt",),
            action=np.zeros(n, dtype=int), report=np.full(n, np.nan))
        with pytest.raises(TrialDataError) as err:
            loss_report(weather_design(), "CI", table)
        assert err.value.trial_ids == ["0", "1", "2", "3", "4"]
        assert str(err.value).endswith("(trials: 0, 1, 2, 3, 4)")


def integer_id_table(rng, n, dtype):
    """A random table whose trial ids are ``n`` integers of ``dtype``,
    spread over its whole range."""
    info = np.iinfo(dtype)
    ids = rng.integers(info.min, info.max, size=n, dtype=dtype, endpoint=True)
    return replace(random_table(rng, n, PLAIN_PIECES), trial_ids=ids)


class TestIntegerTrialIds:
    """Integer trial ids stay integers in the table and are written as
    ``str`` of them."""

    @pytest.mark.parametrize("n", [1, 8191, 8192, 8193, 20001])
    @pytest.mark.parametrize("dtype", [np.int64, np.int32, np.uint32])
    def test_written_as_str_ids_are(self, tmp_path, dtype, n):
        table = integer_id_table(np.random.default_rng(n), n, dtype)
        assert table.trial_ids.dtype == dtype
        as_str = replace(table, trial_ids=list(map(str, table.trial_ids.tolist())))
        path, str_path, reference = (tmp_path / f"{name}.csv"
                                     for name in ("trials", "str", "reference"))
        write_trials_csv(table, path)
        write_trials_csv(as_str, str_path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == str_path.read_bytes() == reference.read_bytes()

        back = read_trials_csv(path)
        assert {type(i) for i in back.trial_ids.tolist()} == {str}
        assert trial_rows(back) == trial_rows(table) == trial_rows(as_str)

    @pytest.mark.parametrize("dtype", [np.uint64, np.int8, np.int16])
    def test_whole_ranges_are_written_as_str_ids_are(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        table = integer_id_table(np.random.default_rng(8), 20_001, dtype)
        ids = table.trial_ids.copy()
        ids[[0, 1, 8191, 8192, 20_000]] = [info.min, info.max, info.max, 0, info.min]
        table = replace(table, trial_ids=ids)
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        write_trials_csv(table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("dtype", [np.int64, np.uint64])
    def test_every_count_of_digits_is_written_as_str_ids_are(self, tmp_path, dtype):
        info = np.iinfo(dtype)
        edges = [0, 9, 10, info.min, info.max]
        edges += [n for k in range(1, 20) for n in (10**k - 1, 10**k) if n <= info.max]
        # a zero group of four digits inside the id
        edges += [10**8 + 1, 10**12 + 10**4 + 7]
        if info.min < 0:
            edges += [-1, -10, info.min + 1]
        # each edge alone, and beside a number of each count of digits
        for ids in [[n] for n in edges] + [edges, edges[::-1]]:
            n = len(ids)
            table = replace(random_table(np.random.default_rng(n), n, PLAIN_PIECES),
                            trial_ids=np.array(ids, dtype=dtype))
            path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
            write_trials_csv(table, path)
            reference_write_trials_csv(table, reference)
            assert path.read_bytes() == reference.read_bytes(), ids

    def test_each_piece_of_the_digit_group_table(self):
        table = trials._digit_groups().table
        assert table.shape == (20_001, 4)
        pieces = [bytes(row[row != trials._PAD]).decode("ascii") for row in table]
        assert pieces == ["", *(str(g) for g in range(10_000)),
                          *(f"{g:04d}" for g in range(10_000))]

    def test_slicing_and_masking_keep_integers(self):
        table = integer_id_table(np.random.default_rng(3), 20, np.int32)
        for index in (slice(2, 9), table.action >= 0, [5, 1, 1]):
            selected = table[index]
            assert selected.trial_ids.dtype == np.int32
            assert selected.trial_ids.tolist() == table.trial_ids[index].tolist()

    def test_simulate_numbers_its_rows(self):
        table = simulate(weather_design(), "CI", AgentSpec.rational(), 10, seed=1)
        assert table.trial_ids.dtype.kind == "i"
        assert table.trial_ids.tolist() == list(range(10))

    def test_a_boolean_id_array_is_not_taken_as_integers(self, tmp_path):
        table = replace(random_table(np.random.default_rng(4), 4, PLAIN_PIECES),
                        trial_ids=np.array([True, False, True, True]))
        assert table.trial_ids.dtype == object
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        write_trials_csv(table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()
        assert read_trials_csv(path).trial_ids.tolist() == ["True", "False",
                                                            "True", "True"]


class TestEmpiricalJoint:
    # 1e308 four times: each count is finite, but their total is not, and
    # the masses would all read 0
    @pytest.mark.parametrize("counts", [[[1.0, np.nan], [2.0, 3.0]],
                                        [[1.0, np.inf], [2.0, 3.0]],
                                        [[1.0, np.inf], [-np.inf, 3.0]],
                                        [[1e308, 1e308], [1e308, 1e308]]])
    def test_non_finite_count_or_total_refused(self, counts):
        with pytest.raises(InvalidModelError,
                           match="^counts and their total must be finite$"):
            EmpiricalJoint(("x", "y"), ("a", "b"), np.array(counts), "action")

    def test_unknown_kind_refused(self):
        with pytest.raises(InvalidModelError,
                           match="^joint kind must be 'action' or 'report', not 'bogus'$"):
            EmpiricalJoint(("x", "y"), ("a", "b"), np.ones((2, 2)), "bogus",
                           action_values=(0.25, 0.75))

    @pytest.mark.parametrize("values", [None, (0.5,), (0.25, 0.5, 0.75)])
    def test_report_joint_needs_a_value_per_row(self, values):
        with pytest.raises(InvalidModelError,
                           match="^a report joint needs one action value per row$"):
            EmpiricalJoint(("x", "y"), ("a", "b"), np.ones((2, 2)), "report",
                           action_values=values)


class TestBehavioralScore:
    def test_rational_channel_scores_at_the_optimal(self):
        design = weather_design()
        joint = exact_joint(design, rational_channel_masses())
        assert decompose(joint, design, "CI").behavioral == pytest.approx(
            -5.689, abs=1e-9)

    def test_prior_channel_scores_at_the_baseline(self):
        design = weather_design()
        joint = exact_joint(design, prior_channel_masses())
        assert decompose(joint, design, "CI").behavioral == pytest.approx(
            -7.96, abs=1e-9)

    def test_uniform_random_scores_the_row_average(self):
        design = weather_design()
        joint = exact_joint(design, random_channel_masses())
        # 0.5 * (-7.96) + 0.5 * (-10 * 0.9204) = -8.582
        b = decompose(joint, design, "CI").behavioral
        assert b == pytest.approx(-8.582, abs=1e-9)
        assert b < -7.96

    def test_report_joint_scored_at_bin_midpoints(self):
        design = weather_design()
        records = [
            # above the salting threshold: salt, freezing scores 0
            record(1, "CI", "sigma=5", "freezing", "probability", 0.2),
            # below: no-salt, not freezing scores 0
            record(2, "CI", "sigma=2", "not-freezing", "probability", 0.05),
            # below but freezing: no-salt scores -100
            record(3, "CI", "sigma=3", "freezing", "probability", 0.05),
        ]
        joint = ingest(trial_table(records), design)
        assert decompose(joint, design, "CI").behavioral == pytest.approx(-100.0 / 3.0)


class TestCalibrate:
    def test_rational_channel_calibrates_to_itself(self):
        design = weather_design()
        joint = exact_joint(design, rational_channel_masses())
        assert decompose(joint, design, "CI").calibrated == pytest.approx(
            -5.689, abs=1e-9)

    def test_prior_channel_calibrates_to_baseline(self):
        design = weather_design()
        joint = exact_joint(design, prior_channel_masses())
        assert decompose(joint, design, "CI").calibrated == pytest.approx(
            -7.96, abs=1e-9)

    def test_state_independent_behavior_calibrates_to_baseline(self):
        design = weather_design()
        joint = exact_joint(design, random_channel_masses())
        assert decompose(joint, design, "CI").calibrated == pytest.approx(
            -7.96, abs=1e-9)

    def test_calibration_never_hurts(self):
        rng = np.random.default_rng(23)
        design = weather_design()
        for _ in range(100):
            masses = rng.random((2, 2)) + 1e-3
            masses /= masses.sum()
            report = decompose(exact_joint(design, masses), design, "CI")
            assert report.calibrated >= report.behavioral - 1e-12

    def test_smoothing_pulls_tiny_samples_toward_uniform(self):
        design = weather_design()
        joint = exact_joint(design, np.array([[0.0, 1.0], [0.0, 0.0]]), scale=1.0)
        plain = decompose(joint, design, "CI").calibrated
        smoothed = decompose(joint, design, "CI", smoothing_alpha=1.0).calibrated
        assert plain == pytest.approx(0.0)  # conditional is certain freezing
        assert smoothed < plain  # smoothing admits doubt

    def test_smoothing_leaves_the_behavioral_score(self):
        design = weather_design()
        joint = exact_joint(design, np.array([[0.0, 1.0], [0.0, 0.0]]), scale=1.0)
        assert decompose(joint, design, "CI", smoothing_alpha=1.0).behavioral == \
            decompose(joint, design, "CI").behavioral

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf, False, True, "0.5"])
    def test_bad_smoothing_alpha_rejected(self, alpha):
        design = weather_design()
        joint = exact_joint(design, np.array([[0.5, 0.5], [0.0, 0.0]]), scale=1.0)
        with pytest.raises(InvalidModelError, match="smoothing_alpha"):
            decompose(joint, design, "CI", smoothing_alpha=alpha)

    def test_huge_integer_smoothing_alpha_rejected(self):
        # below inf, yet adding it to the float counts overflows
        design = weather_design()
        joint = exact_joint(design, np.array([[0.5, 0.5], [0.0, 0.0]]), scale=1.0)
        with pytest.raises(InvalidModelError, match=(
                f"^smoothing_alpha must be non-negative and finite, not {10**400}$")):
            decompose(joint, design, "CI", smoothing_alpha=10**400)


def zero_value_design() -> ExperimentDesign:
    """A design whose one strategy's signal says nothing of the state."""
    return ExperimentDesign(
        states=StateSpace(ids=("a", "b")),
        actions=ActionSpace.finite(("x", "y")),
        rule=MatrixRule(np.array([[1.0, 0.0], [0.0, 1.0]])),
        strategies={"noise": InformationStructure(
            ("v1", "v2"), np.outer([0.5, 0.5], [0.3, 0.7]))},
    )


class TestLossPieces:
    def test_behavioral_value_of_information(self):
        design = weather_design()
        above = decompose(exact_joint(design, rational_channel_masses()), design, "CI")
        assert above.behavioral_value_of_information == pytest.approx(2.271)
        below = decompose(exact_joint(design, random_channel_masses()), design, "CI")
        assert below.behavioral_value_of_information == 0.0
        at = decompose(exact_joint(design, prior_channel_masses()), design, "CI")
        assert at.behavioral_value_of_information == pytest.approx(0.0, abs=1e-12)

    def test_loss_ratios(self):
        design = weather_design()
        rational = decompose(exact_joint(design, rational_channel_masses()),
                             design, "CI")
        assert rational.belief_loss == pytest.approx(0.0, abs=1e-9)
        prior = decompose(exact_joint(design, prior_channel_masses()), design, "CI")
        assert prior.belief_loss == pytest.approx(1.0)
        random = decompose(exact_joint(design, random_channel_masses()), design, "CI")
        # calibrated -7.96 against behavioral -8.582
        assert random.optimization_loss == pytest.approx(0.622 / 2.271)

    # action x scores 1 in state a, y in b; the baseline plays y on the
    # prior (0.3, 0.7) for 0.7
    @pytest.mark.parametrize("counts, behavioral, gain, warned", [
        ([[1.0, 0.0], [0.0, 0.0]], 1.0, 0.3, False),
        ([[0.0, 1.0], [0.0, 0.0]], 0.0, 0.0, True)])
    def test_zero_delta_gives_scores_and_no_losses(self, counts, behavioral, gain,
                                                   warned):
        design = zero_value_design()
        joint = EmpiricalJoint(design.actions.ids, design.states.ids,
                               np.array(counts), "action")
        report = decompose(joint, design, "noise")
        assert report.behavioral == pytest.approx(behavioral, abs=1e-12)
        assert report.calibrated == pytest.approx(1.0, abs=1e-12)
        assert report.behavioral_value_of_information == pytest.approx(gain, abs=1e-12)
        assert report.belief_loss is None and report.optimization_loss is None
        assert report.warnings == (("behavioral score is below the no-signal "
                                    "baseline; the data are consistent with the "
                                    "signal having been ignored",) if warned else ())


class TestDecompose:
    def test_joint_over_other_states_refused(self):
        design = weather_design()
        joint = EmpiricalJoint(design.actions.ids, ("a", "b"),
                               np.array([[1.0, 2.0], [3.0, 4.0]]), "action")
        with pytest.raises(InvalidModelError, match="not the design's"):
            decompose(joint, design, "CI")

    def test_unknown_strategy_refused(self):
        design = weather_design()
        joint = exact_joint(design, rational_channel_masses())
        with pytest.raises(InvalidModelError, match="unknown strategy 'nope'"):
            decompose(joint, design, "nope")

    def test_loss_report_decomposes_the_ingested_joint(self):
        design = weather_design()
        table = simulate(design, "CI", AgentSpec.noisy_belief(0.8), 500, seed=6)
        for alpha in (0.0, 0.5):
            assert loss_report(design, "CI", table, smoothing_alpha=alpha) == \
                decompose(ingest(table, design), design, "CI", smoothing_alpha=alpha)


class TestLossReports:
    def test_rational_records_have_no_losses(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=2", "not-freezing", response="no-salt"),
            record(2, "CI", "sigma=3", "not-freezing", response="no-salt"),
            record(3, "CI", "sigma=4", "not-freezing", response="salt"),
            record(4, "CI", "sigma=5", "freezing", response="salt"),
        ]
        # not a statistical test: these four records happen to produce
        # conditionals on the rational side of the threshold
        report = loss_report(design, "CI", trial_table(records))
        assert report.optimization_loss == pytest.approx(0.0, abs=1e-12)

    def test_loss_identity(self):
        # belief + optimization + realized shares sum to one when B >= base
        design = ExperimentDesign(
            states=weather_design().states,
            actions=weather_design().actions,
            rule=weather_design().rule,
            strategies={"CI": weather_design().strategies["CI"]},
        )
        rng = np.random.default_rng(4)
        rep = rational_report(design)
        for _ in range(50):
            masses = rng.random((2, 2)) + 1e-3
            masses /= masses.sum()
            report = decompose(exact_joint(design, masses), design, "CI")
            if report.behavioral < rep.baseline:
                continue
            total = (
                report.belief_loss + report.optimization_loss
                + (report.behavioral - rep.baseline) / rep.value_of_information
            )
            assert total == pytest.approx(1.0, abs=1e-9)

    def test_warning_when_behavior_below_baseline(self):
        design = weather_design()
        records = [
            record(1, "CI", "sigma=2", "not-freezing", response="salt"),
            record(2, "CI", "sigma=3", "not-freezing", response="salt"),
        ]
        report = loss_report(design, "CI", trial_table(records))
        assert any("baseline" in w for w in report.warnings)

    def test_sampling_error_alone_does_not_warn(self):
        # a rational agent on an uninformative strategy scores the baseline
        # in expectation; 11 of these 20 runs fell below it
        design = weather_design()
        warned = [any("baseline" in w for w in loss_report(
            design, "mean", simulate(design, "mean", AgentSpec.rational(),
                                     10_000, seed=seed)).warnings)
                  for seed in range(20)]
        assert sum(warned) <= 2

    @pytest.mark.parametrize("seed", range(5))
    def test_random_play_still_warns(self, seed):
        # 6.0-7.8 standard errors below the baseline
        design = weather_design()
        table = simulate(design, "CI", AgentSpec.uniform_random(), 50_000, seed=seed)
        assert any("below the no-signal baseline" in w
                   for w in loss_report(design, "CI", table).warnings)

    def test_pooling_weights_by_trial_count(self):
        a = LossReport("s1", 30.0, -6.0, -5.8, 1.0, 0.1, 0.05)
        b = LossReport("s2", 10.0, -7.0, -6.6, 0.5, 0.3, 0.15)
        pooled = pooled_loss_report([a, b])
        assert pooled.n_trials == 40.0
        assert pooled.behavioral == pytest.approx(0.75 * -6.0 + 0.25 * -7.0)
        assert pooled.belief_loss == pytest.approx(0.75 * 0.1 + 0.25 * 0.3)

    def test_pooling_a_missing_loss_gives_none(self):
        a = LossReport("s1", 30.0, -6.0, -5.8, 1.0, None, None)
        b = LossReport("s2", 10.0, -7.0, -6.6, 0.5, None, None)
        pooled = pooled_loss_report([a, b])
        assert pooled.behavioral == pytest.approx(0.75 * -6.0 + 0.25 * -7.0)
        assert pooled.belief_loss is None and pooled.optimization_loss is None


class TestDecisionsFromBeliefs:
    def kale_design(self):
        structure = kale_joint(TwoTeamDGM())
        return ExperimentDesign(
            states=StateSpace(ids=TWO_TEAM_STATE_IDS),
            actions=ActionSpace.finite(("no-hire", "hire")),
            rule=MatrixRule(np.array([
                [0.0, 0.0, 3.17, 3.17],
                [-1.0, 2.17, -1.0, 2.17],
            ])),
            strategies={"QDP": structure},
            report_map=two_team_report_map(),
        )

    def test_high_report_hires(self):
        design = self.kale_design()
        signal = design.strategies["QDP"].signals[0]
        table = trial_table([("1", "QDP", signal, "win-win", "probability", 0.95)])
        out = decisions_from_beliefs(table, design)
        assert trial_rows(out) == [("1", "QDP", signal, "win-win", "action", "hire")]

    def test_low_report_does_not_hire(self):
        design = self.kale_design()
        signal = design.strategies["QDP"].signals[0]
        table = trial_table([
            ("1", "QDP", signal, "win-win", "probability", 0.55),
            ("2", "QDP", signal, "win-lose", "probability", 0.5),
        ])
        out = decisions_from_beliefs(table, design)
        assert [r[5] for r in trial_rows(out)] == ["no-hire", "no-hire"]

    def test_action_records_rejected(self):
        design = self.kale_design()
        signal = design.strategies["QDP"].signals[0]
        table = trial_table([("1", "QDP", signal, "win-win", "action", "hire")])
        with pytest.raises(TrialDataError):
            decisions_from_beliefs(table, design)

    def test_scoring_beliefs_matches_scoring_mapped_decisions(self):
        # on reports that sit exactly on bin midpoints, scoring the binned
        # reports and scoring their mapped decisions agree exactly (off the
        # midpoints the binned path carries the usual discretization error)
        design = self.kale_design()
        structure = design.strategies["QDP"]
        rng = np.random.default_rng(9)
        records = []
        for i in range(300):
            v = rng.integers(len(structure.signals))
            cond = structure.joint[v] / structure.joint[v].sum()
            state = rng.choice(TWO_TEAM_STATE_IDS, p=cond)
            raw = float(np.clip(rng.normal(0.75, 0.12), 0.01, 0.99))
            midpoint = (int(raw / 0.02) + 0.5) * 0.02
            records.append((str(i), "QDP", structure.signals[v],
                            str(state), "probability", midpoint))
        records = trial_table(records)
        as_reports = decompose(ingest(records, design), design, "QDP").behavioral
        as_decisions = decompose(
            ingest(decisions_from_beliefs(records, design), design), design, "QDP"
        ).behavioral
        assert as_reports == pytest.approx(as_decisions, abs=1e-9)


class TestBinningConsistency:
    def test_finer_bins_never_lose_much(self):
        # noisy belief reports on the forecast task: shrinking the bin width
        # cannot decrease the calibrated score beyond discretization noise
        design = weather_design()
        structure = design.strategies["CI"]
        posteriors = {
            "sigma=2": 0.0062, "sigma=3": 0.0478,
            "sigma=4": 0.1056, "sigma=5": 0.1588,
        }
        rng = np.random.default_rng(77)
        flat = structure.joint.reshape(-1)
        records = []
        for i in range(20_000):
            cell = rng.choice(flat.size, p=flat / flat.sum())
            v, t = divmod(cell, 2)
            signal = structure.signals[v]
            q = posteriors[signal]
            noisy = 1.0 / (1.0 + np.exp(-(np.log(q / (1 - q)) + rng.normal(0, 0.6))))
            records.append((str(i), "CI", signal, design.states.ids[t],
                            "probability", float(noisy)))
        records = trial_table(records)
        c_coarse, c_fine, c_finest = (
            decompose(ingest(records, design, bin_width=width), design, "CI").calibrated
            for width in (0.05, 0.02, 0.01))
        tol = 0.05 * 2.271  # discretization slack, in score units
        assert c_fine >= c_coarse - tol
        assert c_finest >= c_fine - tol


def test_kale_belief_trials_at_a_partial_bin_width():
    # a bin width that does not divide 1 leaves a partial last bin, whose
    # midpoint must stay inside the pos-to-win map's open domain
    design = build_case("kale2020").design
    trials = simulate(design, "interval", AgentSpec.noisy_belief(0.5, "belief"),
                      2_000, seed=4)
    report = loss_report(design, "interval", trials, bin_width=0.3)
    assert report.n_trials == 2_000
    assert np.isfinite(report.belief_loss)
