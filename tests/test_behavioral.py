import csv
import re
import tracemalloc
from itertools import islice
from operator import itemgetter

import numpy as np
import pytest

from rabench import behavioral
from rabench.agents import AgentSpec, simulate
from rabench.behavioral import (
    TRIAL_CSV_HEADER,
    EmpiricalJoint,
    LossReport,
    TrialTable,
    behavioral_score,
    behavioral_value_of_information,
    belief_loss,
    calibrate,
    decisions_from_beliefs,
    ingest,
    loss_report,
    optimization_loss,
    pooled_loss_report,
    read_trials_csv,
    write_trials_csv,
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
    MatrixRule,
    StateSpace,
)
from rabench.rational import rational_report

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
        state_values=design.states.values,
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
    columns = table._columns()
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(TRIAL_CSV_HEADER)
        writer.writerows(zip(*columns))


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
        builder = behavioral._TableBuilder()
        width = len(TRIAL_CSV_HEADER)
        first_line = 2
        while chunk := list(islice(reader, behavioral._CSV_CHUNK_ROWS)):
            for i, row in enumerate(chunk, start=first_line):
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
            rows = [row for row in chunk if row]
            builder.add(*(list(map(itemgetter(k), rows)) for k in range(width)))
            first_line += len(chunk)
    if not builder.trial_ids:
        raise TrialDataError("trial file contains no records")
    return builder.table()


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
    "too few fields after the first chunk": "\r\n".join(
        [HEADER_LINE, *csv_lines(9000), "9000,CI", *csv_lines(5, 9001)]),
    "a blank field list": "\r\n".join([HEADER_LINE, ROWS[0], ",,,,,", ROWS[1]]),
    "not a number": "\r\n".join([HEADER_LINE, *ROWS[:4],
                                   "4,CI,sigma=2,freezing,probability,often", *ROWS[5:]]),
    "not a number after a quote": "\r\n".join(
        [HEADER_LINE, '0,"CI",sigma=2,freezing,action,salt', *ROWS[1:4],
         "4,CI,sigma=2,freezing,probability,", *ROWS[5:]]),
    "bad kind": "\n".join([HEADER_LINE, *ROWS[:2], "2,CI,sigma=2,freezing,guess,1"]),
    "not a number before too few fields": "\r\n".join(
        [HEADER_LINE, "0,CI,sigma=2,freezing,probability,often",
         "1,CI,sigma=2,freezing,action", *ROWS[2:]]),
    "bad kind after a quote, before too few fields": "\r\n".join(
        [HEADER_LINE, '0,"CI",sigma=2,freezing,action,salt', *ROWS[1:3],
         "3,CI,sigma=2,freezing,Action,salt", "4,CI", *ROWS[5:]]),
}
#: Characters per read chunk: the default, and sizes that put chunk ends
#: inside lines and inside "\r\n".
CHUNK_CHARS = [behavioral._CSV_CHUNK_CHARS, 1, 7, 40]


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
                monkeypatch.setattr(behavioral, "_CSV_CHUNK_CHARS", chars)
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

    def test_large_table_writes_in_chunks(self, tmp_path):
        rng = np.random.default_rng(5)
        table = random_table(rng, 2 * behavioral._CSV_CHUNK_ROWS + 5, AWKWARD_PIECES)
        path, reference = tmp_path / "trials.csv", tmp_path / "reference.csv"
        write_trials_csv(table, path)
        reference_write_trials_csv(table, reference)
        assert path.read_bytes() == reference.read_bytes()

    @pytest.mark.parametrize("chars", CHUNK_CHARS)
    @pytest.mark.parametrize("name", sorted(GOOD_CSVS.keys() | BAD_CSVS.keys()))
    def test_files(self, tmp_path, monkeypatch, name, chars):
        path = tmp_path / "trials.csv"
        path.write_bytes(GOOD_CSVS.get(name, BAD_CSVS.get(name)).encode("utf-8"))
        monkeypatch.setattr(behavioral, "_CSV_CHUNK_CHARS", chars)
        outcome = read_outcome(read_trials_csv, path)
        assert outcome == read_outcome(reference_read_trials_csv, path)
        assert (len(outcome) == 2) == (name in BAD_CSVS)

    @pytest.mark.parametrize("name, message", [
        ("too few fields", "line 6: expected 6 fields"),
        ("too many fields after blank lines", "line 5: expected 6 fields"),
        ("too few fields after the first chunk", "line 9002: expected 6 fields"),
        ("not a number", "line 6: probability response 'often' is not a number"),
        ("not a number after a quote", "line 6: probability response '' is not a number"),
        ("not a number before too few fields",
         "line 2: probability response 'often' is not a number"),
        ("bad kind",
         "line 4: response_kind must be 'action' or 'probability', got 'guess'"),
        ("bad kind after a quote, before too few fields",
         "line 5: response_kind must be 'action' or 'probability', got 'Action'"),
    ])
    def test_errors_name_the_line(self, tmp_path, name, message):
        path = tmp_path / "trials.csv"
        path.write_bytes(BAD_CSVS[name].encode("utf-8"))
        with pytest.raises(TrialDataError, match=f"^{message}$"):
            read_trials_csv(path)

    def test_quote_free_rows_skip_the_csv_module(self, tmp_path, monkeypatch):
        parsed, written, row_wise = [], [], []
        reader, writer = csv.reader, csv.writer

        def counting_reader(lines):
            for row in reader(lines):
                parsed.append(row)
                yield row

        class CountingWriter:
            def __init__(self, fh):
                self.writer = writer(fh)

            def writerow(self, row):
                written.append(row)
                return self.writer.writerow(row)

        table = simulate(weather_design(), "CI", AgentSpec.noisy_belief(0.8), 5000, seed=2)
        path = tmp_path / "trials.csv"
        monkeypatch.setattr(behavioral.csv, "reader", counting_reader)
        monkeypatch.setattr(behavioral.csv, "writer", CountingWriter)
        monkeypatch.setattr(behavioral, "_add_rows", lambda *args: row_wise.append(args))
        write_trials_csv(table, path)
        assert trial_rows(read_trials_csv(path)) == trial_rows(table)
        assert parsed == [list(TRIAL_CSV_HEADER)]
        assert row_wise == []
        assert len(written) == sum(len(getattr(table, f"{name}_ids")) for name in
                                   ("strategy", "signal", "state", "action"))

    def test_a_refused_chunk_alone_goes_through_the_csv_module(self, tmp_path,
                                                               monkeypatch):
        lines = csv_lines(300)
        lines[150] = lines[150].replace(",CI,", ",Cé,")
        path = tmp_path / "trials.csv"
        path.write_bytes(("\r\n".join([HEADER_LINE, *lines]) + "\r\n").encode("utf-8"))
        parsed, coded = [], []
        reader, add_ascii = csv.reader, behavioral._add_ascii

        def counting_reader(lines):
            for row in reader(lines):
                parsed.append(row)
                yield row

        def counting_add_ascii(builder, text):
            coded.append(add_ascii(builder, text))
            return coded[-1]

        monkeypatch.setattr(behavioral, "_CSV_CHUNK_CHARS", 2000)
        monkeypatch.setattr(behavioral.csv, "reader", counting_reader)
        monkeypatch.setattr(behavioral, "_add_ascii", counting_add_ascii)
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

    def test_a_header_over_the_csv_field_limit_names_line_1(self, tmp_path):
        path = tmp_path / "trials.csv"
        path.write_bytes(("x" * 200_000 + "\r\n" + ROWS[0]).encode("utf-8"))
        with pytest.raises(TrialDataError, match="^line 1: field larger than field limit"):
            read_trials_csv(path)

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


class TestBehavioralScore:
    def test_rational_channel_scores_at_the_optimal(self):
        design = weather_design()
        joint = exact_joint(design, rational_channel_masses())
        assert behavioral_score(joint, design) == pytest.approx(-5.689, abs=1e-9)

    def test_prior_channel_scores_at_the_baseline(self):
        design = weather_design()
        joint = exact_joint(design, prior_channel_masses())
        assert behavioral_score(joint, design) == pytest.approx(-7.96, abs=1e-9)

    def test_uniform_random_scores_the_row_average(self):
        design = weather_design()
        joint = exact_joint(design, random_channel_masses())
        # 0.5 * (-7.96) + 0.5 * (-10 * 0.9204) = -8.582
        assert behavioral_score(joint, design) == pytest.approx(-8.582, abs=1e-9)
        assert behavioral_score(joint, design) < -7.96

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
        assert behavioral_score(joint, design) == pytest.approx(-100.0 / 3.0)


class TestCalibrate:
    def test_rational_channel_calibrates_to_itself(self):
        design = weather_design()
        joint = exact_joint(design, rational_channel_masses())
        result = calibrate(joint, design)
        assert result.calibrated_score == pytest.approx(-5.689, abs=1e-9)
        assert result.policy == {"no-salt": "no-salt", "salt": "salt"}

    def test_prior_channel_calibrates_to_baseline(self):
        design = weather_design()
        joint = exact_joint(design, prior_channel_masses())
        result = calibrate(joint, design)
        assert result.calibrated_score == pytest.approx(-7.96, abs=1e-9)

    def test_state_independent_behavior_calibrates_to_baseline(self):
        design = weather_design()
        joint = exact_joint(design, random_channel_masses())
        result = calibrate(joint, design)
        assert result.calibrated_score == pytest.approx(-7.96, abs=1e-9)

    def test_calibration_never_hurts(self):
        rng = np.random.default_rng(23)
        design = weather_design()
        for _ in range(100):
            masses = rng.random((2, 2)) + 1e-3
            masses /= masses.sum()
            joint = exact_joint(design, masses)
            b = behavioral_score(joint, design)
            c = calibrate(joint, design).calibrated_score
            assert c >= b - 1e-12

    def test_smoothing_pulls_tiny_samples_toward_uniform(self):
        design = weather_design()
        joint = exact_joint(design, np.array([[0.0, 1.0], [0.0, 0.0]]), scale=1.0)
        plain = calibrate(joint, design).calibrated_score
        smoothed = calibrate(joint, design, smoothing_alpha=1.0).calibrated_score
        assert plain == pytest.approx(0.0)  # conditional is certain freezing
        assert smoothed < plain  # smoothing admits doubt

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_bad_smoothing_alpha_rejected(self, alpha):
        design = weather_design()
        joint = exact_joint(design, np.array([[0.5, 0.5], [0.0, 0.0]]), scale=1.0)
        with pytest.raises(InvalidModelError, match="smoothing_alpha"):
            calibrate(joint, design, smoothing_alpha=alpha)


class TestLossPieces:
    def test_behavioral_value_of_information(self):
        assert behavioral_value_of_information(-6.5, -7.96) == pytest.approx(1.46)
        assert behavioral_value_of_information(-9.0, -7.96) == 0.0
        assert behavioral_value_of_information(-7.96, -7.96) == 0.0

    def test_loss_ratios(self):
        assert belief_loss(-5.689, -5.689, 2.271) == pytest.approx(0.0)
        assert belief_loss(-5.689, -7.96, 2.271) == pytest.approx(1.0)
        assert optimization_loss(-7.0, -7.5, 2.271) == pytest.approx(0.5 / 2.271)

    def test_zero_delta_refused(self):
        with pytest.raises(InvalidModelError):
            belief_loss(1.0, 1.0, 0.0)
        with pytest.raises(InvalidModelError):
            optimization_loss(1.0, 1.0, 0.0)


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
            joint = exact_joint(design, masses)
            b = behavioral_score(joint, design)
            if b < rep.baseline:
                continue
            c = calibrate(joint, design).calibrated_score
            total = (
                belief_loss(rep.benchmark, c, rep.value_of_information)
                + optimization_loss(c, b, rep.value_of_information)
                + (b - rep.baseline) / rep.value_of_information
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

    def test_pooling_weights_by_trial_count(self):
        a = LossReport("s1", 30.0, -6.0, -5.8, 1.0, 0.1, 0.05)
        b = LossReport("s2", 10.0, -7.0, -6.6, 0.5, 0.3, 0.15)
        pooled = pooled_loss_report([a, b])
        assert pooled.n_trials == 40.0
        assert pooled.behavioral == pytest.approx(0.75 * -6.0 + 0.25 * -7.0)
        assert pooled.belief_loss == pytest.approx(0.75 * 0.1 + 0.25 * 0.3)


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
        as_reports = behavioral_score(ingest(records, design), design)
        as_decisions = behavioral_score(
            ingest(decisions_from_beliefs(records, design), design), design
        )
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
        c_coarse = calibrate(ingest(records, design, bin_width=0.05),
                             design).calibrated_score
        c_fine = calibrate(ingest(records, design, bin_width=0.02),
                           design).calibrated_score
        c_finest = calibrate(ingest(records, design, bin_width=0.01),
                             design).calibrated_score
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
