# CSV readers/writers and the JSON report serializer.

import csv
import gc
import io
import json
import math
import re
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from altkit import (
    DegradationSample,
    LifeData,
    LifeRecord,
    MoistureTable,
    dump_json,
    format_float,
    read_degradation_csv,
    read_life_csv,
    read_mc_csv,
    read_spectral_csv,
    write_life_csv,
)
from altkit.data import STATUSES
from altkit.errors import AltkitError, DataError
from altkit.io import _read_life_columns, _read_table, _read_text


class TestLifeCsv:
    def test_roundtrip_is_lossless(self):
        records = [
            LifeRecord(6.48, "censored", {"voltstress": 170.0, "temp_C": 40.0}),
            LifeRecord(1.0 / 3.0, "failed", {"voltstress": 220.0,
                                             "temp_C": 55.5}),
        ]
        buf = io.StringIO()
        write_life_csv(records, buf)
        back = read_life_csv(io.StringIO(buf.getvalue()))
        assert len(back) == 2
        for orig, rt in zip(records, back):
            assert rt.time == orig.time  # bit-exact via repr round trip
            assert rt.status == orig.status
            assert rt.condition == orig.condition

    def test_short_floats_stay_short(self):
        buf = io.StringIO()
        write_life_csv([LifeRecord(6.48, "censored", {"v": 170.0})], buf)
        assert buf.getvalue().splitlines()[1] == "6.48,censored,170.0"

    def test_condition_columns_sorted(self):
        buf = io.StringIO()
        write_life_csv([LifeRecord(1.0, "failed",
                                   {"z": 1.0, "a": 2.0, "m": 3.0})], buf)
        assert buf.getvalue().splitlines()[0] == "time,status,a,m,z"

    def test_missing_condition_rejected_on_write(self):
        records = [LifeRecord(1.0, "failed", {"v": 1.0}),
                   LifeRecord(2.0, "failed", {})]
        with pytest.raises(DataError):
            write_life_csv(records, io.StringIO())

    def test_read_validation(self):
        with pytest.raises(DataError):
            read_life_csv(io.StringIO("time,condition\n1.0,2.0\n"))
        with pytest.raises(DataError):
            read_life_csv(io.StringIO("time,status\n1.0,running\n"))
        with pytest.raises(DataError):
            read_life_csv(io.StringIO("time,status\nnot-a-number,failed\n"))
        with pytest.raises(DataError):
            read_life_csv(io.StringIO("time,status\ninf,failed\n"))
        with pytest.raises(DataError):
            read_life_csv(io.StringIO(""))
        with pytest.raises(DataError, match=r"^line 3: lifetime must be > 0, got -1\.0$"):
            read_life_csv(io.StringIO("time,status,v\n1,failed,1\n-1,failed,2\n"))
        with pytest.raises(DataError, match="^line 3: lifetime must be finite, got inf$"):
            read_life_csv(io.StringIO("time,status,v\n1,failed,1\ninf,failed,2\n"))

    def test_blank_lines_keep_line_numbers(self):
        with pytest.raises(DataError, match="^line 4, column v: expected a number, got 'x'$"):
            read_life_csv(io.StringIO("time,status,v\n1,failed,1\n\n2,failed,x\n"))

    @pytest.mark.parametrize("row", ["1,failed,1,9", "1,failed"])
    def test_row_width_must_match_header(self, row):
        with pytest.raises(DataError, match=r"^line 2: expected 3 cells, got \d$"):
            read_life_csv(io.StringIO(f"time,status,v\n{row}\n"))

    def test_duplicate_column_rejected(self):
        with pytest.raises(DataError, match="duplicate column"):
            read_life_csv(io.StringIO("time,status,time\n1,failed,2\n"))

    @pytest.mark.parametrize("rows,want", [
        (b"1,failed,1\n2,failed,\xff\n", "line 3: not UTF-8 text (invalid start byte)"),
        (b"1,bogus,1\n2,failed,\xff\n",
         "line 2: status must be one of ('failed', 'censored'), got 'bogus'"),
    ], ids=["clean-rows", "bad-row-first"])
    def test_not_utf8_after_the_rows_before_it(self, rows, want):
        fh = io.TextIOWrapper(io.BytesIO(b"time,status,v\n" + rows), encoding="utf-8")
        with pytest.raises(DataError, match=f"^{re.escape(want)}$"):
            read_life_csv(fh)

    def test_binary_file_rejected(self):
        with pytest.raises(DataError, match="^line 0: iterator should return strings, not bytes"):
            read_life_csv(io.BytesIO(b"time,status\n1,failed\n"))

    def test_statuses(self):
        recs = read_life_csv(io.StringIO(
            "time,status\n1.5,failed\n6.48,censored\n"))
        assert recs[0].failed and not recs[1].failed


# Row-wise references: the life-CSV reader and writer one LifeRecord at a
# time.  The columnar ones must give the same records, lines, errors and
# bytes.
def oracle_read_life_csv(path_or_file) -> tuple[list[LifeRecord], list[int]]:
    """The records and each one's line, csv.reader's line_num after its row."""
    header, lines, columns, stop = _read_table(_read_text(path_or_file), ("time", "status"),
                                               "life-data CSV needs 'time' and 'status' columns")
    cond_names = [c for c in header if c not in ("time", "status")]
    records = []
    for k, line in enumerate(lines):
        status = columns["status"][k].strip()
        if status not in STATUSES:
            raise DataError(f"line {line}: status must be one of {STATUSES}, got {status!r}")
        values = {}
        for name in (*cond_names, "time"):
            try:
                values[name] = float(columns[name][k])
            except ValueError:
                raise DataError(f"line {line}, column {name}: expected a number, "
                                f"got {columns[name][k]!r}") from None
        time = values.pop("time")
        try:
            records.append(LifeRecord(time, status, values))
        except DataError as err:
            raise DataError(f"line {line}: {err}") from None
    if stop is not None:
        raise stop
    return records, lines


def oracle_write_life_csv(records, out) -> None:
    cond_cols = sorted({k for r in records for k in r.condition})
    writer = csv.writer(out, lineterminator="\n")
    writer.writerow(["time", "status", *cond_cols])
    for r in records:
        missing = [c for c in cond_cols if c not in r.condition]
        if missing:
            raise DataError(f"record lacks condition column(s) {missing}")
        writer.writerow(
            [repr(float(r.time)), r.status,
             *(repr(float(r.condition[c])) for c in cond_cols)]
        )


def exact(records) -> list:
    """Records as comparable values, nan and the sign of zero included."""
    return [(repr(r.time), r.status, [(k, repr(v)) for k, v in r.condition.items()])
            for r in records]


_NUMBERS = ["1", "2.5", " 3 ", "1e300", "1e-300", "0", "-1", "-0.0", "nan", "inf",
            "-inf", "1_000", "", " ", "x", "0x10", "1,5", '2"', "4e400"]
_STATUSES = ["failed"] * 4 + ["censored"] * 4 + [" failed", "censored ", "running", "", "FAILED"]


@st.composite
def life_csvs(draw):
    """A life CSV, mostly well formed: quoted and spaced cells, blank
    lines and cells, nan/inf, underscores, now and then a bad status, a
    row of the wrong width, a duplicate or missing header name."""
    names = draw(st.lists(st.sampled_from(["v", "temp_C", "w", "a,b"]), max_size=2,
                          unique=True))
    header = draw(st.permutations(["time", "status", *names]))
    if draw(st.integers(0, 9)) == 0:
        header = header + [draw(st.sampled_from(header))]
    if draw(st.integers(0, 19)) == 0:
        header = header[1:]
    mostly_good = draw(st.booleans())
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n", quoting=draw(
        st.sampled_from([csv.QUOTE_MINIMAL, csv.QUOTE_ALL, csv.QUOTE_NONNUMERIC])))
    writer.writerow(header)
    for _ in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            buf.write("\n")
            continue
        row = []
        for name in header:
            if name == "status":
                row.append(draw(st.sampled_from(_STATUSES[:8] if mostly_good else _STATUSES)))
            elif mostly_good:
                row.append(repr(draw(st.floats(1e-300, 1e300))))
            else:
                row.append(draw(st.sampled_from(_NUMBERS)))
        if draw(st.integers(0, 14)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        writer.writerow(row)
    return buf.getvalue()


# Cells float() reads (spaced, underscored, full-width digits, Unicode
# whitespace) or not; none holds a quote, a comma, "\n" or "\r".
_PLAIN_NUMBERS = ["1_000", " 3 ", "\uff11\uff12", "1\x85", "\x0b4\u2028", "1e-300", "nan", "-0.0",
                  "inf", "4e400", "0", "-1", "", " ", "x", "0x10", "1\x00", "\u0663"]


@st.composite
def plain_life_csvs(draw):
    """A life CSV as numpy's reader takes it: no quote, no blank line, "\n"
    endings.  Mostly clean, with times and conditions now and then written
    in forms only float() reads; else now and then a bad cell or status or
    a row of the wrong width."""
    names = draw(st.lists(st.sampled_from(["v", "temp_C", "w"]), max_size=2, unique=True))
    header = draw(st.permutations(["time", "status", *names]))
    mostly_good = draw(st.booleans())
    rows = [header]
    for _ in range(draw(st.integers(1, 6))):
        row = []
        for name in header:
            if name == "status":
                row.append(draw(st.sampled_from(_STATUSES[:8] if mostly_good else _STATUSES)))
            elif not mostly_good:
                row.append(draw(st.sampled_from(_PLAIN_NUMBERS)))
            elif name == "time":
                row.append(draw(st.sampled_from(_PLAIN_NUMBERS[:6])
                                | st.floats(5e-324, 1.7e308).map(repr)))
            else:
                row.append(draw(st.sampled_from(_PLAIN_NUMBERS[:10]) | st.floats().map(repr)))
        if not mostly_good and draw(st.integers(0, 14)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        rows.append(row)
    return "".join(",".join(row) + "\n" for row in rows)


def assert_reads_as_oracle(text: str) -> None:
    """read_life_csv gives the oracle's records and lines, or its error."""
    try:
        expected, lines = oracle_read_life_csv(io.StringIO(text))
    except DataError as err:
        with pytest.raises(DataError) as raised:
            read_life_csv(io.StringIO(text))
        assert type(raised.value) is type(err)
        assert str(raised.value) == str(err)
        return
    data = read_life_csv(io.StringIO(text))
    assert isinstance(data, LifeData)
    assert exact(data) == exact(expected)
    assert data.lines.tolist() == lines


@st.composite
def life_records(draw):
    """Records with positive finite times and condition values of any kind;
    now and then a record lacks a column."""
    names = draw(st.lists(st.sampled_from(["v", "temp_C", "w", "a,b", 'q"x']), max_size=3,
                          unique=True))
    records = []
    for _ in range(draw(st.integers(0, 6))):
        keys = names if draw(st.integers(0, 14)) else names[1:]
        records.append(LifeRecord(
            draw(st.floats(5e-324, 1.7e308)), draw(st.sampled_from(STATUSES)),
            {k: draw(st.floats() | st.integers(-5, 5)) for k in keys},
        ))
    return records


def pooled_records(n: int) -> list[LifeRecord]:
    """`n` records whose values come from small pools, so each repeats."""
    rng = np.random.default_rng(7)
    times = rng.choice([1.0, 0.1, 2.5e-300, 1e300, 7.0], n).tolist()
    statuses = rng.choice(STATUSES, n).tolist()
    vs = rng.choice([0.0, -0.0, math.nan, math.inf, -1.5], n).tolist()
    temps = rng.choice([40.0, 55.5, 1.0 / 3.0], n).tolist()
    return [LifeRecord(t, s, {"v": v, "temp_C": c})
            for t, s, v, c in zip(times, statuses, vs, temps)]


class TestColumnarMatchesRowWise:
    # life_csvs mostly takes the row-wise path, plain_life_csvs mostly
    # numpy's reader.
    @settings(max_examples=800, deadline=None)
    @given(text=life_csvs() | plain_life_csvs())
    def test_reader(self, text):
        assert_reads_as_oracle(text)

    PLAIN = "time,status,v\n1.5,failed,1\n2.5,censored,nan\n"

    @pytest.mark.parametrize("text,fast", [
        (PLAIN, True),
        # numpy reads spaced numbers as float() does, but not 1_000 or
        # full-width digits, which take the row-wise read.
        ("time,status,v\n 3 ,failed,\x0b4\u2028\n1e-300,censored,-0.0\n", True),
        ("time,status,v\n1_000,failed,\uff11\uff12\n 3 ,censored,-0.0\n", False),
        (PLAIN.replace("1.5,failed", "1.5,failed\x00"), False),
        (PLAIN.replace("censored", "censoredx"), False),
        ("time,status,v\n1,failed," + "1" * 131_072 + "\n", True),
        ("time,status,v,w\n1,failed," + "1" * 131_072 + "," + "2" * 131_072 + "\n", True),
        ("time,status,v\n1,failed," + "1" * 131_073 + "\n", False),
        ("time,status,v,w\n1,failed," + "1" * 131_073 + ",2\n2,censored,1,2\n", False),
        ("time,status," + "v" * 131_073 + "\n1,failed,1\n", False),
        (PLAIN.replace("\n", "\r\n"), False),
        (PLAIN.replace("\n1.5", "\n \n1.5"), False),
        (PLAIN.replace("\n1.5", "\n\n1.5"), False),
        (PLAIN[:-1], False),
        (PLAIN.replace("failed", " failed").replace("censored", "censored "), False),
        (PLAIN.replace("nan", '"nan"'), False),
        (PLAIN.replace("1.5", "0"), False),
        # Status is read as 9 characters: NULs at its end would vanish, and a
        # 10-character status must not be cut to a valid one.
        (PLAIN.replace("1.5,failed", "1.5,failed\x00\x00\x00"), False),
        (PLAIN.replace(",1\n", ",1\x00\n"), False),
        (PLAIN.replace("censored", "censoredXY"), False),
        (PLAIN.replace("failed", "Failed"), False),
        (PLAIN.replace("failed", " failed"), False),
    ], ids=["plain", "spaced-floats", "float-forms", "nul-status", "long-status", "cell-at-limit",
            "long-line", "cell-over-limit", "long-line-cell-over", "name-over-limit", "crlf",
            "space-line", "blank-line", "no-final-newline", "spaced-status", "quote", "bad-time",
            "nul-padded-status", "nul-number", "status-over-9", "capital-status",
            "leading-space-status"])
    def test_each_input_takes_its_path(self, text, fast):
        assert (_read_life_columns(text) is not None) is fast
        assert_reads_as_oracle(text)

    @settings(max_examples=200, deadline=None)
    @given(records=life_records())
    def test_writer(self, records):
        expected = io.StringIO()
        try:
            oracle_write_life_csv(records, expected)
        except DataError as err:
            with pytest.raises(DataError, match=f"^{re.escape(str(err))}$"):
                write_life_csv(records, io.StringIO())
            return
        for given_as in (records, LifeData.of(records)):
            out = io.StringIO()
            write_life_csv(given_as, out)
            assert out.getvalue() == expected.getvalue()

    @pytest.mark.parametrize("records", [
        [LifeRecord(t, "failed", {"v": v}) for t, v in ((1.0, 0.0), (2.0, -0.0), (3.0, math.nan),
                                                        (4.0, 0.0), (5.0, -math.nan))],
        [LifeRecord(t, "censored", {"v": 170.0, "w": 0.1}) for t in (1.5, 1.5, 2.5)],
        [],
        [LifeRecord(1.0 / 3.0, "censored", {"temp_C": 40.0})],
        [LifeRecord(6.48, "failed"), LifeRecord(2.0, "censored")],
        pooled_records(10_000),
    ], ids=["signed-zeros-nan", "repeated-values", "no-records", "one-record",
            "no-condition", "pool-10k"])
    def test_writer_examples(self, records):
        expected = io.StringIO()
        oracle_write_life_csv(records, expected)
        for given_as in (records, LifeData.of(records)):
            out = io.StringIO()
            write_life_csv(given_as, out)
            assert out.getvalue() == expected.getvalue()


class TestLifeData:
    RECORDS = [
        LifeRecord(1.5, "failed", {"v": 1.0, "w": 10.0}),
        LifeRecord(2.5, "censored", {"v": 2.0, "w": math.nan}),
        LifeRecord(3.5, "failed", {"v": 3.0, "w": 30.0}),
    ]

    def data(self) -> LifeData:
        return read_life_csv(io.StringIO(
            "time,status,v,w\n1.5,failed,1,10\n\n2.5,censored,2,nan\n3.5,failed,3,30\n"))

    def test_columns_and_lines(self):
        data = self.data()
        assert data.time.tolist() == [1.5, 2.5, 3.5]
        assert data.failed.tolist() == [True, False, True]
        assert list(data.columns) == ["v", "w"]
        assert data.columns["v"].tolist() == [1.0, 2.0, 3.0]
        assert data.lines.tolist() == [2, 4, 5]

    def test_len_index_and_slice(self):
        data = self.data()
        assert len(data) == 3
        assert exact([data[0], data[-1]]) == exact([self.RECORDS[0], self.RECORDS[-1]])
        with pytest.raises(IndexError):
            data[3]
        part = data[1:]
        assert isinstance(part, LifeData) and len(part) == 2
        assert part.lines.tolist() == [4, 5]
        assert exact(part) == exact(self.RECORDS[1:])
        assert len(data[5:]) == 0 and list(data[5:]) == []

    def test_equality_with_sequences(self):
        data = self.data()
        same = self.RECORDS[::2]  # rows without nan, which equals nothing
        assert data[::2] == same and same == data[::2]
        assert data[::2] == LifeData.of(same)
        assert data[::2] != same[:1] and data[::2] != same[::-1]
        assert data != "abc" and data[:0] == [] and data[:0] == ()
        assert (data == 5) is False and data != 5

    def test_repr_gives_count_and_columns(self):
        assert repr(self.data()) == "LifeData(3 records, condition columns ['v', 'w'])"

    def test_iteration_keeps_no_record(self):
        data = self.data()
        attrs = set(vars(data))
        refs = [weakref.ref(r) for r in data]
        refs.append(weakref.ref(data[0]))
        gc.collect()
        assert len(refs) == 4 and all(ref() is None for ref in refs)
        assert set(vars(data)) == attrs

    def test_of_requires_one_set_of_keys(self):
        data = self.data()
        assert LifeData.of(data) is data
        with pytest.raises(DataError, match=r"^record lacks condition column\(s\) \['w'\]$"):
            LifeData.of([LifeRecord(1.0, "failed", {"v": 1.0}),
                         LifeRecord(1.0, "failed", {"v": 1.0, "w": 2.0})])

    @pytest.mark.parametrize("time, failed, columns, lines, message", [
        ([[1.0, 2.0]], [True, True], {}, None, r"^LifeData time must be one-dimensional, "
         r"got shape \(1, 2\)$"),
        (1.0, True, {}, None, r"^LifeData time must be one-dimensional, got shape \(\)$"),
        ([1.0, 2.0], [True], {}, None, r"^LifeData failed has shape \(1,\), not \(2,\)"),
        ([1.0, 2.0], [True, True], {"v": [1.0, 2.0, 3.0]}, None,
         r"^LifeData column 'v' has shape \(3,\), not \(2,\): one entry per record$"),
        ([1.0, 2.0], [True, True], {"v": [[1.0, 2.0]]}, None, r"^LifeData column 'v' has shape"),
        ([1.0, 2.0], [True, True], {}, [2], r"^LifeData lines has shape \(1,\), not \(2,\)"),
        ([1.0, 2.0], [True, True], {"failed": [1.0]}, None, r"^LifeData column 'failed' has"),
    ])
    def test_arrays_must_have_one_entry_per_record(self, time, failed, columns, lines, message):
        with pytest.raises(DataError, match=message):
            LifeData(time, failed, columns, lines)

    @pytest.mark.parametrize("bad, message", [
        (-1.0, "lifetime must be > 0, got -1.0"), (0.0, "lifetime must be > 0, got 0.0"),
        (math.nan, "lifetime must be > 0, got nan"), (math.inf, "lifetime must be finite, got inf"),
    ])
    def test_times_keep_the_record_rules(self, bad, message):
        # The first bad time is reported, with LifeRecord's message and,
        # when the lines are known, its line.
        with pytest.raises(DataError) as record:
            LifeRecord(bad, "failed")
        assert str(record.value) == message
        time = [1.0, bad, -5.0]
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            LifeData(time, [True] * 3, {"v": [1.0] * 3})
        with pytest.raises(DataError, match=f"^line 4: {re.escape(message)}$"):
            LifeData(time, [True] * 3, {"v": [1.0] * 3}, [2, 4, 5])

    def test_arrays_that_pass_the_checks(self):
        # No records, and times at either end of the positive doubles.
        assert len(LifeData([], [], {"v": []}, [])) == 0
        assert len(LifeData([5e-324, 1.7976931348623157e308], [True, False], {})) == 2

    def test_record_status_must_be_known(self):
        with pytest.raises(DataError, match=r"^status must be one of .*, got 'dead'$"):
            LifeRecord(1.0, "dead")


class TestDegradationCsv:
    def test_grouping_by_unit(self):
        text = ("unit,time,response,temp_C\n"
                "a,0.0,1.00,60\n"
                "a,2.0,0.90,60\n"
                "b,0.0,1.00,80\n"
                "b,2.0,0.70,80\n"
                "b,4.0,0.50,80\n")
        samples = read_degradation_csv(io.StringIO(text))
        assert [s.unit_id for s in samples] == ["a", "b"]
        assert samples[1].times == (0.0, 2.0, 4.0)
        assert samples[1].condition == {"temp_C": 80.0}

    def test_condition_must_be_constant_per_unit(self):
        text = ("unit,time,response,temp_C\n"
                "a,0.0,1.00,60\n"
                "a,2.0,0.90,70\n")
        with pytest.raises(DataError):
            read_degradation_csv(io.StringIO(text))

    def test_required_columns(self):
        with pytest.raises(DataError):
            read_degradation_csv(io.StringIO("unit,time\na,0.0\n"))

    # A row's condition is compared with its unit's first row, as dicts
    # compare: nan differs from nan, but the first row is not compared with
    # itself.
    def test_nan_condition_on_a_units_only_row(self):
        samples = read_degradation_csv(io.StringIO(
            "unit,time,response,temp_C\na,0,1,nan\nb,0,1,60\nb,1,2,60\n"))
        assert repr([s.condition for s in samples]) == "[{'temp_C': nan}, {'temp_C': 60.0}]"

    @pytest.mark.parametrize("rows", [["a,0,1,nan", "a,1,2,nan"], ["a,0,1,60", "a,1,2,nan"]],
                             ids=["nan-then-nan", "number-then-nan"])
    def test_nan_condition_on_a_later_row(self, rows):
        text = "\n".join(["unit,time,response,temp_C", *rows]) + "\n"
        with pytest.raises(DataError, match="^line 3: unit 'a' changes condition mid-path$"):
            read_degradation_csv(io.StringIO(text))


def oracle_read_degradation_csv(path_or_file) -> list[DegradationSample]:
    """The degradation reader one row at a time: each row's unit id, its
    cells as numbers, its time and response finite, then its condition
    equal to its unit's first row's, compared as dicts."""
    header, lines, columns, stop = _read_table(
        _read_text(path_or_file), ("unit", "time", "response"),
        "degradation CSV needs 'unit', 'time' and 'response'")
    cond_names = [c for c in header if c not in ("unit", "time", "response")]
    paths = {}
    for k, line in enumerate(lines):
        unit = columns["unit"][k].strip()
        if not unit:
            raise DataError(f"line {line}: empty unit id")
        values = {}
        for name in (*cond_names, "time", "response"):
            try:
                values[name] = float(columns[name][k])
            except ValueError:
                raise DataError(f"line {line}, column {name}: expected a number, "
                                f"got {columns[name][k]!r}") from None
        for name in ("time", "response"):
            if not math.isfinite(values[name]):
                raise DataError(f"line {line}, column {name}: expected a finite number, "
                                f"got {values[name]}")
        time, response = values.pop("time"), values.pop("response")
        times, responses, first = paths.setdefault(unit, ([], [], values))
        if values != first:
            raise DataError(f"line {line}: unit {unit!r} changes condition mid-path")
        times.append(time)
        responses.append(response)
    if stop is not None:
        raise stop
    return [DegradationSample(u, t, r, c) for u, (t, r, c) in paths.items()]


_DEGRADATION_CELLS = ["1", "2.5", " 3 ", "0", "-1", "-0.0", "1_000", "nan", "inf", "-inf",
                      "", " ", "x", "4e400"]


@st.composite
def degradation_csvs(draw):
    """A degradation CSV, mostly well formed: two units with increasing
    times and one condition each; else now and then an empty unit id, a
    cell that is not a number, a nan/inf cell, a blank line, a row of the
    wrong width, or a duplicate or missing header name."""
    names = draw(st.lists(st.sampled_from(["temp_C", "v"]), max_size=2, unique=True))
    header = draw(st.permutations(["unit", "time", "response", *names]))
    if draw(st.integers(0, 19)) == 0:
        header = header + [draw(st.sampled_from(header))]
    if draw(st.integers(0, 19)) == 0:
        header = header[1:]
    mostly_good = draw(st.booleans())
    lines = [",".join(header)]
    for k in range(draw(st.integers(0, 6))):
        if draw(st.integers(0, 9)) == 0:
            lines.append(draw(st.sampled_from(["", " "])))
            continue
        unit = draw(st.sampled_from(["a", "b"] if mostly_good else ["a", "b", " a", "", " "]))
        row = []
        for name in header:
            if name == "unit":
                row.append(unit)
            elif mostly_good and name == "time":
                row.append(str(k))
            elif mostly_good and name != "response":
                row.append({"a": "60", "b": "80"}[unit])
            else:
                row.append(draw(st.sampled_from(_DEGRADATION_CELLS)))
        if draw(st.integers(0, 14)) == 0:
            row = row[:-1] if draw(st.booleans()) else row + ["1"]
        lines.append(",".join(row))
    return "\n".join(lines) + "\n"


class TestDegradationReaderMatchesRowWise:
    @settings(max_examples=800, deadline=None)
    @given(text=degradation_csvs())
    def test_reader(self, text):
        try:
            expected = oracle_read_degradation_csv(io.StringIO(text))
        except AltkitError as err:
            with pytest.raises(AltkitError) as raised:
                read_degradation_csv(io.StringIO(text))
            assert (type(raised.value), str(raised.value)) == (type(err), str(err))
            return
        got = read_degradation_csv(io.StringIO(text))
        assert repr(got) == repr(expected)


class TestSpectralCsv:
    def test_columns(self):
        text = ("wavelength_nm,irradiance,absorbance\n"
                "290,1.0,0.5\n"
                "305,1.2,0.6\n"
                "320,1.1,0.7\n")
        lam, cols = read_spectral_csv(io.StringIO(text))
        assert_allclose(lam, [290.0, 305.0, 320.0], rtol=0)
        assert set(cols) == {"irradiance", "absorbance"}
        assert_allclose(cols["irradiance"], [1.0, 1.2, 1.1], rtol=0)

    def test_needs_two_rows(self):
        with pytest.raises(DataError):
            read_spectral_csv(io.StringIO("wavelength_nm,irradiance\n290,1.0\n"))

    def test_needs_a_value_column(self):
        with pytest.raises(DataError, match="^spectral CSV needs at least one value column$"):
            read_spectral_csv(io.StringIO("wavelength_nm\n290\n305\n"))

    def test_short_row_after_clean_rows_names_its_line(self):
        with pytest.raises(DataError, match="^line 4: expected 2 cells, got 1$"):
            read_spectral_csv(io.StringIO("wavelength_nm,irradiance\n290,1\n305,2\n320\n"))


class TestMoistureCsv:
    def test_reads_table(self):
        table = read_mc_csv(io.StringIO(
            "rh,moisture_content\n0.0,0.0\n0.5,2.0\n1.0,6.0\n"))
        assert isinstance(table, MoistureTable)
        assert_allclose(table(0.25), 1.0, rtol=1e-15)

    @pytest.mark.parametrize("rows, message", [
        ("0.1,1\nnan,2\n", "line 3, column rh: expected a finite number, got nan"),
        ("0.1,1\n0.5,inf\n", "line 3, column moisture_content: expected a finite number, got inf"),
    ], ids=["nan-rh", "inf-moisture"])
    def test_non_finite_cell_names_its_line(self, rows, message):
        with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
            read_mc_csv(io.StringIO("rh,moisture_content\n" + rows))


class TestOtherReadersNotUtf8:
    # The rows before a byte that is not UTF-8 are read first, as in the
    # life CSV, and the first bad one among them gives the error.
    @pytest.mark.parametrize("read,text,want", [
        (read_degradation_csv, b"unit,time,response\n,0,1\na,1,\xff\n",
         "line 2: empty unit id"),
        (read_spectral_csv, b"wavelength_nm,irradiance\n290,x\n305,\xff\n",
         "line 2, column irradiance: expected a number, got 'x'"),
        (read_mc_csv, b"rh,moisture_content\n0.5,x\n0.6,\xff\n",
         "line 2, column moisture_content: expected a number, got 'x'"),
        (read_mc_csv, b"rh,moisture_content\n0.5,2\n\n0.6,\xff\n",
         "line 4: not UTF-8 text (invalid start byte)"),
        (read_degradation_csv, b"unit,time,\xff\n", "line 1: not UTF-8 text (invalid start byte)"),
        (read_mc_csv, b"rh,moisture_content\r0.5,2\r0.6,\xff\r",
         "line 3: not UTF-8 text (invalid start byte)"),
    ], ids=["degradation", "spectral", "moisture", "clean-rows", "header", "cr-lines"])
    def test_rows_before_the_byte_are_read_first(self, tmp_path, read, text, want):
        path = tmp_path / "table.csv"
        path.write_bytes(text)
        with pytest.raises(DataError, match=f"^{re.escape(want)}$"):
            read(str(path))


class TestFilePassedIn:
    # A file passed in is split where iterating it would split it: one
    # opened with newline="" at a lone "\r" too, a StringIO at "\n" only.
    @pytest.mark.parametrize("read,text,check", [
        (read_life_csv, "time,status\r1,failed\n2,censored\r",
         lambda data: assert_array_equal(data.time, [1.0, 2.0])),
        (read_degradation_csv, "unit,time,response\ra,0,1\na,1,2\rb,0,3\n",
         lambda paths: assert_array_equal([len(p.times) for p in paths], [2, 1])),
        (read_spectral_csv, "wavelength_nm,irradiance\r290,1\n305,2\r",
         lambda spectrum: assert_array_equal(spectrum[0], [290.0, 305.0])),
        (read_mc_csv, "rh,moisture_content\r0,0\n1,6\r",
         lambda table: assert_allclose(table(0.5), 3.0, rtol=1e-15)),
    ], ids=["life", "degradation", "spectral", "moisture"])
    def test_lone_carriage_return(self, tmp_path, read, text, check):
        path = tmp_path / "table.csv"
        path.write_text(text, newline="")
        with open(path, newline="") as fh:
            check(read(fh))
        check(read(str(path)))
        with pytest.raises(DataError, match="^line 1: new-line character seen in unquoted field"):
            read(io.StringIO(text))


class TestFormatting:
    def test_seventeen_digits_round_trip(self):
        rng = np.random.default_rng(1)
        for x in rng.uniform(-1e6, 1e6, 50):
            assert float(format_float(float(x))) == float(x)
        assert float(format_float(math.pi)) == math.pi

    def test_six_digit_table_format(self):
        assert format_float(24.46050364086682, sig=6) == "24.4605"

    def test_nonfinite(self):
        assert format_float(float("nan")) == "nan"
        assert format_float(float("inf")) == "inf"
        assert format_float(float("-inf")) == "-inf"


class TestDumpJson:
    def test_is_valid_json_and_lossless(self):
        obj = {
            "name": "fit",
            "ok": True,
            "count": 3,
            "value": math.pi,
            "items": [1.5, 2.5],
            "arr": np.array([0.1, 0.2]),
            "nothing": None,
        }
        text = dump_json(obj)
        assert text.endswith("\n")
        parsed = json.loads(text)
        assert parsed["name"] == "fit"
        assert parsed["ok"] is True
        assert parsed["count"] == 3
        assert parsed["value"] == math.pi
        assert parsed["arr"] == [0.1, 0.2]
        assert parsed["nothing"] is None

    def test_nonfinite_becomes_null(self):
        parsed = json.loads(dump_json({"a": float("nan"), "b": float("inf")}))
        assert parsed["a"] is None and parsed["b"] is None

    def test_insertion_order_preserved(self):
        text = dump_json({"z": 1, "a": 2})
        assert text.index('"z"') < text.index('"a"')

    def test_floats_stay_floats(self):
        # Each float prints as repr does, so -0.0 keeps its sign and 2.0
        # does not read back as the integer 2.
        parsed = json.loads(dump_json({"a": -0.0, "b": 2.0}))
        assert type(parsed["a"]) is float and math.copysign(1.0, parsed["a"]) == -1.0
        assert type(parsed["b"]) is float and parsed["b"] == 2.0

    def test_unknown_object_is_refused(self):
        with pytest.raises(DataError, match="^cannot serialize object to JSON$"):
            dump_json(object())
