"""CSV schemas and deterministic JSON serialization.

Life-data CSV: columns `time`, `status` (failed/censored) and one column
per condition variable, headers carrying unit suffixes (temp_C,
voltstress_V_per_mm, rh_frac).  Degradation CSV: `unit`, `time`,
`response` plus condition columns constant within each unit.  Spectral
CSV: `wavelength_nm` plus `irradiance` and/or `absorbance`.  Moisture
CSV: `rh`, `moisture_content`.  One table reader reads each whole: blank
lines are skipped, every row has one cell per header column, a column
name may appear once, and a row of the wrong width, a csv error or a
byte that is not UTF-8 stops the read.  Each reader checks the rows
before the stop a column at a time, as rules that `raise_first_bad`
raises for the first bad row, naming its line, and raises the stop only
when they are clean.  A cell read as a number must be one, and finite in
the columns its schema uses, condition columns aside: a model rejects a
non-finite condition that it uses.  When the life CSV's text is plain
and every row is clean, one numpy C read splits it and converts every
column but `status` to floats, which gives what the table reader gives;
any other text, a number spelled in a form only float() reads (1_000,
full-width digits) included, falls back to the table reader, which alone
raises errors.  The life CSV writer prints each float as repr does,
formatting each distinct value of a column once.

JSON reports are written by json.dumps in insertion order, each float
printed as repr prints it (the shortest text that reads back to the same
double) and a non-finite value as null; CSV tables print 6 significant
digits.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import nullcontext, suppress
from io import BytesIO, StringIO
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

# The degradation and moisture readers import the types they build, so
# that reading a life CSV loads neither module.
from .data import (
    CENSORED, FAILED, STATUSES, LifeData, LifeRecord, raise_first_bad, time_rules,
)
from .errors import DataError

TABLE_SIG_DIGITS = 6


def _read_text(path_or_file) -> tuple[str | bytes, str, DataError | None]:
    """The whole text of a path or of a file passed in (bytes from a
    binary file, which csv rejects), the newline at which csv is to split
    it, and None.  A path is read as UTF-8 with universal newlines, as csv
    asks.  A file passed in is split as iterating it would split it: at
    "\\r", "\\n" and "\\r\\n" when it reports the newlines it has seen (a
    file opened with newline="" or None), else at "\\n" (a StringIO, or a
    file opened with newline="\\n").  On a byte that is not UTF-8, the text is
    the lines before the byte's line, and the DataError naming that line
    comes third, to be raised once those lines are read."""
    is_file = hasattr(path_or_file, "read")
    newline = ""
    try:
        with (nullcontext(path_or_file) if is_file
              else open(path_or_file, encoding="utf-8", newline="")) as fh:
            text = fh.read()
            if is_file and getattr(fh, "newlines", None) is None:
                newline = "\n"
            return text, newline, None
    except UnicodeDecodeError as err:
        if is_file:
            newline = "\n"  # nothing decoded, so no newline reported
        lines = StringIO(err.object[:err.start].decode(err.encoding), newline=newline).readlines()
        last = lines[-1] if lines else "\n"
        done = last.endswith("\n") or (newline == "" and last.endswith("\r"))
        return ("".join(lines if done else lines[:-1]), newline,
                DataError(f"line {len(lines) + done}: not UTF-8 text ({err.reason})"))


def _read_table(source: tuple[str | bytes, str, DataError | None], required: Sequence[str],
                missing: str):
    """The CSV text `source` from _read_text read whole, as (header, lines,
    columns, stop): each kept row's line, each column's cells by name, and
    the DataError that ended the read early (a row of the wrong width, a
    csv error, a byte that is not UTF-8) or None, to be raised once the
    rows before it are checked.  Blank rows are skipped.  The header must
    hold every `required` column (else DataError(missing)) and no name
    twice; a csv error in it raises at once."""
    text, newline, stop = source
    reader = csv.reader(BytesIO(text) if isinstance(text, bytes)
                        else StringIO(text, newline=newline))
    try:
        header = next(reader, None)
    except csv.Error as err:
        raise DataError(f"line {reader.line_num}: {err}") from None
    if not header:
        raise DataError("empty CSV: no header row") if text or stop is None else stop
    if any(c not in header for c in required):
        raise DataError(missing)
    dupes = sorted({c for c in header if header.count(c) > 1})
    if dupes:
        raise DataError(f"duplicate column name(s) {dupes} in the header")
    lines, rows = [], []
    try:
        for cells in reader:
            if len(cells) == len(header):
                lines.append(reader.line_num)
                rows.append(cells)
            elif cells:
                stop = DataError(f"line {reader.line_num}: expected {len(header)} cells, "
                                 f"got {len(cells)}")
                break
    except csv.Error as err:
        stop = DataError(f"line {reader.line_num}: {err}")
    return header, lines, dict(zip(header, list(zip(*rows)) or [()] * len(header))), stop


def _numbers(columns: Mapping[str, Sequence[str]], names: Sequence[str],
             rules: list) -> dict[str, np.ndarray]:
    """The `names` columns as floats, each padded with nan from its first
    cell that is not a number; that cell's rule is added to `rules`, in the
    order of `names`, and flags every row from it on."""
    values = {}
    for name in names:
        cells = columns[name]
        floats: list[float] = []
        with suppress(ValueError):
            floats.extend(map(float, cells))  # keeps the floats before a failure
        rules.append((np.arange(len(cells)) >= len(floats),
                      lambda i, cells=cells: DataError(f"expected a number, got {cells[i]!r}"),
                      name))
        values[name] = np.array(floats + [math.nan] * (len(cells) - len(floats)))
    return values


def _finite(values: Mapping[str, np.ndarray], names: Iterable[str]) -> list[tuple]:
    """Rules that the `names` columns of `values` hold finite numbers."""
    return [(~np.isfinite(values[name]), lambda i, v=values[name]: DataError(
        f"expected a finite number, got {v[i]}"), name) for name in names]


def read_life_csv(path_or_file) -> LifeData:
    """Read life records as a LifeData; every non-time/status column becomes
    a condition variable.

    The text is read whole.  Plain text whose rows are all clean is read by
    `_read_life_columns`; any other text by `_read_life_rows`, where the
    first row that breaks a rule gives the error: its status first, then
    its condition cells in header order, then its time.  The two give the
    same LifeData, so the accepted inputs and the errors are those of
    `_read_life_rows`.  A byte that is not UTF-8 is an error naming its
    line only when the lines before it are clean."""
    source = _read_text(path_or_file)
    text, _, bad = source
    data = _read_life_columns(text) if bad is None and isinstance(text, str) else None
    return _read_life_rows(source) if data is None else data


def _read_life_columns(text: str) -> LifeData | None:
    """`text` read by numpy's C reader, or None when this path does not
    apply; it never raises.  It applies to plain text: no quote, no carriage
    return and a final newline, so the csv module would split each line at
    every comma, no blank or whitespace-only line, so a row's line is its
    index + 2, and no NUL, which numpy's fixed-width strings would drop from
    the end of a status.  Every cell must be within csv's field size limit,
    every status exactly failed or censored (read as 9 characters, so a
    longer status cannot be cut down to one), every other cell a number numpy
    reads (a spelling only float() reads, such as 1_000, takes the row-wise
    read, and numpy gives float()'s value for the rest) and every time
    finite and > 0."""
    if '"' in text or "\r" in text or "\0" in text or not text.endswith("\n"):
        return None
    lines = text.split("\n")  # the last is "", after the final newline
    header = lines[0].split(",")
    limit = csv.field_size_limit()
    if len(lines) < 3 or not all(lines[1:-1]) or "time" not in header or "status" not in header \
            or len(set(header)) < len(header) \
            or any(len(cell) > limit for line in lines if len(line) > limit
                   for cell in line.split(",")):
        return None
    n = len(lines) - 2
    dtype = [("", "U9" if name == "status" else float) for name in header]
    try:
        table = np.loadtxt(lines[1:-1], delimiter=",", comments=None, dtype=dtype, ndmin=1)
    except ValueError:
        return None
    if table.shape != (n,):
        return None
    columns = {name: table[field] for name, field in zip(header, table.dtype.names)}
    status = columns.pop("status")
    failed = status == FAILED
    if not (failed | (status == CENSORED)).all():
        return None
    time = columns.pop("time")
    if not ((time > 0.0) & (time < math.inf)).all():
        return None
    # Copies, not field views that would keep the whole table alive.
    return LifeData(time.copy(), failed, {name: v.copy() for name, v in columns.items()},
                    np.arange(2, n + 2))


def _read_life_rows(source) -> LifeData:
    """Life CSV text `source` (from _read_text) read whole, then checked a
    column at a time by raise_first_bad, in the order one row is checked:
    its status, its condition cells in header order, then its time as a
    number, > 0 and finite."""
    header, lines, columns, stop = _read_table(source, ("time", "status"),
                                               "life-data CSV needs 'time' and 'status' columns")
    # Python strings: numpy's would drop a trailing NUL.
    status = [s.strip() for s in columns["status"]]
    rules = [(np.array([s not in STATUSES for s in status], dtype=bool),
              lambda i: DataError(f"status must be one of {STATUSES}, got {status[i]!r}"))]
    conditions = _numbers(columns, [c for c in header if c not in ("time", "status")] + ["time"],
                          rules)
    time = conditions.pop("time")
    raise_first_bad(rules + time_rules(time), lines)
    if stop is not None:
        raise stop
    return LifeData(time, [s == FAILED for s in status], conditions, lines)


def write_life_csv(records: Sequence[LifeRecord], out: IO) -> None:
    """Write records with shortest lossless floats (repr) so round trips
    refit identically.  A list is converted to a LifeData once.  Each
    column is formatted once per distinct value, by bit pattern so 0.0 and
    -0.0 stay apart, the strings are taken row by row, and the text is
    written at once."""
    data = LifeData.of(records)
    names = sorted(data.columns)
    header = StringIO()
    csv.writer(header, lineterminator="\n").writerow(["time", "status", *names])
    columns = [data.time, data.failed, *(data.columns[name] for name in names)]
    cells: list[str] = [""] * (len(data) * len(columns))
    for j, column in enumerate(columns):
        end = "\n" if j == len(columns) - 1 else ","
        if j == 1:
            labels, which = [CENSORED, FAILED], column.astype(np.intp)
        else:
            bits, which = np.unique(column.view(np.int64), return_inverse=True)
            labels = map(repr, bits.view(float).tolist())
        cells[j::len(columns)] = np.array([s + end for s in labels], dtype=object)[which].tolist()
    out.write(header.getvalue() + "".join(cells))


def read_degradation_csv(path_or_file) -> list[DegradationSample]:
    """Read per-unit degradation paths grouped by the `unit` column.

    The rows are checked a column at a time, the first bad row naming its
    line: its unit id not empty, its condition cells, time and response
    as numbers, its time and response finite, then its condition equal to
    its unit's first row's."""
    from .degradation import DegradationSample

    header, lines, columns, stop = _read_table(
        _read_text(path_or_file), ("unit", "time", "response"),
        "degradation CSV needs 'unit', 'time' and 'response'")
    units = [u.strip() for u in columns["unit"]]
    rules = [(np.array([not u for u in units], dtype=bool),
              lambda i: DataError("empty unit id"))]
    cond_names = [c for c in header if c not in ("unit", "time", "response")]
    conditions = _numbers(columns, [*cond_names, "time", "response"], rules)
    rules += _finite(conditions, ["time", "response"])
    time, response = conditions.pop("time"), conditions.pop("response")
    paths: dict[str, list[int]] = {}
    for i, unit in enumerate(units):
        paths.setdefault(unit, []).append(i)
    # As a dict comparison: nan differs, except on the unit's first row itself.
    changed = [i != j and any(v[i] != v[j] for v in conditions.values())
               for i, j in enumerate(paths[unit][0] for unit in units)]
    rules.append((np.array(changed, dtype=bool),
                  lambda i: DataError(f"unit {units[i]!r} changes condition mid-path")))
    raise_first_bad(rules, lines)
    if stop is not None:
        raise stop
    return [DegradationSample(unit, time[rows].tolist(), response[rows].tolist(),
                              {name: v[rows[0]].item() for name, v in conditions.items()})
            for unit, rows in paths.items()]


def read_spectral_csv(path_or_file) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Read a spectrum: wavelengths plus any of irradiance/absorbance columns.

    The rows are checked as photodeg checks a spectrum, the first bad row
    naming its line: every cell a number, the wavelength, irradiance and
    absorbance finite, then wavelengths strictly increasing, then
    irradiance and absorbance >= 0 in header order."""
    header, lines, columns, stop = _read_table(_read_text(path_or_file), ("wavelength_nm",),
                                               "spectral CSV needs a 'wavelength_nm' column")
    if len(header) < 2:
        raise DataError("spectral CSV needs at least one value column")
    rules = []
    columns = _numbers(columns, ["wavelength_nm", *(c for c in header if c != "wavelength_nm")],
                       rules)
    rules += _finite(columns, [c for c in columns if c in ("wavelength_nm", "irradiance",
                                                           "absorbance")])
    wavelengths = columns.pop("wavelength_nm")
    rules.append((np.append(False, wavelengths[1:] <= wavelengths[:-1]),
                  lambda i: DataError("wavelengths must be strictly increasing")))
    rules += [(columns[name] < 0.0, lambda i, name=name: DataError(f"{name} samples must be >= 0"))
              for name in columns if name in ("irradiance", "absorbance")]
    raise_first_bad(rules, lines)
    if stop is not None:
        raise stop
    if len(lines) < 2:
        raise DataError("spectral CSV needs at least 2 rows")
    return wavelengths, columns


def read_mc_csv(path_or_file) -> MoistureTable:
    """Read a moisture-content table over relative humidity; a cell that
    is not a finite number names its line."""
    from .photodeg import MoistureTable

    _, lines, columns, stop = _read_table(_read_text(path_or_file), ("rh", "moisture_content"),
                                          "moisture CSV needs 'rh' and 'moisture_content' columns")
    rules = []
    columns = _numbers(columns, ["rh", "moisture_content"], rules)
    rules += _finite(columns, ["rh", "moisture_content"])
    raise_first_bad(rules, lines)
    if stop is not None:
        raise stop
    return MoistureTable(columns["rh"].tolist(), columns["moisture_content"].tolist())


def format_float(x: float, sig: int = 17) -> str:
    """`x` to `sig` significant digits; non-finite values print as nan/inf."""
    return format(float(x), f".{sig}g")


def _plain(obj):
    """`obj` as the plain values json.dumps takes: numpy scalars and arrays
    as Python ones, a mapping as a dict with str keys, any other iterable
    as a list, and a non-finite float as None (JSON has no NaN or
    Infinity)."""
    if obj is None or isinstance(obj, str):
        return obj
    if isinstance(obj, (bool, np.bool_)):
        return bool(obj)
    if isinstance(obj, (int, np.integer)):
        return int(obj)
    if isinstance(obj, (float, np.floating)):
        return float(obj) if math.isfinite(obj) else None
    if isinstance(obj, np.ndarray):
        return _plain(obj.tolist())
    if isinstance(obj, Mapping):
        return {str(k): _plain(v) for k, v in obj.items()}
    if isinstance(obj, Iterable):
        return [_plain(v) for v in obj]
    raise DataError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj, indent: int = 2) -> str:
    """Deterministic JSON: insertion-keyed objects, each float as repr
    prints it, newline-terminated."""
    return json.dumps(_plain(obj), indent=indent) + "\n"
