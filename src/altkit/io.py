"""CSV schemas and deterministic JSON serialization.

Life-data CSV: columns `time`, `status` (failed/censored) and one column
per condition variable, headers carrying unit suffixes (temp_C,
voltstress_V_per_mm, rh_frac).  Degradation CSV: `unit`, `time`,
`response` plus condition columns constant within each unit.  Spectral
CSV: `wavelength_nm` plus `irradiance` and/or `absorbance`.  Moisture
CSV: `rh`, `moisture_content`.  All four stream through one reader:
blank lines are skipped, every row has one cell per header column, a
column name may appear once, and errors name the file line.

JSON reports print floats with 17 significant digits (lossless round
trip); CSV tables default to 6.  Serialization is hand-rolled so the byte
output is fully determined by the report contents.
"""

from __future__ import annotations

import csv
import json
import math
from contextlib import contextmanager, nullcontext
from typing import IO, Iterable, Mapping, Sequence

import numpy as np

from .data import STATUSES, LifeRecord
from .degradation import DegradationSample
from .errors import DataError
from .photodeg import MoistureTable

JSON_SIG_DIGITS = 17
TABLE_SIG_DIGITS = 6


@contextmanager
def _csv_table(path_or_file, required: Sequence[str], missing: str):
    """Open a CSV table and check its header; give (header, rows), rows
    streaming (line number, cells) per non-blank row.  The header must hold
    every `required` column (else DataError(missing)) and no name twice;
    each row needs one cell per column.  A file passed in is left open."""
    is_file = hasattr(path_or_file, "read")
    with nullcontext(path_or_file) if is_file else open(path_or_file, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if not header:
            raise DataError("empty CSV: no header row")
        if any(c not in header for c in required):
            raise DataError(missing)
        dupes = sorted({c for c in header if header.count(c) > 1})
        if dupes:
            raise DataError(f"duplicate column name(s) {dupes} in the header")

        def rows():
            for cells in reader:
                if len(cells) != len(header):
                    if not cells:
                        continue
                    raise DataError(
                        f"line {reader.line_num}: expected {len(header)} cells, got {len(cells)}"
                    )
                yield reader.line_num, cells

        yield header, rows()


def _floats(line: int, header: list[str], cells: list[str], cols: list[int]) -> list[float]:
    """The cells at `cols` as floats; the first that fails names itself."""
    values = []
    for j in cols:
        try:
            values.append(float(cells[j]))
        except ValueError:
            raise DataError(
                f"line {line}, column {header[j]}: expected a number, got {cells[j]!r}"
            ) from None
    return values


def read_life_csv(path_or_file) -> list[LifeRecord]:
    """Read life records; every non-time/status column becomes a condition
    variable."""
    with _csv_table(path_or_file, ("time", "status"),
                    "life-data CSV needs 'time' and 'status' columns") as (header, rows):
        status_col = header.index("status")
        cond_names = [c for c in header if c not in ("time", "status")]
        cols = [header.index(c) for c in (*cond_names, "time")]
        records = []
        for line, cells in rows:
            status = cells[status_col].strip()
            if status not in STATUSES:
                raise DataError(f"line {line}: status must be one of {STATUSES}, got {status!r}")
            *values, time = _floats(line, header, cells, cols)
            records.append(LifeRecord(time, status, dict(zip(cond_names, values))))
        return records


def write_life_csv(records: Sequence[LifeRecord], out: IO) -> None:
    """Write records with shortest lossless floats so round trips refit
    identically."""
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


def read_degradation_csv(path_or_file) -> list[DegradationSample]:
    """Read per-unit degradation paths grouped by the `unit` column."""
    with _csv_table(path_or_file, ("unit", "time", "response"),
                    "degradation CSV needs 'unit', 'time' and 'response'") as (header, rows):
        unit_col = header.index("unit")
        cond_names = [c for c in header if c not in ("unit", "time", "response")]
        cols = [header.index(c) for c in (*cond_names, "time", "response")]
        paths: dict[str, tuple[list[float], list[float], dict[str, float]]] = {}
        for line, cells in rows:
            unit = cells[unit_col].strip()
            if not unit:
                raise DataError(f"line {line}: empty unit id")
            *values, time, response = _floats(line, header, cells, cols)
            cond = dict(zip(cond_names, values))
            times, resps, first = paths.setdefault(unit, ([], [], cond))
            if cond != first:
                raise DataError(f"line {line}: unit {unit!r} changes condition mid-path")
            times.append(time)
            resps.append(response)
    return [DegradationSample(u, t, r, c) for u, (t, r, c) in paths.items()]


def read_spectral_csv(path_or_file) -> tuple[np.ndarray, dict[str, np.ndarray]]:
    """Read a spectrum: wavelengths plus any of irradiance/absorbance columns."""
    with _csv_table(path_or_file, ("wavelength_nm",),
                    "spectral CSV needs a 'wavelength_nm' column") as (header, rows):
        if len(header) < 2:
            raise DataError("spectral CSV needs at least one value column")
        cols = [header.index("wavelength_nm")]
        cols += [j for j, c in enumerate(header) if c != "wavelength_nm"]
        table = [_floats(line, header, cells, cols) for line, cells in rows]
    if len(table) < 2:
        raise DataError("spectral CSV needs at least 2 rows")
    wavelengths, *values = np.array(table).T.copy()
    return wavelengths, {header[j]: v for j, v in zip(cols[1:], values)}


def read_mc_csv(path_or_file) -> MoistureTable:
    """Read a moisture-content table over relative humidity."""
    with _csv_table(path_or_file, ("rh", "moisture_content"),
                    "moisture CSV needs 'rh' and 'moisture_content' columns") as (header, rows):
        cols = [header.index("rh"), header.index("moisture_content")]
        table = [_floats(line, header, cells, cols) for line, cells in rows]
    return MoistureTable([rh for rh, _ in table], [mc for _, mc in table])


def format_float(x: float, sig: int = JSON_SIG_DIGITS) -> str:
    """Shortest fixed-significance decimal; non-finite values print as nan/inf."""
    x = float(x)
    if math.isnan(x):
        return "nan"
    if math.isinf(x):
        return "inf" if x > 0 else "-inf"
    return format(x, f".{sig}g")


def _json_fragment(obj, indent: int, level: int) -> str:
    pad = " " * (indent * (level + 1))
    close_pad = " " * (indent * level)
    if obj is None:
        return "null"
    if isinstance(obj, (bool, np.bool_)):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        # JSON has no NaN/Infinity literals; report them as null.
        x = float(obj)
        if not math.isfinite(x):
            return "null"
        return format_float(x)
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, np.ndarray):
        obj = obj.tolist()
    if isinstance(obj, Mapping):
        if not obj:
            return "{}"
        items = [
            f"{pad}{json.dumps(str(k))}: {_json_fragment(v, indent, level + 1)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + "\n" + close_pad + "}"
    if isinstance(obj, Iterable):
        seq = list(obj)
        if not seq:
            return "[]"
        items = [f"{pad}{_json_fragment(v, indent, level + 1)}" for v in seq]
        return "[\n" + ",\n".join(items) + "\n" + close_pad + "]"
    raise DataError(f"cannot serialize {type(obj).__name__} to JSON")


def dump_json(obj, indent: int = 2) -> str:
    """Deterministic JSON: insertion-keyed objects, 17-significant-digit
    floats, newline-terminated."""
    return _json_fragment(obj, indent, 0) + "\n"
