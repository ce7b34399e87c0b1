"""The file formats: every column table, its cell parsers, and the readers and writers.

A CSV file other than the grid function (see `mesh_fem`) is a column
table: each column declared once, as (name, format, parse), where `format`
turns a row value into its cell and `parse` turns the cell back, so writer
and reader cannot drift apart.  The tables are a run record's history
(RECORD_COLUMNS), the campaign table (TABLE_COLUMNS) and the three verify
suites (ORACLE_COLUMNS, TCC_COLUMNS, ADJOINT_COLUMNS).  Floats are written
with 17 significant digits, so every file reads back bit for bit.  Every
JSON file is strict JSON, written by :func:`write_json`.

A damaged file raises ValueError naming the file and the defect, and the
line of a bad row.  A run's JSON summary is checked against the one its
record derives by :func:`check_summary`.
"""

from __future__ import annotations

import csv
import json
import math
from numbers import Integral, Real
from pathlib import Path

from .sparse_linalg import FINITE_POSITIVE, NONNEGATIVE_INTEGER, require_scalar, require_seed

# why a run ended, as its record stores it
REASON_DISCREPANCY = "discrepancy"
REASON_MAX_ITERATIONS = "max-iterations"
REASON_FORWARD_FAILURE = "forward-failure"
REASON_DIVERGENCE = "divergence"
REASONS = (REASON_DISCREPANCY, REASON_MAX_ITERATIONS, REASON_FORWARD_FAILURE, REASON_DIVERGENCE)

FLOAT_CELL = "{:.17g}".format  # 17 significant digits round-trip a double bit for bit
INT_CELL = "{:d}".format


def write_rows(path, columns, rows) -> Path:
    """Write row dicts as CSV: the column names, then one line per row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([name for name, _, _ in columns])
        writer.writerows([fmt(row[name]) for name, fmt, _ in columns] for row in rows)
    return Path(path)


def write_json(path, obj) -> Path:
    """Write obj as strict JSON, indented, with a final newline; NaN or infinity is a ValueError."""
    path = Path(path)
    path.write_text(json.dumps(obj, indent=2, allow_nan=False) + "\n")
    return path


def read_rows(path, columns) -> list[dict]:
    """Read the row dicts of a CSV written by :func:`write_rows` with the same columns.

    A damaged file raises ValueError naming the file and the defect: the
    missing columns, a header with unknown or repeated ones, a blank line,
    or the line of a row with more cells than the header or of a cell that
    is empty, cut off or does not parse.  Row i is therefore on line i + 2.
    """
    rows = []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, [])
        missing = [name for name, _, _ in columns if name not in header]
        if missing:
            raise ValueError(f"{path}: missing columns {missing}")
        if len(header) > len(columns):  # each column is there, so some are unknown or repeated
            raise ValueError(f"{path}: unknown or repeated columns in the header {header}")
        for cells in reader:
            if not cells or len(cells) > len(header):
                defect = f"{len(cells)} cells for {len(header)} columns" if cells else "blank line"
                raise ValueError(f"{path}, line {reader.line_num}: {defect}")
            row = dict(zip(header, cells))
            values = {}
            for name, _, parse in columns:
                cell = row.get(name)  # None where the row is cut off
                try:
                    values[name] = parse(cell)
                except (TypeError, ValueError) as exc:
                    defect = f"{name}: {exc}" if cell else "empty cell"
                    raise ValueError(f"{path}, line {reader.line_num}: {defect}") from exc
            rows.append(values)
    return rows


def read_json_object(path) -> dict:
    """Read a JSON file that holds one object; anything else is a ValueError naming the file."""
    with open(path) as fh:
        try:
            obj = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: not valid JSON ({exc})") from exc
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: expected a JSON object, got {type(obj).__name__}")
    return obj


def _same(stored, derived) -> bool:
    """Whether a stored summary value is the derived one, bit for bit and type for type.

    An integer stands for the float of its value, as configs built from
    integers were once stored.
    """
    if type(stored) is int and type(derived) is float:
        return stored == derived
    return json.dumps(stored, sort_keys=True) == json.dumps(derived, sort_keys=True)


def check_summary(path, stored: dict, derived: dict, given, source: str, optional=()) -> None:
    """Require the summary `stored`, read from `path`, to be `derived`, key for key.

    No key may be unknown or missing, except one of `optional`; the keys
    `given` built the record and are not compared, and every other value
    must be the derived one (see `_same`), else ValueError names the key
    and the `source` the value follows from.
    """
    for key in {**derived, **stored}:
        if key not in derived:
            raise ValueError(f"{path}: unknown key {key!r}")
        if key not in stored:
            if key not in optional:
                raise ValueError(f"{path}: missing key {key!r}")
        elif key not in given and not _same(stored[key], derived[key]):
            raise ValueError(
                f"{path}: {key!r} must be {derived[key]!r}, as {source} give, got {stored[key]!r}"
            )


def cell_parser(cast, kind, bound, requirement: str):
    """A cell parser: `cast` of the cell, checked by `require_scalar`."""
    return lambda cell: require_scalar("value", cast(cell), kind, bound, requirement)


def parse_reason(cell) -> str:
    """A stored reason: one of REASONS, else ValueError."""
    if cell not in REASONS:
        raise ValueError(f"must be one of {', '.join(REASONS)}, got {cell!r}")
    return cell


# a stored residual norm; NaN passes, as `run` records one where dot(r, M r) is NaN
residual_norm = cell_parser(float, Real, lambda v: not v < 0.0, "not be negative")
# a stored Newton count, 0 at n = 0 where the start's solution counts none
newton_count = cell_parser(int, *NONNEGATIVE_INTEGER)


RECORD_COLUMNS = (
    ("n", INT_CELL, int),
    ("residual_M", FLOAT_CELL, residual_norm),
    # empty when the run had no exact source
    ("rel_error", lambda e: "" if e is None else FLOAT_CELL(e),
     lambda cell: math.nan if cell == "" else float(cell)),
    ("ssn_iters", INT_CELL, newton_count),
)

TABLE_COLUMNS = (
    ("delta", FLOAT_CELL, cell_parser(float, *FINITE_POSITIVE)),
    ("seed", INT_CELL, lambda cell: require_seed(int(cell))),
    # -1 for a cell whose first forward solve failed
    ("N", INT_CELL, cell_parser(int, Integral, lambda v: v >= -1, "be an integer >= -1")),
    ("rel_error", FLOAT_CELL, residual_norm),  # nan, like rate, for a failed cell
    ("rate", FLOAT_CELL, residual_norm),
    # the cell's Newton steps; a cell after the first made none for F(u0)
    ("ssn_total", INT_CELL, newton_count),
    ("reason", str, parse_reason),
)

# the verify suites' CSV columns
ORACLE_COLUMNS = (("n_h", INT_CELL, int), ("trial", INT_CELL, int), ("max_diff", FLOAT_CELL, float))
TCC_COLUMNS = tuple((name, FLOAT_CELL, float) for name in ("radius", "mu_hat", "mismatch"))
ADJOINT_COLUMNS = (
    ("trial", INT_CELL, int), ("asymmetry", FLOAT_CELL, float), ("rayleigh", FLOAT_CELL, float)
)


def write_table_csv(path, rows) -> Path:
    """Write campaign rows with columns delta,seed,N,rel_error,rate,ssn_total,reason."""
    return write_rows(path, TABLE_COLUMNS, rows)


def read_table_csv(path) -> list[dict]:
    """Read campaign rows written by :func:`write_table_csv`.

    A damaged file raises ValueError naming the file, as `RunRecord.load` does,
    and the line of a row that no campaign writes: a delta that is not
    finite and positive, N below -1, a negative count, error or rate, N = -1
    with a reason other than 'forward-failure', or an error or rate that is
    NaN where N >= 0, or a number where N = -1.
    """
    rows = read_rows(path, TABLE_COLUMNS)
    for line, row in enumerate(rows, start=2):  # read_rows puts row i on line i + 2
        failed = row["N"] == -1
        if failed and row["reason"] != REASON_FORWARD_FAILURE:
            raise ValueError(f"{path}, line {line}: N = -1 needs reason {REASON_FORWARD_FAILURE!r}")
        for name in ("rel_error", "rate"):
            if math.isnan(row[name]) != failed:
                raise ValueError(f"{path}, line {line}: {name} must be nan exactly where N = -1")
    return rows
