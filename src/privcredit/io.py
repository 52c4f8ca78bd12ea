"""CSV ingestion, flat config files, and JSON report serialization."""

import csv
import json
import math

import numpy as np

from .errors import DataValidationError
from .model import derive_series

CSV_HEADER = [
    "period",
    "book_equity",
    "book_liability",
    "payout_equity",
    "payout_liability",
]


def ingest(path):
    """Read and validate a panel CSV into an :class:`ObservedSeries`.

    The first data row fixes the initial book values; its payout cells may
    be empty, and a non-empty one must be nonnegative and finite. Periods
    must be consecutive integers and every other book and payout value a
    strictly positive, finite number. Diagnostics name the file, the
    offending row (its line in the file) and the column.
    """
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataValidationError(f"{path}: empty file") from None
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataValidationError(
                f"{path}: malformed header {header!r}, expected {CSV_HEADER}"
            )
        rows = [(reader.line_num, row) for row in reader
                if row and any(c.strip() for c in row)]
    if len(rows) < 2:
        raise DataValidationError(f"{path}: need at least 2 data rows")

    def invalid(line, col, problem):
        return DataValidationError(
            f"{path}: row {line}, column {CSV_HEADER[col]}{problem}")

    def cell(line, row, col, optional=False):
        """Column ``col`` of ``row`` as a float; a book or payout value must
        be strictly positive and finite, or if ``optional`` empty (None) or
        zero."""
        raw = row[col].strip()
        if raw == "":
            if optional:
                return None
            raise invalid(line, col, " is empty")
        try:
            value = float(raw)
        except ValueError:
            raise invalid(line, col, f": not a number ({raw!r})") from None
        if col and not (0.0 < value < math.inf or optional and value == 0.0):
            sign = "nonnegative" if optional else "strictly positive"
            raise invalid(line, col, f": must be {sign} and finite (got {raw})")
        return value

    books, payouts = [], []
    for i, (line, row) in enumerate(rows):
        if len(row) != len(CSV_HEADER):
            raise DataValidationError(
                f"{path}: row {line} has {len(row)} fields, expected {len(CSV_HEADER)}"
            )
        period = cell(line, row, 0)
        if not period.is_integer():
            raise invalid(line, 0, f": not a finite integer ({period!r})")
        if i == 0:
            first_period = int(period)
        elif period != first_period + i:
            raise DataValidationError(
                f"{path}: row {line}: period {period:g} breaks the "
                f"consecutive sequence starting at {first_period}"
            )
        books.append((cell(line, row, 1), cell(line, row, 2)))
        payout = cell(line, row, 3, i == 0), cell(line, row, 4, i == 0)
        if i:
            payouts.append(payout)
    return derive_series(books, payouts)


def write_panel_csv(path, books, payouts):
    """Write an ingestible panel CSV (books at 0..T, payouts at 1..T)."""
    books = np.asarray(books, float)
    payouts = np.asarray(payouts, float)
    def fmt(x):
        return repr(float(x))

    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerow([0, fmt(books[0, 0]), fmt(books[0, 1]), "", ""])
        for i in range(1, books.shape[0]):
            writer.writerow(
                [
                    i,
                    fmt(books[i, 0]),
                    fmt(books[i, 1]),
                    fmt(payouts[i - 1, 0]),
                    fmt(payouts[i - 1, 1]),
                ]
            )


def parse_config(path, allowed_keys):
    """Parse a flat ``key = value`` config file.

    Blank lines and ``#`` comments are ignored; unknown keys are rejected.
    Values come back as strings; use :func:`coerce` for typing.
    """
    out = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise DataValidationError(
                    f"{path}: line {lineno}: expected 'key = value'"
                )
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in allowed_keys:
                raise DataValidationError(f"{path}: line {lineno}: unknown key {key!r}")
            if key in out:
                raise DataValidationError(f"{path}: line {lineno}: duplicate key {key!r}")
            out[key] = value
    return out


def coerce(config, key, kind, default=None, required=False):
    """Typed lookup into a parsed config mapping."""
    if key not in config:
        if required:
            raise DataValidationError(f"config key {key!r} is required")
        return default
    raw = config[key]
    try:
        return kind(raw)
    except ValueError:
        raise DataValidationError(
            f"config key {key!r}: cannot parse {raw!r} as {kind.__name__}"
        ) from None


def _to_jsonable(obj):
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, dict):
        return {k: _to_jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_to_jsonable(v) for v in obj]
    return obj


def format_report(report):
    """Serialize a report losslessly and deterministically.

    Floats are rendered with ``repr`` (shortest round-tripping form), keys
    sorted, so identical runs produce byte-identical documents.
    """
    return json.dumps(_to_jsonable(report), sort_keys=True, indent=2) + "\n"


def write_report(report, path=None, stream=None):
    text = format_report(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    elif stream is not None:
        stream.write(text)
    return text
