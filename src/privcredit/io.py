"""CSV ingestion, flat config files, and JSON report serialization."""

import csv
import json
import math
from io import StringIO
from json.encoder import encode_basestring_ascii

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


def _read_text(path):
    """The file's text, decoded as UTF-8 without a leading byte-order mark;
    a byte sequence that does not decode is a :class:`DataValidationError`
    naming the file and line."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return data.decode("utf-8-sig")
    except UnicodeDecodeError as exc:
        # the decoder's offsets count from after the byte-order mark
        rest = exc.object
        line = rest.count(b"\n", 0, exc.start) + 1
        raise DataValidationError(
            f"{path}: line {line}: not valid UTF-8 (byte 0x{rest[exc.start]:02x})"
        ) from None


def _parses(raw):
    try:
        float(raw)
    except ValueError:
        return False
    return True


def ingest(path):
    """Read and validate a panel CSV into an :class:`ObservedSeries`.

    The first data row fixes the initial book values; its payout cells may
    be empty, and a non-empty one must be nonnegative and finite. Periods
    must be consecutive integers and every other book and payout value a
    strictly positive, finite number. Diagnostics name the file, the
    offending row (its line in the file) and the column. Of several faults
    the first in file order is reported; a row's field count comes before
    its cells, and its period before its values.
    """
    reader = csv.reader(StringIO(_read_text(path), newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise DataValidationError(f"{path}: empty file")
        if [h.strip() for h in header] != CSV_HEADER:
            raise DataValidationError(
                f"{path}: malformed header {header!r}, expected {CSV_HEADER}"
            )
        rows = [(reader.line_num, row) for row in reader if "".join(row).strip()]
    except csv.Error as exc:  # e.g. a field over csv's size limit
        raise DataValidationError(f"{path}: line {reader.line_num}: {exc}") from None
    if len(rows) < 2:
        raise DataValidationError(f"{path}: need at least 2 data rows")

    width = len(CSV_HEADER)

    def wrong_width(i):
        line, row = rows[i]
        return DataValidationError(
            f"{path}: row {line} has {len(row)} fields, expected {width}"
        )

    # only the rows before the first one of the wrong width are read
    n = next((i for i, (_, row) in enumerate(rows) if len(row) != width), len(rows))
    if n == 0:
        raise wrong_width(0)
    cells = [raw for _, row in rows[:n] for raw in row]
    for k in (3, 4):  # the first row's payouts: empty reads as zero, allowed there
        if not cells[k].strip():
            cells[k] = "0"
    unparsed = len(cells)
    try:
        values = list(map(float, cells))
    except ValueError:
        # strip as the messages show a cell, and locate the first that is not
        # a number; the cells after it read as NaN, and their faults come later
        cells = [raw.strip() for raw in cells]
        unparsed = next((k for k, raw in enumerate(cells) if not _parses(raw)), unparsed)
        values = list(map(float, cells[:unparsed]))
        values += [math.nan] * (len(cells) - unparsed)
    table = np.array(values).reshape(n, width)

    # each row's checks in the order they are reported: the period cell, the
    # period as an integer, its place in the sequence, then the value cells
    faults = np.zeros((n, 2 + width), bool)
    periods = table[:, 0]
    steps = np.arange(n)
    expected = periods[0] + steps
    faults[:, 1] = ~np.isfinite(periods) | (periods != np.floor(periods))
    # beyond 2**53 the sum rounds, and subtracting the start misses the step;
    # a start that is not a finite integer is reported before any break
    with np.errstate(invalid="ignore"):
        faults[:, 2] = (periods != expected) | (expected - periods[0] != steps)
    faults[:, 3:] = ~((table[:, 1:] > 0.0) & (table[:, 1:] < math.inf))
    faults[0, 5:] = ~((table[0, 3:] >= 0.0) & (table[0, 3:] < math.inf))
    if unparsed < len(cells):
        row, col = divmod(unparsed, width)
        faults[row, 0 if col == 0 else 2 + col] = True

    first = np.flatnonzero(faults)
    if not first.size:
        if n < len(rows):
            raise wrong_width(n)
        return derive_series(table[:, 1:3], table[1:, 3:])
    i, check = divmod(int(first[0]), faults.shape[1])
    line, row = rows[i]
    col = max(check - 2, 0)
    raw = row[col].strip()
    period = float(periods[i])

    def invalid(problem):
        return DataValidationError(
            f"{path}: row {line}, column {CSV_HEADER[col]}{problem}")

    if i * width + col == unparsed:
        raise invalid(" is empty" if raw == "" else f": not a number ({raw!r})")
    if check == 1:
        raise invalid(f": not a finite integer ({period!r})")
    if check == 2:
        raise DataValidationError(
            f"{path}: row {line}: period {period:g} breaks the "
            f"consecutive sequence starting at {int(periods[0])}"
        )
    sign = "nonnegative" if i == 0 and col >= 3 else "strictly positive"
    raise invalid(f": must be {sign} and finite (got {raw})")


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


def parse_config(path, types):
    """Parse a flat ``key = value`` UTF-8 config file into typed values.

    ``types`` maps each allowed key to the type its value parses as, such
    as ``float`` or ``int``. Blank lines and ``#`` comments are ignored;
    unknown keys, duplicate keys and values that do not parse are rejected.
    """
    out = {}
    for lineno, raw in enumerate(StringIO(_read_text(path), newline=None), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise DataValidationError(
                f"{path}: line {lineno}: expected 'key = value'"
            )
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in types:
            raise DataValidationError(f"{path}: line {lineno}: unknown key {key!r}")
        if key in out:
            raise DataValidationError(f"{path}: line {lineno}: duplicate key {key!r}")
        kind = types[key]
        try:
            out[key] = kind(value)
        except ValueError:
            raise DataValidationError(
                f"config key {key!r}: cannot parse {value!r} as {kind.__name__}"
            ) from None
    return out


def _float_tokens(values):
    """JSON tokens of Python floats: the shortest round-trip repr, and
    json's own ``NaN`` and ``Infinity`` for the non-finite ones."""
    tokens = list(map(float.__repr__, values))
    if not all(map(math.isfinite, values)):
        tokens = [t if math.isfinite(v) else json.dumps(v) for t, v in zip(tokens, values)]
    return tokens


def _nested(tokens, shape, level):
    """The indented JSON array of ``shape`` holding ``tokens`` in row-major
    order, opened at indent ``level``; joined from the innermost axis out."""
    for depth in reversed(range(len(shape))):
        inner = "\n" + "  " * (level + depth + 1)
        outer = "\n" + "  " * (level + depth)
        size = shape[depth]
        if size == 0:
            tokens = ["[]"] * math.prod(shape[:depth])
        else:
            sep = "," + inner
            tokens = ["[" + inner + sep.join(tokens[i:i + size]) + outer + "]"
                      for i in range(0, len(tokens), size)]
    return tokens[0]


def _emit(obj, level, out):
    """Append the chunks of ``json.dumps(obj, sort_keys=True, indent=2)``
    to ``out``, for ``obj`` opened at indent ``level``; numpy arrays and
    scalars are written as their ``tolist()``."""
    if isinstance(obj, np.ndarray):
        # a long double has no Python float, and json rejects its tolist()
        if obj.dtype.kind == "f" and obj.dtype.itemsize <= 8:
            out.append(_nested(_float_tokens(obj.ravel().tolist()), obj.shape, level))
            return
        obj = obj.tolist()
    elif isinstance(obj, (np.floating, np.integer)):
        obj = obj.item()
    if isinstance(obj, float):
        out.append(_float_tokens([obj])[0])
    elif isinstance(obj, dict):
        if not obj:
            out.append("{}")
            return
        inner = "\n" + "  " * (level + 1)
        sep = "{" + inner
        for key, value in sorted(obj.items()):
            if not isinstance(key, str):
                key = json.dumps(key)
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _emit(value, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "}")
    elif isinstance(obj, (list, tuple)):
        if all(isinstance(v, float) for v in obj):
            out.append(_nested(_float_tokens(obj), (len(obj),), level))
            return
        inner = "\n" + "  " * (level + 1)
        sep = "[" + inner
        for value in obj:
            out.append(sep)
            _emit(value, level + 1, out)
            sep = "," + inner
        out.append("\n" + "  " * level + "]")
    else:
        # str, int, bool and None; anything else raises json's TypeError
        out.append(json.dumps(obj))


def format_report(report):
    """Serialize a report losslessly and deterministically.

    The text is exactly ``json.dumps(report, sort_keys=True, indent=2)``
    plus a newline, with numpy arrays and scalars as their ``tolist()``:
    keys sorted, two-space indent, floats in their shortest round-tripping
    form, ``NaN`` and ``Infinity`` tokens, ASCII only. So identical runs
    produce byte-identical documents.
    """
    out = []
    _emit(report, 0, out)
    out.append("\n")
    return "".join(out)


def write_report(report, path=None, stream=None):
    text = format_report(report)
    if path:
        with open(path, "w") as fh:
            fh.write(text)
    elif stream is not None:
        stream.write(text)
    return text
