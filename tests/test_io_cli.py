import contextlib
import io
import json
import math
import re
import sys
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from privcredit.cli import _COMMANDS, _FLAGS, main
from privcredit.errors import DataValidationError
from privcredit.io import CSV_HEADER, format_report, ingest, parse_config, write_panel_csv

from conftest import base_params, synthetic_series
from reference import ingest_reference

SIM_CONFIG = """
# synthetic company
k_equity = 0.04
k_liability = 0.03
mu0_equity = 0.25
mu0_liability = 0.10
phi_equity = 0.002
phi_liability = -0.001
sigma_u_equity = 0.05
sigma_u_liability = 0.04
rho_u = 0.2
sigma_v_equity = 0.03
sigma_v_liability = 0.03
rho_v = -0.1
sigma0_equity = 0.14
sigma0_liability = 0.14
rho0 = 0.0
rate = 0.0101
periods = 24
seed = 7
book0_equity = 5.0
book0_liability = 6.0
payout_ratio_equity = 0.25
payout_ratio_liability = 0.25
"""


@pytest.fixture
def sim_config(tmp_path):
    cfg = tmp_path / "sim.cfg"
    cfg.write_text(SIM_CONFIG)
    return cfg


@pytest.fixture
def panel_csv(tmp_path, sim_config):
    out = tmp_path / "panel.csv"
    code = main(["simulate", "--config", str(sim_config), "--output", str(out)])
    assert code == 0
    return out


class TestIngest:
    def test_minimal_two_row_file(self, tmp_path):
        path = tmp_path / "min.csv"
        path.write_text(
            ",".join(CSV_HEADER)
            + "\n0,10,12,,\n1,11,12.5,0.5,0.6\n"
        )
        series = ingest(path)
        assert series.n_periods == 1
        np.testing.assert_allclose(series.books0, [10.0, 12.0])

    def test_zero_book_names_row(self, tmp_path):
        path = tmp_path / "bad.csv"
        rows = [",".join(CSV_HEADER), "0,10,12,,"]
        for t in range(1, 5):
            rows.append(f"{t},10,12,0.5,0.5")
        rows.append("5,0,12,0.5,0.5")
        path.write_text("\n".join(rows) + "\n")
        with pytest.raises(DataValidationError, match="row 7, column book_equity"):
            ingest(path)

    def test_period_gap_detected(self, tmp_path):
        path = tmp_path / "gap.csv"
        path.write_text(
            ",".join(CSV_HEADER)
            + "\n0,10,12,,\n2,11,12.5,0.5,0.6\n"
        )
        with pytest.raises(DataValidationError, match="consecutive"):
            ingest(path)

    @pytest.mark.parametrize("row", [0, 1])
    @pytest.mark.parametrize("period", ["nan", "inf", "1.5"])
    def test_period_not_a_finite_integer_names_cell(self, tmp_path, row, period):
        lines = ["0,10,12,,", "1,11,12.5,0.5,0.6", "2,11,12.5,0.5,0.6"]
        lines[row] = period + lines[row][1:]
        path = tmp_path / "period.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataValidationError,
                           match=f"row {row + 2}, column period: not a finite integer"):
            ingest(path)

    @pytest.mark.parametrize("column", ["book_equity", "payout_liability"])
    @pytest.mark.parametrize("value", ["inf", "1e400", "nan", "-1"])
    def test_nonfinite_or_negative_value_names_file_line_and_column(
        self, tmp_path, column, value
    ):
        # the blank line 3 is skipped, so the fourth data row is line 6
        cells = ["3", "12", "13", "0.5", "0.6"]
        cells[CSV_HEADER.index(column)] = value
        lines = [",".join(CSV_HEADER), "0,10,12,,", "", "1,11,12.5,0.5,0.6",
                 "2,11,12.5,0.5,0.6", ",".join(cells)]
        path = tmp_path / "value.csv"
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(DataValidationError) as info:
            ingest(path)
        assert str(info.value) == (
            f"{path}: row 6, column {column}: must be strictly positive and "
            f"finite (got {value})"
        )

    def test_first_row_payout_must_be_a_number_when_present(self, tmp_path):
        path = tmp_path / "row0.csv"
        path.write_text(",".join(CSV_HEADER) + "\n0,10,12,x,\n1,11,12.5,0.5,0.6\n")
        with pytest.raises(DataValidationError,
                           match="row 2, column payout_equity: not a number"):
            ingest(path)
        # a number there, zero included, is read and left unused
        path.write_text(",".join(CSV_HEADER) + "\n0,10,12,0,0\n1,11,12.5,0.5,0.6\n")
        blank = tmp_path / "blank.csv"
        blank.write_text(",".join(CSV_HEADER) + "\n0,10,12,,\n1,11,12.5,0.5,0.6\n")
        assert np.array_equal(ingest(path).payout_ratio, ingest(blank).payout_ratio)

    @pytest.mark.parametrize("value", ["-1", "inf", "nan"])
    def test_first_row_payout_must_be_nonnegative_and_finite(self, tmp_path, value):
        # zero and empty cells there pass, as the test above shows
        path = tmp_path / "row0.csv"
        path.write_text(",".join(CSV_HEADER) + f"\n0,10,12,0,{value}\n1,11,12.5,0.5,0.6\n")
        with pytest.raises(DataValidationError) as info:
            ingest(path)
        assert str(info.value) == (
            f"{path}: row 2, column payout_liability: must be nonnegative and "
            f"finite (got {value})"
        )

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, capsys):
        path = tmp_path / "latin1.csv"
        path.write_bytes(",".join(CSV_HEADER).encode()
                         + b"\n0,10,12,,\n1,11,12.5,0.5,\xe9\n2,11,12.5,0.5,0.6\n")
        with pytest.raises(DataValidationError) as info:
            ingest(path)
        assert str(info.value) == f"{path}: line 3: not valid UTF-8 (byte 0xe9)"
        assert main(["filter", "--input", str(path)]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_byte_order_mark_is_not_text(self, tmp_path, panel_csv):
        # a UTF-8 byte-order mark leaves the header and every report alone
        marked = tmp_path / "marked.csv"
        marked.write_bytes(b"\xef\xbb\xbf" + panel_csv.read_bytes())
        cfg = tmp_path / "params.cfg"
        cfg.write_text(PARAMS_CONFIG)
        reports = []
        for path in (panel_csv, marked):
            out = tmp_path / f"{path.stem}.json"
            assert main(["filter", "--input", str(path), "--config", str(cfg),
                         "--output", str(out)]) == 0
            reports.append(out.read_text().replace(str(path), "<input>"))
        assert reports[0] == reports[1]

    def test_non_utf8_byte_after_byte_order_mark_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "marked.csv"
        path.write_bytes(b"\xef\xbb\xbf" + ",".join(CSV_HEADER).encode()
                         + b"\n0,10,12,,\n1,11,12.5,0.5,\xe9\n2,11,12.5,0.5,0.6\n")
        assert main(["filter", "--input", str(path)]) == 1
        assert capsys.readouterr().err == (
            f"error: {path}: line 3: not valid UTF-8 (byte 0xe9)\n")

    def test_field_over_the_csv_size_limit_is_an_error_line(
        self, tmp_path, panel_csv, capsys
    ):
        path = tmp_path / "wide.csv"
        lines = panel_csv.read_text().splitlines()
        lines[2] = lines[2] + "1" * 200_000
        path.write_text("\n".join(lines) + "\n")
        assert main(["calibrate-threshold", "--input", str(path),
                     "--maturity", "1"]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"error: {path}: line 3: field larger than field limit")
        assert err.count("\n") == 1

    def test_malformed_header(self, tmp_path):
        path = tmp_path / "hdr.csv"
        path.write_text("period,foo,bar,baz,qux\n0,1,1,,\n1,1,1,1,1\n")
        with pytest.raises(DataValidationError, match="header"):
            ingest(path)

    def test_round_trip_write_then_ingest(self, tmp_path, params):
        series, _, _ = synthetic_series(params, 8, seed=3)
        books = np.exp(series.log_books())
        payouts = np.exp(series.payout_ratio) * books[:-1]
        path = tmp_path / "rt.csv"
        write_panel_csv(path, books, payouts)
        rebuilt = ingest(path)
        np.testing.assert_allclose(rebuilt.growth, series.growth, atol=1e-12)
        np.testing.assert_allclose(
            rebuilt.payout_ratio, series.payout_ratio, atol=1e-12
        )


    @settings(max_examples=80, deadline=None)
    @given(
        st.integers(1, 40).flatmap(
            lambda T: st.tuples(
                arrays(float, (T + 1, 2), elements=st.floats(1e-6, 1e9)),
                arrays(float, (T, 2), elements=st.floats(1e-6, 1e9)),
            )
        )
    )
    def test_round_trip_property(self, tmp_path_factory, panel):
        books, payouts = panel
        path = tmp_path_factory.mktemp("round_trip") / "panel.csv"
        write_panel_csv(path, books, payouts)
        rebuilt = ingest(path)
        log_books = np.log(books)
        assert rebuilt.n_periods == books.shape[0] - 1
        np.testing.assert_allclose(
            np.exp(rebuilt.log_books()), books, rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            rebuilt.growth, np.diff(log_books, axis=0), rtol=1e-12, atol=0
        )
        np.testing.assert_allclose(
            rebuilt.payout_ratio, np.log(payouts) - log_books[:-1],
            rtol=1e-12, atol=0,
        )


class TestConfig:
    def test_unknown_key_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("bogus = 1\n")
        with pytest.raises(DataValidationError, match="unknown key"):
            parse_config(cfg, ("known",))

    def test_comments_and_blanks(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("\n# comment\nalpha = 3  # trailing\n")
        assert parse_config(cfg, ("alpha",)) == {"alpha": "3"}

    def test_duplicate_rejected(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("alpha = 3\nalpha = 4\n")
        with pytest.raises(DataValidationError, match="duplicate"):
            parse_config(cfg, ("alpha",))

    def test_non_utf8_byte_names_file_and_line(self, tmp_path, panel_csv, capsys):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes(b"# company\nk_equity = 0.04  # caf\xe9 data\n")
        with pytest.raises(DataValidationError) as info:
            parse_config(cfg, ("k_equity",))
        assert str(info.value) == f"{cfg}: line 2: not valid UTF-8 (byte 0xe9)"
        assert main(["filter", "--input", str(panel_csv), "--config", str(cfg)]) == 1
        assert capsys.readouterr().err == f"error: {info.value}\n"

    def test_byte_order_mark_is_not_part_of_the_first_key(self, tmp_path, panel_csv):
        reports = []
        for name, mark in (("plain", b""), ("marked", b"\xef\xbb\xbf")):
            cfg = tmp_path / f"{name}.cfg"
            cfg.write_bytes(mark + PARAMS_CONFIG.encode())
            out = tmp_path / f"{name}.json"
            assert main(["filter", "--input", str(panel_csv), "--config", str(cfg),
                         "--output", str(out)]) == 0
            reports.append(out.read_bytes())
        assert reports[0] == reports[1]

    def test_utf8_comment_is_read(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_bytes("alpha = 3  # café\n".encode("utf-8"))
        assert parse_config(cfg, ("alpha",)) == {"alpha": "3"}


def _long_panel_lines(periods=1600):
    """The data lines of a valid panel of ``periods`` periods."""
    lines = ["0,10.0,12.0,,"]
    lines += [f"{t},{10 + 0.01 * t!r},{12 + 0.02 * t!r},0.5,0.6"
              for t in range(1, periods + 1)]
    return lines


def _with_cells(line, **cells):
    """``line`` with the named columns replaced; ``None`` drops the cell."""
    row = line.split(",")
    for column, value in cells.items():
        row[CSV_HEADER.index(column)] = value
    return ",".join(cell for cell in row if cell is not None)


# cell texts that break one check or another, and some that pass
_CELL_TEXTS = st.sampled_from([
    "", " ", "x", "nan", "inf", "-inf", "1e400", "-1", "0", "-0", "1.5", " 3 ",
    "1_0", "1.5\x1c", "\x1c", "1e20", "9007199254740993", "-9007199254740992",
])


@st.composite
def _faulty_panels(draw):
    """A small panel CSV text with up to three cells replaced, fields added
    or dropped, and blank lines between rows."""
    periods = draw(st.integers(1, 6))
    start = draw(st.sampled_from([0, 1, -3, 2**53 - 2, 2**53, -2**53]))
    rows = [[str(start), "10", "12", draw(st.sampled_from(["", " ", "0"])), ""]]
    rows += [[str(start + t), "11", "12.5", "0.5", "0.6"] for t in range(1, periods + 1)]
    for _ in range(draw(st.integers(0, 3))):
        row = rows[draw(st.integers(0, len(rows) - 1))]
        change = draw(st.sampled_from(["cell", "cell", "cell", "add", "drop"]))
        if change == "add":
            row.append("1")
        elif change == "drop" and row:
            row.pop()
        elif row:
            row[draw(st.integers(0, len(row) - 1))] = draw(_CELL_TEXTS)
    lines = [",".join(CSV_HEADER)] + [",".join(row) for row in rows]
    for _ in range(draw(st.integers(0, 2))):
        lines.insert(draw(st.integers(1, len(lines))), draw(st.sampled_from(["", " , ,"])))
    return "\n".join(lines) + "\n"


class TestIngestDiagnostics:
    """Every diagnostic of a 1600-period panel, placed where a column-wise
    pass must still find it: in the last data row (file line 1602), and
    against a second fault elsewhere."""

    def _ingest_error(self, tmp_path, lines):
        path = tmp_path / "long.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(lines) + "\n")
        with pytest.raises(DataValidationError) as info:
            ingest(path)
        prefix = f"{path}: "
        assert str(info.value).startswith(prefix)
        return str(info.value)[len(prefix):]

    @pytest.mark.parametrize("cells, message", [
        ({"payout_liability": None}, "row 1602 has 4 fields, expected 5"),
        ({"book_equity": ""}, "row 1602, column book_equity is empty"),
        ({"period": " "}, "row 1602, column period is empty"),
        ({"book_liability": "12,5"}, "row 1602 has 6 fields, expected 5"),
        ({"payout_equity": "abc"}, "row 1602, column payout_equity: not a number ('abc')"),
        ({"period": "1600.5"}, "row 1602, column period: not a finite integer (1600.5)"),
        ({"period": "1e400"}, "row 1602, column period: not a finite integer (inf)"),
        ({"period": "1601"},
         "row 1602: period 1601 breaks the consecutive sequence starting at 0"),
        ({"book_liability": "0"},
         "row 1602, column book_liability: must be strictly positive and finite (got 0)"),
        ({"payout_equity": "-2.5"},
         "row 1602, column payout_equity: must be strictly positive and finite (got -2.5)"),
        ({"payout_liability": "nan"},
         "row 1602, column payout_liability: must be strictly positive and finite (got nan)"),
        ({"book_equity": "inf"},
         "row 1602, column book_equity: must be strictly positive and finite (got inf)"),
    ])
    def test_fault_in_last_row(self, tmp_path, cells, message):
        lines = _long_panel_lines()
        lines[-1] = _with_cells(lines[-1], **cells)
        assert self._ingest_error(tmp_path, lines) == message

    @pytest.mark.parametrize("value, message", [
        ("x", "row 2, column payout_equity: not a number ('x')"),
        ("-1", "row 2, column payout_equity: must be nonnegative and finite (got -1)"),
        ("inf", "row 2, column payout_equity: must be nonnegative and finite (got inf)"),
    ])
    def test_bad_first_row_payout(self, tmp_path, value, message):
        lines = _long_panel_lines()
        lines[0] = _with_cells(lines[0], payout_equity=value)
        assert self._ingest_error(tmp_path, lines) == message

    @pytest.mark.parametrize("early, late, message", [
        # a value fault before a cell that does not parse
        ({"book_equity": "-1"}, {"period": "x"},
         "row 801, column book_equity: must be strictly positive and finite (got -1)"),
        # a cell that does not parse before a value fault
        ({"payout_liability": "abc"}, {"book_equity": "0"},
         "row 801, column payout_liability: not a number ('abc')"),
        # a period break before a wrong field count
        ({"period": "7"}, {"payout_liability": None},
         "row 801: period 7 breaks the consecutive sequence starting at 0"),
        # an empty cell before a non-finite period
        ({"payout_equity": ""}, {"period": "nan"}, "row 801, column payout_equity is empty"),
    ])
    def test_first_fault_in_file_order_wins(self, tmp_path, early, late, message):
        lines = _long_panel_lines()
        lines[799] = _with_cells(lines[799], **early)
        lines[-1] = _with_cells(lines[-1], **late)
        assert self._ingest_error(tmp_path, lines) == message

    def test_field_count_beats_cells_of_its_row(self, tmp_path):
        lines = _long_panel_lines()
        lines[-1] = "x,,-1,abc,nan,1"
        assert self._ingest_error(tmp_path, lines) == "row 1602 has 6 fields, expected 5"
        # in the row before, a cell fault still comes first
        lines[-2] = _with_cells(lines[-2], book_liability="0")
        assert self._ingest_error(tmp_path, lines) == (
            "row 1601, column book_liability: must be strictly positive and finite (got 0)")

    @settings(max_examples=400, deadline=None)
    @given(_faulty_panels())
    def test_matches_the_per_cell_reference(self, tmp_path_factory, text):
        path = tmp_path_factory.mktemp("faulty") / "panel.csv"
        path.write_text(text)

        def outcome(read):
            try:
                series = read(path)
            except DataValidationError as exc:
                return str(exc)
            return series.books0.tolist(), series.growth.tolist(), series.payout_ratio.tolist()

        assert outcome(ingest) == outcome(ingest_reference)

    def test_the_valid_panel_reads(self, tmp_path):
        path = tmp_path / "long.csv"
        path.write_text(",".join(CSV_HEADER) + "\n" + "\n".join(_long_panel_lines()) + "\n")
        series = ingest(path)
        assert series.n_periods == 1600
        np.testing.assert_array_equal(series.books0, [10.0, 12.0])


def _plain(obj):
    """``obj`` with numpy arrays and scalars as their ``tolist()``, tuples
    as lists: what ``json.dumps`` takes."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    if isinstance(obj, dict):
        return {k: _plain(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_plain(v) for v in obj]
    return obj


_JSON_FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, 1e308])
_SHAPES = st.lists(st.integers(0, 3), min_size=0, max_size=3).map(tuple)
_REPORT_LEAVES = (
    _JSON_FLOATS
    | st.integers(-10**20, 10**20)
    | st.booleans()
    | st.none()
    | st.text()
    | st.sampled_from(["héllo", "債務", "tab\t\"quote\"\\", " ", "😀"])
    | _JSON_FLOATS.map(np.float64)
    | st.integers(-2**63, 2**63 - 1).map(np.int64)
    | st.lists(_JSON_FLOATS)
    | arrays(np.float64, _SHAPES, elements=_JSON_FLOATS)
    | arrays(np.int64, _SHAPES)
    | arrays(np.bool_, _SHAPES)
)
_REPORTS = st.recursive(
    _REPORT_LEAVES,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.dictionaries(st.text(max_size=6), inner, max_size=4),
    max_leaves=12,
)


class TestReportSerialization:
    def test_round_trips_losslessly(self):
        report = {"x": 0.1 + 0.2, "arr": np.array([1e-17, math.pi])}
        text = format_report(report)
        parsed = json.loads(text)
        assert parsed["x"] == 0.1 + 0.2
        assert parsed["arr"][1] == math.pi

    @settings(max_examples=300, deadline=None)
    @given(_REPORTS)
    def test_bytes_are_json_dumps(self, report):
        # json's own encoder is the oracle of the layout, byte for byte
        expected = json.dumps(_plain(report), sort_keys=True, indent=2) + "\n"
        assert format_report(report) == expected

    def test_types_json_rejects_raise_type_error(self):
        with pytest.raises(TypeError):
            format_report({"when": object()})
        with pytest.raises(TypeError):
            format_report({"z": np.array([1 + 2j])})


class TestReportLayout:
    """Every command's JSON report is ``json.dumps(..., sort_keys=True,
    indent=2)`` of itself, and a rerun writes the same bytes."""

    @pytest.mark.parametrize("argv", [
        ["estimate", "--max-iter", "3"],
        ["filter"],
        ["smooth"],
        ["forecast", "--maturity", "4"],
        ["price", "--maturity", "4", "--strike", "5.0"],
        ["price", "--maturity", "4", "--strike", "5.0", "--check", "mc",
         "--paths", "1", "--seed", "7"],
        ["default-prob", "--maturity", "4"],
        ["default-prob", "--maturity", "4", "--check", "mc", "--paths", "1"],
        ["calibrate-threshold", "--maturity", "1"],
    ], ids=lambda argv: "-".join(a.lstrip("-") for a in argv[:1] + argv[-2:]))
    def test_stdout_is_sorted_two_space_json(self, tmp_path, panel_csv, capsys, argv):
        cfg = tmp_path / "run.cfg"
        fits = argv[0] in ("estimate", "filter", "smooth")
        cfg.write_text(PARAMS_CONFIG if fits else PRICING_CONFIG)
        argv = argv[:1] + ["--input", str(panel_csv), "--config", str(cfg)] + argv[1:]
        capsys.readouterr()
        assert main(argv) == 0
        out = capsys.readouterr().out
        assert out == json.dumps(json.loads(out), sort_keys=True, indent=2) + "\n"
        assert out.isascii()
        if argv[0] == "price" and "--paths" in argv:
            # one path has no spread, so the check's z scores are infinite
            assert "Infinity" in out
        assert main(argv) == 0
        assert capsys.readouterr().out == out

    def test_simulate_truth_is_sorted_two_space_json(self, tmp_path, sim_config):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name / "panel.csv"
            out.parent.mkdir()
            assert main(["simulate", "--config", str(sim_config), "--output", str(out)]) == 0
            texts.append((tmp_path / name / "panel.csv.truth.json").read_text())
        text = texts[0]
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n"
        assert texts[1] == text.replace(f"{tmp_path}/a/", f"{tmp_path}/b/")


class TestCliSimulate:
    def test_round_trip_books(self, panel_csv):
        series = ingest(panel_csv)
        assert series.n_periods == 24
        truth = json.loads((panel_csv.parent / "panel.csv.truth.json").read_text())
        assert truth["feasibility"]["feasible"] is True
        assert len(truth["true_multipliers"]) == 25

    def test_deterministic_reruns(self, tmp_path, sim_config):
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(["simulate", "--config", str(sim_config), "--output", str(out1)]) == 0
        assert main(["simulate", "--config", str(sim_config), "--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        t1 = json.loads((tmp_path / "a.csv.truth.json").read_text())
        t2 = json.loads((tmp_path / "b.csv.truth.json").read_text())
        t1.pop("output"), t2.pop("output")
        assert t1 == t2

    def test_zero_noise_constant_growth(self, tmp_path):
        lines = []
        for line in SIM_CONFIG.strip().splitlines():
            key = line.split("=")[0].strip()
            if key.startswith(("sigma", "rho", "phi")):
                lines.append(f"{key} = 0")
            else:
                lines.append(line)
        cfg = tmp_path / "det.cfg"
        cfg.write_text("\n".join(lines) + "\n")
        out = tmp_path / "det.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 0
        series = ingest(out)
        assert np.ptp(series.growth, axis=0).max() < 1e-12


    @pytest.mark.parametrize("periods", ["0", "-1"])
    def test_nonpositive_periods_fail_validation(self, tmp_path, capsys, periods):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(SIM_CONFIG.replace("periods = 24", f"periods = {periods}"))
        out = tmp_path / "panel.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith("error: horizon must be >= 1")
        assert not out.exists()

    def test_negative_seed_fails_validation(self, tmp_path, sim_config, capsys):
        out = tmp_path / "neg.csv"
        code = main(["simulate", "--config", str(sim_config), "--output",
                     str(out), "--seed", "-1"])
        assert code == 1
        assert capsys.readouterr().err.startswith("error: seed")
        assert not out.exists()

    @pytest.mark.parametrize("key", ["book0_equity", "book0_liability"])
    @pytest.mark.parametrize("value", ["0", "nan", "-1", "inf"])
    def test_nonpositive_or_nonfinite_book0_writes_nothing(
        self, tmp_path, capsys, key, value
    ):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(re.sub(rf"{key} = \S+", f"{key} = {value}", SIM_CONFIG))
        out = tmp_path / "panel.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err == (
            "error: book0 values must be strictly positive and finite\n"
        )
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize("key", ["sigma_u_equity", "sigma_v_liability",
                                     "sigma0_equity"])
    def test_negative_standard_deviation_fails_validation(
        self, tmp_path, capsys, key
    ):
        cfg = tmp_path / "sim.cfg"
        cfg.write_text(re.sub(rf"{key} = (\S+)", rf"{key} = -\1", SIM_CONFIG))
        out = tmp_path / "panel.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(out)]) == 1
        assert capsys.readouterr().err.startswith(f"error: {key} must be nonnegative")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "price"])
    @pytest.mark.parametrize("key", ["sigma0_equity", "rho_v", "k_equity"])
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_nonfinite_parameter_names_its_key(
        self, tmp_path, panel_csv, capsys, command, key, value
    ):
        # a non-finite standard deviation used to surface as a covariance
        # that is not symmetric, a non-finite return without its key
        text = re.sub(rf"{key} = \S+", f"{key} = {value}", SIM_CONFIG)
        out = tmp_path / "out"
        if command == "simulate":
            argv = ["simulate", "--output", str(out)]
        else:
            text = "".join(line + "\n" for line in text.splitlines()
                           if not line.startswith(("periods", "book0", "payout")))
            argv = ["price", "--input", str(panel_csv), "--output", str(out),
                    "--maturity", "4", "--strike", "5.0"]
        cfg = tmp_path / "bad.cfg"
        cfg.write_text(text)
        capsys.readouterr()
        assert main(argv + ["--config", str(cfg)]) == 1
        assert capsys.readouterr().err == (
            f"error: {key} must be finite (got {float(value)!r})\n")
        assert not out.exists()

    def test_runs_no_filter_or_forecast(self, tmp_path, sim_config, monkeypatch):
        import sys

        from privcredit import kalman, pricing

        calls = []
        for owner, name in ((kalman, "run_filter"), (pricing, "horizon_moments")):
            original = getattr(owner, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            for module_name, module in list(sys.modules.items()):
                if module_name.split(".")[0] == "privcredit" and (
                        getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, counted)
        out = tmp_path / "panel.csv"
        assert main(["simulate", "--config", str(sim_config), "--output", str(out)]) == 0
        assert calls == []
        # the counters see the filter pass and the one horizon pass a
        # forecast makes
        cfg = tmp_path / "pricing.cfg"
        cfg.write_text(PRICING_CONFIG)
        assert main(["forecast", "--input", str(out), "--config", str(cfg),
                     "--maturity", "2", "--output", str(tmp_path / "fc.json")]) == 0
        assert calls == ["run_filter", "horizon_moments"]


class TestCliEstimate:
    def test_zero_iterations_echoes_initializer(self, tmp_path, panel_csv):
        out = tmp_path / "report.json"
        code = main(
            [
                "estimate", "--input", str(panel_csv), "--output", str(out),
                "--max-iter", "0", "--rate", "0.0101",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["estimation"]["iterations"] == 0
        np.testing.assert_allclose(
            report["params"]["req_return"],
            [math.log(1.0101) + 0.02] * 2,
        )

    @pytest.mark.parametrize("command", ["estimate", "filter"])
    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("key, value, code", [
        ("max_iter", "-3", 1), ("tol", "-1e-8", 1), ("tol", "nan", 1),
        ("tol", "inf", 1), ("max_iter", "0", 0), ("tol", "0", 0),
    ])
    def test_negative_max_iter_or_tol_and_nonfinite_tol_fail_validation(
        self, tmp_path, panel_csv, capsys, command, source, key, value, code
    ):
        out = tmp_path / "report.json"
        argv = [command, "--input", str(panel_csv), "--output", str(out),
                "--rate", "0.0101"]
        if source == "flag":
            argv.append(f"--{key.replace('_', '-')}={value}")
        else:
            cfg = tmp_path / "em.cfg"
            cfg.write_text(f"{key} = {value}\n")
            argv += ["--config", str(cfg)]
        if key == "tol":
            argv.append("--max-iter=2")
        assert main(argv) == code
        if code:
            assert capsys.readouterr().err == (
                "error: max_iter must be >= 0 and tol finite and >= 0\n"
            )
        assert out.exists() == (code == 0)

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("rate", ["-1", "-1.5", "nan", "inf"])
    def test_rate_outside_its_range_fails_validation(
        self, tmp_path, panel_csv, capsys, source, rate
    ):
        argv = ["estimate", "--input", str(panel_csv)]
        if source == "flag":
            argv.append(f"--rate={rate}")
        else:
            cfg = tmp_path / "rate.cfg"
            cfg.write_text(f"rate = {rate}\n")
            argv += ["--config", str(cfg)]
        capsys.readouterr()
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            f"error: rate must be finite and above -1 (got {float(rate)!r})\n")

    def test_loglik_trace_nondecreasing(self, tmp_path, panel_csv):
        out = tmp_path / "report.json"
        code = main(
            [
                "estimate", "--input", str(panel_csv), "--output", str(out),
                "--max-iter", "30", "--rate", "0.0101",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        gaps = np.array(report["estimation"]["lambda_after"]) - np.array(
            report["estimation"]["lambda_before"]
        )
        assert gaps.min() > -1e-9
        assert report["feasibility"]["feasible"] is True

    def test_byte_identical_rerun(self, tmp_path, panel_csv):
        out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
        args = ["estimate", "--input", str(panel_csv), "--max-iter", "5",
                "--rate", "0.0101"]
        assert main(args + ["--output", str(out1)]) == 0
        assert main(args + ["--output", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_infeasible_initializer_exits_numerical(self, tmp_path, panel_csv):
        cfg = tmp_path / "badinit.cfg"
        cfg.write_text(
            "\n".join(
                line.replace("k_equity = 0.04", "k_equity = -3.0")
                for line in SIM_CONFIG.strip().splitlines()
                if not line.split("=")[0].strip() in (
                    "periods", "seed", "book0_equity", "book0_liability",
                    "payout_ratio_equity", "payout_ratio_liability",
                )
            )
            + "\n"
        )
        code = main(
            ["estimate", "--input", str(panel_csv), "--config", str(cfg),
             "--max-iter", "5"]
        )
        assert code == 2


PANEL_COMMANDS = ["estimate", "filter", "smooth", "forecast", "price",
                  "default-prob", "calibrate-threshold"]


class TestCliUsage:
    """A command accepts only the flags it reads; every usage error exits 1
    after argparse's usage message, and ``--help`` exits 0."""

    VALUES = {"input": "x.csv", "config": "x.cfg", "output": "x.json",
              "rate": "0.01", "max-iter": "1", "tol": "1e-8", "maturity": "4",
              "strike": "1", "check": "mc", "paths": "10", "seed": "1"}

    @pytest.mark.parametrize("command, flag", [
        (command, flag) for command, (_, _, flags) in _COMMANDS.items()
        for flag in _FLAGS if flag not in flags
    ])
    def test_flag_outside_the_command_exits_1(self, capsys, command, flag):
        assert main([command, f"--{flag}", self.VALUES[flag]]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("usage: privcredit")
        assert f"unrecognized arguments: --{flag} {self.VALUES[flag]}" in captured.err

    @pytest.mark.parametrize("command", list(_COMMANDS))
    def test_abbreviated_flag_exits_1(self, capsys, command):
        # argparse would otherwise read an unambiguous prefix as the flag
        for flag in _COMMANDS[command][2]:
            for end in range(1, len(flag)):
                prefix = f"--{flag[:end]}"
                assert main([command, prefix, self.VALUES[flag]]) == 1
                captured = capsys.readouterr()
                assert captured.out == ""
                assert f"unrecognized arguments: {prefix} " in captured.err

    @pytest.mark.parametrize("argv", [
        ["estimate", "--bogus"], ["price", "--maturity", "abc"], [],
    ], ids=["unknown-flag", "bad-value", "no-command"])
    def test_usage_error_exits_1(self, capsys, argv):
        assert main(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and captured.err.startswith("usage: privcredit")

    @pytest.mark.parametrize("argv", [["--help"], ["price", "--help"]])
    def test_help_exits_0(self, capsys, argv):
        assert main(argv) == 0
        assert capsys.readouterr().out.startswith("usage: privcredit")


class TestCliFileArguments:
    """A file argument that cannot be opened exits 1 with an ``error:`` line
    naming it, never a traceback."""

    @pytest.mark.parametrize("command", PANEL_COMMANDS)
    def test_missing_input(self, capsys, command):
        assert main([command]) == 1
        assert capsys.readouterr().err == (
            f"error: {command} requires --input (panel CSV)\n")

    @pytest.mark.parametrize("argv, named", [
        (["estimate", "--input", "{missing}"], "{missing}"),
        (["filter", "--input", "{dir}"], "{dir}"),
        (["estimate", "--input", "{panel}", "--config", "{missing}"], "{missing}"),
        (["smooth", "--input", "{panel}", "--config", "{dir}"], "{dir}"),
        (["estimate", "--input", "{panel}", "--max-iter", "0",
          "--output", "{missing}/report.json"], "{missing}/report.json"),
        (["simulate", "--config", "{sim}", "--output", "{missing}/panel.csv"],
         "{missing}/panel.csv"),
    ], ids=["input-missing", "input-dir", "config-missing", "config-dir",
            "estimate-output-dir-missing", "simulate-output-dir-missing"])
    def test_unopenable_path(self, tmp_path, panel_csv, sim_config, capsys,
                             argv, named):
        paths = {"missing": tmp_path / "missing", "dir": tmp_path,
                 "panel": panel_csv, "sim": sim_config}
        capsys.readouterr()
        assert main([arg.format(**paths) for arg in argv]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert named.format(**paths) in err
        assert not (tmp_path / "missing").exists()


PRICING_CONFIG = """
k_equity = 0.04
k_liability = 0.03
mu0_equity = 0.25
mu0_liability = 0.10
phi_equity = 0.002
phi_liability = -0.001
sigma_u_equity = 0.05
sigma_u_liability = 0.04
rho_u = 0.2
sigma_v_equity = 0.03
sigma_v_liability = 0.03
rho_v = -0.1
sigma0_equity = 0.14
sigma0_liability = 0.14
rho0 = 0.0
rate = 0.0101
payout_future_equity = 0.25
payout_future_liability = 0.25
"""


PARAMS_CONFIG = "".join(
    line + "\n" for line in PRICING_CONFIG.strip().splitlines()
    if not line.startswith("payout_future")
)


class TestCliReportPasses:
    @pytest.mark.parametrize("command", ["estimate", "filter", "smooth"])
    def test_one_filter_and_smoother_pass_per_report(
        self, tmp_path, panel_csv, monkeypatch, command
    ):
        from privcredit import cli, em, kalman

        counts = {"run_filter": 0, "smooth": 0}

        def counted(name):
            original = getattr(kalman, name)

            def wrapper(*args, **kwargs):
                counts[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for module in (cli, em):
            for name in counts:
                if hasattr(module, name):
                    monkeypatch.setattr(module, name, counted(name))
        cfg = tmp_path / "params.cfg"
        cfg.write_text(PARAMS_CONFIG)
        argv = [command, "--input", str(panel_csv), "--config", str(cfg),
                "--output", str(tmp_path / "report.json")]
        if command == "estimate":
            argv += ["--max-iter", "0"]
        assert main(argv) == 0
        assert counts == {"run_filter": 1, "smooth": 1}

    @pytest.mark.parametrize("argv", [
        ["forecast"],
        ["price", "--strike", "6.5"],
        ["price", "--strike", "6.5", "--check", "mc", "--paths", "2000"],
        ["default-prob"],
        ["default-prob", "--check", "mc", "--paths", "2000"],
        ["default-prob", "threshold"],
        ["default-prob", "threshold", "--check", "mc", "--paths", "2000"],
        ["calibrate-threshold"],
    ])
    def test_one_filter_pass_per_horizon_report(self, tmp_path, monkeypatch, argv):
        # both measures' origin posteriors come from one real-measure pass;
        # modest payouts keep the calibrations solvable
        import sys

        from privcredit import kalman

        sim = tmp_path / "sim.cfg"
        sim.write_text(SIM_CONFIG.replace("= 0.25", "= 0.08"))
        panel = tmp_path / "panel.csv"
        assert main(["simulate", "--config", str(sim), "--output", str(panel)]) == 0
        cfg = tmp_path / "pricing.cfg"
        cfg.write_text(PRICING_CONFIG.replace("= 0.25", "= 0.08")
                       + ("threshold = 9.0\n" if "threshold" in argv else ""))
        calls = []
        original = kalman.run_filter

        def counted(*args, **kwargs):
            calls.append(None)
            return original(*args, **kwargs)

        for name, module in list(sys.modules.items()):
            if (name.split(".")[0] == "privcredit"
                    and getattr(module, "run_filter", None) is original):
                monkeypatch.setattr(module, "run_filter", counted)
        out = tmp_path / "report.json"
        argv = [arg for arg in argv if arg != "threshold"]
        assert main(argv + ["--input", str(panel), "--config", str(cfg),
                            "--maturity", "4", "--output", str(out)]) == 0
        assert len(calls) == 1

    @pytest.mark.parametrize("argv", [["forecast"], ["price", "--strike", "6.5"]])
    def test_one_context_and_one_intercept_array_per_measure(
        self, tmp_path, panel_csv, monkeypatch, argv
    ):
        # the command looks the context builder up when it runs, so a
        # rebinding of ``cli.build_pricing_context`` sees the call
        import sys

        from privcredit import cli, model

        calls = []

        def counted(name, original):
            def wrapper(*args, **kwargs):
                calls.append(name)
                return original(*args, **kwargs)
            return wrapper

        monkeypatch.setattr(cli, "build_pricing_context", counted(
            "build_pricing_context", cli.build_pricing_context))
        for name in ("real_intercepts", "risk_neutral_intercepts"):
            original = getattr(model, name)
            for module_name, module in list(sys.modules.items()):
                if (module_name.split(".")[0] == "privcredit"
                        and getattr(module, name, None) is original):
                    monkeypatch.setattr(module, name, counted(name, original))
        cfg = tmp_path / "pricing.cfg"
        cfg.write_text(PRICING_CONFIG)
        assert main(argv + ["--input", str(panel_csv), "--config", str(cfg),
                            "--maturity", "4",
                            "--output", str(tmp_path / "report.json")]) == 0
        assert sorted(calls) == ["build_pricing_context", "real_intercepts",
                                 "risk_neutral_intercepts"]


class TestCliDivergingFilter:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_overflowing_filtered_mean_is_a_numerical_error(self, tmp_path, capsys):
        # configured Σ_u = Σ₀ = 0 pin m̃_t = G_t m̃_{t−1} + c_t − b̃_t, and with
        # G_t near 2 (payout ratios near 0.6) growth not from the model
        # drives the filtered mean past 1e100 by period 170 and out of the
        # float range, where the log-likelihood was NaN
        rng = np.random.default_rng(1)
        k, mu0 = np.array([0.04, 0.03]) + 0.01 * rng.normal(size=2), 0.2 * rng.normal(size=2)
        phi = 2e-4 * rng.normal(size=2)
        sigma_v, rho_v = 0.04 + 0.02 * rng.random(2), rng.uniform(-0.5, 0.5)
        ratio = np.log(0.6) + 0.05 * rng.normal(size=(1600, 2))
        growth = 0.05 * rng.normal(size=(1600, 2))
        books = np.array([4.0, 6.0]) * np.exp(np.vstack([np.zeros(2), growth.cumsum(axis=0)]))
        panel = tmp_path / "panel.csv"
        write_panel_csv(panel, books, np.exp(ratio) * books[:-1])
        values = dict(
            k_equity=k[0], k_liability=k[1], mu0_equity=mu0[0], mu0_liability=mu0[1],
            phi_equity=phi[0], phi_liability=phi[1],
            sigma_u_equity=0.0, sigma_u_liability=0.0, rho_u=0.0,
            sigma_v_equity=sigma_v[0], sigma_v_liability=sigma_v[1], rho_v=rho_v,
            sigma0_equity=0.0, sigma0_liability=0.0, rho0=0.0, rate=0.01)
        cfg = tmp_path / "params.cfg"
        cfg.write_text("".join(f"{key} = {float(value)!r}\n" for key, value in values.items()))
        out = tmp_path / "filter.json"
        code = main(["filter", "--input", str(panel), "--config", str(cfg),
                     "--output", str(out)])
        assert (code, *capsys.readouterr()) == (
            2, "", "numerical error: filter diverged: a filtered mean or covariance "
                   "or the log-likelihood is not finite\n")
        assert not out.exists()


class TestEstimateReusesFitPass:
    """The report smooths the forward pass the fit ended with: no filter
    runs after ``em_fit`` returns, and the report equals a fresh E-step at
    the reported parameters bit for bit, whatever ended the fit."""

    @pytest.mark.parametrize("termination, periods, seed, extra", [
        ("converged", 24, 7, ["--tol", "1e-3"]),
        ("max_iter", 24, 7, ["--max-iter", "5"]),
        ("max_iter", 24, 7, ["--max-iter", "0"]),
        ("stalled", 400, 22, ["--config", "params", "--max-iter", "25"]),
    ])
    def test_report_is_the_fit_final_pass(
        self, tmp_path, monkeypatch, termination, periods, seed, extra
    ):
        from privcredit import cli, em
        from privcredit.em import e_step
        from privcredit.model import ModelParams

        sim = tmp_path / "sim.cfg"
        sim.write_text(SIM_CONFIG.replace("periods = 24", f"periods = {periods}")
                       .replace("seed = 7", f"seed = {seed}"))
        panel = tmp_path / "panel.csv"
        assert main(["simulate", "--config", str(sim), "--output", str(panel)]) == 0
        cfg = tmp_path / "params.cfg"
        cfg.write_text(PARAMS_CONFIG)
        extra = [str(cfg) if arg == "params" else arg for arg in extra]

        filters, after_fit = [], []
        real_filter, real_fit = em.run_filter, cli.em_fit

        def counted_filter(*args, **kwargs):
            filters.append(None)
            return real_filter(*args, **kwargs)

        def fit(*args, **kwargs):
            result = real_fit(*args, **kwargs)
            after_fit.append(len(filters))
            return result

        monkeypatch.setattr(em, "run_filter", counted_filter)
        monkeypatch.setattr(cli, "em_fit", fit)
        out = tmp_path / "report.json"
        argv = ["estimate", "--input", str(panel), "--rate", "0.0101",
                "--output", str(out), *extra]
        assert main(argv) == 0
        monkeypatch.undo()

        report = json.loads(out.read_text())
        assert report["estimation"]["termination"] == termination
        # the fit filters at its start, so even with no iteration the
        # report runs no filter of its own
        assert [len(filters) - n for n in after_fit] == [0]
        fields = {k: np.array(v) for k, v in report["params"].items()}
        fields["rate_log"] = report["params"]["rate_log"]
        fresh = e_step(ModelParams(**fields), ingest(panel))
        assert report["loglik"] == fresh.filter_output.loglik
        assert np.array_equal(report["filtered_multipliers"],
                              fresh.filter_output.m_filt)
        assert np.array_equal(report["smoothed_multipliers"],
                              fresh.smoothed.m_smooth)


class TestCliPricing:
    def _pricing_cfg(self, tmp_path, extra="", text=PRICING_CONFIG):
        cfg = tmp_path / "price.cfg"
        cfg.write_text(text + extra)
        return cfg

    def _context(self, tmp_path, panel_csv, maturity):
        """The pricing context of ``PRICING_CONFIG`` over the panel."""
        from privcredit.pricing import build_pricing_context

        params = params_from(parse_config(self._pricing_cfg(tmp_path), parse_keys()))
        return build_pricing_context(params, ingest(panel_csv), maturity,
                                     payout_future=np.log([0.25, 0.25]))

    def test_price_with_mc_check(self, tmp_path, panel_csv):
        from privcredit.pricing import build_pricing_context

        cfg = self._pricing_cfg(tmp_path)
        parsed = parse_config(cfg, parse_keys())
        params = params_from(parsed)
        series = ingest(panel_csv)
        ctx = build_pricing_context(
            params, series, 4, payout_future=np.log([0.25, 0.25])
        )
        strike = math.exp(ctx.asset_moments("risk_neutral")[0])
        out = tmp_path / "price.json"
        code = main(
            [
                "price", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--strike", repr(strike),
                "--output", str(out),
                "--check", "mc", "--paths", "60000", "--seed", "11",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["private"]["call"] > 0
        assert abs(report["mc_check"]["call_z"]) <= 3
        assert abs(report["mc_check"]["put_z"]) <= 3
        equity, debt = report["private"]["equity_value"], report["private"]["debt_value"]
        assert equity == report["private"]["call"]
        assert debt <= strike * math.exp(-4 * math.log(1.0101)) + 1e-12

    def test_negative_seed_fails_validation(self, tmp_path, panel_csv, capsys):
        out = tmp_path / "price.json"
        code = main(
            [
                "price", "--input", str(panel_csv),
                "--config", str(self._pricing_cfg(tmp_path)),
                "--maturity", "4", "--strike", "2.0", "--output", str(out),
                "--check", "mc", "--paths", "100", "--seed", "-1",
            ]
        )
        assert code == 1
        assert capsys.readouterr().err.startswith("error: seed")
        assert not out.exists()

    def test_small_strike_limits(self, tmp_path, panel_csv):
        cfg = self._pricing_cfg(tmp_path)
        out = tmp_path / "price.json"
        code = main(
            [
                "price", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--strike", "1e-9", "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        disc_nominal = 1e-9 * math.exp(-4 * math.log(1.0101))
        assert report["private"]["put"] == pytest.approx(0.0, abs=1e-12)
        assert report["private"]["debt_value"] == pytest.approx(disc_nominal, rel=1e-6)

    def test_default_prob_median_threshold(self, tmp_path, panel_csv):
        # threshold at the private median must give probability one half
        from privcredit.pricing import build_pricing_context
        series = ingest(panel_csv)
        cfg0 = self._pricing_cfg(tmp_path)
        from privcredit import io as pio
        parsed = pio.parse_config(cfg0, tuple(parse_keys()))
        params = params_from(parsed)
        ctx = build_pricing_context(
            params, series, 4, payout_future=np.log([0.25, 0.25])
        )
        mu, _ = ctx.asset_moments("real")
        cfg = self._pricing_cfg(tmp_path, extra=f"threshold = {math.exp(mu)!r}\n")
        out = tmp_path / "pd.json"
        code = main(
            [
                "default-prob", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["prob_default_private"] == pytest.approx(0.5, abs=1e-10)

    def test_default_prob_with_mc_check(self, tmp_path, panel_csv):
        # a threshold half a standard deviation below the private median
        # puts the PD near Φ(−0.5), where the MC frequency is informative
        from privcredit.pricing import build_pricing_context

        params = params_from(parse_config(self._pricing_cfg(tmp_path),
                                          parse_keys()))
        ctx = build_pricing_context(
            params, ingest(panel_csv), 4, payout_future=np.log([0.25, 0.25])
        )
        mu, var = ctx.asset_moments("real")
        threshold = math.exp(mu - 0.5 * math.sqrt(var))
        cfg = self._pricing_cfg(tmp_path, extra=f"threshold = {threshold!r}\n")
        out = tmp_path / "pd.json"
        code = main(
            [
                "default-prob", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--output", str(out), "--check", "mc",
                "--paths", "60000", "--seed", "13",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert 0.05 < report["prob_default_private"] < 0.95
        assert report["mc_check"]["pd_se"] > 0
        assert abs(report["mc_check"]["pd_z"]) <= 3

    def test_one_path_default_check_flags_a_miss(self, tmp_path, panel_csv):
        # one path makes the MC frequency 0 or 1 with a zero standard
        # error; the private median threshold (PD one half) is then a miss
        from privcredit.pricing import build_pricing_context

        params = params_from(parse_config(self._pricing_cfg(tmp_path),
                                          parse_keys()))
        ctx = build_pricing_context(
            params, ingest(panel_csv), 4, payout_future=np.log([0.25, 0.25])
        )
        mu, _ = ctx.asset_moments("real")
        cfg = self._pricing_cfg(tmp_path, extra=f"threshold = {math.exp(mu)!r}\n")
        out = tmp_path / "pd.json"
        code = main(
            [
                "default-prob", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--output", str(out), "--check", "mc",
                "--paths", "1", "--seed", "13",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert 0.0 < report["prob_default_private"] < 1.0
        check = report["mc_check"]
        assert check["paths"] == 1
        assert check["pd_mc"] in (0.0, 1.0) and check["pd_se"] == 0.0
        assert check["pd_z"] != 0.0 and math.isinf(check["pd_z"])

    def test_one_path_price_check_flags_a_miss(self, tmp_path, panel_csv):
        # one path has an infinite standard error; a closed form that
        # differs from the single draw must not read as a perfect match
        from privcredit.pricing import build_pricing_context

        cfg = self._pricing_cfg(tmp_path)
        ctx = build_pricing_context(
            params_from(parse_config(cfg, parse_keys())), ingest(panel_csv), 4,
            payout_future=np.log([0.25, 0.25]),
        )
        strike = math.exp(ctx.asset_moments("risk_neutral")[0])
        out = tmp_path / "price.json"
        code = main(
            [
                "price", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--strike", repr(strike), "--output", str(out),
                "--check", "mc", "--paths", "1", "--seed", "3",
            ]
        )
        assert code == 0
        check = json.loads(out.read_text())["mc_check"]
        assert math.isinf(check["call_se"]) and math.isinf(check["put_se"])
        assert math.isinf(check["call_z"]) and math.isinf(check["put_z"])

    def test_zero_hit_price_check_matches_a_deep_tail_call(self, tmp_path, panel_csv):
        # at maturity 60 the strike-2.0 call is about 1.7e-10, far below one
        # path's weight: no path pays, which is what the closed form expects
        out = tmp_path / "price.json"
        code = main(
            [
                "price", "--input", str(panel_csv),
                "--config", str(self._pricing_cfg(tmp_path)),
                "--maturity", "60", "--strike", "2.0", "--output", str(out),
                "--check", "mc", "--paths", "3000", "--seed", "5",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        check = report["mc_check"]
        assert 0.0 < report["private"]["call"] < 1e-8
        assert check["call_mc"] == 0.0 and check["call_se"] == 0.0
        assert check["call_z"] == 0.0
        assert check["put_se"] > 0 and abs(check["put_z"]) <= 3

    def test_zero_hit_default_check_matches_a_deep_tail_pd(self, tmp_path, panel_csv):
        # a threshold six standard deviations below the maturity mean one
        # period ahead has a PD of Φ(−6), about 1e-9
        mu, var = self._context(tmp_path, panel_csv, 1).asset_moments("real")
        threshold = math.exp(mu - 6.0 * math.sqrt(var))
        out = tmp_path / "pd.json"
        code = main(
            [
                "default-prob", "--input", str(panel_csv),
                "--config", str(self._pricing_cfg(
                    tmp_path, extra=f"threshold = {threshold!r}\n")),
                "--maturity", "1", "--output", str(out),
                "--check", "mc", "--paths", "20000", "--seed", "5",
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        check = report["mc_check"]
        assert report["threshold"] == threshold
        assert 0.0 < report["prob_default_private"] < 1e-8
        assert check["pd_mc"] == 0.0 and check["pd_se"] == 0.0
        assert check["pd_z"] == 0.0

    def test_calibrated_default_prob_is_the_context_pd(self, tmp_path, panel_csv):
        # with no configured threshold the report calibrates one and gives
        # the closed-form PD there
        ctx = self._context(tmp_path, panel_csv, 1)
        out = tmp_path / "pd.json"
        assert main(["default-prob", "--input", str(panel_csv),
                     "--config", str(self._pricing_cfg(tmp_path)),
                     "--maturity", "1", "--output", str(out)]) == 0
        report = json.loads(out.read_text())
        threshold = ctx.calibrate_threshold()
        assert report["threshold_calibrated"] is True
        assert report["threshold"] == threshold
        assert report["prob_default_private"] == ctx.default_prob(threshold)

    def test_public_blocks_are_the_context_values(self, tmp_path, panel_csv):
        # a configured m_t adds the public firm's valuation and PD
        from privcredit.pricing import equity_debt_values

        ctx = self._context(tmp_path, panel_csv, 4)
        m_t = np.array([0.25, 0.3])
        mu, var = ctx.asset_moments("real")
        strike = math.exp(ctx.asset_moments("risk_neutral")[0])
        threshold = math.exp(mu - 0.5 * math.sqrt(var))
        cfg = self._pricing_cfg(tmp_path, extra=(
            f"m_t_equity = 0.25\nm_t_liability = 0.3\nthreshold = {threshold!r}\n"))
        common = ["--input", str(panel_csv), "--config", str(cfg), "--maturity", "4"]
        price_out, pd_out = tmp_path / "price.json", tmp_path / "pd.json"
        assert main(["price", *common, "--strike", repr(strike),
                     "--output", str(price_out)]) == 0
        assert main(["default-prob", *common, "--output", str(pd_out)]) == 0
        call, put = ctx.price(strike, m_t)
        equity, debt = equity_debt_values(call, put, strike, ctx.tau, ctx.params.rate_log)
        assert json.loads(price_out.read_text())["public"] == {
            "multiplier": [0.25, 0.3], "call": call, "put": put,
            "equity_value": equity, "debt_value": debt}
        report = json.loads(pd_out.read_text())
        assert report["public_multiplier"] == [0.25, 0.3]
        assert report["prob_default_public"] == ctx.default_prob(threshold, m_t)

    def test_mc_check_reports_do_not_depend_on_core_count(
        self, tmp_path, panel_csv, monkeypatch
    ):
        # four blocks of about 12 290 paths, run by one, two and four
        # threads switching often, give the user one report each
        import privcredit.simulate as sim

        ctx = self._context(tmp_path, panel_csv, 4)
        mu, var = ctx.asset_moments("real")
        strike = math.exp(ctx.asset_moments("risk_neutral")[0])
        threshold = math.exp(mu - 0.5 * math.sqrt(var))
        cfg = self._pricing_cfg(tmp_path, extra=f"threshold = {threshold!r}\n")
        common = ["--input", str(panel_csv), "--config", str(cfg), "--maturity", "4",
                  "--check", "mc", "--paths", str(3 * sim._BLOCK_PATHS + 5),
                  "--seed", "5"]
        commands = {"price": ["price", *common, "--strike", repr(strike)],
                    "default-prob": ["default-prob", *common]}
        reports = {name: set() for name in commands}
        interval = sys.getswitchinterval()
        try:
            sys.setswitchinterval(1e-5)
            for cores in (1, 2, 64):
                monkeypatch.setattr(sim, "_cores", lambda: cores)
                for name, argv in commands.items():
                    out = tmp_path / f"{name}-{cores}.json"
                    assert main([*argv, "--output", str(out)]) == 0
                    assert "mc_check" in json.loads(out.read_text())
                    reports[name].add(out.read_bytes())
        finally:
            sys.setswitchinterval(interval)
        assert [len(texts) for texts in reports.values()] == [1, 1]

    def _mc_commands(self, tmp_path, panel_csv):
        """The maturity-4 context, a strike at the risk-neutral median, a
        threshold half a standard deviation below the real one, and the
        argv of a ``price`` and a ``default-prob`` Monte Carlo check."""
        ctx = self._context(tmp_path, panel_csv, 4)
        mu, var = ctx.asset_moments("real")
        strike = math.exp(ctx.asset_moments("risk_neutral")[0])
        threshold = math.exp(mu - 0.5 * math.sqrt(var))
        cfg = self._pricing_cfg(tmp_path, extra=f"threshold = {threshold!r}\n")
        common = ["--input", str(panel_csv), "--config", str(cfg), "--maturity", "4",
                  "--check", "mc"]
        return ctx, strike, threshold, {
            "price": ["price", *common, "--strike", repr(strike)],
            "default-prob": ["default-prob", *common]}

    def test_mc_check_runs_at_the_seed_range_ends(self, tmp_path, panel_csv):
        # 4 097 paths run as two blocks, each seeding its stream from a
        # child of the seed's SeedSequence, at the smallest and the largest
        # seed; the two seeds' checks differ and both agree with the closed
        # form
        _, _, _, commands = self._mc_commands(tmp_path, panel_csv)
        keys = {"price": ("call", "put"), "default-prob": ("pd",)}
        for name, argv in commands.items():
            estimates = []
            for seed in (0, 2**128 - 1):
                out = tmp_path / f"{name}-{seed}.json"
                assert main([*argv, "--paths", "4097", "--seed", str(seed),
                             "--output", str(out)]) == 0
                check = json.loads(out.read_text())["mc_check"]
                assert (check["paths"], check["seed"]) == (4097, seed)
                assert all(abs(check[f"{key}_z"]) <= 4 for key in keys[name])
                estimates.append([check[f"{key}_mc"] for key in keys[name]])
            assert estimates[0] != estimates[1]

    @pytest.mark.parametrize("paths", [1, 3, 4096, 4097, 20_000, 49_157])
    def test_mc_check_equals_the_estimators_on_simulated_pairs(
        self, tmp_path, panel_csv, paths
    ):
        # the report is reduce_terminal's estimate, bit for bit, under both
        # measures; the whole-array mean and std(ddof=1)/√n of the same
        # pairs give it bit for bit in one block (up to 2¹² paths) and
        # within the block fold's rounding (README: 4e-13 relative) above
        from privcredit.model import _linearized_log_asset
        from privcredit.simulate import (
            SimConfig,
            default_estimator,
            option_estimator,
            reduce_terminal,
        )
        from reference import mc_default_probability_reference, mc_option_price_reference
        from test_simulate import terminal_pairs

        ctx, strike, threshold, commands = self._mc_commands(tmp_path, panel_csv)
        reported = {}
        for name, argv in commands.items():
            out = tmp_path / f"{name}.json"
            assert main([*argv, "--paths", str(paths), "--seed", "3",
                         "--output", str(out)]) == 0
            check = json.loads(out.read_text())["mc_check"]
            keys = ("call_mc", "call_se", "put_mc", "put_se") if name == "price" else (
                "pd_mc", "pd_se")
            reported[name] = [check[key] for key in keys]
        estimators = {"risk_neutral": option_estimator(
            ctx.tangent, strike, ctx.tau, ctx.params.rate_log),
                      "real": default_estimator(ctx.tangent, threshold)}
        direct, whole = {}, {}
        for measure, estimator in estimators.items():
            mean, cov = ctx.posterior(measure)
            cfg = SimConfig(paths, ctx.tau, 3, measure=measure)
            kw = dict(start=ctx.origin, init_mean=mean, init_cov=cov)
            books = ctx.log_books[ctx.origin]
            direct[measure] = reduce_terminal(ctx.params, ctx.schedule, cfg, books,
                                              estimator, **kw)
            whole[measure] = _linearized_log_asset(
                terminal_pairs(ctx.params, ctx.schedule, cfg, books, **kw), *ctx.tangent)
        (call, call_se), (put, put_se) = direct["risk_neutral"]
        assert reported["price"] == [call, call_se, put, put_se]
        assert reported["default-prob"] == list(direct["real"])
        (call, call_se), (put, put_se) = mc_option_price_reference(
            whole["risk_neutral"], strike, ctx.tau, ctx.params.rate_log)
        references = {"price": [call, call_se, put, put_se],
                      "default-prob": list(mc_default_probability_reference(
                          whole["real"], threshold))}
        for name, values in references.items():
            if paths <= 4096:
                assert reported[name] == values
            else:
                assert reported[name] == pytest.approx(values, rel=4e-13, abs=0)

    def test_mc_check_memory_does_not_grow_with_paths(
        self, tmp_path, panel_csv, monkeypatch
    ):
        # 200 000 paths on one worker: each block of 12 500 is simulated,
        # meets the tangent and shrinks to its statistics before the next, so
        # the check stays below the 16 bytes a path that the maturity pairs
        # alone take (the whole-array check peaked at about 6.4 MB)
        import tracemalloc

        import privcredit.simulate as sim

        _, _, _, commands = self._mc_commands(tmp_path, panel_csv)
        monkeypatch.setattr(sim, "_cores", lambda: 1)
        paths = 200_000
        for name, argv in commands.items():
            tracemalloc.start()
            try:
                assert main([*argv, "--paths", str(paths),
                             "--output", str(tmp_path / f"{name}.json")]) == 0
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16 * paths, name

    def test_mc_check_workers_call_no_public_function(
        self, tmp_path, panel_csv, monkeypatch
    ):
        # a layer tracer wraps every public function around one span stack;
        # four workers each reduce one of the four blocks (the barrier holds
        # them until all four have one), and only the calling thread enters
        # a public function
        import threading

        import privcredit.simulate as sim
        from test_simulate import trace_public_calls

        _, _, _, commands = self._mc_commands(tmp_path, panel_csv)
        calls = trace_public_calls(monkeypatch)
        barrier = threading.Barrier(4, timeout=30)
        reducers = set()
        tangent = sim._linearized_log_asset

        def held_tangent(*args):
            reducers.add(threading.current_thread())
            barrier.wait()
            return tangent(*args)

        monkeypatch.setattr(sim, "_linearized_log_asset", held_tangent)
        monkeypatch.setattr(sim, "_cores", lambda: 4)
        for name, argv in commands.items():
            reducers.clear()
            assert main([*argv, "--paths", "49157",
                         "--output", str(tmp_path / f"{name}.json")]) == 0
            assert len(reducers) == 4, name
        assert "privcredit.simulate.reduce_terminal" in {name for name, _ in calls}
        assert all(thread is threading.main_thread() for _, thread in calls)

    def test_repeated_main_calls_share_no_parsed_state(
        self, tmp_path, panel_csv, capsys
    ):
        cfg = self._pricing_cfg(tmp_path)
        argv = ["price", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4"]
        assert main(argv + ["--strike", "2.0"]) == 0
        capsys.readouterr()
        assert main(argv) == 1
        assert "price requires --strike" in capsys.readouterr().err

    def test_zero_paths_fails_validation(self, tmp_path, panel_csv):
        cfg = self._pricing_cfg(tmp_path, extra="paths = 1000\n")
        code = main(
            [
                "price", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--strike", "2.0", "--check", "mc",
                "--paths", "0",
            ]
        )
        assert code == 1

    def test_zero_strike_is_not_replaced_by_config(self, tmp_path, panel_csv):
        cfg = self._pricing_cfg(tmp_path, extra="strike = 2.0\n")
        code = main(
            [
                "price", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--strike", "0",
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("command", ["forecast", "price"])
    @pytest.mark.parametrize("maturity", ["0", "-2"])
    def test_nonpositive_maturity_fails_validation(
        self, tmp_path, panel_csv, capsys, command, maturity
    ):
        cfg = self._pricing_cfg(tmp_path, extra="maturity = 4\n")
        strike = ["--strike", "2.0"] if command == "price" else []
        code = main([command, "--input", str(panel_csv), "--config", str(cfg),
                     "--maturity", maturity, *strike])
        assert code == 1
        assert capsys.readouterr().err == "error: a positive --maturity is required\n"

    def test_missing_future_payout_fails_validation(self, tmp_path, panel_csv):
        stripped = "\n".join(
            line for line in PRICING_CONFIG.splitlines()
            if not line.startswith("payout_future")
        )
        cfg = self._pricing_cfg(tmp_path, text=stripped + "\n")
        out = tmp_path / "x.json"
        code = main(
            [
                "price", "--input", str(panel_csv), "--config", str(cfg),
                "--maturity", "4", "--strike", "2.0", "--output", str(out),
            ]
        )
        assert code == 1

    @pytest.mark.parametrize("command", [
        "price", "default-prob", "calibrate-threshold", "forecast",
    ])
    @pytest.mark.parametrize("ratio", ["nan", "inf", "-inf", "0", "-0.1"])
    def test_nonfinite_or_nonpositive_future_payout_fails_validation(
        self, tmp_path, panel_csv, capsys, command, ratio
    ):
        text = PRICING_CONFIG.replace("payout_future_equity = 0.25",
                                      f"payout_future_equity = {ratio}")
        strike = ["--strike", "2.0"] if command == "price" else []
        code = main([command, "--input", str(panel_csv), "--maturity", "4",
                     *strike, "--config",
                     str(self._pricing_cfg(tmp_path, text=text))])
        captured = capsys.readouterr()
        assert code == 1
        assert captured.out == ""
        assert "future payout ratios must be strictly positive" in captured.err

    def test_calibration_below_the_call_resolution_has_no_solution(
        self, tmp_path, capsys
    ):
        # an in-run fit on a long panel leaves a target equity of 5.6e-163
        # against a strike-free call of about e^525: the threshold's bracket
        # reaches ln L ≈ 1423, beyond the float range, and the search once
        # raised OverflowError there; it closes at ln L ≈ 555, whose call
        # of 4.2e-96 does not reprice the target, and once reported it
        sim = tmp_path / "sim.cfg"
        sim.write_text(SIM_CONFIG.replace("periods = 24", "periods = 1600")
                       .replace("seed = 7", "seed = 2")
                       .replace("phi_equity = 0.002", "phi_equity = 0.0002")
                       .replace("phi_liability = -0.001", "phi_liability = -0.0001"))
        panel, out = tmp_path / "panel.csv", tmp_path / "threshold.json"
        assert main(["simulate", "--config", str(sim), "--output", str(panel)]) == 0
        cfg = self._pricing_cfg(tmp_path, text=(
            "rate = 0.0101\npayout_future_equity = 0.25\n"
            "payout_future_liability = 0.25\n"))
        code = main(["calibrate-threshold", "--input", str(panel), "--config", str(cfg),
                     "--max-iter", "30", "--maturity", "4", "--output", str(out)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (3, "")
        assert captured.err.startswith("no solution: target equity 5.59073e-163 is "
                                       "below the call's resolution")
        assert not out.exists()

    def test_discount_factor_beyond_the_float_range_is_an_error_line(
        self, tmp_path, panel_csv, capsys
    ):
        # e^{-τ ln(1 + r)} = 2^1100 once raised a bare OverflowError
        cfg = self._pricing_cfg(
            tmp_path, text=PRICING_CONFIG.replace("rate = 0.0101", "rate = -0.5"))
        code = main(["price", "--input", str(panel_csv), "--config", str(cfg),
                     "--maturity", "1100", "--strike", "2.0"])
        assert (code, *capsys.readouterr()) == (1, "", (
            "error: maturity 1100 at rate -0.5 takes the discount factor, the "
            "discounted strike or the growth leg beyond the float range\n"))

    @pytest.mark.parametrize("message, err", [
        ("Unable to allocate 14.6 TiB for an array with shape (2, 1000000000000) "
         "and data type float64",
         "error: Unable to allocate 14.6 TiB for an array with shape "
         "(2, 1000000000000) and data type float64\n"),
        ("", "error: out of memory\n"),
    ], ids=["numpy", "bare"])
    def test_failed_allocation_is_an_error_line(
        self, tmp_path, panel_csv, capsys, monkeypatch, message, err
    ):
        # the patched simulator fails as numpy does, so nothing is allocated
        from privcredit import cli

        def no_memory(*args, **kwargs):
            raise MemoryError(message)

        monkeypatch.setattr(cli, "reduce_terminal", no_memory)
        code = main(["price", "--input", str(panel_csv), "--maturity", "4",
                     "--config", str(self._pricing_cfg(tmp_path)), "--strike", "2.0",
                     "--check", "mc", "--paths", "1000000000000"])
        assert (code, *capsys.readouterr()) == (1, "", err)

    @pytest.mark.parametrize("strike", ["nan", "inf"])
    def test_nonfinite_strike_fails_validation(
        self, tmp_path, panel_csv, capsys, strike
    ):
        code = main(["price", "--input", str(panel_csv), "--maturity", "4",
                     "--config", str(self._pricing_cfg(tmp_path)),
                     "--strike", strike, "--check", "mc", "--paths", "100"])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "strike must be positive and finite" in captured.err

    @pytest.mark.parametrize("threshold", ["nan", "inf", "0"])
    def test_nonfinite_threshold_fails_validation(
        self, tmp_path, panel_csv, capsys, threshold
    ):
        cfg = self._pricing_cfg(tmp_path, extra=f"threshold = {threshold}\n")
        code = main(["default-prob", "--input", str(panel_csv), "--maturity",
                     "4", "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "threshold must be positive and finite" in captured.err

    @pytest.mark.parametrize("command", ["price", "default-prob"])
    @pytest.mark.parametrize("m_t", ["nan", "inf"])
    def test_nonfinite_public_multiplier_fails_validation(
        self, tmp_path, panel_csv, capsys, command, m_t
    ):
        cfg = self._pricing_cfg(
            tmp_path, extra=f"m_t_equity = {m_t}\nm_t_liability = 0.1\n"
        )
        strike = ["--strike", "2.0"] if command == "price" else []
        code = main([command, "--input", str(panel_csv), "--maturity", "4",
                     *strike, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert "m_t_equity and m_t_liability must be finite" in captured.err

    @pytest.mark.parametrize("command", ["price", "default-prob"])
    @pytest.mark.parametrize("given, missing", [
        ("m_t_equity", "m_t_liability"), ("m_t_liability", "m_t_equity")])
    def test_half_given_public_multiplier_fails_validation(
        self, tmp_path, panel_csv, capsys, command, given, missing
    ):
        cfg = self._pricing_cfg(tmp_path, extra=f"{given} = 0.1\n")
        strike = ["--strike", "2.0"] if command == "price" else []
        code = main([command, "--input", str(panel_csv), "--maturity", "4",
                     *strike, "--config", str(cfg)])
        captured = capsys.readouterr()
        assert (code, captured.out) == (1, "")
        assert captured.err == (
            f"error: a public multiplier needs {missing} in the config too\n")

    def test_infeasible_parameters_exit_numerical(self, tmp_path, panel_csv):
        # deeply negative required return pushes the expected payout above
        # the expected value: the linearization cannot be built
        text = PRICING_CONFIG.replace("k_equity = 0.04", "k_equity = -3.0")
        bad = self._pricing_cfg(tmp_path, text=text)
        code = main(
            [
                "price", "--input", str(panel_csv), "--config", str(bad),
                "--maturity", "4", "--strike", "2.0",
            ]
        )
        assert code == 2

    @pytest.mark.parametrize("command", ["calibrate-threshold", "default-prob"])
    def test_target_equity_beyond_the_float_range_is_an_error_line(
        self, tmp_path, capsys, command
    ):
        # e^709 times the filtered book ratio once raised a bare
        # OverflowError in the calibration target
        sim = tmp_path / "sim.cfg"
        sim.write_text(SIM_CONFIG.replace("periods = 24", "periods = 1")
                       .replace("seed = 7", "seed = 3"))
        panel = tmp_path / "panel.csv"
        assert main(["simulate", "--config", str(sim), "--output", str(panel)]) == 0
        cfg = self._pricing_cfg(tmp_path, text=PRICING_CONFIG.replace(
            "mu0_equity = 0.25", "mu0_equity = 709"))
        code = main([command, "--input", str(panel), "--config", str(cfg),
                     "--maturity", "1"])
        assert (code, *capsys.readouterr()) == (
            1, "", "error: target equity value must be positive and finite\n")

    def test_calibrate_threshold_no_solution_exits_3(self, tmp_path, capsys):
        # With a negligible liability book the equity target is essentially
        # the whole asset value. The strike-free call is the discounted
        # risk-neutral expectation of the maturity asset, which lies below
        # the asset value by the present value of the 25% payouts made
        # before maturity, so no threshold reprices the target.
        sim_text = SIM_CONFIG.replace(
            "book0_liability = 6.0", "book0_liability = 0.06"
        )
        sim_cfg = tmp_path / "sim_no_debt.cfg"
        sim_cfg.write_text(sim_text)
        panel = tmp_path / "panel_no_debt.csv"
        assert main(
            ["simulate", "--config", str(sim_cfg), "--output", str(panel)]
        ) == 0
        cfg = self._pricing_cfg(tmp_path)
        capsys.readouterr()
        code = main(
            [
                "calibrate-threshold", "--input", str(panel),
                "--config", str(cfg), "--maturity", "4",
            ]
        )
        assert code == 3
        err = capsys.readouterr().err
        match = re.search(
            r"no solution: target equity (\S+) is not attainable: "
            r"the strike-free call value is (\S+)",
            err,
        )
        assert match is not None, err
        assert float(match.group(1)) >= float(match.group(2))

    def test_calibrate_threshold_self_consistent(self, tmp_path):
        # modest payouts keep the calibration target attainable
        sim_text = SIM_CONFIG.replace(
            "payout_ratio_equity = 0.25", "payout_ratio_equity = 0.06"
        ).replace(
            "payout_ratio_liability = 0.25", "payout_ratio_liability = 0.06"
        )
        cfg = tmp_path / "sim2.cfg"
        cfg.write_text(sim_text)
        panel = tmp_path / "panel2.csv"
        assert main(["simulate", "--config", str(cfg), "--output", str(panel)]) == 0
        pricing_text = PRICING_CONFIG.replace(
            "payout_future_equity = 0.25", "payout_future_equity = 0.06"
        ).replace(
            "payout_future_liability = 0.25", "payout_future_liability = 0.06"
        )
        pricing_cfg = self._pricing_cfg(tmp_path, text=pricing_text)
        out = tmp_path / "cal.json"
        code = main(
            [
                "calibrate-threshold", "--input", str(panel), "--config",
                str(pricing_cfg), "--maturity", "4", "--output", str(out),
            ]
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["reprice_rel_residual"] < 1e-8
        assert report["threshold"] > 0


_EDGE_PERIODS = (1, 2, 40)
_FIT_COMMANDS = ("estimate", "filter", "smooth")
_EDGE_MEANS = st.sampled_from([0.1, -709.0, 709.0, -710.0, 710.0]) | st.floats(-710, 710)
_EDGE_SIGMAS = st.sampled_from([0.0, 0.05, 1e3]) | st.floats(0, 1e3)
_EDGE_SCALES = st.sampled_from([1e-300, 1.0, 1e300]) | st.floats(-300, 300).map(
    lambda e: 10.0**e)


@st.composite
def _edge_runs(draw):
    """(command, panel periods, in-run fit, config overrides, flags): a valid
    command line whose configured parameters sit at the edges, or an in-run
    fit of at most 3 iterations."""
    command = draw(st.sampled_from(PANEL_COMMANDS))
    fitted = draw(st.booleans())
    overrides, flags = [], []
    if not fitted:
        for key in ("mu0_equity", "mu0_liability", "sigma0_equity", "sigma_u_equity",
                    "sigma_v_liability", "rho_u", "rho_v", "rho0"):
            if draw(st.booleans()):
                value = (draw(st.sampled_from([-1.0, 1.0])) if key.startswith("rho")
                         else draw(_EDGE_MEANS if key.startswith("mu") else _EDGE_SIGMAS))
                overrides.append((key, repr(value)))
    if fitted or command == "estimate":
        flags += ["--max-iter", str(draw(st.integers(0, 3)))]
    if command not in _FIT_COMMANDS:
        flags += ["--maturity", str(draw(st.integers(1, 60)))]
    if command == "price":
        flags += ["--strike", repr(draw(_EDGE_SCALES))]
    if command == "default-prob" and draw(st.booleans()):
        overrides.append(("threshold", repr(draw(_EDGE_SCALES))))
    if command in ("price", "default-prob") and draw(st.booleans()):
        flags += ["--check", "mc", "--paths", str(draw(st.sampled_from([1, 2, 3, 5000])))]
    return (command, draw(st.sampled_from(_EDGE_PERIODS)), fitted, tuple(overrides),
            tuple(flags))


@pytest.fixture(scope="module")
def edge_panels(tmp_path_factory):
    """Panels of 1, 2 and 40 periods simulated from ``SIM_CONFIG``."""
    root = tmp_path_factory.mktemp("edge")
    for periods in _EDGE_PERIODS:
        sim = root / f"sim{periods}.cfg"
        sim.write_text(SIM_CONFIG.replace("periods = 24", f"periods = {periods}")
                       .replace("seed = 7", "seed = 3"))
        panel = root / f"panel{periods}.csv"
        assert main(["simulate", "--config", str(sim), "--output", str(panel)]) == 0
    return root


class TestCliExitContract:
    """Every valid command line ends in a JSON report (exit 0) or in one
    typed error line (exit 1, 2 or 3), never in a traceback. An exit-0 run
    may still print a warning on stderr (ROADMAP item 4: the centred squares
    of a check at strike 1e200 overflow), so stderr is checked on failures
    only."""

    @settings(max_examples=250, deadline=None, derandomize=True)
    @given(_edge_runs())
    @example(("calibrate-threshold", 1, False, (("mu0_equity", "709.0"),),
              ("--maturity", "1")))
    @example(("default-prob", 1, False, (("mu0_equity", "709.0"),),
              ("--maturity", "1")))
    def test_ends_in_a_report_or_one_error_line(self, edge_panels, run):
        command, periods, fitted, overrides, flags = run
        lines = dict(line.split(" = ") for line in PRICING_CONFIG.strip().splitlines())
        if fitted:
            lines = {k: v for k, v in lines.items()
                     if k == "rate" or k.startswith("payout_future")}
        if command in _FIT_COMMANDS:
            lines = {k: v for k, v in lines.items() if not k.startswith("payout_future")}
        lines.update(overrides)
        cfg = edge_panels / "run.cfg"
        cfg.write_text("".join(f"{k} = {v}\n" for k, v in lines.items()))
        argv = [command, "--input", str(edge_panels / f"panel{periods}.csv"),
                "--config", str(cfg), *flags]
        out, err = io.StringIO(), io.StringIO()
        with (contextlib.redirect_stdout(out), contextlib.redirect_stderr(err),
              warnings.catch_warnings(record=True) as caught):
            warnings.simplefilter("always")
            code = main(argv)
        assert code in (0, 1, 2, 3)
        if code == 0:
            json.loads(out.getvalue())
            return
        # a warning would print on stderr before the error line
        assert caught == []
        assert out.getvalue() == ""
        assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
        assert err.getvalue().startswith(("error: ", "numerical error: ", "no solution: "))


def parse_keys():
    from privcredit.cli import _PRICING_KEYS
    return _PRICING_KEYS


def params_from(parsed):
    """The parameters the CLI reads from a parsed config, rate_log included."""
    from privcredit.cli import _params_from_config
    rate = float(np.log1p(float(parsed.get("rate", 0.0))))
    return _params_from_config(parsed, rate)
