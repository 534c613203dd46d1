"""Tests for CSV ingestion, panel containers, and the validation pass."""

import ast
import hashlib
import multiprocessing
import os
import pathlib
import tempfile
import time
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

from helpers import allow_cpus, grid_panel, needs_fork, traced_peak

from twqr.errors import (
    DimensionMismatch,
    DuplicateCell,
    EmptyFile,
    InputError,
    MissingColumn,
    ParseFailure,
)
from twqr import panel as panel_module
from twqr.montecarlo import DgpWeights, MonteCarloConfig, generate_dgp
from twqr.panel import PanelArray, load_csv, read_header, validate, write_csv

SCHEMA = {"g": "g", "h": "h", "y": "y", "x": ["x1"]}


def write_lines(path, lines):
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_csv_small_grid(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, [
        "g,h,y,x1",
        "a,1,1.0,1.0",
        "a,2,2.0,1.0",
        "b,1,3.0,1.0",
        "b,2,4.0,1.0",
    ])
    panel = load_csv(path, SCHEMA)
    assert (panel.G, panel.H, panel.n, panel.d) == (2, 2, 4, 1)
    assert panel.g_labels == ("a", "b")
    assert panel.h_labels == (1, 2)
    assert_array_equal(panel.g_idx, [0, 0, 1, 1])
    assert_array_equal(panel.h_idx, [0, 1, 0, 1])
    assert_allclose(panel.y, [1.0, 2.0, 3.0, 4.0])
    assert_allclose(panel.x, np.ones((4, 1)))


def test_load_csv_label_order_is_first_appearance(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, [
        "g,h,y,x1",
        "z,5,1.0,1.0",
        "a,2,2.0,1.0",
        "z,2,3.0,1.0",
    ])
    panel = load_csv(path, SCHEMA)
    assert panel.g_labels == ("z", "a")
    assert panel.h_labels == (5, 2)
    assert_array_equal(panel.g_idx, [0, 1, 0])
    assert_array_equal(panel.h_idx, [0, 1, 1])


def test_load_csv_duplicate_cell(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, [
        "g,h,y,x1",
        "a,1,1.0,1.0",
        "a,1,2.0,1.0",
    ])
    with pytest.raises(DuplicateCell) as err:
        load_csv(path, SCHEMA)
    assert err.value.g == "a"
    assert err.value.h == 1


def test_load_csv_integer_labels_coincide_after_whitespace(tmp_path):
    # '1' and ' 1' must map to the same h cluster, hence a duplicate cell
    path = tmp_path / "p.csv"
    write_lines(path, [
        "g,h,y,x1",
        "a,1,1.0,1.0",
        "a, 1,2.0,1.0",
    ])
    with pytest.raises(DuplicateCell):
        load_csv(path, SCHEMA)


def test_load_csv_missing_column(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, ["g,h,y", "a,1,1.0"])
    with pytest.raises(MissingColumn) as err:
        load_csv(path, SCHEMA)
    assert err.value.column == "x1"


def test_load_csv_parse_failure_reports_location(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, [
        "g,h,y,x1",
        "a,1,1.0,1.0",
        "a,2,oops,1.0",
    ])
    with pytest.raises(ParseFailure) as err:
        load_csv(path, SCHEMA)
    assert err.value.row == 2
    assert err.value.column == "y"
    assert err.value.value == "oops"


def test_load_csv_empty_variants(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("", encoding="utf-8")
    with pytest.raises(EmptyFile):
        load_csv(empty, SCHEMA)
    header_only = tmp_path / "header.csv"
    write_lines(header_only, ["g,h,y,x1"])
    with pytest.raises(EmptyFile):
        load_csv(header_only, SCHEMA)


def test_load_csv_skips_blank_lines(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text("g,h,y,x1\na,1,1.0,1.0\n\nb,1,2.0,1.0\n", encoding="utf-8")
    panel = load_csv(path, SCHEMA)
    assert panel.n == 2


def test_round_trip_preserves_cells(tmp_path):
    rng = np.random.default_rng(7)
    x = np.column_stack([np.ones(12), rng.standard_normal(12)])
    y = rng.standard_normal(12)
    panel = grid_panel(3, 4, x, y)
    path = tmp_path / "out.csv"
    write_csv(panel, path)
    again = load_csv(path, {"g": "g", "h": "h", "y": "y", "x": ["x1", "x2"]})
    assert again.cell_set() == panel.cell_set()
    # serialization itself is deterministic
    path2 = tmp_path / "out2.csv"
    write_csv(panel, path2)
    assert path.read_bytes() == path2.read_bytes()
    # a schema must name one column per regressor
    with pytest.raises(DimensionMismatch):
        write_csv(panel, tmp_path / "out3.csv", {"g": "g", "h": "h", "y": "y", "x": ["x1"]})


def test_header_names_are_quoted_as_labels_are(tmp_path):
    """A name holding a bare carriage return, a comma, a quote or a letter
    that is not ASCII reads back as itself; plain names keep their bytes."""
    rng = np.random.default_rng(3)
    panel = grid_panel(3, 4, rng.standard_normal((12, 2)), rng.standard_normal(12))
    schema = {"g": "g\rA", "h": "h,B", "y": 'y"C', "x": ["x\r1", "é"]}
    path = tmp_path / "p.csv"
    write_csv(panel, path, schema)
    assert read_header(path) == ["g\rA", "h,B", 'y"C', "x\r1", "é"]
    assert load_csv(path, schema).cell_set() == panel.cell_set()
    write_csv(panel, path)
    assert path.read_bytes().startswith(b"g,h,y,x1,x2\n")


def test_constructor_rejects_bad_shapes_and_values():
    ones = np.ones(4)
    with pytest.raises(DimensionMismatch):
        PanelArray(G=2, H=2, g_idx=[0, 0, 1, 1], h_idx=[0, 1, 0, 1],
                   y=ones, x=np.ones(4))
    with pytest.raises(InputError):
        PanelArray(G=2, H=2, g_idx=[0, 0, 1, 1], h_idx=[0, 1, 0, 1],
                   y=[1.0, np.nan, 1.0, 1.0], x=np.ones((4, 1)))
    with pytest.raises(InputError):
        PanelArray(G=1, H=2, g_idx=[0, 0, 1, 1], h_idx=[0, 1, 0, 1],
                   y=ones, x=np.ones((4, 1)))
    with pytest.raises(InputError, match="h_idx out of range"):
        PanelArray(G=2, H=2, g_idx=[0, 0, 1, 1], h_idx=[0, 1, 0, 2],
                   y=ones, x=np.ones((4, 1)))
    with pytest.raises(InputError, match="no cells"):
        PanelArray(G=1, H=1, g_idx=[], h_idx=[], y=[], x=np.ones((0, 1)))
    with pytest.raises(DuplicateCell):
        PanelArray(G=2, H=2, g_idx=[0, 0, 0, 1], h_idx=[0, 1, 1, 1],
                   y=ones, x=np.ones((4, 1)))
    # given labels must name every cluster, or write_csv cannot render them
    for labels in ({"g_labels": ("a",)}, {"h_labels": ("x", "y", "z")}):
        with pytest.raises(DimensionMismatch):
            PanelArray(G=2, H=2, g_idx=[0, 0, 1, 1], h_idx=[0, 1, 0, 1],
                       y=ones, x=np.ones((4, 1)), **labels)


def test_constructor_names_first_duplicate_in_row_order():
    # cell (b, y) repeats first in row order; (a, x) has the lower flat index
    kwargs = dict(G=2, H=2, g_idx=[1, 0, 1, 0], h_idx=[1, 0, 1, 0],
                  x=np.ones((4, 1)), g_labels=("a", "b"), h_labels=("x", "y"))
    with pytest.raises(DuplicateCell) as dup:
        PanelArray(y=np.ones(4), **kwargs)
    assert (dup.value.g, dup.value.h) == ("b", "y")
    # a duplicate outranks a non-finite value
    with pytest.raises(DuplicateCell):
        PanelArray(y=[1.0, np.nan, 1.0, 1.0], **kwargs)


def test_panel_arrays_are_read_only():
    panel = grid_panel(2, 2, np.ones((4, 1)), np.arange(4.0))
    with pytest.raises(ValueError):
        panel.y[0] = 99.0
    with pytest.raises(ValueError):
        panel.x[0, 0] = 99.0


def test_constructor_freezes_only_the_arrays_it_keeps():
    # a C-contiguous float64 y is stored as it is, so the caller's y freezes
    idx = dict(G=2, H=2, g_idx=[0, 0, 1, 1], h_idx=[0, 1, 0, 1], x=np.ones((4, 1)))
    y = np.arange(4.0)
    panel = PanelArray(y=y, **idx)
    assert panel.y is y
    with pytest.raises(ValueError, match="read-only"):
        y[0] = 5.0
    # a list or an int array is converted, and the caller's object stays writable
    y_list, y_int = [0.0, 1.0, 2.0, 3.0], np.arange(4)
    for y in (y_list, y_int):
        panel = PanelArray(y=y, **idx)
        assert panel.y is not y
        y[0] = 5
        assert panel.y[0] == 0.0


def test_validate_missing_cell_count(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, [
        "g,h,y,x1",
        "a,1,1.0,1.0",
        "a,2,2.0,1.0",
        "b,1,3.0,1.0",
    ])
    panel = load_csv(path, SCHEMA)
    report = validate(panel)
    assert report.missing_cell_count == 1
    assert report.duplicate_count == 0
    assert any("missing" in m for m in report.messages)


def test_validate_rank_intercept_only():
    panel = grid_panel(2, 2, np.ones((4, 1)), np.arange(4.0))
    report = validate(panel)
    assert report.rank_estimate == 1
    assert report.missing_cell_count == 0


def test_validate_rank_flags_collinear_column():
    rng = np.random.default_rng(3)
    base = rng.standard_normal(20)
    x = np.column_stack([np.ones(20), base, 2.0 * base])
    panel = grid_panel(4, 5, x, rng.standard_normal(20))
    report = validate(panel)
    assert report.rank_estimate == 2
    assert any("rank" in m for m in report.messages)


def test_validate_full_rank_generated_design():
    config = MonteCarloConfig(G=50, H=50, d=10, tau=0.5,
                              weights=DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0),
                              reps=1, seed=123)
    panel = generate_dgp(config, 0)
    report = validate(panel)
    assert report.rank_estimate == 10
    assert report.missing_cell_count == 0


def test_validate_warns_single_cluster():
    panel = PanelArray(G=1, H=3, g_idx=[0, 0, 0], h_idx=[0, 1, 2],
                       y=np.arange(3.0), x=np.ones((3, 1)))
    report = validate(panel)
    assert any("G >= 2" in m for m in report.messages)


def test_load_csv_short_row_is_a_parse_failure(tmp_path):
    path = tmp_path / "p.csv"
    write_lines(path, ["g,h,y,x1", "a,1,1.0,1.0", "a,2,2.0"])
    with pytest.raises(ParseFailure) as err:
        load_csv(path, SCHEMA)
    assert (err.value.row, err.value.column, err.value.value) == (2, "x1", "")
    write_lines(path, ["g,h,y,x1", "a"])
    with pytest.raises(ParseFailure) as err:
        load_csv(path, SCHEMA)
    assert (err.value.row, err.value.column, err.value.value) == (1, "h", "")


def test_read_header_strips_names_and_rejects_empty_file(tmp_path):
    path = tmp_path / "p.csv"
    path.write_text(' g ,h\t,y\na,1,1.0\n', encoding="utf-8")
    assert read_header(path) == ["g", "h", "y"]
    path.write_text("", encoding="utf-8")
    with pytest.raises(EmptyFile):
        read_header(path)


# --- columnar ingest against the row-wise reference pass ---

def outcome(path, schema=SCHEMA):
    """What load_csv returns or raises, in a form that compares exactly."""
    try:
        p = load_csv(path, schema)
    except InputError as exc:
        return type(exc), str(exc)
    return (p.G, p.H, repr(p.g_labels), repr(p.h_labels), p.x.shape,
            p.g_idx.tobytes(), p.h_idx.tobytes(), p.y.tobytes(), p.x.tobytes())


def row_wise(path, schema=SCHEMA):
    """outcome() with the columnar pass disabled."""
    with mock.patch.object(panel_module, "_load_ranges", side_effect=ValueError):
        return outcome(path, schema)


def columnar(path, schema=SCHEMA):
    """outcome() that fails if the row-wise pass runs."""
    with mock.patch.object(panel_module, "_load_rows",
                           side_effect=AssertionError("row-wise pass ran")):
        return outcome(path, schema)


PARITY_FILES = {
    # name: (file text, read by the columnar pass)
    "quoted_commas": ('g,h,y,x1\n"a,b",1,1.0,2.0\n"c ""d""",1,3.0,4.0\n'
                      '"a,b",2,"5.5",6.0\n', True),
    "crlf": ("g,h,y,x1\r\na,1,1.0,2.0\r\nb,1,3.0,4.0\r\n", True),
    "blank_rows": ("g,h,y,x1\n   \na,1,1.0,2.0\n,,,\n\t, ,\nb,1,3.0,4.0\n", False),
    "hash_row_is_data": ("g,h,y,x1\n#a,1,1.0,2.0\nb,1,3.0,4.0\n", True),
    "underscore_numerals": ("g,h,y,x1\na,1,1_0,2.0\nb,1,3.0,4_000.5\n", False),
    "mixed_labels": ("g,h,y,x1\n1,a,1.0,2.0\n 1,b,3.0,4.0\nx,a,5.0,6.0\n"
                     "01 ,c,7.0,8.0\nx, b,9.0,1.0\n", True),
    "parse_failure_after_blanks": ("g,h,y,x1\n\na,1,1.0,2.0\n  \n\nb,1,oops,4.0\n", False),
    "duplicates_out_of_flat_order": ("g,h,y,x1\na,1,1.0,2.0\na,2,1.0,2.0\nb,1,1.0,2.0\n"
                                     "b,2,1.0,2.0\nb,2,1.0,2.0\na,1,1.0,2.0\n", True),
    "single_row": ("g,h,y,x1\na,1,1.0,2.0\n", True),
    "nul_in_label": ("g,h,y,x1\na\x00,1,1.0,2.0\na,1,3.0,4.0\n", True),
    "header_spans_lines": ('g,h,y,x1,"note\nmore"\na,1,1.0,2.0,z\nb,1,3.0,4.0,z\n', True),
    "utf8_bom": ("\ufeffg,h,y,x1\na,1,1.0,2.0\nb,1,3.0,4.0\n", True),
    "duplicate_then_parse_failure": ("g,h,y,x1\na,1,1.0,2.0\na,1,3.0,4.0\nb,1,oops,4.0\n",
                                     False),
    "duplicate_across_blank_row": ("g,h,y,x1\na,1,1.0,2.0\n , , , \na,1,3.0,4.0\n", False),
    "integer_labels": ("g,h,y,x1\n30,-2,1.0,2.0\n 30,7,3.0,4.0\n+4,-2,5.0,6.0\n"
                       '"04",7,7.0,8.0\n-0,-2,9.0,1.0\n', True),
    "late_string_label": ("g,h,y,x1\n" + "".join(f"{g},{h},1.0,2.0\n" for g in range(3)
                                                  for h in range(3)) + "3,z,1.0,2.0\n", True),
    # np.loadtxt skips an empty line and ends a record at a bare carriage
    # return, but not at a line end inside a quoted field; the quoted ones
    # put that line end within the first 16 bytes of a range
    "empty_line": ("g,h,y,x1\na,1,1.0,2.0\n\nb,1,3.0,4.0\nc,1,5.0,6.0\n", True),
    "empty_crlf_line": ("g,h,y,x1\r\na,1,1.0,2.0\r\n\r\nb,1,3.0,4.0\r\nc,1,5.0,6.0\r\n", True),
    "bare_cr": ("g,h,y,x1\na,1,1,2\rb,1,3,4\nc,1,5,6\nd,1,7,8\n", True),
    "quoted_lf_at_cut": ('g,h,y,x1\na,1,1.0,2.0\n"x\ny",1,3.0,4.0\nb,2,5.0,6.0\n', True),
    "quoted_cr_at_cut": ('g,h,y,x1\na,1,1.0,2.0\n"x\ry",1,3.0,4.0\nb,2,5.0,6.0\n', True),
    "trailing_blank_line": ("g,h,y,x1\na,1,1.0,2.0\nb,1,3.0,4.0\n\n", True),
    "record_longer_than_a_range": ("g,h,y,x1\na,1,1.0,2.0\n" + "c" * 40 + ",1,3.0,4.0\n"
                                   "b,2,5.0,6.0\n", True),
    # a quote inside an unquoted field is a character, and opens no field
    "mid_field_quote": ('g,h,y,x1\nab"c,1,1.0,2.0\nd,1,3.0,4.0\n"e",1,5.0,6.0\n', True),
}


@pytest.mark.parametrize("name", sorted(PARITY_FILES))
def test_columnar_matches_row_wise(tmp_path, name):
    text, fast = PARITY_FILES[name]
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    expected = row_wise(path)
    assert (columnar(path) if fast else outcome(path)) == expected


def test_columnar_edge_cases_read_as_intended(tmp_path):
    def load(name):
        path = tmp_path / f"{name}.csv"
        path.write_bytes(PARITY_FILES[name][0].encode("utf-8"))
        return path

    panel = load_csv(load("quoted_commas"), SCHEMA)
    assert panel.g_labels == ("a,b", 'c "d"')
    assert_array_equal(panel.y, [1.0, 3.0, 5.5])
    assert load_csv(load("hash_row_is_data"), SCHEMA).g_labels == ("#a", "b")
    assert load_csv(load("blank_rows"), SCHEMA).n == 2
    assert_array_equal(load_csv(load("underscore_numerals"), SCHEMA).x[:, 0], [2.0, 4000.5])
    panel = load_csv(load("mixed_labels"), SCHEMA)
    assert panel.g_labels == (1, "x")
    assert panel.h_labels == ("a", "b", "c")
    assert_array_equal(panel.g_idx, [0, 0, 1, 0, 1])
    with pytest.raises(ParseFailure) as err:
        load_csv(load("parse_failure_after_blanks"), SCHEMA)
    assert (err.value.row, err.value.column, err.value.value) == (2, "y", "oops")
    # the first row in file order that repeats a cell, not the lowest cell
    with pytest.raises(DuplicateCell) as dup:
        load_csv(load("duplicates_out_of_flat_order"), SCHEMA)
    assert (dup.value.g, dup.value.h) == ("b", 2)
    # the whole file is parsed before any cell is checked for a repeat
    with pytest.raises(ParseFailure) as err:
        load_csv(load("duplicate_then_parse_failure"), SCHEMA)
    assert (err.value.row, err.value.column, err.value.value) == (3, "y", "oops")
    with pytest.raises(DuplicateCell) as dup:
        load_csv(load("duplicate_across_blank_row"), SCHEMA)
    assert (dup.value.g, dup.value.h) == ("a", 1)
    assert load_csv(load("nul_in_label"), SCHEMA).g_labels == ("a\x00", "a")
    panel = load_csv(load("single_row"), SCHEMA)
    assert (panel.G, panel.H, panel.n) == (1, 1, 1)
    # a byte-order mark is not part of the first column name
    assert read_header(load("utf8_bom"))[0] == "g"
    assert load_csv(load("utf8_bom"), SCHEMA).g_labels == ("a", "b")


def loadtxt_calls(path):
    """How many np.loadtxt calls load_csv makes on path."""
    with mock.patch.object(np, "loadtxt", wraps=np.loadtxt) as spy:
        load_csv(path, SCHEMA)
    return spy.call_count


def test_label_passes(tmp_path):
    for name in ["integer_labels", "late_string_label", "mixed_labels"]:
        path = tmp_path / f"{name}.csv"
        path.write_bytes(PARITY_FILES[name][0].encode("utf-8"))
        assert loadtxt_calls(path) == 1, name
    panel = load_csv(tmp_path / "integer_labels.csv", SCHEMA)
    assert panel.g_labels == (30, 4, 0) and panel.h_labels == (-2, 7)
    assert all(type(label) is int for label in panel.g_labels + panel.h_labels)
    assert_array_equal(panel.g_idx, [0, 0, 1, 1, 2])
    assert panel.g_idx.dtype == np.intp


# numpy's int64 parser and _parse_label read each of these as the same int
INT64_SPELLINGS = {"1": 1, " 1": 1, " 1 ": 1, "+1": 1, "01": 1, "-0": 0, '"5"': 5}
# numpy's int64 parser rejects each of these; _parse_label keeps most as
# strings, but Python's int reads three of them
STRING_SPELLINGS = {"1.0": "1.0", "1e3": "1e3", "0x10": "0x10", "1_0": 10, "\u0663": 3,
                    "9223372036854775808": 2**63, "": "", "1\x00": "1\x00"}


def read_spelling_alike(tmp_path, spelling, label):
    """A 1,001-row file whose one g label other than 2 is spelling, in the
    first row and then in the last, is read in one np.loadtxt call by the
    row-wise rule."""
    path = tmp_path / "p.csv"
    for late in (False, True):
        rows = [f"2,{h},1.0,2.0\n" for h in range(1000)]
        rows.insert(len(rows) if late else 0, f"{spelling},7,3.0,4.0\n")
        path.write_bytes(("g,h,y,x1\n" + "".join(rows)).encode("utf-8"))
        assert loadtxt_calls(path) == 1
        assert columnar(path) == row_wise(path)
        assert load_csv(path, SCHEMA).g_labels == ((2, label) if late else (label, 2))


@pytest.mark.parametrize("spelling", list(INT64_SPELLINGS))
def test_integer_label_spellings_read_alike_in_both_passes(tmp_path, spelling):
    read_spelling_alike(tmp_path, spelling, INT64_SPELLINGS[spelling])


@pytest.mark.parametrize("spelling", list(STRING_SPELLINGS))
def test_other_label_spellings_fall_back_to_strings(tmp_path, spelling):
    read_spelling_alike(tmp_path, spelling, STRING_SPELLINGS[spelling])


def test_labels_of_a_non_ascii_file_are_read_as_strings(tmp_path):
    rows = "".join(f"{i},7,1.0,2.0\n" for i in range(20_000))
    for text in ["g,h,y,x1\n1\U0010cece,7,1.0,2.0\n2,7,3.0,4.0\n",
                 "g,h,y,x1\n\U0010cece,7,1.0,2.0\n2,7,3.0,4.0\n",
                 "\ufeffg,h,y,x1\n1,7,1.0,2.0\n",
                 # past the decoder's first chunk, inside np.loadtxt
                 "g,h,y,x1\n" + rows + "1\U0010cece,7,5.0,6.0\n"]:
        path = tmp_path / "p.csv"
        path.write_bytes(text.encode("utf-8"))
        assert loadtxt_calls(path) == 1
        assert columnar(path) == row_wise(path)


def test_an_integer_and_its_float_spelling_are_two_clusters(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"g,h,y,x1\n1,7,1.0,2.0\n1.0,7,3.0,4.0\n")
    assert loadtxt_calls(path) == 1
    assert columnar(path) == row_wise(path)
    assert load_csv(path, SCHEMA).g_labels == (1, "1.0")


def test_a_late_python_only_numeral_reaches_the_row_wise_pass(tmp_path):
    # "1_0" is a float to Python, not to numpy: only the row-wise pass reads it
    for labels in ["1,7", "a,7"]:
        path = tmp_path / "p.csv"
        path.write_bytes(f"g,h,y,x1\n2,7,1.0,2.0\n{labels},1_0,4.0\n".encode("utf-8"))
        with mock.patch.object(panel_module, "_load_rows", wraps=panel_module._load_rows) as rows:
            assert loadtxt_calls(path) == 1
        rows.assert_called_once()
        assert outcome(path) == row_wise(path)
        assert_array_equal(load_csv(path, SCHEMA).y, [1.0, 10.0])


def test_a_label_column_named_again_in_the_schema(tmp_path):
    path = tmp_path / "p.csv"
    path.write_bytes(b"g,h,y,x1\n1,7,1.0,2.0\nb,8,3.0,4.0\n 2,8,5.0,6.0\n")
    one_column = {"g": "g", "h": "g", "y": "y", "x": ["x1"]}
    # numpy converts only the first use of a file column: g and h in one
    # column go to the row-wise pass
    with mock.patch.object(panel_module, "_load_rows", wraps=panel_module._load_rows) as rows:
        panel = load_csv(path, one_column)
    rows.assert_called_once()
    assert outcome(path, one_column) == row_wise(path, one_column)
    assert panel.g_labels == panel.h_labels == (1, "b", 2)
    assert_array_equal(panel.g_idx, [0, 1, 2])
    assert_array_equal(panel.h_idx, [0, 1, 2])
    path.write_bytes(b"g,h,y,x1\n1,7,1.0,2.0\n2,8,3.0,4.0\n")
    # a y or x column that repeats a label column is read as a number
    as_value = {"g": "g", "h": "h", "y": "g", "x": ["h", "x1"]}
    assert columnar(path, as_value) == row_wise(path, as_value)
    panel = load_csv(path, as_value)
    assert (panel.g_labels, panel.h_labels) == ((1, 2), (7, 8))
    assert_array_equal(panel.y, [1.0, 2.0])
    assert_array_equal(panel.x, [[7.0, 2.0], [8.0, 4.0]])


def load_csv_working_set(tmp_path, labels, cpus):
    """tracemalloc's peak of load_csv on a 40,000-row, d=10 file whose
    labels are labels(i), read on ``cpus`` CPUs, in n-vectors of float64.

    The file is two ranges, so the panel's arrays are one shared mmap block
    of d + 3 = 13 n-vectors, which tracemalloc does not see; a traced
    stand-in of its size is made when the block is and lives as long."""
    cfg = MonteCarloConfig(G=200, H=200, d=10, tau=0.5, reps=1, seed=101,
                           weights=DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    source = generate_dgp(cfg, 0)
    names = tuple(labels(i) for i in range(200))
    source = PanelArray(G=200, H=200, g_idx=source.g_idx, h_idx=source.h_idx,
                        y=source.y, x=source.x, g_labels=names, h_labels=names)
    path = tmp_path / "p.csv"
    write_csv(source, path)
    assert len(panel_module._ranges(path)) == 2
    schema = {"g": "g", "h": "h", "y": "y", "x": [f"x{j + 1}" for j in range(10)]}
    real, block = panel_module._load_ranges, []

    def load_ranges(path, ranges, pos, columns):
        block.append(np.empty(sum(rows for *_, rows in ranges) * len(columns)))
        return real(path, ranges, pos, columns)

    with mock.patch.object(os, "sched_getaffinity", lambda pid: set(range(cpus)), create=True), \
            mock.patch.object(panel_module, "_load_ranges", load_ranges):
        panel, peak = traced_peak(load_csv, path, schema)
    assert panel.y.tobytes() == source.y.tobytes()
    assert panel.g_labels == names
    return peak / (8 * panel.n)


def test_load_csv_working_set(tmp_path):
    """Integer labels: the four arrays and one range's records, 19.96 on
    one CPU and 20.32 on two, where this process parses one of the two
    ranges. The range scan's 4 MiB read buffer, 13.13, is freed before the
    block is made. A single np.loadtxt call over the file read 26.26: the
    13-column records and the four columns copied out of them."""
    assert load_csv_working_set(tmp_path, int, 1) <= 19.96 + 1
    assert load_csv_working_set(tmp_path, int, 2) <= 20.32 + 1


def test_load_csv_working_set_with_string_labels(tmp_path):
    """String labels read as integer ones do: no pass holds one Python
    string per field."""
    assert load_csv_working_set(tmp_path, "c{}".format, 1) <= 19.96 + 1
    assert load_csv_working_set(tmp_path, "c{}".format, 2) <= 20.32 + 1


labels = st.one_of(st.integers(-3, 30),
                   st.text(st.characters(blacklist_categories=("Cs",)), max_size=4))
finite = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def small_panels(draw, min_rows=1):
    """A panel of G, H <= 4 labels holding ``min_rows`` (at most 4) or more
    of its G x H cells, in any order."""
    g_labels = draw(st.lists(labels, min_size=1, max_size=4, unique=True))
    h_labels = draw(st.lists(labels, min_size=min_rows, max_size=4, unique=True))
    G, H, d = len(g_labels), len(h_labels), draw(st.integers(1, 3))
    cells = draw(st.lists(st.integers(0, G * H - 1), min_size=min_rows, max_size=G * H,
                          unique=True))
    n = len(cells)
    used_g = sorted({c // H for c in cells})
    used_h = sorted({c % H for c in cells})
    return PanelArray(
        G=len(used_g), H=len(used_h),
        g_idx=[used_g.index(c // H) for c in cells],
        h_idx=[used_h.index(c % H) for c in cells],
        y=draw(st.lists(finite, min_size=n, max_size=n)),
        x=np.reshape(draw(st.lists(finite, min_size=n * d, max_size=n * d)), (n, d)),
        g_labels=tuple(g_labels[g] for g in used_g),
        h_labels=tuple(h_labels[h] for h in used_h),
    )


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(panel=small_panels(min_rows=2))
def test_columnar_matches_row_wise_on_written_panels(tmp_path, panel):
    path = tmp_path / "p.csv"
    write_csv(panel, path)
    schema = {"g": "g", "h": "h", "y": "y", "x": [f"x{j + 1}" for j in range(panel.d)]}
    assert columnar(path, schema) == row_wise(path, schema)


# --- byte-range ingest against the row-wise reference pass ---

# the PARITY_FILES that 16-byte ranges cut into several: every file of two
# or more records
RANGED = set(PARITY_FILES) - {"single_row"}


@pytest.fixture(params=[1, pytest.param(2, marks=needs_fork)], ids=["1cpu", "2cpus"])
def small_ranges(request, monkeypatch):
    """Bodies cut into ranges of at most 16 bytes, read on request.param CPUs."""
    monkeypatch.setattr(panel_module, "_RANGE_BYTES", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(request.param)),
                        raising=False)
    return request.param


@pytest.mark.parametrize("name", sorted(PARITY_FILES))
def test_ranges_match_row_wise(tmp_path, small_ranges, name):
    text, fast = PARITY_FILES[name]
    path = tmp_path / "p.csv"
    path.write_bytes(text.encode("utf-8"))
    assert (len(panel_module._ranges(path)) > 1) == (name in RANGED)
    assert (columnar(path) if fast else outcome(path)) == row_wise(path)


@settings(max_examples=150, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(panel=small_panels(min_rows=2))
def test_ranges_match_row_wise_on_written_panels(tmp_path, small_ranges, panel):
    path = tmp_path / "p.csv"
    write_csv(panel, path)
    schema = {"g": "g", "h": "h", "y": "y", "x": [f"x{j + 1}" for j in range(panel.d)]}
    data = path.read_bytes()
    # ranges as long as the longest line: a written row is no shorter than
    # the header, so every body of two or more rows spans two ranges
    longest = max(map(len, data.split(b"\n"))) + 1
    with mock.patch.object(panel_module, "_RANGE_BYTES", longest):
        assert len(panel_module._ranges(path)) > 1
        assert columnar(path, schema) == row_wise(path, schema)


def grid_lines(G, H):
    """A G-by-H grid's rows, labels first appearing late in the file."""
    return [f"g{(7 * i) % G},{H - j},{i}.5,{j}.25" for i in range(G) for j in range(H)]


def test_ranges_read_late_labels_and_freeze_the_arrays(tmp_path, small_ranges):
    path = tmp_path / "p.csv"
    write_lines(path, ["g,h,y,x1", *grid_lines(9, 5)])
    assert len(panel_module._ranges(path)) > 10
    assert columnar(path) == row_wise(path)
    panel = load_csv(path, SCHEMA)
    assert panel.g_labels == tuple(f"g{(7 * i) % 9}" for i in range(9))
    assert panel.h_labels == (5, 4, 3, 2, 1)
    assert not any(a.flags.writeable for a in (panel.g_idx, panel.h_idx, panel.y, panel.x))


@pytest.mark.parametrize("bad, where", [("g8,1,3.0", (45, "x1", "")),
                                        ("g8,1,oops,1.0", (45, "y", "oops"))])
def test_a_late_ragged_row_or_bad_number_is_a_parse_failure(tmp_path, small_ranges, bad, where):
    path = tmp_path / "p.csv"
    write_lines(path, ["g,h,y,x1", *grid_lines(9, 5)[:-1], bad])
    assert len(panel_module._ranges(path)) > 10
    with pytest.raises(ParseFailure) as err:
        load_csv(path, SCHEMA)
    assert (err.value.row, err.value.column, err.value.value) == where
    assert outcome(path) == row_wise(path)


def test_a_range_that_reads_other_than_its_count_goes_to_the_row_wise_pass(
        tmp_path, small_ranges, monkeypatch):
    path = tmp_path / "p.csv"
    write_lines(path, ["g,h,y,x1", *grid_lines(9, 5)])
    ranges = panel_module._ranges(path)
    *others, (start, end, rows) = ranges
    expected = row_wise(path)
    # the last range claims a row more than the file holds, then one fewer
    for claim in (rows + 1, rows - 1):
        monkeypatch.setattr(panel_module, "_ranges",
                            lambda path, claim=claim: [*others, (start, end, claim)])
        with mock.patch.object(panel_module, "_load_rows", wraps=panel_module._load_rows) as spy:
            got = outcome(path)
        spy.assert_called_once()
        assert got == expected
        assert load_csv(path, SCHEMA).n == 45


def no_fork(method):
    raise AssertionError(f"a {method} process was started")


def test_one_cpu_or_one_range_reads_without_a_fork(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    write_lines(path, ["g,h,y,x1", *grid_lines(9, 5)])
    expected = row_wise(path)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    monkeypatch.setattr(os, "cpu_count", lambda: 8)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    assert len(panel_module._ranges(path)) == 1
    assert columnar(path) == expected
    monkeypatch.setattr(panel_module, "_RANGE_BYTES", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
    assert columnar(path) == expected


@needs_fork
def test_a_range_reader_that_dies_is_an_error_and_is_reaped(tmp_path, monkeypatch):
    path = tmp_path / "p.csv"
    write_lines(path, ["g,h,y,x1", *grid_lines(9, 5)])
    monkeypatch.setattr(panel_module, "_RANGE_BYTES", 16)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    real = panel_module._records

    def dies_in_a_child(fh, *args, **kwargs):
        if os.getpid() != parent:
            os._exit(7)
        return real(fh, *args, **kwargs)

    parent = os.getpid()
    monkeypatch.setattr(panel_module, "_records", dies_in_a_child)
    with pytest.raises(ChildProcessError, match="exit code 7"):
        load_csv(path, SCHEMA)
    assert multiprocessing.active_children() == []


# --- write_csv on every usable CPU ---

def quoted_panel(G, H):
    """A G-by-H grid whose every g and h label needs quoting."""
    rng = np.random.default_rng(G * H)
    return PanelArray(G=G, H=H, g_idx=np.repeat(np.arange(G), H), h_idx=np.tile(np.arange(H), G),
                      y=rng.standard_normal(G * H), x=rng.standard_normal((G * H, 2)),
                      g_labels=tuple(f'g "{i}",é' for i in range(G)),
                      h_labels=tuple(f"h\r{j}" for j in range(H)))


def dgp_panel(G, d):
    cfg = MonteCarloConfig(G=G, H=G, d=d, tau=0.5, reps=1, seed=0,
                           weights=DgpWeights(1.0, 1.0, 1.0, 1.0, 1.0, 1.0))
    return generate_dgp(cfg, 0)


# sha256 of dgp_panel(160, 3) as the serial writer wrote it: 25,600 rows,
# two full chunks and a part one
DGP_160_SHA256 = "f24489293134c48b578bd81038b2084408765b7cadd8dfba6b2b1f33d5fcd318"


@pytest.mark.parametrize("make, sha256", [
    (lambda: grid_panel(1, 1, [[1.5]], [0.25]), None),
    (lambda: dgp_panel(50, 2), None),
    (lambda: grid_panel(100, 200, np.ones((20_000, 1)), np.arange(20_000.0) / 7), None),
    (lambda: dgp_panel(160, 3), DGP_160_SHA256),
    (lambda: quoted_panel(120, 210), None),
], ids=["n=1", "n<10k", "n=20k", "n=25.6k", "quoted labels"])
def test_write_csv_bytes_are_the_same_at_any_cpu_count(tmp_path, monkeypatch, make, sha256):
    panel = make()
    written = []
    for cpus in (1, 2, 3):
        allow_cpus(monkeypatch, cpus)
        path = tmp_path / f"{cpus}.csv"
        write_csv(panel, path)
        written.append(path.read_bytes())
    assert written[1] == written[0] and written[2] == written[0]
    schema = {"g": "g", "h": "h", "y": "y", "x": [f"x{j + 1}" for j in range(panel.d)]}
    assert load_csv(tmp_path / "3.csv", schema).cell_set() == panel.cell_set()
    if sha256 is not None:
        assert hashlib.sha256(written[0]).hexdigest() == sha256


def y_as_row(n):
    """A panel whose y holds each row's index, so a formatter can tell the
    chunk of the row it formats."""
    return grid_panel(n // 100, 100, np.zeros((n, 1)), np.arange(float(n)))


@needs_fork
def test_write_csv_raises_a_forked_groups_error_and_leaves_nothing_behind(
        tmp_path, monkeypatch):
    """An OSError from chunk 1 on, which a child formats, is a
    ChildProcessError here; no process and no scratch file is left."""
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))

    def failing_repr(value):
        if value >= panel_module._WRITE_CHUNK_ROWS:
            raise OSError(28, "No space left on device")
        return repr(value)

    monkeypatch.setattr(panel_module, "repr", failing_repr, raising=False)
    allow_cpus(monkeypatch, 2)
    with pytest.raises(ChildProcessError, match="forked worker raised OSError") as err:
        write_csv(y_as_row(30_000), tmp_path / "p.csv")
    assert isinstance(err.value, OSError)
    assert list(scratch.iterdir()) == []
    assert list(tmp_path.iterdir()) == [scratch]
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("cpus", [1, 2])
@pytest.mark.parametrize("previous", [None, b"g,h,y,x1\n1,1,0.5,0.25\n"], ids=["absent", "present"])
def test_write_csv_that_fails_mid_write_leaves_the_previous_file(
        tmp_path, monkeypatch, cpus, previous):
    """Chunk 2 fails after chunks 0 and 1 are formatted: in this process at
    one CPU, in the child at two. ``path`` keeps its bytes or stays absent,
    and no scratch file is left beside it."""
    scratch, out = tmp_path / "scratch", tmp_path / "out"
    scratch.mkdir()
    out.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    path = out / "p.csv"
    if previous is not None:
        path.write_bytes(previous)

    def failing_repr(value):
        if value >= 2 * panel_module._WRITE_CHUNK_ROWS:
            raise OSError(28, "No space left on device")
        return repr(value)

    monkeypatch.setattr(panel_module, "repr", failing_repr, raising=False)
    allow_cpus(monkeypatch, cpus)
    with pytest.raises(OSError, match="No space left on device"):
        write_csv(y_as_row(30_000), path)
    if previous is None:
        assert list(out.iterdir()) == []
    else:
        assert list(out.iterdir()) == [path]
        assert path.read_bytes() == previous
    assert list(scratch.iterdir()) == []


@needs_fork
def test_write_csv_raises_its_own_groups_error_and_ends_its_children(tmp_path, monkeypatch):
    scratch = tmp_path / "scratch"
    scratch.mkdir()
    monkeypatch.setattr(tempfile, "tempdir", str(scratch))
    parent = os.getpid()

    def repr_here_fails(value):
        if os.getpid() == parent:
            raise OSError(28, "No space left on device")
        time.sleep(60)

    monkeypatch.setattr(panel_module, "repr", repr_here_fails, raising=False)
    allow_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(OSError, match="No space left") as err:
        write_csv(y_as_row(20_000), tmp_path / "p.csv")
    assert type(err.value) is OSError
    assert time.monotonic() - start < 30  # the child was ended, not waited for
    assert list(scratch.iterdir()) == []
    assert list(tmp_path.iterdir()) == [scratch]
    assert multiprocessing.active_children() == []


def test_write_csv_keeps_its_parts_beside_the_target(tmp_path, monkeypatch):
    """The forked groups' parts go in a hidden directory beside the target,
    not in the system temp directory: with that one missing, the bytes are
    the same at one and two CPUs, a relative target included, and nothing
    is left beside them."""
    monkeypatch.setattr(tempfile, "tempdir", str(tmp_path / "missing"))
    monkeypatch.chdir(tmp_path)
    panel = dgp_panel(160, 3)
    for cpus, path in ((1, tmp_path / "1.csv"), (2, "2.csv")):
        allow_cpus(monkeypatch, cpus)
        write_csv(panel, path)
    assert hashlib.sha256((tmp_path / "1.csv").read_bytes()).hexdigest() == DGP_160_SHA256
    assert (tmp_path / "2.csv").read_bytes() == (tmp_path / "1.csv").read_bytes()
    assert sorted(p.name for p in tmp_path.iterdir()) == ["1.csv", "2.csv"]


def test_write_csv_working_set_does_not_grow_with_cpus(tmp_path, monkeypatch):
    """This process formats one chunk at a time at any CPU count, and
    appends the other groups' files through a 64 KiB buffer. The allowance,
    128 KiB, covers that buffer and the join's bookkeeping. At two CPUs a
    child formats 32,500 of the 62,500 rows, about 2.3 MB of text: sent back
    through ``_forked``'s results, it raised this peak by 1.2 MB."""
    panel = dgp_panel(250, 3)
    path = tmp_path / "p.csv"
    allow_cpus(monkeypatch, 2)
    write_csv(panel, path)  # the fork machinery's first-use imports
    peaks = {}
    for cpus in (1, 2):
        allow_cpus(monkeypatch, cpus)
        _, peaks[cpus] = traced_peak(write_csv, panel, path)
    assert peaks[2] <= peaks[1] + (128 << 10), peaks


# --- _forked, the one place twqr starts processes ---

def where(lo, hi):
    return lo, hi, os.getpid()


@needs_fork
@pytest.mark.parametrize("items, jobs, cpus, groups", [(7, 8, 3, [(0, 2), (2, 4), (4, 7)]),
                                                       (7, 2, 8, [(0, 3), (3, 7)]),
                                                       (7, None, 3, [(0, 2), (2, 4), (4, 7)])])
def test_forked_runs_the_first_group_here_and_the_others_in_children(
        monkeypatch, items, jobs, cpus, groups):
    allow_cpus(monkeypatch, cpus)
    got = panel_module._forked(where, items, jobs)
    assert [(lo, hi) for lo, hi, _ in got] == groups
    pids = [pid for _, _, pid in got]
    assert pids[0] == os.getpid() and len(set(pids)) == len(groups)


@pytest.mark.parametrize("items, jobs, methods", [(0, 4, ["fork"]), (1, 4, ["fork"]),
                                                  (9, 1, ["fork"]), (9, 4, ["spawn"]),
                                                  (0, None, ["fork"]), (1, None, ["fork"])])
def test_forked_runs_one_group_here_without_a_fork(monkeypatch, items, jobs, methods):
    allow_cpus(monkeypatch, 8)
    monkeypatch.setattr(multiprocessing, "get_all_start_methods", lambda: methods)
    monkeypatch.setattr(multiprocessing, "get_context", no_fork)
    assert panel_module._forked(where, items, jobs) == [(0, items, os.getpid())]


class NotUnpickled(ValueError):
    def __init__(self, message, handle):  # pickle calls it with the message alone
        super().__init__(message)


def raising(exc):
    def fail():
        raise exc
    return fail


def exit_7():
    os._exit(7)


@needs_fork
@pytest.mark.parametrize("fail, raised, match", [
    (raising(ValueError("bad range 3")), ValueError, "^bad range 3$"),
    (raising(NotUnpickled("no copy", object())), ValueError, "^no copy$"),
    (raising(KeyError("k")), ChildProcessError, "KeyError: 'k'"),
    (raising(RuntimeError("boom")), ChildProcessError, "RuntimeError: boom"),
    (exit_7, ChildProcessError, "exit code 7"),
], ids=["ValueError", "ValueError that does not unpickle", "KeyError", "RuntimeError", "exit"])
def test_forked_reports_a_child_failure_and_reaps_every_child(monkeypatch, fail, raised, match):
    parent = os.getpid()

    def fn(lo, hi):
        if os.getpid() != parent:
            fail()
        return lo, hi

    allow_cpus(monkeypatch, 3)
    with pytest.raises(raised, match=match) as err:
        panel_module._forked(fn, 6, 3)
    assert type(err.value) is raised
    assert multiprocessing.active_children() == []


@needs_fork
def test_forked_raises_the_callers_own_error_and_ends_its_children(monkeypatch):
    parent = os.getpid()

    def fn(lo, hi):
        if os.getpid() == parent:
            raise InputError("in the caller's group")
        time.sleep(60)

    allow_cpus(monkeypatch, 2)
    start = time.monotonic()
    with pytest.raises(InputError, match="caller's group"):
        panel_module._forked(fn, 4, 2)
    assert time.monotonic() - start < 30  # the child was ended, not waited for
    assert multiprocessing.active_children() == []


def toplevel_defs_where(matches) -> set:
    """(file, top-level definition) of each place in src/twqr that holds an
    ast node for which ``matches`` is true."""
    return {(path.name, getattr(top, "name", None))
            for path in pathlib.Path(panel_module.__file__).parent.glob("*.py")
            for top in ast.parse(path.read_text()).body
            if any(matches(node) for node in ast.walk(top))}


def toplevel_names_of(names: set) -> set:
    """toplevel_defs_where a node names an attribute or imports a name in
    ``names``."""
    return toplevel_defs_where(lambda node: bool(names.intersection(
        [node.attr] if isinstance(node, ast.Attribute)
        else [alias.name for alias in node.names] if isinstance(node, ast.ImportFrom)
        else [])))


def test_only_forked_starts_processes():
    """No function of twqr but panel._forked names a process or pool
    constructor, so a second fork path cannot grow back unnoticed."""
    starters = {"get_context", "Process", "Pool", "ProcessPoolExecutor", "Popen", "fork"}
    assert toplevel_names_of(starters) == {("panel.py", "_forked")}


def test_only_forked_and_resolve_threads_read_the_cpu_count():
    """No function of twqr but panel._forked and cli._resolve_threads calls
    panel._usable_cpus, so no caller of _forked restates the worker count
    it derives."""
    found = toplevel_defs_where(lambda node: isinstance(node, ast.Call) and "_usable_cpus" in {
        getattr(node.func, "id", None), getattr(node.func, "attr", None)})
    assert found == {("panel.py", "_forked"), ("cli.py", "_resolve_threads")}


def test_only_records_calls_loadtxt():
    """No function of twqr but panel._records calls numpy's reader, so a
    second columnar reader cannot grow back beside the range reader."""
    assert toplevel_names_of({"loadtxt"}) == {("panel.py", "_records")}


def test_only_converged_forms_the_gap_tolerance():
    """No function of twqr but solver._converged multiplies by ``gap_tol``,
    so the fit paths cannot grow a second stopping rule."""
    found = toplevel_defs_where(lambda node: isinstance(node, ast.BinOp)
                                and isinstance(node.op, ast.Mult)
                                and "gap_tol" in {getattr(node.left, "id", None),
                                                  getattr(node.right, "id", None)})
    assert found == {("solver.py", "_converged")}
