"""CSV tables: one text form per column, chosen by the column's dtype."""

from __future__ import annotations

import csv
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarbec import cli
from polarbec.runio import CSV_BLOCK_ROWS, write_csv


def test_csv_cells_follow_their_column_dtype(tmp_path):
    path = tmp_path / "table.csv"
    write_csv(str(path), {
        "flag": [True, np.True_, False, np.False_],
        "count": [7, -3, np.int64(2 ** 40), np.int32(0)],
        "special": [math.nan, math.inf, -math.inf, -0.0],
        "value": np.array([1.0 / 3.0, 1e-300, 123456789012345.0, 2.5]),
        "label": ["a,b", "L", 'say "hi"', "R"],
    })
    assert path.read_bytes() == (
        b"flag,count,special,value,label\r\n"
        b'true,7,nan,0.333333333333,"a,b"\r\n'
        b"true,-3,inf,1e-300,L\r\n"
        b'false,1099511627776,-inf,1.23456789012e+14,"say ""hi"""\r\n'
        b"false,0,-0,2.5,R\r\n")


def test_csv_refuses_columns_of_unequal_length(tmp_path):
    with pytest.raises(ValueError, match="length"):
        write_csv(str(tmp_path / "bad.csv"), {"a": [1.0, 2.0], "b": [1.0]})


# --- the writer against csv.writer --------------------------------------------


def write_csv_by_cell(path, columns):
    """The oracle: the writer as it was, one csv.writer call per row and
    one Python call per cell, each cell in its column's text form."""
    def cell_format(column):
        if column.dtype == bool:
            return lambda v: "true" if v else "false"
        if column.dtype.kind == "f":
            return "%.12g".__mod__
        return str

    arrays = [np.asarray(a) for a in columns.values()]
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\r\n",
                            quoting=csv.QUOTE_MINIMAL)
        writer.writerow(columns)
        writer.writerows(zip(*(map(cell_format(a), a) for a in arrays)))


def assert_same_bytes(tmp_path, columns):
    write_csv(str(tmp_path / "rows.csv"), columns)
    write_csv_by_cell(str(tmp_path / "cells.csv"), columns)
    assert ((tmp_path / "rows.csv").read_bytes()
            == (tmp_path / "cells.csv").read_bytes())


AWKWARD_FLOATS = [math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324,
                  -1e-310, 2.2250738585072014e-308, 1e308,
                  1.7976931348623157e308, -1.0 / 3.0, 123456789012.5,
                  1e16 + 2.0]
AWKWARD_TEXT = ["plain", "a,b", 'say "hi"', '"', "line\nbreak",
                "carriage\rreturn", "crlf\r\n", "", " padded ", "é ∂",
                "%s %d %%", "a\tb", "nul\x00"]


@pytest.mark.parametrize("rows", [0, 1, CSV_BLOCK_ROWS - 1, CSV_BLOCK_ROWS,
                                  2 * CSV_BLOCK_ROWS + 3])
def test_each_row_is_formatted_once_to_the_bytes_of_csv_writer(tmp_path,
                                                               rows):
    # every dtype the tables use, cycled over a table that spans blocks
    def cycle(values):
        return [values[k % len(values)] for k in range(rows)]

    assert_same_bytes(tmp_path, {
        "float": np.array(cycle(AWKWARD_FLOATS)),
        "float32": np.array(cycle(AWKWARD_FLOATS[:6] + [0.1]),
                            dtype=np.float32),
        "int": np.array(cycle([0, -1, 2**62, np.iinfo(np.int64).min]),
                        dtype=np.int64),
        "uint": np.array(cycle([0, 2**64 - 1]), dtype=np.uint64),
        "bool": np.array(cycle([True, False, False]), dtype=bool),
        "text": cycle(AWKWARD_TEXT),
        "object": np.array(cycle([None, 1.5, "x,y", 3]), dtype=object),
    })


@pytest.mark.parametrize("header", [h for h in AWKWARD_TEXT if h])
def test_headers_are_quoted_as_csv_writer_quotes_them(tmp_path, header):
    assert_same_bytes(tmp_path, {header: [1.0, 2.0], "plain": [True, False],
                                 "": ["", "a"]})


@pytest.mark.parametrize("column", [[""], ["", "x", ""], [1.5, math.nan],
                                    [True], np.zeros(0)])
@pytest.mark.parametrize("header", ["", "h", "a,b"])
def test_a_one_column_table_quotes_an_empty_field(tmp_path, column, header):
    # csv.writer quotes the lone field of a row when it is empty, so no
    # row of a one-column table reads as a blank line
    assert_same_bytes(tmp_path, {header: column})


def test_a_table_without_columns_is_an_empty_header(tmp_path):
    assert_same_bytes(tmp_path, {})


@settings(deadline=None, max_examples=60)
@given(floats=st.lists(st.floats(allow_nan=True, allow_infinity=True,
                                 allow_subnormal=True), max_size=40),
       text=st.text(alphabet=st.characters(blacklist_categories=("Cs",)),
                    max_size=12))
def test_random_cells_keep_the_bytes_of_csv_writer(tmp_path_factory, floats,
                                                   text):
    tmp_path = tmp_path_factory.mktemp("csv")
    assert_same_bytes(tmp_path, {
        text: np.array(floats, dtype=float),
        "text": [text + str(k) for k in range(len(floats))],
        "count": np.arange(len(floats)),
    })


@pytest.mark.parametrize("command, ini", [
    ("modes", ""), ("spectrum", ""), ("threshold", ""),
    ("sweep-grid", "[cavity]\nl_max = 3\n[sweep]\nchi_points = 5\n"
                   "grid_pump_points = 7\n"),
])
def test_every_table_of_a_run_keeps_the_bytes_of_csv_writer(
        tmp_path, monkeypatch, command, ini):
    tables = []

    def recorded(path, columns):
        tables.append((path, columns))
        write_csv(path, columns)

    monkeypatch.setattr(cli, "write_csv", recorded)
    args = [command, "--out", str(tmp_path / "out")]
    if ini:
        (tmp_path / "run.ini").write_text(ini, encoding="utf-8")
        args += ["--config", str(tmp_path / "run.ini")]
    assert cli.main(args) == 0
    assert tables
    for path, columns in tables:
        write_csv_by_cell(str(tmp_path / "cells.csv"), columns)
        with open(path, "rb") as fh:
            assert fh.read() == (tmp_path / "cells.csv").read_bytes(), path
