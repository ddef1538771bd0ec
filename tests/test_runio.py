"""CSV tables: one text form per column, chosen by the column's dtype."""

from __future__ import annotations

import math

import numpy as np
import pytest

from polarbec.runio import write_csv


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
