"""The artifact text formats and the input rule: a CSV cell is a finite
number in plain decimal or scientific notation, and anything else is refused
with the table and the line."""

import io
import re

import pytest

from doublepack.continuum import load_boundary_csv
from doublepack.textio import read_csv


def table(*rows):
    return io.StringIO("x,y\n" + "\n".join(rows) + "\n")


class TestReadCsv:
    def test_decimal_and_scientific_cells(self):
        rows, lines = read_csv(table("-1.5e-3,2", " .5 ,+3.", "", "7E+2,-0"),
                               ["x", "y"], "demo")
        assert rows == [[-1.5e-3, 2.0], [0.5, 3.0], [700.0, 0.0]]
        assert lines == [2, 3, 5]

    @pytest.mark.parametrize("cell", [
        "1_000", " nan ", "NaN", "inf", "-Infinity", "1e999", "0x10", "1e", ".",
        "", "1.5.2", "١",
    ])
    def test_other_spellings_name_the_table_and_line(self, cell):
        message = f"demo CSV line 3: could not convert string to float: {re.escape(repr(cell))}"
        with pytest.raises(ValueError, match=message):
            read_csv(table("0,1", f"2,{cell}"), ["x", "y"], "demo")

    def test_infinite_boundary_sample_names_its_line(self):
        # refused while reading, before BoundaryFunction sees the samples
        text = "theta,value\n0.0,1.0\n1.5707963267948966,inf\n"
        with pytest.raises(ValueError, match="boundary CSV line 3: .*'inf'"):
            load_boundary_csv(io.StringIO(text))
