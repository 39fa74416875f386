"""The artifact text formats and the input rule: records held as columns
are written as json writes the plain records; a CSV cell is a finite number
in plain decimal or scientific notation, and anything else is refused with
the table and the line."""

import io
import json
import re

import numpy as np
import pytest

from conftest import plain_json
from doublepack.continuum import load_boundary_csv
from doublepack.textio import Records, json_text, read_csv

FLOATS = np.array([-0.0, 5e-324, 1e16, 1e-7, 0.1])


class TestRecords:
    @pytest.mark.parametrize("doc", [
        pytest.param({"r": Records({"x": FLOATS})}, id="floats"),
        pytest.param({"r": Records({"i": np.array([2 ** 63 - 1, -2 ** 63, 0]),
                                    "u": np.array([2 ** 64 - 1, 0, 7], dtype=np.uint64),
                                    "o": np.array([10 ** 30, -(10 ** 40), 3], dtype=object)})},
                     id="large-ints"),
        pytest.param({"r": Records({"x": FLOATS, "k": np.array(list("abcde")),
                                    "b": np.array([True, False] * 2 + [True])})},
                     id="one-level"),
        pytest.param({"r": Records({"c": [FLOATS, FLOATS[::-1]], "d": {"e": np.arange(5)},
                                    "100%": np.arange(5.0)})},
                     id="two-levels"),
        pytest.param(Records([FLOATS, FLOATS]), id="list-records-alone"),
        pytest.param({"r": Records({"x": FLOATS[:1], "k": np.array(["\u00e9\n\""])})},
                     id="one-record"),
        pytest.param({"r": Records({"x": FLOATS[:0]}), "s": [1, 2]}, id="zero-records"),
        pytest.param({"a": [{"r": Records({"x": FLOATS})}, 3, {"b": {}}], "z": {"y": [None]}},
                     id="records-in-a-list"),
        pytest.param({"r": Records({"x": np.arange(10_000) / 7.0,
                                    "k": np.repeat(np.array(["v", "f"]), 5000)})},
                     id="many-blocks"),
    ])
    def test_text_is_json_of_the_plain_records(self, doc):
        assert json_text(doc) == plain_json(doc)

    def test_zero_records_are_an_empty_list(self):
        assert json_text({"r": Records({"x": np.empty(0)})}) == '{\n  "r": []\n}\n'

    def test_non_finite_floats_are_written_as_json_writes_them(self):
        doc = {"r": Records({"x": np.array([np.nan, np.inf, -np.inf, 1.5])})}
        text = json_text(doc)
        assert text == plain_json(doc)
        assert [line.strip() for line in text.splitlines() if "x" in line] == [
            '"x": NaN', '"x": Infinity', '"x": -Infinity', '"x": 1.5']

    def test_items_are_the_plain_records(self):
        x, y = np.array([0.5, 1.5]), np.array([3, 4])
        rows = Records({"x": x, "c": [y, x], "k": np.array(["a", "b"])})
        want = [{"x": 0.5, "c": [3, 0.5], "k": "a"}, {"x": 1.5, "c": [4, 1.5], "k": "b"}]
        assert len(rows) == 2 and list(rows) == want and rows[-1] == want[1]
        assert [type(v) for v in rows[0].values()] == [float, list, str]
        with pytest.raises(IndexError):
            rows[2]

    def test_json_dumps_refuses_them(self):
        with pytest.raises(TypeError, match="Records"):
            json.dumps({"r": Records({"x": FLOATS})})

    @pytest.mark.parametrize("shape, error, cause", [
        ({"x": np.arange(3), "y": np.arange(4)}, ValueError, "one length"),
        ({"x": np.zeros((2, 2))}, ValueError, "one-dimensional"),
        ({}, ValueError, "one-dimensional"),
        ({"x": [1.0, 2.0]}, TypeError, "leaves must be arrays, not float"),
        ({1: np.arange(3)}, TypeError, "keys around records must be str"),
    ])
    def test_bad_shape_is_refused(self, shape, error, cause):
        with pytest.raises(error, match=cause):
            Records(shape)

    def test_dict_holding_records_needs_str_keys(self):
        with pytest.raises(TypeError, match="keys around records must be str, not int"):
            json_text({1: Records({"x": FLOATS})})


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
