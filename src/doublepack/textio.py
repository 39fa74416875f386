"""Text formats of the artifacts, and the one rule for reading an input.

JSON documents are written with sorted keys, an indent of 2 and a trailing
newline; CSV tables as a header line and one line per row, floats in exact
``repr`` form.  The same values therefore give the same bytes.  A long list
of same-shaped records goes into a document as ``Records``, held as columns:
``json_text`` writes it with one ``%``-template per record, the bytes that
``json.dumps`` gives for the plain records, without building them.  A CSV
cell read back is a finite number in plain decimal or scientific notation,
not ``inf``, ``nan`` or ``1_000``.  An input source is a path or an open text
file, and a ``str`` is always a path: inline text goes through ``io.StringIO``.
"""

import csv
import io
import json
import math
import os
import re
from collections.abc import Sequence

__all__ = ["Records", "json_text", "csv_text", "read_text", "read_csv"]

_NUMBER = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*", re.ASCII)


# records written per template pass: bounds the Python values alive at once
_BLOCK = 4096


class Records(Sequence):
    """Records of one shape, held as columns: a read-only sequence whose
    items are the plain records, each built only when it is asked for.

    ``shape`` is one record with a one-dimensional array, the column of that
    field, in place of each scalar: dicts (``str`` keys) and lists whose
    leaves are arrays of one length.  An item is that nest with each column
    replaced by its scalar (``array.item``), so ``Records({"r": r, "c": [x,
    y]})[i] == {"r": r.item(i), "c": [x.item(i), y.item(i)]}``.  ``json_text``
    writes the records straight from the columns; ``json.dumps`` does not
    know this type and raises ``TypeError`` on it."""

    def __init__(self, shape):
        self.shape = shape
        columns = []
        _record_template(shape, "\n", columns)
        shapes = {column.shape for column, _ in columns}
        if len(shapes) != 1 or len(next(iter(shapes))) != 1:
            raise ValueError("a record shape needs one-dimensional columns of one length, "
                             f"got shapes {sorted(shapes)}")
        self._len = columns[0][0].size

    def __len__(self):
        return self._len

    def __getitem__(self, i):
        return _record(self.shape, i)


def _sorted_keys(node):
    """The keys of a dict that is or holds a record shape, which must be str."""
    for key in node:
        if not isinstance(key, str):
            raise TypeError(f"keys around records must be str, not {type(key).__name__}")
    return sorted(node)


def _record(node, i):
    if isinstance(node, dict):
        return {key: _record(value, i) for key, value in node.items()}
    if isinstance(node, (list, tuple)):
        return [_record(value, i) for value in node]
    return node.item(i)


def _record_template(node, newline, columns):
    """The ``%``-template that writes one record of shape ``node`` as
    ``json.dumps(indent=2)`` does, where each line break is ``newline`` (a
    line feed and the indent of the record's level), and appends each column
    it reads to ``columns``, in template order, with whether its values are
    written by ``%r`` as they are (finite floats and integers: their
    ``__repr__`` is json's form) or by ``%s`` once json has encoded them."""
    inner = newline + "  "
    if isinstance(node, dict):
        fields = [json.dumps(key).replace("%", "%%") + ": "
                  + _record_template(node[key], inner, columns) for key in _sorted_keys(node)]
        return "{" + inner + ("," + inner).join(fields) + newline + "}" if fields else "{}"
    if isinstance(node, (list, tuple)):
        items = [_record_template(value, inner, columns) for value in node]
        return "[" + inner + ("," + inner).join(items) + newline + "]" if items else "[]"
    if not hasattr(node, "dtype"):
        raise TypeError(f"a record shape's leaves must be arrays, not {type(node).__name__}")
    kind = node.dtype.kind
    # min and max are NaN when any value is
    plain = kind in "iu" or kind == "f" and (
        node.size == 0 or -math.inf < node.min() and node.max() < math.inf)
    columns.append((node, plain))
    return "%r" if plain else "%s"


def _json_values(column, values):
    """Each value of a ``%s`` column encoded by json; a str or bool column
    encodes each distinct value once."""
    if column.dtype.kind in "Ub":
        codes = {value: json.dumps(value) for value in set(values)}
        return [codes[value] for value in values]
    return list(map(json.dumps, values))


def _records_chunks(records, newline):
    n = len(records)
    if not n:
        yield "[]"
        return
    inner = newline + "  "
    columns = []
    template = _record_template(records.shape, inner, columns).__mod__
    separator = "," + inner
    yield "[" + inner
    for start in range(0, n, _BLOCK):
        block = []
        for column, plain in columns:
            values = column[start:start + _BLOCK].tolist()
            block.append(values if plain else _json_values(column, values))
        yield separator.join(map(template, zip(*block)))
        yield separator if start + _BLOCK < n else newline + "]"


def _holds_records(node) -> bool:
    if isinstance(node, dict):
        return any(map(_holds_records, node.values()))
    if isinstance(node, (list, tuple)):
        return any(map(_holds_records, node))
    return isinstance(node, Records)


def _json_chunks(node, newline):
    """``node`` in pieces, as ``json.dumps(node, indent=2, sort_keys=True)``
    writes it once its records are plain, each line break being ``newline``;
    json writes every part that holds no records."""
    if isinstance(node, Records):
        yield from _records_chunks(node, newline)
    elif not _holds_records(node):
        yield json.dumps(node, indent=2, sort_keys=True).replace("\n", newline)
    else:
        inner = newline + "  "
        if isinstance(node, dict):
            opening, closing = "{", "}"
            items = [(json.dumps(key) + ": ", node[key]) for key in _sorted_keys(node)]
        else:
            opening, closing = "[", "]"
            items = [("", item) for item in node]
        for i, (prefix, item) in enumerate(items):
            yield ("," if i else opening) + inner + prefix
            yield from _json_chunks(item, inner)
        yield newline + closing


def json_text(doc) -> str:
    """``json.dumps(doc, indent=2, sort_keys=True)`` and a newline, where
    each ``Records`` in ``doc`` stands for the list of its plain records."""
    return "".join([*_json_chunks(doc, "\n"), "\n"])


def csv_text(header, rows) -> str:
    """A header line and one line per row, floats in ``repr`` form."""
    cell = lambda v: repr(float(v)) if isinstance(v, float) else str(v)
    lines = [",".join(header)] + [",".join(map(cell, row)) for row in rows]
    return "\n".join(lines) + "\n"


def read_text(source) -> str:
    """The whole text of a path (``str`` or path-like) or an open text file."""
    if isinstance(source, (str, os.PathLike)):
        with open(source, encoding="utf-8") as fh:
            return fh.read()
    return source.read()


def read_csv(source, header, what: str, headed: bool = True):
    """The numbers of a CSV source, one row per non-blank line after the
    header line (when ``headed``), and the line number of each row.

    Raises ``ValueError`` unless the first line is ``header`` (when
    ``headed``), every other non-blank line has as many fields and every
    field is a finite decimal number; the message names the table and line."""
    reader = csv.reader(io.StringIO(read_text(source)))
    if headed and next(reader, None) != list(header):
        raise ValueError(f"{what} CSV must start with '{','.join(header)}'")
    rows, lines = [], []
    for row in reader:
        if not row:
            continue
        where = f"{what} CSV line {reader.line_num}"
        if len(row) != len(header):
            raise ValueError(f"{where}: expected {len(header)} fields, got {len(row)}")
        bad = [c for c in row if not (_NUMBER.fullmatch(c) and math.isfinite(float(c)))]
        if bad:
            raise ValueError(f"{where}: could not convert string to float: {bad[0]!r} "
                             "(not plain decimal or scientific notation, or non-finite)")
        rows.append([float(cell) for cell in row])
        lines.append(reader.line_num)
    return rows, lines
