"""Text formats of the artifacts, and the one rule for reading an input.

JSON documents are written with sorted keys, an indent of 2 and a trailing
newline; CSV tables as a header line and one line per row, floats in exact
``repr`` form.  The same values therefore give the same bytes.  A CSV cell
read back is a finite number in plain decimal or scientific notation, not
``inf``, ``nan`` or ``1_000``.  An input source is a path or an open text
file, and a ``str`` is always a path: inline text goes through ``io.StringIO``.
"""

import csv
import io
import json
import math
import os
import re

__all__ = ["json_text", "csv_text", "read_text", "read_csv"]

_NUMBER = re.compile(r"\s*[+-]?(\d+\.?\d*|\.\d+)([eE][+-]?\d+)?\s*", re.ASCII)


def json_text(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


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
