"""Deterministic JSON, CSV and numeric-table emission for run reports.

Three writers: ``write_json`` for reports, ``write_csv`` for record tables,
whose string cells may need csv quoting, and ``write_table`` for numeric
tables, turned to text one column at a time.  Floats are written with repr
(shortest round-trip form), so a numeric field survives CSV -> JSON -> CSV
without loss; non-finite values are serialized as strings in JSON.  A JSON
report's bytes are exactly those of ``json.dumps(jsonable(x), indent=2,
sort_keys=True)`` plus a newline, laid out here without json's per-call
encoder.  Files are written atomically as UTF-8 bytes (temp file, then
rename).
"""

from __future__ import annotations

import contextlib
import csv
import io
import itertools
import math
import os
from dataclasses import fields, is_dataclass
from json.encoder import encode_basestring_ascii


def jsonable(obj):
    """Recursively convert dataclasses, numpy scalars and arrays, and containers.

    A dataclass becomes the fields its repr shows: a ``repr=False`` field stays out of reports.
    A float (numpy's float64 is one) is checked first: report tables are mostly floats.
    """
    if isinstance(obj, float):
        return float(obj) if math.isfinite(obj) else repr(float(obj))
    if is_dataclass(obj) and not isinstance(obj, type):
        return {f.name: jsonable(getattr(obj, f.name)) for f in fields(obj) if f.repr}
    if hasattr(obj, "tolist"):  # a numpy scalar becomes its Python value, an array a (nested) list
        return jsonable(obj.tolist())
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _layout(value, indent: str = "\n") -> str:
    """``json.dumps(value, indent=2, sort_keys=True)`` of the plain values :func:`jsonable` returns; others raise TypeError."""
    if isinstance(value, float):
        return float.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None or isinstance(value, bool):
        return "null" if value is None else "true" if value else "false"
    if isinstance(value, int):
        return int.__repr__(value)
    inner = indent + "  "  # each entry on its own line, two spaces deeper than its container
    if isinstance(value, dict):
        entries = [f"{encode_basestring_ascii(k)}: {_layout(value[k], inner)}" for k in sorted(value)]
        return "{" + inner + ("," + inner).join(entries) + indent + "}" if entries else "{}"
    if isinstance(value, list):
        entries = [_layout(v, inner) for v in value]
        return "[" + inner + ("," + inner).join(entries) + indent + "]" if entries else "[]"
    raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _atomic_write(path, text: str) -> None:
    """Write ``text`` as UTF-8 to a new temp file beside ``path``, then rename it over ``path``.

    The temp file is created with mode 0o666, so the kernel applies the umask
    as for a plain ``open``; O_EXCL keeps it a file this call made.  The
    directory is made only when that create finds none.
    """
    data = memoryview(text.encode("utf-8"))
    directory, name = os.path.split(os.path.abspath(path))
    tmp = os.path.join(directory, f".{name}.{os.urandom(8).hex()}.tmp")
    flags = os.O_WRONLY | os.O_CREAT | os.O_EXCL
    try:
        fd = os.open(tmp, flags, 0o666)
    except FileNotFoundError:
        os.makedirs(directory, exist_ok=True)
        fd = os.open(tmp, flags, 0o666)
    try:
        try:
            while data:  # os.write may write less than it was given
                data = data[os.write(fd, data) :]
        finally:
            os.close(fd)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(FileNotFoundError):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    _atomic_write(path, _layout(jsonable(payload)) + "\n")


def write_csv(path, header: list[str], rows: list[list]) -> None:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow(["" if v is None else str(jsonable(v)) for v in row])
    _atomic_write(path, buf.getvalue())


def _cells(column):
    """A column as text: a tuple of strings (``RadialGrid.radii_text()``) as it is, else each value's float repr."""
    if isinstance(column, tuple) and column and isinstance(column[0], str):
        return column
    if getattr(column, "dtype", None) == float:  # a float64 array's tolist() is already Python floats
        return map(repr, column.tolist())
    return map(repr, map(float, column.tolist() if hasattr(column, "tolist") else column))


def write_table(path, head: str, columns, sep: str) -> str:
    """Write ``head``, then one line per row of ``columns``: each cell's float repr, joined by ``sep``.

    A column of text passes as it is.  Columns of unequal length raise
    ValueError before any file is touched.  Returns the text written.
    """
    rows = map(sep.join, zip(*map(_cells, columns), strict=True))
    text = head + "\n".join(itertools.chain(rows, [""]))  # the "" ends the last row
    _atomic_write(path, text)
    return text
