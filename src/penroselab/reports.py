"""Deterministic JSON and CSV emission for run reports.

Floats are written with repr (shortest round-trip form), so a numeric field
survives CSV -> JSON -> CSV without loss; non-finite values are serialized as
strings in JSON.  Files are written atomically (temp file, then rename).
"""

from __future__ import annotations

import csv
import json
import math
import os
import tempfile
from dataclasses import asdict, is_dataclass


def jsonable(obj):
    """Recursively convert dataclasses, numpy scalars and containers."""
    if is_dataclass(obj) and not isinstance(obj, type):
        return jsonable(asdict(obj))
    if hasattr(obj, "item") and not isinstance(obj, (str, bytes)):
        try:
            obj = obj.item()
        except (AttributeError, ValueError):
            pass
    if isinstance(obj, float):
        return obj if math.isfinite(obj) else repr(obj)
    if isinstance(obj, dict):
        return {str(k): jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [jsonable(v) for v in obj]
    return obj


def _atomic_write(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path)) or "."
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def write_json(path, payload) -> None:
    _atomic_write(path, json.dumps(jsonable(payload), indent=2, sort_keys=True) + "\n")


def _cell(value) -> str:
    if isinstance(value, bool):
        return str(value)
    if value is None:
        return ""
    if isinstance(value, float):
        return repr(float(value))
    if hasattr(value, "item") and not isinstance(value, (str, bytes)):
        return _cell(value.item())
    return str(value)


def write_csv(path, header: list[str], rows: list[list]) -> None:
    import io

    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([_cell(v) for v in row])
    _atomic_write(path, buf.getvalue())
