"""PAF1 snapshot format: JSON header, newline, raw little-endian float64 block.

Round trips are bit exact: the value block is the C-order flattening of the
field's values (axes first, components last).
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np

from .fields import Axis, Field, Frame, Grid

__all__ = ["write_paf", "read_paf"]

_MAGIC = "PAF1"


def write_paf(path: str | Path, f: Field) -> None:
    header = {
        "format": _MAGIC,
        "axes": [
            {
                "name": a.name,
                "length": a.length,
                "points": a.points,
                "periodic": a.periodic,
                "origin": a.origin,
            }
            for a in f.grid.axes
        ],
        "frame": f.grid.frame.value,
        "components": f.components,
        "value_count": int(f.values.size),
        "byte_order": "little",
        "scalar": "float64",
    }
    blob = np.ascontiguousarray(f.values, dtype="<f8").tobytes()
    with open(path, "wb") as fh:
        fh.write(json.dumps(header, sort_keys=True).encode("utf-8"))
        fh.write(b"\n")
        fh.write(blob)


#: the JSON values a header entry of each kind may hold; a JSON boolean is
#: accepted only where a boolean is asked for
_JSON_TYPES = {str: str, list: list, Frame: str, bool: bool, int: int,
               float: (int, float)}


def _entry(path, obj, key: str, what: str, kind=str):
    """kind(obj[key]) of a header object, or a ValueError naming the key.

    The entry must hold the JSON type of `kind` already: a header with
    `"periodic": "false"` or `"points": 8.9` is refused, not converted."""
    if not isinstance(obj, dict):
        raise ValueError(f"{path}: {what} is not a JSON object")
    if key not in obj:
        raise ValueError(f"{path}: {what} has no {key!r} entry")
    value = obj[key]
    if (isinstance(value, _JSON_TYPES[kind])
            and (kind is bool or not isinstance(value, bool))):
        try:
            return kind(value)
        except (ValueError, OverflowError):  # no such Frame; int beyond float
            pass
    raise ValueError(f"{path}: {what} entry {key!r} is not a valid "
                     f"{kind.__name__}: {value!r}")


def read_paf(path: str | Path) -> Field:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if not isinstance(header, dict):
        raise ValueError(f"{path}: header is not a JSON object")
    if header.get("format") != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    if header.get("byte_order") != "little" or header.get("scalar") != "float64":
        raise ValueError(f"{path}: unsupported scalar encoding")
    axes = _entry(path, header, "axes", "header", list)
    axes = tuple(
        Axis(
            name=_entry(path, a, "name", f"axis {i}"),
            length=_entry(path, a, "length", f"axis {i}", float),
            points=_entry(path, a, "points", f"axis {i}", int),
            periodic=_entry(path, a, "periodic", f"axis {i}", bool),
            origin=_entry(path, {"origin": 0.0, **a}, "origin", f"axis {i}",
                          float),
        )
        for i, a in enumerate(axes)
    )
    grid = Grid(axes, _entry(path, header, "frame", "header", Frame))
    components = _entry(path, header, "components", "header", int)
    count = _entry(path, header, "value_count", "header", int)
    if components < 1:
        raise ValueError(f"{path}: header entry 'components' must be >= 1: "
                         f"{components!r}")
    expected = math.prod(grid.shape) * components
    if count != expected:
        raise ValueError(f"{path}: header entry 'value_count' {count} "
                         f"disagrees with the axes' 'points' "
                         f"{list(grid.shape)} times 'components' "
                         f"{components} = {expected}")
    if len(blob) != count * 8:
        raise ValueError(f"{path}: value block holds {len(blob)} bytes, "
                         f"expected {count * 8} for {count} float64 values")
    values = np.frombuffer(blob, dtype="<f8")
    return Field(grid, values.reshape(grid.shape + (components,)), components)
