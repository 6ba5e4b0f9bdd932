"""PAF1 snapshot format: JSON header, newline, raw little-endian float64 block.

Round trips are bit exact: the value block is the C-order flattening of the
field's values (axes first, components last).
"""

from __future__ import annotations

import json
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


def read_paf(path: str | Path) -> Field:
    with open(path, "rb") as fh:
        header_line = fh.readline()
        blob = fh.read()
    header = json.loads(header_line.decode("utf-8"))
    if header.get("format") != _MAGIC:
        raise ValueError(f"{path}: not a {_MAGIC} file")
    if header.get("byte_order") != "little" or header.get("scalar") != "float64":
        raise ValueError(f"{path}: unsupported scalar encoding")
    axes = tuple(
        Axis(
            name=a["name"],
            length=float(a["length"]),
            points=int(a["points"]),
            periodic=bool(a["periodic"]),
            origin=float(a.get("origin", 0.0)),
        )
        for a in header["axes"]
    )
    grid = Grid(axes, Frame(header["frame"]))
    components = int(header["components"])
    count = int(header["value_count"])
    if len(blob) != count * 8:
        raise ValueError(f"{path}: value block holds {len(blob)} bytes, "
                         f"expected {count * 8} for {count} float64 values")
    values = np.frombuffer(blob, dtype="<f8")
    return Field(grid, values.reshape(grid.shape + (components,)), components)
