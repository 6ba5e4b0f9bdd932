"""Snapshot transforms between the physical and the paraxial frames.

Two affine changes of variables link the physical frame (t, x1, x') to the
one-way model frames:

  KZK:  tau = t - x1/c,  z = eps*x1,        y = sqrt(eps)*x'
  NPE:  tau = eps*t,     z = x1 - c*t,      y = sqrt(eps)*x'

and the two paraxial frames are linked by the affine bijection

  z_NPE = -c*tau_KZK,    tau_NPE = eps*tau_KZK + z_KZK/c

Axis naming conventions used throughout the package: physical grids use
("t", "x1", "x2", "x3"), KZK grids ("tau", "y1", "y2") with z as the
evolution variable, NPE grids ("z", "y1", "y2") with tau as the evolution
variable.
"""

from __future__ import annotations

import math

import numpy as np

from .fields import Axis, Field, Frame, Grid

__all__ = ["transform_field"]


#: transverse axes of each frame, in the order a snapshot carries them
_TRANSVERSE = {"physical": ("x2", "x3"), "kzk": ("y1", "y2"),
               "npe": ("y1", "y2")}

# (src, dst) -> (leading axis of the source, leading axis of the target,
# (c, sqrt(eps)) -> (leading-axis scale, transverse scale)); a negative
# leading-axis scale reverses the axis
_CHANGES = {
    ("physical", "kzk"): ("t", "tau", lambda c, se: (1.0, se)),
    ("kzk", "physical"): ("tau", "t", lambda c, se: (1.0, 1.0 / se)),
    ("physical", "npe"): ("x1", "z", lambda c, se: (1.0, se)),
    ("npe", "physical"): ("z", "x1", lambda c, se: (1.0, 1.0 / se)),
    ("kzk", "npe"): ("tau", "z", lambda c, se: (-c, 1.0)),
    ("npe", "kzk"): ("z", "tau", lambda c, se: (-(1.0 / c), 1.0)),
}


def transform_field(f: Field, src: str, dst: str, c: float,
                    eps: float) -> Field:
    """Map a snapshot between coordinate frames.

    physical <-> kzk uses the x1 = 0 line (tau = t), physical <-> npe the
    t = 0 slice (z = x1): the leading axis is renamed and the transverse
    axes are renamed and rescale by sqrt(eps).  kzk <-> npe applies the
    affine bijection z_npe = -c tau_kzk (index reversal plus an axis
    rescale), which is exact on periodic grids and undefined on a bounded
    leading axis.  The snapshot's frame tag must be `src`, and its trailing
    axes must be the transverse axes of `src` in order.
    """
    if (src, dst) not in _CHANGES and src != dst:
        raise ValueError(f"unsupported frame transform {src} -> {dst}")
    if f.grid.frame is not Frame(src):
        raise ValueError(f"{src}->{dst} needs a snapshot in the {src!r} "
                         f"frame, got one in the {f.grid.frame.value!r} frame")
    if not (0 < c < math.inf and 0 < eps < 1):
        raise ValueError(f"transform needs c > 0 and eps > 0, both finite, "
                         f"and eps < 1, got c={c}, eps={eps}")
    if src == dst:
        return f
    lead_src, lead_dst, scales = _CHANGES[src, dst]
    lead, *rest = f.grid.axes
    if lead.name != lead_src:
        raise ValueError(f"{src}->{dst} expects leading axis {lead_src!r}, "
                         f"got {lead.name!r}")
    for a, name in zip(rest, _TRANSVERSE[src]):
        if a.name != name:
            raise ValueError(f"{src}->{dst} expects transverse axes "
                             f"{_TRANSVERSE[src]}, got axis {a.name!r}")
    s, t = scales(c, math.sqrt(eps))
    values = f.values
    if s < 0:
        if not lead.periodic:
            raise ValueError(f"{src}->{dst} reverses the leading axis "
                             f"{lead.name!r}, which must be periodic")
        n = lead.points
        values = np.take(values, (-np.arange(n)) % n, axis=0)
    lead = Axis(lead_dst, lead.length * abs(s), lead.points, lead.periodic,
                lead.origin * s)
    rest = [Axis(name, a.length * t, a.points, a.periodic, a.origin * t)
            for a, name in zip(rest, _TRANSVERSE[dst])]
    return Field(Grid((lead, *rest), Frame(dst)), values, f.components)
