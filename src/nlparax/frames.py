"""Paraxial coordinate frames and the KZK<->NPE bijection.

Two affine changes of variables link the physical frame (t, x1, x') to the
one-way model frames:

  KZK:  tau = t - x1/c,  z = eps*x1,        y = sqrt(eps)*x'
  NPE:  tau = eps*t,     z = x1 - c*t,      y = sqrt(eps)*x'

and the two paraxial frames are linked by the affine bijection

  z_NPE = -c*tau_KZK,    tau_NPE = eps*tau_KZK + z_KZK/c

with the paired operator transform d/dtau_NPE = c d/dz_KZK and
d/dz_NPE = -(1/c) d/dtau_KZK.

Axis naming conventions used throughout the package: physical grids use
("t", "x1", "x2", "x3"), KZK grids ("tau", "y1", "y2") with z as the
evolution variable, NPE grids ("z", "y1", "y2") with tau as the evolution
variable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .fields import Axis, Field, Frame, Grid

__all__ = [
    "FrameMap",
    "map_coordinates",
    "kzk_npe_bijection",
    "bijection_transport_derivatives",
    "transform_field",
]


@dataclass(frozen=True)
class FrameMap:
    """The change of variables from the physical frame to the paraxial
    frame `kind` (Frame.KZK or Frame.NPE)."""

    kind: Frame
    c: float
    eps: float

    def __post_init__(self) -> None:
        if self.kind is Frame.PHYSICAL:
            raise ValueError("FrameMap kind must be a paraxial frame "
                             "(Frame.KZK or Frame.NPE)")
        if self.c <= 0:
            raise ValueError("sound speed c must be > 0")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")


def map_coordinates(fm: FrameMap, direction: str, point) -> tuple[float, ...]:
    """Apply the paraxial map (direction='forward': physical -> paraxial,
    'inverse': paraxial -> physical) to one coordinate tuple.

    Physical tuples are (t, x1, x2, ..) and paraxial tuples (tau, z, y1, ..);
    both have the same arity (2 or 3 or 4 entries).
    """
    pt = tuple(float(v) for v in point)
    if len(pt) < 2 or len(pt) > 4:
        raise ValueError(f"coordinate tuple must have 2-4 entries, got {len(pt)}")
    c, eps = fm.c, fm.eps
    se = math.sqrt(eps)
    if direction == "forward":
        t, x1, *xp = pt
        if fm.kind is Frame.KZK:
            return (t - x1 / c, eps * x1, *[se * v for v in xp])
        return (eps * t, x1 - c * t, *[se * v for v in xp])
    if direction == "inverse":
        tau, z, *y = pt
        if fm.kind is Frame.KZK:
            x1 = z / eps
            return (tau + x1 / c, x1, *[v / se for v in y])
        t = tau / eps
        return (t, z + c * t, *[v / se for v in y])
    raise ValueError(f"direction must be 'forward' or 'inverse', got {direction!r}")


def kzk_npe_bijection(direction: str, point, c: float, eps: float) -> tuple[float, float]:
    """Affine bijection between (tau, z) pairs of the two paraxial frames."""
    tau, z = (float(point[0]), float(point[1]))
    if direction == "kzk_to_npe":
        return (eps * tau + z / c, -c * tau)
    if direction == "npe_to_kzk":
        tau_k = -z / c
        z_k = c * (tau - eps * tau_k)
        return (tau_k, z_k)
    raise ValueError(
        f"direction must be 'kzk_to_npe' or 'npe_to_kzk', got {direction!r}"
    )


def bijection_transport_derivatives(direction: str, d_tau, d_z, c: float):
    """Paired operator transform of the bijection.

    Given the (d/dtau F, d/dz F) pair of a field in the source frame, return
    the derivative pair of the transported field in the target frame:

      kzk_to_npe: (d/dtau_N, d/dz_N) = (c d/dz_K, -(1/c) d/dtau_K)
      npe_to_kzk: (d/dtau_K, d/dz_K) = (-c d/dz_N, (1/c) d/dtau_N)

    Accepts Fields or arrays.
    """
    if direction == "kzk_to_npe":
        return (c * d_z, (-1.0 / c) * d_tau)
    if direction == "npe_to_kzk":
        return ((-c) * d_z, (1.0 / c) * d_tau)
    raise ValueError(
        f"direction must be 'kzk_to_npe' or 'npe_to_kzk', got {direction!r}"
    )


#: transverse axes of each frame, in the order a snapshot carries them
_TRANSVERSE = {"physical": ("x2", "x3"), "kzk": ("y1", "y2"),
               "npe": ("y1", "y2")}

# (src, dst) -> (leading axis of the source, leading axis of the target)
_LEADING_AXES = {
    ("physical", "kzk"): ("t", "tau"),
    ("kzk", "physical"): ("tau", "t"),
    ("physical", "npe"): ("x1", "z"),
    ("npe", "physical"): ("z", "x1"),
    ("kzk", "npe"): ("tau", "z"),
    ("npe", "kzk"): ("z", "tau"),
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
    if (src, dst) not in _LEADING_AXES and src != dst:
        raise ValueError(f"unsupported frame transform {src} -> {dst}")
    if f.grid.frame is not Frame(src):
        raise ValueError(f"{src}->{dst} needs a snapshot in the {src!r} "
                         f"frame, got one in the {f.grid.frame.value!r} frame")
    if src == dst:
        return f
    if not (c > 0 and eps > 0):
        raise ValueError(f"transform needs c > 0 and eps > 0, got c={c}, "
                         f"eps={eps}")
    lead_src, lead_dst = _LEADING_AXES[src, dst]
    lead, *rest = f.grid.axes
    if lead.name != lead_src:
        raise ValueError(f"{src}->{dst} expects leading axis {lead_src!r}, "
                         f"got {lead.name!r}")
    for a, name in zip(rest, _TRANSVERSE[src]):
        if a.name != name:
            raise ValueError(f"{src}->{dst} expects transverse axes "
                             f"{_TRANSVERSE[src]}, got axis {a.name!r}")
    values = f.values
    if "physical" in (src, dst):
        se = math.sqrt(eps)
        s, prefix, first = ((se, "y", 1) if src == "physical"
                            else (1.0 / se, "x", 2))
        lead = replace(lead, name=lead_dst)
        rest = [Axis(f"{prefix}{i + first}", a.length * s, a.points,
                     a.periodic, a.origin * s) for i, a in enumerate(rest)]
    else:
        if not lead.periodic:
            raise ValueError(f"{src}->{dst} reverses the leading axis "
                             f"{lead.name!r}, which must be periodic")
        s = c if src == "kzk" else 1.0 / c
        lead = Axis(lead_dst, lead.length * s, lead.points,
                    origin=-(lead.origin * s))
        n = lead.points
        values = np.take(values, (-np.arange(n)) % n, axis=0)
    return Field(Grid((lead, *rest), Frame(dst)), values, f.components)
