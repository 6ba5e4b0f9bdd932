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
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .fields import Field, Frame, Grid

__all__ = [
    "FrameKind",
    "FrameMap",
    "map_coordinates",
    "kzk_npe_bijection",
    "bijection_transport_derivatives",
    "evaluate_profile_in_physical",
    "trig_resample",
]


class FrameKind(Enum):
    KZK_PARAXIAL = "kzk"
    NPE_PARAXIAL = "npe"


@dataclass(frozen=True)
class FrameMap:
    kind: FrameKind
    c: float
    eps: float

    def __post_init__(self) -> None:
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
        if fm.kind is FrameKind.KZK_PARAXIAL:
            return (t - x1 / c, eps * x1, *[se * v for v in xp])
        return (eps * t, x1 - c * t, *[se * v for v in xp])
    if direction == "inverse":
        tau, z, *y = pt
        if fm.kind is FrameKind.KZK_PARAXIAL:
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


def trig_resample(values: np.ndarray, ax: int, points: int, length: float,
                  origin: float, targets: np.ndarray) -> np.ndarray:
    """Evaluate the trigonometric interpolant of periodic samples at arbitrary
    positions along one array axis (exact for band-limited data)."""
    targets = np.atleast_1d(np.asarray(targets, dtype=np.float64))
    fh = np.fft.rfft(values, axis=ax) / points
    nmodes = fh.shape[ax]
    w = np.full(nmodes, 2.0)
    w[0] = 1.0
    if points % 2 == 0:
        w[-1] = 1.0
    theta = 2.0 * np.pi * (targets - origin) / length
    E = np.exp(1j * np.outer(theta, np.arange(nmodes)))  # (M, nmodes)
    moved = np.moveaxis(fh, ax, 0) * w[:, None] if fh.ndim > 1 else fh * w
    if fh.ndim == 1:
        out = np.real(E @ moved)
        return out
    flat = moved.reshape(nmodes, -1)
    out = np.real(E @ flat).reshape((targets.size,) + moved.shape[1:])
    return np.moveaxis(out, 0, ax)


# Correspondence profile-axis -> physical-axis for each paraxial frame.
_AXIS_SOURCE = {
    FrameKind.KZK_PARAXIAL: {"tau": "t", "y1": "x2", "y2": "x3"},
    FrameKind.NPE_PARAXIAL: {"z": "x1", "y1": "x2", "y2": "x3"},
}


def evaluate_profile_in_physical(profile: Field, fm: FrameMap, phys: Grid,
                                 evol_value: float = 0.0) -> Field:
    """Sample a paraxial profile (a snapshot at one value of its evolution
    variable) on a physical grid.

    Supported slices are the ones the experiments need: t = 0 slices for NPE
    profiles and x1 = 0 lines for KZK profiles (the evolution coordinate must
    be constant over the physical grid; anything else raises).  Profile
    axes are resampled trigonometrically, so every one must be periodic.
    Physical coordinates that are not axes of the target grid are zero.
    """
    if phys.frame is not Frame.PHYSICAL:
        raise ValueError("target grid must be in the physical frame")
    se = math.sqrt(fm.eps)
    phys_names = {a.name for a in phys.axes}

    # The evolution coordinate (eps*x1 for KZK, eps*t for NPE) is zero on
    # this slice and must equal the profile's evolution value.
    if fm.kind is FrameKind.KZK_PARAXIAL:
        if "x1" in phys_names:
            raise ValueError("KZK profiles are evaluated on x1 = 0 lines; "
                             "grids with an x1 axis are unsupported")
    else:
        if "t" in phys_names:
            raise ValueError("NPE profiles are evaluated on t = 0 slices; "
                             "grids with a t axis are unsupported")
    if abs(evol_value) > 1e-12:
        raise ValueError(
            f"slice evolution coordinate 0.0 does not match the "
            f"profile's evolution value {evol_value}"
        )

    source = _AXIS_SOURCE[fm.kind]
    values = profile.values
    squeeze_axes = []
    for k, pax in enumerate(profile.grid.axes):
        src = source.get(pax.name)
        if src is None:
            raise ValueError(f"unrecognized paraxial axis {pax.name!r}")
        if not pax.periodic:
            raise ValueError(f"profile axis {pax.name!r} is bounded; only "
                             "periodic profile axes can be resampled")
        if src in phys_names:
            coords = phys.axis(src).coordinates()
        else:
            coords = np.array([0.0])
            squeeze_axes.append(k)
        # Map physical coordinates to this profile axis: tau = t - x1/c on
        # x1 = 0 and z = x1 - c t on t = 0 are the coordinates themselves,
        # transverse axes scale as y = sqrt(eps) x'.
        targets = coords if pax.name in ("tau", "z") else se * coords
        values = trig_resample(values, k, pax.points, pax.length,
                               pax.origin, targets)
    for k in sorted(squeeze_axes, reverse=True):
        values = np.squeeze(values, axis=k)
    expected = phys.shape + (profile.components,)
    if values.shape != expected:
        raise ValueError(
            f"physical grid axes {sorted(phys_names)} do not match the "
            f"profile axes {[a.name for a in profile.grid.axes]}"
        )
    return Field(phys, values, profile.components)
