"""Point maps of the paraxial changes of variables, the oracle that the
axes of `nlparax.frames.transform_field`'s output are checked against.

  KZK:  tau = t - x1/c,  z = eps*x1,        y = sqrt(eps)*x'
  NPE:  tau = eps*t,     z = x1 - c*t,      y = sqrt(eps)*x'

and the bijection z_NPE = -c*tau_KZK, tau_NPE = eps*tau_KZK + z_KZK/c.
"""

import math

from nlparax import Frame


def map_coordinates(kind: Frame, direction: str, point, c: float,
                    eps: float) -> tuple[float, ...]:
    """Apply the paraxial map of frame `kind` (direction='forward':
    physical (t, x1, x2, ..) -> paraxial (tau, z, y1, ..), 'inverse': back)
    to one coordinate tuple."""
    pt = tuple(float(v) for v in point)
    se = math.sqrt(eps)
    if direction == "forward":
        t, x1, *xp = pt
        if kind is Frame.KZK:
            return (t - x1 / c, eps * x1, *[se * v for v in xp])
        return (eps * t, x1 - c * t, *[se * v for v in xp])
    tau, z, *y = pt
    if kind is Frame.KZK:
        x1 = z / eps
        return (tau + x1 / c, x1, *[v / se for v in y])
    t = tau / eps
    return (t, z + c * t, *[v / se for v in y])


def kzk_npe_bijection(direction: str, point, c: float,
                      eps: float) -> tuple[float, float]:
    """Affine bijection between (tau, z) pairs of the two paraxial frames
    (direction 'kzk_to_npe' or 'npe_to_kzk')."""
    tau, z = (float(point[0]), float(point[1]))
    if direction == "kzk_to_npe":
        return (eps * tau + z / c, -c * tau)
    tau_k = -z / c
    return (tau_k, c * (tau - eps * tau_k))


def snapshot_point(src: str, dst: str, point, c: float,
                   eps: float) -> tuple[float, ...]:
    """Target-frame (leading, transverse..) coordinates of the source
    snapshot sample at (leading, transverse..).

    A physical snapshot over t lies on the line x1 = 0 and one over x1 on the
    slice t = 0; a KZK snapshot lies at z = 0 and an NPE one at tau = 0."""
    lead, *xs = point
    if src == "physical":
        t, x1 = (lead, 0.0) if dst == "kzk" else (0.0, lead)
        tau, z, *ys = map_coordinates(Frame(dst), "forward", (t, x1, *xs),
                                      c, eps)
        return (tau if dst == "kzk" else z, *ys)
    tau, z = (lead, 0.0) if src == "kzk" else (0.0, lead)
    if dst == "physical":
        t, x1, *ys = map_coordinates(Frame(src), "inverse", (tau, z, *xs),
                                     c, eps)
        return (t if src == "kzk" else x1, *ys)
    tau, z = kzk_npe_bijection(f"{src}_to_{dst}", (tau, z), c, eps)
    return (z if dst == "npe" else tau, *xs)
