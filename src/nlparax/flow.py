"""Isentropic compressible Navier-Stokes / Euler reference solver.

System (periodic 1D to 3D, quadratic state law):

  d rho/dt + div(rho v) = 0
  rho (dv/dt + (v . grad) v) = -grad p(rho) + eps*nu Lap v
  p(rho) = c^2 (rho - rho0) + (gamma-1) c^2 / (2 rho0) (rho - rho0)^2

Mass is integrated in flux form (spectral divergence kills the zero mode, so
total mass is conserved to rounding), momentum in primitive velocity form and
re-multiplied by rho for output.  The dominant viscous term (eps nu/rho0) Lap v
is propagated exactly per mode; the density-dependent rest of the viscous
force is advanced explicitly together with the convective and pressure terms
(explicit midpoint, Strang split around the viscous half-steps).  The march
carries the density in physical space, where the positivity checks read it,
and the velocity as its spectrum: each stage transforms v back and rho v, p
and its momentum tendency forward once, and the velocity returns to
physical space only at the samples the march returns.  The transforms of
one direction in a stage go through the spectral core in one call: the
velocity's derivatives and the fluxes as stacks (see models.base.through),
and div(rho v) and grad p formed in place of the flux spectra they read.

Entropy diagnostics use the convex pair

  eta = rho h(rho) + rho |v|^2 / 2,  h'(rho) = p(rho)/rho^2,  q = v (eta + p)

with h normalized so that eta(rho0, 0) = 0.  Smooth admissible solutions
satisfy d eta/dt + div q - eps nu v . Lap v <= 0; on a torus the decay-at-
infinity boundary terms of the usual admissibility definition vanish
identically.  A reference pressure p0 would enter the system only through
grad p and would add the affine term p0 (rho/rho0 - 1) to eta, which drops
out of that inequality, so the state law carries none.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fields import Field, Frame, Grid
from .models.base import (
    ModelCoefficients,
    PositivityLost,
    StepControl,
    Work,
    full,
    march,
    member_axis,
    only_row,
    require_positive,
    through,
)
from .spectral import Spectral

__all__ = [
    "FlowState",
    "pressure_from_density",
    "solve_flow",
    "solve_flow_rows",
    "entropy_pair",
    "entropy_gradient",
    "entropy_hessian",
    "admissibility_residual",
]


@dataclass(frozen=True)
class FlowState:
    """Conservative variables (rho, rho*v) on one physical periodic grid."""

    rho: Field
    momentum: Field

    def __post_init__(self) -> None:
        if self.rho.grid != self.momentum.grid:
            raise ValueError("rho and momentum must share one grid")
        if self.momentum.components != len(self.rho.grid.axes):
            raise ValueError("momentum needs one component per grid axis")
        if np.min(self.rho.values) <= 0.0:
            raise ValueError("density must be positive everywhere")

    @property
    def grid(self) -> Grid:
        return self.rho.grid

    def velocity(self) -> Field:
        return Field(self.grid, self.momentum.values / self.rho.values,
                     self.momentum.components)

    @classmethod
    def from_primitive(cls, rho: Field, v: Field) -> "FlowState":
        return cls(rho, Field(rho.grid, v.values * rho.values, v.components))


def pressure_from_density(coeff: ModelCoefficients,
                          rho: np.ndarray) -> np.ndarray:
    if np.min(rho) <= 0.0:
        raise ValueError("density must be positive")
    return _pressure(rho, _state_law(coeff), None, None)


def _state_law(coeff: ModelCoefficients) -> tuple[float, float, float]:
    """rho0, c^2 and (gamma-1) c^2 / (2 rho0): p(rho) = c^2 (rho - rho0)
    + (gamma-1) c^2 / (2 rho0) (rho - rho0)^2."""
    c2 = coeff.c**2
    return coeff.rho0, c2, (coeff.gamma - 1.0) * c2 / (2.0 * coeff.rho0)


def _pressure(rho: np.ndarray, law, scratch, out) -> np.ndarray:
    """p(rho) of a density known to be positive under the state law's
    constants law, into out unless it is None, its intermediate in scratch
    (an array of rho's shape) unless it is None."""
    rho0, c2, quad = law
    dr = np.subtract(rho, rho0, scratch)
    p = np.multiply(c2, dr, out)
    p += np.multiply(quad, np.square(dr, scratch), scratch)
    return p


def _dpressure(coeff: ModelCoefficients, rho: np.ndarray) -> np.ndarray:
    c2 = coeff.c**2
    return c2 + (coeff.gamma - 1.0) * c2 / coeff.rho0 * (rho - coeff.rho0)


class _FlowStepper:
    """Explicit midpoint for (rho, v) between two exact viscous half steps.

    A march builds it for the member rows it steps, from one eps and one
    step size per row, and again for the survivors.  The carried state is
    (rho, vh): the density, and the spectrum of the velocity.  Each stage
    makes two calls each way, each on the stacks of one block: v and its
    derivatives back to physical space, rho v and p forward, their
    derivatives back, and the velocity tendency forward, in the layout of
    models.base.prepared.  Velocities travel stacked, one component per
    leading index.
    """

    #: the leading carried arrays the march keeps physical: the density
    physical = 1

    def __init__(self, sp: Spectral, coeff: ModelCoefficients, eps, dt):
        self.sp, self.dt = sp, dt
        self.ndim = nd = len(sp.shape)
        eps, dt = member_axis(eps, nd), member_axis(dt, nd)
        # the shapes of the rows' scalar spectra, their physical arrays,
        # and the velocity's spectra and physical arrays
        spectra, points = (len(eps), *sp.ksq.shape), (len(eps), *sp.shape)
        v_spectra, v_points = (nd, *spectra), (nd, *points)
        # The multipliers that depend on eps or the step have a member axis;
        # real multipliers of spectra are stored complex.
        self.visc = full(sp, eps * coeff.nu, v_points)
        self.law = tuple(full(sp, c, points) for c in _state_law(coeff))
        self.inv_rho0 = full(sp, 1.0 / coeff.rho0, v_points)
        # exact decay of the eps*nu/rho0 Lap v part per rfftn mode
        visc0 = eps * coeff.nu / coeff.rho0
        keep = sp.keep().astype(complex)
        self.keep = full(sp, keep, spectra)
        self.keep_v = full(sp, keep, v_spectra)
        self.neg_ksq = full(sp, (-sp.ksq).astype(complex), v_spectra)
        self.decay_half = full(
            sp, np.exp(-visc0 * sp.ksq * dt / 2.0).astype(complex),
            v_spectra)
        self.half_dt = full(sp, 0.5 * dt, points)
        self.full_dt = full(sp, dt, points)
        self.half_dt_h = full(sp, 0.5 * dt, v_spectra, complex)
        self.full_dt_h = full(sp, dt, v_spectra, complex)
        self.ik = [full(sp, k, spectra) for k in sp.ik]
        self.ik_v = [full(sp, k, v_spectra) for k in sp.ik]
        self.work = Work(
            sp, vh=(v_spectra, complex), d1vh=(v_spectra, complex),
            velocity=((nd + 2, *v_spectra), complex),
            fields=((nd + 2, *v_points), float),
            fluxes=((nd + 1, *points), float),
            spectra=((nd + 1, *spectra), complex),
            div_dp=((nd + 1, *points), float),
            rho_m=(points, float),
            factor=(v_points, float), dr=(points, float))

    def _velocity_fields(self, vh: np.ndarray) -> np.ndarray:
        """grad v (one stack per axis), Lap v and v, from the spectrum vh in
        one inverse call."""
        stacks = [(np.multiply, k, vh) for k in (*self.ik_v, self.neg_ksq)]
        stacks.append(vh)
        return through(self.sp, stacks, vh.shape, self.work.velocity,
                       self.work.fields, inverse=True)

    def _tendency(self, rho: np.ndarray, fields: np.ndarray, out):
        """div(rho v), dealiased, and the spectrum of dv/dt, into out, at
        rho and the velocity whose fields _velocity_fields gave.  rho must
        be positive."""
        sp, keep, ik, work = self.sp, self.keep, self.ik, self.work
        nd = self.ndim
        v, dv = fields[-1], fields[:nd]
        # stacks: rho v (one per axis) and p
        stacks = [(np.multiply, rho, v[j]) for j in range(nd)]
        stacks.append((self._pressure, rho, work.dr))
        spectra = through(sp, stacks, rho.shape, work.fluxes, work.spectra)
        # the advection and viscous terms, formed in place as the sum below
        # would form them, so that v and its derivatives need no copies: dv[j]
        # times v[j], every j in one call
        dv *= v[:, np.newaxis]
        # correction beyond the exactly-propagated eps*nu/rho0 part; rho_v is
        # rho with the velocity's component axis, which numpy takes faster
        # than it broadcasts
        rho_v = rho[np.newaxis]
        lap = fields[nd]
        lap *= self.visc
        factor = np.reciprocal(rho_v, work.factor)
        lap *= np.subtract(factor, self.inv_rho0, factor)
        # the dealiased div(rho v) and grad p (one per axis), formed in place
        # of the spectra they read, so that the inverse call holds no other
        # input
        div, ph = spectra[0], spectra[nd]
        div *= ik[0]
        for j in range(1, nd):
            div += ik[j] * spectra[j]
        div *= keep
        for j in range(nd):
            np.multiply(ik[j], ph, spectra[1 + j])
        div_dp = sp.ifft(spectra, out=work.div_dp)
        del spectra, div, ph
        div_m, acc = div_dp[0], div_dp[1:]
        # -grad p / rho
        acc = np.negative(acc, acc)
        acc /= rho_v
        for j in range(nd):
            acc -= dv[j]
        acc += lap
        del fields, v, dv, lap  # freed before the last transform
        acc_h = sp.fft(acc, out=out)
        return div_m, np.multiply(self.keep_v, acc_h, acc_h)

    def _pressure(self, rho: np.ndarray, scratch, out) -> np.ndarray:
        return _pressure(rho, self.law, scratch, out)

    def _lost_mid(self, n: int, row: int, least: float):
        return PositivityLost(
            f"density positivity lost during midpoint stage at t = "
            f"{(n - 0.5) * self.dt[row]:.6g} (min rho = {least:.3e})")

    def _lost(self, n: int, row: int, least: float):
        return PositivityLost(f"density positivity lost at t = "
                              f"{n * self.dt[row]:.6g} (min rho = "
                              f"{least:.3e})")

    def step(self, carried, n: int):
        """Advance (rho, vh) from step n - 1 to step n."""
        work = self.work
        rho, vh = carried
        vh = np.multiply(vh, self.decay_half, work.vh)
        # d rho/dt = -div(rho v): rho + h*d rho/dt is rho - h*div(rho v)
        div1, d1vh = self._tendency(rho, self._velocity_fields(vh),
                                    work.d1vh)
        rho_m = np.subtract(rho, np.multiply(self.half_dt, div1, div1),
                            work.rho_m)
        del div1  # freed before the second stage's peak
        require_positive(rho_m, self.sp, self._lost_mid, n)
        d1vh = np.multiply(self.half_dt_h, d1vh, d1vh)
        fields = self._velocity_fields(np.add(vh, d1vh, d1vh))
        del d1vh
        # the new spectrum is the second stage's output, fresh
        div2, d2vh = self._tendency(rho_m, fields, None)
        rho = rho - np.multiply(self.full_dt, div2, div2)
        require_positive(rho, self.sp, self._lost, n)
        d2vh = np.multiply(self.full_dt_h, d2vh, d2vh)
        d2vh = np.add(vh, d2vh, d2vh)
        return rho, np.multiply(d2vh, self.decay_half, d2vh)


def solve_flow(coeff: ModelCoefficients, init: FlowState, t_end: float,
               ctl: StepControl,
               n_samples: int = 2) -> list[tuple[float, FlowState]]:
    """Integrate the isentropic system up to t_end; returns (t, state) pairs."""
    return only_row(solve_flow_rows([(coeff, init, t_end, ctl, n_samples)]))


def solve_flow_rows(rows) -> list:
    """solve_flow of each row (coeff, init, t_end, ctl, n_samples), the rows
    marched as one batch (see models.base.march): per row its (t, state)
    pairs, or the SolverError that stopped it."""
    members = []
    for coeff, init, t_end, ctl, n_samples in rows:
        grid = init.grid
        if grid.frame is not Frame.PHYSICAL:
            raise ValueError("flow states live on physical-frame grids")
        velocity = init.velocity()
        state = (init.rho.scalar, np.stack(
            [velocity.component(i) for i in range(len(grid.axes))]))
        members.append((coeff, grid, state, t_end, ctl, n_samples))

    def wrap(grid, t, state):
        rho, v = state
        return t, FlowState.from_primitive(
            Field(grid, rho), Field(grid, np.stack(v, axis=-1), len(v)))

    return march(_FlowStepper, members, "flow", wrap)


def _h_constants(coeff: ModelCoefficients):
    """Closed-form primitive of p(rho)/rho^2 for the quadratic state law:
    h(rho) = -A/rho + B log rho + d rho + C0."""
    c2 = coeff.c**2
    d = (coeff.gamma - 1.0) * c2 / (2.0 * coeff.rho0)
    A = -c2 * coeff.rho0 + d * coeff.rho0**2
    B = c2 - 2.0 * d * coeff.rho0
    C0 = A / coeff.rho0 - B * math.log(coeff.rho0) - d * coeff.rho0
    return A, B, d, C0


def _h(coeff: ModelCoefficients, rho: np.ndarray) -> np.ndarray:
    A, B, d, C0 = _h_constants(coeff)
    return -A / rho + B * np.log(rho) + d * rho + C0


def _eta(coeff: ModelCoefficients, U: FlowState) -> np.ndarray:
    """Convex entropy eta = rho h(rho) + rho |v|^2 / 2 on the grid; a
    FlowState's density is positive, so log(rho) is defined."""
    rho = U.rho.scalar
    vsq = np.sum(U.velocity().values ** 2, axis=-1)
    return rho * _h(coeff, rho) + 0.5 * rho * vsq


def entropy_pair(coeff: ModelCoefficients,
                 U: FlowState) -> tuple[Field, Field]:
    """Convex entropy eta and its flux q = v (eta + p)."""
    eta = _eta(coeff, U)
    p = pressure_from_density(coeff, U.rho.scalar)
    q = U.velocity().values * (eta + p)[..., np.newaxis]
    grid = U.grid
    return Field(grid, eta), Field(grid, q, U.momentum.components)


def entropy_gradient(coeff: ModelCoefficients, rho: np.ndarray, v: np.ndarray):
    """d eta / d(rho, m): (H'(rho) - |v|^2/2, v) with H = rho h."""
    h = _h(coeff, rho)
    Hp = h + pressure_from_density(coeff, rho) / rho
    vsq = np.sum(np.atleast_1d(v) ** 2, axis=0)
    return Hp - 0.5 * vsq, np.atleast_1d(v)


def entropy_hessian(coeff: ModelCoefficients, rho: float, v) -> np.ndarray:
    """Hessian of eta in conservative variables (rho, m) at one state:
    [[H''(rho) + |v|^2/rho, -v^T/rho], [-v/rho, (1/rho) Id]]."""
    v = np.atleast_1d(np.asarray(v, dtype=np.float64))
    n = v.size
    Hpp = _dpressure(coeff, np.asarray(rho)) / rho
    out = np.zeros((n + 1, n + 1))
    out[0, 0] = Hpp + np.dot(v, v) / rho
    out[0, 1:] = -v / rho
    out[1:, 0] = -v / rho
    out[1:, 1:] = np.eye(n) / rho
    return out


def admissibility_residual(coeff: ModelCoefficients,
                           trajectory: list[tuple[float, FlowState]]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Spatial integral of d eta/dt - eps nu v . Lap v per sample.

    The div q term of the local inequality is left out: on the torus it
    integrates to zero, since a spectral derivative has zero mean.  The
    time derivative uses central differences across the (uniformly
    sampled) trajectory, so values are reported at interior samples only.
    Returns (times, residuals).
    """
    if len(trajectory) < 3:
        raise ValueError("need at least 3 trajectory samples")
    times = np.array([t for t, _ in trajectory])
    dts = np.diff(times)
    if not np.allclose(dts, dts[0], rtol=1e-8):
        raise ValueError("trajectory must be uniformly sampled in time")
    dt = dts[0]
    grid = trajectory[0][1].grid
    w = grid.cell_volume
    sp = Spectral(grid)
    etas = np.array([np.sum(_eta(coeff, U)) * w for _t, U in trajectory])
    out_t, out_r = [], []
    for m in range(1, len(trajectory) - 1):
        t, U = trajectory[m]
        deta_dt = (etas[m + 1] - etas[m - 1]) / (2.0 * dt)
        vis = 0.0
        if coeff.nu > 0.0:
            v = U.velocity().values
            for i in range(U.momentum.components):
                vis += np.sum(v[..., i] * sp.lap(v[..., i])) * w
        out_t.append(t)
        out_r.append(deta_dt - coeff.eps * coeff.nu * vis)
    return np.array(out_t), np.array(out_r)
