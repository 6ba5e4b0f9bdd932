"""Isentropic compressible Navier-Stokes / Euler reference solver.

System (periodic 1D/2D, quadratic state law):

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
one direction in a stage go through the spectral core in one call.

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
    SolverError,
    StepControl,
    march,
    only_row,
    require_positive,
    resolve_steps,
    rows_share,
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
    return _pressure(coeff, rho)


def _pressure(coeff: ModelCoefficients, rho: np.ndarray) -> np.ndarray:
    """p(rho) of a density known to be positive."""
    c2 = coeff.c**2
    dr = rho - coeff.rho0
    quad = (coeff.gamma - 1.0) * c2 / (2.0 * coeff.rho0)
    return c2 * dr + quad * dr**2


def _dpressure(coeff: ModelCoefficients, rho: np.ndarray) -> np.ndarray:
    c2 = coeff.c**2
    return c2 + (coeff.gamma - 1.0) * c2 / coeff.rho0 * (rho - coeff.rho0)


class _FlowStepper:
    """Explicit midpoint for (rho, v) between two exact viscous half steps.

    The carried state is (rho, vh): the density, and the spectrum of the
    velocity.  Each stage makes two calls each way, each on one block of
    rows: v and its derivatives back to physical space, rho v and p
    forward, their derivatives back, and the velocity tendency forward.
    Velocities travel stacked, one component per leading index.
    """

    #: the eps-dependent multipliers, one member row each; see base.march
    per_row = ("visc", "decay_half", "half_dt", "full_dt")

    def __init__(self, grid: Grid, coeff: ModelCoefficients, dt: float):
        self.coeff = coeff
        self.dt = dt
        self.sp = Spectral(grid)
        self.ndim = len(grid.axes)
        # Real multipliers of spectra are stored complex, and the step's
        # scalars as arrays of shape (1, ..., 1), which stack into one value
        # per member row: numpy would convert them on every call, to the
        # same values.
        ones = (1,) * self.ndim
        visc = coeff.eps * coeff.nu
        self.viscous = visc != 0.0
        self.visc = np.full(ones, visc)
        self.inv_rho0 = 1.0 / coeff.rho0
        # exact decay of the eps*nu/rho0 Lap v part per rfftn mode
        visc0 = coeff.eps * coeff.nu / coeff.rho0
        self.decays = visc0 != 0.0
        self.keep = self.sp.keep().astype(complex)
        self.neg_ksq = (-self.sp.ksq).astype(complex)
        self.decay_half = np.exp(
            -visc0 * self.sp.ksq * dt / 2.0).astype(complex)
        self.half_dt = np.full(ones, 0.5 * dt)
        self.full_dt = np.full(ones, dt)

    def _velocity_fields(self, vh: np.ndarray) -> np.ndarray:
        """grad v (one stack per axis), Lap v when viscous, and v, from the
        spectrum vh in one inverse call."""
        ik = self.sp.ik
        block = np.empty((len(ik) + self.viscous + 1, *vh.shape), complex)
        for j, k in enumerate(ik):
            np.multiply(k, vh, out=block[j])
        if self.viscous:
            np.multiply(self.neg_ksq, vh, out=block[-2])
        block[-1] = vh
        return self.sp.ifft(block)

    def _tendency(self, rho: np.ndarray, fields: np.ndarray):
        """div(rho v), dealiased, and the spectrum of dv/dt, at rho and the
        velocity whose fields _velocity_fields gave.  rho must be
        positive."""
        coeff, sp, keep, ik = self.coeff, self.sp, self.keep, self.sp.ik
        nd = self.ndim
        v, dv = fields[-1], fields[:nd]
        # rows: rho v (one per axis) and p
        flux = np.empty((nd + 1, *rho.shape))
        np.multiply(rho, v, out=flux[:nd])
        flux[nd] = _pressure(coeff, rho)
        # the advection and viscous terms, formed in place as the sum below
        # would form them, so that v and its derivatives need no copies
        for j in range(nd):
            dv[j] *= v[j]
        lap = fields[nd] if self.viscous else None
        if lap is not None:
            # correction beyond the exactly-propagated eps*nu/rho0 part
            lap *= self.visc
            lap *= 1.0 / rho - self.inv_rho0
        spectra = sp.fft(flux)
        del flux
        mh, ph = spectra[:nd], spectra[nd]
        # rows: the dealiased div(rho v), and grad p (one per axis)
        block = np.empty((nd + 1, *ph.shape), complex)
        np.multiply(keep, sum(k * m for k, m in zip(ik, mh)), out=block[0])
        for j, k in enumerate(ik):
            np.multiply(k, ph, out=block[1 + j])
        del spectra, mh, ph
        div_dp = sp.ifft(block)
        del block
        div_m, acc = div_dp[0], div_dp[1:]
        # -grad p / rho
        acc = np.negative(acc, out=acc)
        acc /= rho
        for adv in dv:
            acc -= adv
        if lap is not None:
            acc += lap
        del fields, v, dv, lap  # freed before the last transform
        acc_h = sp.fft(acc)
        return div_m, np.multiply(keep, acc_h, out=acc_h)

    def carry(self, state):
        """(rho, vh) of the physical state (rho, v), v stacked."""
        rho, v = state
        return rho, self.sp.fft(v)

    def sample(self, carried):
        """The physical state (rho, v) of (rho, vh)."""
        rho, vh = carried
        return rho, self.sp.ifft(vh)

    def step(self, carried, n: int):
        """Advance (rho, vh) from step n - 1 to step n."""
        rho, vh = carried
        if self.decays:
            vh = vh * self.decay_half
        # d rho/dt = -div(rho v): rho + h*d rho/dt is rho - h*div(rho v)
        div1, d1vh = self._tendency(rho, self._velocity_fields(vh))
        rho_m = rho - np.multiply(self.half_dt, div1, out=div1)
        del div1  # freed before the second stage's peak
        require_positive(rho_m, self.sp, lambda _row, _min: PositivityLost(
            "density positivity lost during midpoint stage"))
        d1vh = np.multiply(self.half_dt, d1vh, out=d1vh)
        fields = self._velocity_fields(np.add(vh, d1vh, out=d1vh))
        del d1vh
        div2, d2vh = self._tendency(rho_m, fields)
        rho = rho - np.multiply(self.full_dt, div2, out=div2)
        require_positive(rho, self.sp, lambda row, least: PositivityLost(
            f"density positivity lost at t = "
            f"{n * float(self.full_dt.flat[row]):.6g} "
            f"(min rho = {least:.3e})"))
        d2vh = np.multiply(self.full_dt, d2vh, out=d2vh)
        d2vh = np.add(vh, d2vh, out=d2vh)
        return rho, np.multiply(d2vh, self.decay_half, out=d2vh)


def solve_flow(coeff: ModelCoefficients, init: FlowState, t_end: float,
               ctl: StepControl,
               n_samples: int = 2) -> list[tuple[float, FlowState]]:
    """Integrate the isentropic system up to t_end; returns (t, state) pairs."""
    return only_row(solve_flow_rows([(coeff, init, t_end, ctl, n_samples)]))


def solve_flow_rows(rows) -> list:
    """solve_flow of each row (coeff, init, t_end, ctl, n_samples), the rows
    marched as one batch (see models.base.march): per row its (t, state)
    pairs, or the SolverError that stopped it."""
    grid = rows[0][1].grid
    rows_share([row[0] for row in rows], [row[1].grid for row in rows])
    if grid.frame is not Frame.PHYSICAL:
        raise ValueError("flow states live on physical-frame grids")
    ndim = len(grid.axes)
    marches = []
    for coeff, init, t_end, ctl, n_samples in rows:
        nsteps, dt = resolve_steps(t_end, ctl)
        velocity = init.velocity()
        state = (init.rho.scalar,
                 np.stack([velocity.component(i) for i in range(ndim)]))
        marches.append((_FlowStepper(grid, coeff, dt), state, nsteps,
                        n_samples))
    return [done if isinstance(done, SolverError) else
            [(t, FlowState.from_primitive(
                Field(grid, rho), Field(grid, np.stack(v, axis=-1), ndim)))
             for t, (rho, v) in done]
            for done in march(marches, "flow")]


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
    """Convex entropy eta = rho h(rho) + rho |v|^2 / 2 on the grid; refuses
    a density that is not positive."""
    rho = U.rho.scalar
    if np.min(rho) <= 0.0:
        raise ValueError("density must be positive")
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
