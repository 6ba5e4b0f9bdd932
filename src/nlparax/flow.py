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
    StepControl,
    march,
    resolve_steps,
)
from .spectral import Spectral

__all__ = [
    "FlowState",
    "pressure_from_density",
    "solve_flow",
    "entropy_pair",
    "entropy_gradient",
    "entropy_hessian",
    "admissibility_residual",
    "flux",
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
    velocity.  Each stage makes two calls each way: v and its derivatives
    back to physical space, rho v and p forward, their derivatives back, and
    the velocity tendency forward.  Velocities travel stacked, one component
    per leading index.
    """

    def __init__(self, grid: Grid, coeff: ModelCoefficients, dt: float):
        self.coeff = coeff
        self.dt = dt
        self.sp = Spectral(grid)
        self.ndim = len(grid.axes)
        self.keep = self.sp.keep()
        self.neg_ksq = -self.sp.ksq
        self.visc = coeff.eps * coeff.nu
        # exact decay of the eps*nu/rho0 Lap v part per rfftn mode
        self.visc0 = coeff.eps * coeff.nu / coeff.rho0
        self.decay_half = np.exp(-self.visc0 * self.sp.ksq * dt / 2.0)

    def _velocity_fields(self, vh: np.ndarray):
        """grad v (one stack per axis), Lap v when viscous, and v, from the
        spectrum vh in one inverse call that takes its inputs one at a
        time."""
        def spectra():
            for k in self.sp.ik:
                yield k * vh
            if self.visc != 0.0:
                yield self.neg_ksq * vh
            yield vh

        return self.sp.ifft(spectra())

    def _tendency(self, rho: np.ndarray, fields: list[np.ndarray]):
        """d rho/dt, and the spectrum of dv/dt, at rho and the velocity
        whose fields _velocity_fields gave.  rho must be positive."""
        coeff, sp, keep, ik = self.coeff, self.sp, self.keep, self.sp.ik
        v = fields.pop()
        lap = fields.pop() if self.visc != 0.0 else None
        dv = fields
        flux = rho * v
        # the advection and viscous terms, formed in place as the sum below
        # would form them, so that v and its derivatives need no copies
        for j in range(self.ndim):
            dv[j] *= v[j]
        del v
        if self.visc != 0.0:
            # correction beyond the exactly-propagated eps*nu/rho0 part
            lap *= self.visc
            lap *= 1.0 / rho - 1.0 / coeff.rho0
        mh, ph = sp.fft([flux, _pressure(coeff, rho)])
        del flux
        spectra = [keep * sum(k * m for k, m in zip(ik, mh)),
                   np.stack([k * ph for k in ik])]
        del mh, ph
        div_m, dp = sp.ifft(spectra)
        del spectra
        acc = -dp / rho
        for adv in dv:
            acc -= adv
        if self.visc != 0.0:
            acc += lap
        del dp, dv, lap  # freed before the last transform
        return -div_m, keep * sp.fft(acc)

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
        dt = self.dt
        rho, vh = carried
        if self.visc0 != 0.0:
            vh = vh * self.decay_half
        d1rho, d1vh = self._tendency(rho, self._velocity_fields(vh))
        rho_m = rho + 0.5 * dt * d1rho
        del d1rho  # freed before the second stage's peak
        if rho_m.min() <= 0.0:
            raise PositivityLost("density positivity lost during midpoint stage")
        fields = self._velocity_fields(vh + 0.5 * dt * d1vh)
        del d1vh
        d2rho, d2vh = self._tendency(rho_m, fields)
        rho = rho + dt * d2rho
        if rho.min() <= 0.0:
            raise PositivityLost(
                f"density positivity lost at t = {n * dt:.6g} "
                f"(min rho = {rho.min():.3e})"
            )
        return rho, (vh + dt * d2vh) * self.decay_half


def solve_flow(coeff: ModelCoefficients, init: FlowState, t_end: float,
               ctl: StepControl,
               n_samples: int = 2) -> list[tuple[float, FlowState]]:
    """Integrate the isentropic system up to t_end; returns (t, state) pairs."""
    grid = init.grid
    if grid.frame is not Frame.PHYSICAL:
        raise ValueError("flow states live on physical-frame grids")
    nsteps, dt = resolve_steps(t_end, ctl)
    stepper = _FlowStepper(grid, coeff, dt)
    velocity = init.velocity()
    state = (init.rho.scalar,
             np.stack([velocity.component(i) for i in range(stepper.ndim)]))
    return [(t, FlowState.from_primitive(
                Field(grid, rho),
                Field(grid, np.stack(v, axis=-1), stepper.ndim)))
            for t, (rho, v) in march(stepper, state, nsteps, n_samples,
                                     "flow")]


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


def entropy_pair(coeff: ModelCoefficients,
                 U: FlowState) -> tuple[Field, Field]:
    """Convex entropy eta and its flux q = v (eta + p)."""
    rho = U.rho.scalar
    if np.min(rho) <= 0.0:
        raise ValueError("density must be positive")
    v = U.velocity().values
    vsq = np.sum(v**2, axis=-1)
    eta = rho * _h(coeff, rho) + 0.5 * rho * vsq
    p = pressure_from_density(coeff, rho)
    q = v * (eta + p)[..., np.newaxis]
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


def flux(coeff: ModelCoefficients, U: FlowState, i: int) -> Field:
    """Flux vector G_i(U) = (rho v_i, rho v_i v + p e_i)."""
    rho = U.rho.scalar
    if np.min(rho) <= 0.0:
        raise ValueError("density must be positive")
    v = U.velocity().values
    n = U.momentum.components
    if not 0 <= i < n:
        raise ValueError(f"axis index {i} out of range for {n} components")
    p = pressure_from_density(coeff, rho)
    comps = [rho * v[..., i]]
    for j in range(n):
        g = rho * v[..., i] * v[..., j]
        if i == j:
            g = g + p
        comps.append(g)
    return Field(U.grid, np.stack(comps, axis=-1), n + 1)


def admissibility_residual(coeff: ModelCoefficients,
                           trajectory: list[tuple[float, FlowState]]
                           ) -> tuple[np.ndarray, np.ndarray]:
    """Spatial integral of d eta/dt + div q - eps nu v . Lap v per sample.

    The time derivative uses central differences across the (uniformly
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
    etas = []
    for _t, U in trajectory:
        eta, _q = entropy_pair(coeff, U)
        etas.append(np.sum(eta.scalar) * w)
    etas = np.array(etas)
    out_t, out_r = [], []
    for m in range(1, len(trajectory) - 1):
        t, U = trajectory[m]
        deta_dt = (etas[m + 1] - etas[m - 1]) / (2.0 * dt)
        # div q integrates to zero on the torus (spectral derivative of a
        # periodic field has zero mean) but is computed for completeness
        _eta, q = entropy_pair(coeff, U)
        divq = sum(sp.d(q.component(i), i) for i in range(len(grid.axes)))
        vis = 0.0
        if coeff.nu > 0.0:
            v = U.velocity().values
            for i in range(U.momentum.components):
                vis += np.sum(v[..., i] * sp.lap(v[..., i])) * w
        out_t.append(t)
        out_r.append(deta_dt + np.sum(divq) * w - coeff.eps * coeff.nu * vis)
    return np.array(out_t), np.array(out_r)
