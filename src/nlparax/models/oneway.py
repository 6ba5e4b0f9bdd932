"""KZK and NPE one-way solvers.

KZK, marched in the range variable z with periodic retarded time tau:

  c dI/dz = (gamma+1)/(4 rho0) d/dtau(I^2) + nu/(2 c^2 rho0) d^2/dtau^2 I
            + (c^2/2) invdtau(Lap_y I)  [+ eps rho0/(2 c^2) S]

NPE, marched in slow time tau with periodic range coordinate z:

  dxi/dtau + (gamma+1) c/(4 rho0) d/dz(xi^2) - nu/(2 rho0) d^2/dz^2 xi
            + (c/2) Lap_y(invdz xi) = 0

Both use Strang splitting: the viscous term decays exactly per Fourier mode
(integrating factor), the nonlinearity + diffraction (+ source) advance by
the explicit midpoint rule with dealiased products.  The zero mean along the
periodic conjugate axis is re-imposed by projection after every step.  The
march carries one whole-grid spectrum from step to step: decay, derivative,
diffraction and projection are multipliers on it, each stage transforms v^2
once, the fixed source is transformed once when the stepper is built, and
the state returns to physical space only at the samples the march returns.
"""

from __future__ import annotations

import numpy as np

from ..fields import Field, Grid
from ..spectral import Spectral, require_mean_zero
from .base import (
    ModelCoefficients,
    ModelKind,
    ModelState,
    SolverError,
    StepControl,
    march,
    only_row,
    resolve_steps,
    rows_share,
)

__all__ = ["solve_kzk", "solve_npe", "solve_npe_rows"]


class _OneWayStepper:
    """Shared machinery for the two one-way models.

    The evolution equation is dI/devol = a_nl * d_ax(I^2) + d_visc * d_ax^2 I
    + d_diff * Lap_y(invd_ax I) + src_scale * S, where `ax` is the periodic
    conjugate axis (tau for KZK, z for NPE) and S a fixed array.  Every
    linear operator is a multiplier on the whole-grid spectrum vh, which is
    the carried state: each stage of a step transforms v back and v^2
    forward.  The forcing src_scale * S, projected mean-zero along ax, is
    transformed once here.
    """

    #: the multipliers that depend on the step or on eps, one member row
    #: each; see base.march
    per_row = ("decay_half", "half_dt", "full_dt", "forcing")

    def __init__(self, grid: Grid, ax_name: str, a_nl: float, d_visc: float,
                 d_diff: float, dt: float, src_scale: float = 0.0,
                 source: np.ndarray | None = None):
        sp = self.sp = Spectral(grid)
        self.ax = grid.axis_index(ax_name)
        self.dt = dt
        k, ik = sp.k[self.ax], sp.ik[self.ax]
        # Real multipliers of spectra are stored complex, and the step sizes
        # as arrays of shape (1, ..., 1), which stack into one value per
        # member row: numpy would convert them on every call, to the same
        # values.  The mean-zero projection along ax drops its k = 0 modes.
        mean_zero = (k != 0.0).astype(float)
        self.mean_zero = mean_zero.astype(complex)
        self.forcing = None
        if source is not None:
            self.forcing = src_scale * mean_zero * sp.fft(source)
        self.decay_half = np.exp(-d_visc * k**2 * dt / 2.0).astype(complex)
        ones = (1,) * len(grid.axes)
        self.half_dt = np.full(ones, complex(0.5 * dt))
        self.full_dt = np.full(ones, complex(dt))
        # a_nl * d_ax with the 2/3 rule along ax
        self.nonlinear = a_nl * ik * sp.keep(self.ax)
        # d_diff * Lap_y(invd_ax .): invd_ax drops mode 0 and the Nyquist mode
        self.diffraction = None
        ys = [grid.axis_index(name) for name in sp.group("y")]
        if ys:
            inv = np.divide(1.0, ik, out=np.zeros_like(ik), where=ik != 0.0)
            self.diffraction = d_diff * -sum(sp.k[j]**2 for j in ys) * inv

    def _tendency(self, v: np.ndarray, vh: np.ndarray) -> np.ndarray:
        """Spectrum of the explicit tendency at v (spectrum vh)."""
        out = self.sp.fft(np.multiply(v, v, out=v))
        out = np.multiply(self.nonlinear, out, out=out)
        if self.diffraction is not None:
            out += self.diffraction * vh
        if self.forcing is not None:
            out += self.forcing
        return out

    def carry(self, state):
        """The spectrum (vh,) of the physical state (v,)."""
        (v,) = state
        return (self.sp.fft(v),)

    def sample(self, carried):
        """The physical state (v,) of the spectrum (vh,)."""
        (vh,) = carried
        return (self.sp.ifft(vh),)

    def step(self, carried, n: int):
        """Viscous half step, explicit midpoint, viscous half step."""
        sp = self.sp
        (vh,) = carried
        vh = vh * self.decay_half
        k1 = self._tendency(sp.ifft(vh), vh)
        vh_m = np.multiply(self.half_dt, k1, out=k1)
        vh_m = np.add(vh, vh_m, out=vh_m)
        k2 = self._tendency(sp.ifft(vh_m), vh_m)
        out = np.multiply(self.full_dt, k2, out=k2)
        out = np.add(vh, out, out=out)
        out *= self.decay_half
        out *= self.mean_zero
        return (out,)


def solve_kzk(coeff: ModelCoefficients, I0: Field, z_end: float,
              ctl: StepControl,
              source: np.ndarray | None = None,
              n_samples: int = 2) -> list[ModelState]:
    """March the KZK equation in z from the mean-zero profile I0(tau, y).

    If `source` is given, an array S(tau, y) on I0's grid that does not vary
    with z, eps*rho0/(2 c^2) * S is added to the right side of the c dI/dz
    form (the mechanism used by the perturbed-comparison experiments); the
    source is projected mean-zero along tau.
    """
    require_mean_zero(I0, "tau")
    nsteps, dz = resolve_steps(z_end, ctl)
    c, rho0, nu = coeff.c, coeff.rho0, coeff.nu
    stepper = _OneWayStepper(
        I0.grid, "tau",
        a_nl=(coeff.gamma + 1.0) / (4.0 * rho0 * c),
        d_visc=nu / (2.0 * c**3 * rho0),
        d_diff=c / 2.0,
        dt=dz,
        src_scale=coeff.eps * rho0 / (2.0 * c**3),
        source=source,
    )
    v = stepper.sp.mean_zero(I0.scalar, stepper.ax)
    return [ModelState(ModelKind.KZK, z, Field(I0.grid, v))
            for z, (v,) in only_row(march([(stepper, (v,), nsteps,
                                             n_samples)], "kzk"))]


def solve_npe(coeff: ModelCoefficients, xi0: Field, tau_end: float,
              ctl: StepControl,
              n_samples: int = 2) -> list[ModelState]:
    """March the NPE equation in tau from the mean-zero profile xi0(z, y)."""
    return only_row(solve_npe_rows([(coeff, xi0, tau_end, ctl, n_samples)]))


def solve_npe_rows(rows) -> list:
    """solve_npe of each row (coeff, xi0, tau_end, ctl, n_samples), the rows
    marched as one batch (see base.march): per row its states, or the
    SolverError that stopped it."""
    grid = rows[0][1].grid
    rows_share([row[0] for row in rows], [row[1].grid for row in rows])
    marches = []
    for coeff, xi0, tau_end, ctl, n_samples in rows:
        require_mean_zero(xi0, "z")
        nsteps, dtau = resolve_steps(tau_end, ctl)
        c, rho0 = coeff.c, coeff.rho0
        stepper = _OneWayStepper(
            grid, "z",
            a_nl=-(coeff.gamma + 1.0) * c / (4.0 * rho0),
            d_visc=coeff.nu / (2.0 * rho0),
            d_diff=-c / 2.0,
            dt=dtau,
        )
        v = stepper.sp.mean_zero(xi0.scalar, stepper.ax)
        marches.append((stepper, (v,), nsteps, n_samples))
    return [done if isinstance(done, SolverError) else
            [ModelState(ModelKind.NPE, tau, Field(grid, v))
             for tau, (v,) in done]
            for done in march(marches, "npe")]
