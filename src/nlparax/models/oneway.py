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
periodic conjugate axis is re-imposed by projection after every step.  A step
runs on one whole-grid spectrum: decay, derivative, diffraction and
projection are multipliers on it, each stage transforms v^2 once, the fixed
source is transformed once when the stepper is built, and the state returns
to physical space at the step boundary.
"""

from __future__ import annotations

import numpy as np

from ..fields import Field, Grid
from ..spectral import Spectral, require_mean_zero
from .base import (
    ModelCoefficients,
    ModelKind,
    ModelState,
    StepControl,
    march,
    resolve_steps,
)

__all__ = ["solve_kzk", "solve_npe"]


class _OneWayStepper:
    """Shared machinery for the two one-way models.

    The evolution equation is dI/devol = a_nl * d_ax(I^2) + d_visc * d_ax^2 I
    + d_diff * Lap_y(invd_ax I) + src_scale * S, where `ax` is the periodic
    conjugate axis (tau for KZK, z for NPE) and S a fixed array.  Every
    linear operator is a multiplier on the whole-grid spectrum: a step
    transforms v once, each stage transforms v^2, and the mean-zero state
    returns to physical space at the end of the step.  The forcing
    src_scale * S, projected mean-zero along ax, is transformed once here.
    """

    def __init__(self, grid: Grid, ax_name: str, a_nl: float, d_visc: float,
                 d_diff: float, dt: float, src_scale: float = 0.0,
                 source: np.ndarray | None = None):
        sp = self.sp = Spectral(grid)
        self.ax = grid.axis_index(ax_name)
        self.dt = dt
        k, ik = sp.k[self.ax], sp.ik[self.ax]
        # the mean-zero projection along ax drops its k = 0 modes
        self.mean_zero = (k != 0.0).astype(float)
        self.forcing = None
        if source is not None:
            self.forcing = src_scale * self.mean_zero * sp.fft(source)
        self.decay_half = np.exp(-d_visc * k**2 * dt / 2.0)
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
        sp = self.sp
        out = self.nonlinear * sp.fft(v * v)
        if self.diffraction is not None:
            out = out + self.diffraction * vh
        if self.forcing is not None:
            out = out + self.forcing
        return out

    def step(self, state, n: int):
        """Viscous half step, explicit midpoint, viscous half step."""
        sp, dt = self.sp, self.dt
        (v,) = state
        vh = sp.fft(v) * self.decay_half
        k1 = self._tendency(sp.ifft(vh), vh)
        vh_m = vh + 0.5 * dt * k1
        k2 = self._tendency(sp.ifft(vh_m), vh_m)
        vh = (vh + dt * k2) * self.decay_half * self.mean_zero
        return (sp.ifft(vh),)


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
            for z, (v,) in march(stepper, (v,), nsteps, n_samples, "kzk")]


def solve_npe(coeff: ModelCoefficients, xi0: Field, tau_end: float,
              ctl: StepControl,
              n_samples: int = 2) -> list[ModelState]:
    """March the NPE equation in tau from the mean-zero profile xi0(z, y)."""
    require_mean_zero(xi0, "z")
    nsteps, dtau = resolve_steps(tau_end, ctl)
    c, rho0 = coeff.c, coeff.rho0
    stepper = _OneWayStepper(
        xi0.grid, "z",
        a_nl=-(coeff.gamma + 1.0) * c / (4.0 * rho0),
        d_visc=coeff.nu / (2.0 * rho0),
        d_diff=-c / 2.0,
        dt=dtau,
    )
    v = stepper.sp.mean_zero(xi0.scalar, stepper.ax)
    return [ModelState(ModelKind.NPE, tau, Field(xi0.grid, v))
            for tau, (v,) in march(stepper, (v,), nsteps, n_samples, "npe")]
