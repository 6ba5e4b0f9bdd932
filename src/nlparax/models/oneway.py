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
periodic conjugate axis is re-imposed by projection after every step.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from ..fields import Field, Grid
from ..spectral import Spectral, spectral_derivative
from .base import (
    ModelCoefficients,
    ModelKind,
    ModelState,
    StepControl,
    march,
    resolve_steps,
)

__all__ = ["solve_kzk", "solve_npe", "kzk_step_heuristic"]


class _OneWayStepper:
    """Shared machinery for the two one-way models.

    The evolution equation is dI/devol = a_nl * d_ax(I^2) + d_visc * d_ax^2 I
    + d_diff * Lap_y(invd_ax I) + src_scale * S, where `ax` is the periodic
    conjugate axis (tau for KZK, z for NPE).
    """

    def __init__(self, grid: Grid, ax_name: str, a_nl: float, d_visc: float,
                 d_diff: float, dt: float, src_scale: float = 0.0,
                 source: Callable[[float], np.ndarray] | None = None):
        self.sp = Spectral(grid)
        self.ax = grid.axis_index(ax_name)
        self.a_nl = a_nl
        self.d_diff = d_diff
        self.dt = dt
        self.src_scale = src_scale
        self.source = source
        self.diffracts = bool(self.sp.group("y"))
        k = self.sp.k_along(self.ax)
        self.decay_half = np.exp(-d_visc * k**2 * dt / 2.0)

    def _visc_half(self, v: np.ndarray) -> np.ndarray:
        return self.sp.filter(v, self.ax, self.decay_half)

    def explicit_tendency(self, v: np.ndarray, evol: float) -> np.ndarray:
        sp = self.sp
        out = self.a_nl * sp.d(sp.dealias(v * v, self.ax), self.ax)
        if self.diffracts:
            # antiderivative along the conjugate axis first, then Lap_y
            out = out + self.d_diff * sp.lap(sp.inv(v, self.ax), "y")
        if self.source is not None:
            s = sp.mean_zero(np.asarray(self.source(evol)), self.ax)
            out = out + self.src_scale * s
        return out

    def step(self, state, n: int):
        (v,) = state
        dt = self.dt
        evol = (n - 1) * dt
        v = self._visc_half(v)
        k1 = self.explicit_tendency(v, evol + 0.0)
        k2 = self.explicit_tendency(v + 0.5 * dt * k1, evol + 0.5 * dt)
        v = v + dt * k2
        v = self._visc_half(v)
        return (self.sp.mean_zero(v, self.ax),)


def _check_mean_zero(f: Field, ax_name: str) -> None:
    i = f.grid.axis_index(ax_name)
    worst = float(np.max(np.abs(f.values.mean(axis=i))))
    if worst > 1e-10 * max(f.l2_norm(), 1e-300):
        raise ValueError(
            f"initial profile must be mean-zero along {ax_name!r}; "
            f"largest line mean is {worst:.3e}"
        )


def kzk_step_heuristic(coeff: ModelCoefficients, I0: Field) -> float:
    """Stability guide for the z step: 0.5 / (max|dI/dtau| (gamma+1)/(4 rho0 c))."""
    dtau = spectral_derivative(I0, "tau").linf_norm()
    scale = dtau * (coeff.gamma + 1.0) / (4.0 * coeff.rho0 * coeff.c)
    return 0.5 / max(scale, 1e-12)


def solve_kzk(coeff: ModelCoefficients, I0: Field, z_end: float,
              ctl: StepControl,
              source: Callable[[float], np.ndarray] | None = None,
              n_samples: int = 2) -> list[ModelState]:
    """March the KZK equation in z from the mean-zero profile I0(tau, y).

    If `source` is given, eps*rho0/(2 c^2) * source(z) is added to the right
    side of the c dI/dz form (the mechanism used by the perturbed-comparison
    experiments); the source is projected mean-zero along tau.
    """
    _check_mean_zero(I0, "tau")
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
    _check_mean_zero(xi0, "z")
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
