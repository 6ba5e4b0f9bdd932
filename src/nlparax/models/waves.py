"""Kuznetsov and Westervelt solvers (second-order wave models in time).

Both equations are integrated as first-order systems in (u, u_t) with Strang
splitting: the stiff linear part (c^2 Laplacian plus the eps*nu/rho0 viscous
damping of u_t) is propagated exactly per Fourier mode by a closed-form 2x2
matrix exponential, and the nonlinear tendency is advanced by the explicit
midpoint rule with dealiased products.  The march carries the spectra of
(u, u_t) from step to step: a step applies both half-step propagators as
multiplies and transforms each midpoint stage's products once, and the
state returns to physical space only at the samples the march returns.  The
transforms that one direction of a stage needs at once go through the
spectral core in one call.

Kuznetsov:   u_tt - c^2 Lap u = eps d/dt( (grad u)^2
                                          + (gamma-1)/(2 c^2) (u_t)^2
                                          + (nu/rho0) Lap u )
Westervelt:  P_tt - c^2 Lap P = eps d/dt( (nu/rho0) Lap P
                                          + (gamma+1)/(2 c^2) (P_t)^2 )

Expanding the time derivative on the right moves the u_t u_tt term to the
left, so each step solves for u_tt through the factor (1 - eps*a*u_t) with
a = (gamma-1)/c^2 (Kuznetsov, plus the 2 grad u . grad u_t term) or
a = (gamma+1)/c^2 (Westervelt, no gradient term).
"""

from __future__ import annotations

import numpy as np

from ..fields import Field, Grid
from ..spectral import Spectral
from .base import (
    HyperbolicityLost,
    ModelCoefficients,
    ModelKind,
    ModelState,
    StepControl,
    march,
    resolve_steps,
)

__all__ = ["solve_kuznetsov", "solve_westervelt"]


def _linear_propagator(ksq: np.ndarray, c: float, damp: float, dt: float):
    """Entries of exp(dt*M) for M = [[0, 1], [-c^2 k^2, -damp k^2]] per mode."""
    a = damp * ksq
    b = (c**2) * ksq
    disc = np.asarray(a**2 - 4.0 * b, dtype=np.complex128)
    sq = np.sqrt(disc)
    lp = 0.5 * (-a + sq)
    lm = 0.5 * (-a - sq)
    delta = lp - lm
    degenerate = np.abs(delta) < 1e-13 * (np.abs(lp) + np.abs(lm) + 1.0)
    delta_safe = np.where(degenerate, 1.0, delta)
    ep, em = np.exp(lp * dt), np.exp(lm * dt)
    e11 = (lp * em - lm * ep) / delta_safe
    e12 = (ep - em) / delta_safe
    e22 = (lp * ep - lm * em) / delta_safe
    # critical/zero modes: exp(dt*M) -> [[1-l*dt, dt], [-b dt ..]] limit
    lam = 0.5 * (lp + lm)
    el = np.exp(lam * dt)
    e11 = np.where(degenerate, el * (1.0 - lam * dt), e11)
    e12 = np.where(degenerate, el * dt, e12)
    e22 = np.where(degenerate, el * (1.0 + lam * dt), e22)
    e21 = -b * e12
    # M is real, so exp(dt*M) is real; the imaginary parts are rounding noise.
    return e11.real, e12.real, e21.real, e22.real


class _WaveStepper:
    """Strang-split stepper shared by the Kuznetsov and Westervelt models.

    The carried state is the spectra (uh, wh) of (u, w): a step runs both
    half-step propagations and the midpoint stages on them.  A stage makes
    one inverse call for grad w (and grad u on the first stage), w and the
    linear tendency, a forward and an inverse call for the gradient
    product, and a forward call for the rest.
    """

    def __init__(self, grid: Grid, coeff: ModelCoefficients, dt: float,
                 a_local: float, b_grad: float):
        self.coeff = coeff
        self.dt = dt
        self.a_local = a_local
        self.b_grad = b_grad
        self.sp = Spectral(grid)
        damp = coeff.eps * coeff.nu / coeff.rho0
        ksq = self.sp.ksq
        self.half = _linear_propagator(ksq, coeff.c, damp, dt / 2.0)
        # linear tendency of w: -c^2 |k|^2 u - damp |k|^2 w
        self.lin_u = -coeff.c**2 * ksq
        self.lin_w = -damp * ksq
        self.keep = self.sp.keep()

    def _propagate(self, uh: np.ndarray, wh: np.ndarray):
        e11, e12, e21, e22 = self.half
        return e11 * uh + e12 * wh, e21 * uh + e22 * wh

    def _tendency(self, uh: np.ndarray, wh: np.ndarray,
                  du: list[np.ndarray] | None, n: int):
        """Spectrum of the dealiased deviation of w_t from the linear
        tendency at u (spectrum uh, gradient du) and w (spectrum wh), and
        du.  When du is None, grad u is transformed in this stage's inverse
        call and returned.  Raises HyperbolicityLost when the factor
        1 - eps*a*w that the u_t u_tt term divides by is not positive
        everywhere."""
        sp, ik = self.sp, self.sp.ik
        eps, keep = self.coeff.eps, self.keep
        spectra = []
        if self.b_grad != 0.0:
            if du is None:
                spectra += [k * uh for k in ik]
            spectra += [k * wh for k in ik]
        if self.a_local != 0.0:
            spectra += [wh, self.lin_u * uh + self.lin_w * wh]
        fields = sp.ifft(spectra)
        del spectra  # freed before the products below
        if self.b_grad != 0.0:
            if du is None:
                du, fields = fields[:len(ik)], fields[len(ik):]
            dw, fields = fields[:len(ik)], fields[len(ik):]
            # eps*b grad u . grad w, dealiased
            gdot = sum(du_i * dw_i for du_i, dw_i in zip(du, dw))
            del dw
            gh = keep * (eps * self.b_grad) * sp.fft(gdot)
            if self.a_local == 0.0:
                return gh, du
        w, lin = fields
        denom = 1.0 - eps * self.a_local * w
        margin = float(denom.min())
        if margin <= 0.0:
            raise HyperbolicityLost(
                f"hyperbolicity lost at step {n}: min(1 - eps*a*w) = "
                f"{margin:.3e}")
        rhs = lin + sp.ifft(gh) if self.b_grad != 0.0 else lin
        return keep * sp.fft(rhs / denom - lin), du

    def carry(self, state):
        """The spectra (uh, wh) of the physical state (u, w)."""
        return tuple(self.sp.fft(state))

    def sample(self, carried):
        """The physical state (u, w) of the spectra (uh, wh)."""
        return tuple(self.sp.ifft(carried))

    def step(self, carried, n: int):
        """Linear half step, explicit midpoint for the nonlinear flow (u
        frozen, w evolves), linear half step."""
        dt = self.dt
        uh, wh = self._propagate(*carried)
        if self.a_local != 0.0 or self.b_grad != 0.0:
            k1, du = self._tendency(uh, wh, None, n)
            k2, _ = self._tendency(uh, wh + 0.5 * dt * k1, du, n)
            wh = wh + dt * k2
        return self._propagate(uh, wh)


def solve_kuznetsov(coeff: ModelCoefficients, u0: Field, u1: Field,
                    t_end: float, ctl: StepControl,
                    n_samples: int = 2) -> list[ModelState]:
    """Integrate the Kuznetsov equation from (u0, u1) up to t = t_end.

    Returns n_samples states evenly spaced in steps (always including the
    initial and final state)."""
    if u0.grid != u1.grid:
        raise ValueError("u0 and u1 must share one grid")
    nsteps, dt = resolve_steps(t_end, ctl)
    stepper = _WaveStepper(u0.grid, coeff, dt, coeff.alpha, 2.0)
    grid = u0.grid
    return [ModelState(ModelKind.KUZNETSOV, t, Field(grid, u), Field(grid, w))
            for t, (u, w) in march(stepper, (u0.scalar, u1.scalar), nsteps,
                                   n_samples, "kuznetsov")]


def solve_westervelt(coeff: ModelCoefficients, Pi0: Field, Pi1: Field,
                     t_end: float, ctl: StepControl,
                     n_samples: int = 2) -> list[ModelState]:
    """Integrate the Westervelt equation from (Pi0, Pi1) up to t = t_end."""
    if Pi0.grid != Pi1.grid:
        raise ValueError("Pi0 and Pi1 must share one grid")
    nsteps, dt = resolve_steps(t_end, ctl)
    stepper = _WaveStepper(Pi0.grid, coeff, dt,
                           (coeff.gamma + 1.0) / coeff.c**2, 0.0)
    grid = Pi0.grid
    return [ModelState(ModelKind.WESTERVELT, t, Field(grid, u), Field(grid, w))
            for t, (u, w) in march(stepper, (Pi0.scalar, Pi1.scalar), nsteps,
                                   n_samples, "westervelt")]
