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
    SolverError,
    StepControl,
    march,
    only_row,
    require_positive,
    resolve_steps,
    rows_share,
)

__all__ = ["solve_kuznetsov", "solve_kuznetsov_rows", "solve_westervelt",
           "solve_westervelt_rows"]


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
    half-step propagations and the midpoint stages on them.  A stage fills
    one block with the spectra of grad w (and grad u on the first stage), w
    and the linear tendency, and makes one inverse call on it; then a
    forward and an inverse call for the gradient product, and a forward
    call for the rest.
    """

    #: the eps-dependent multipliers, one member row each; see base.march
    per_row = ("e11", "e12", "e21", "e22", "lin_w", "gain", "eps_a",
               "half_dt", "full_dt")

    def __init__(self, grid: Grid, coeff: ModelCoefficients, dt: float,
                 a_local: float, b_grad: float):
        self.dt = dt
        self.sp = Spectral(grid)
        damp = coeff.eps * coeff.nu / coeff.rho0
        ksq = self.sp.ksq
        keep = self.sp.keep()
        # The step's constants, folded as its formulas group them.  Real
        # multipliers of spectra are stored complex, and scalars as arrays
        # of shape (1, ..., 1), which stack into one value per member row:
        # numpy would convert them on every call, to the same values.
        self.e11, self.e12, self.e21, self.e22 = (
            e.astype(complex) for e in
            _linear_propagator(ksq, coeff.c, damp, dt / 2.0))
        # linear tendency of w: -c^2 |k|^2 u - damp |k|^2 w
        self.lin_u = (-coeff.c**2 * ksq).astype(complex)
        self.lin_w = (-damp * ksq).astype(complex)
        self.keep = keep.astype(complex)
        self.gain = (keep * (coeff.eps * b_grad)).astype(complex)
        ones = (1,) * len(grid.axes)
        self.eps_a = np.full(ones, coeff.eps * a_local)
        self.half_dt = np.full(ones, complex(0.5 * dt))
        self.full_dt = np.full(ones, complex(dt))
        # a stage's transform inputs, one row each: grad u and grad w when
        # b_grad != 0, then w and the linear tendency
        self.grads = len(grid.axes) if b_grad != 0.0 else 0
        self.rows = 2 * self.grads + 2

    def _propagate(self, uh: np.ndarray, wh: np.ndarray):
        u = self.e11 * uh
        u += self.e12 * wh
        w = self.e21 * uh
        w += self.e22 * wh
        return u, w

    def _tendency(self, uh: np.ndarray, wh: np.ndarray,
                  du: np.ndarray | None, n: int):
        """Spectrum of the dealiased deviation of w_t from the linear
        tendency at u (spectrum uh, gradient du) and w (spectrum wh), and
        du.  When du is None, grad u is transformed in this stage's inverse
        call and returned.  Raises RowsFailed, with a HyperbolicityLost for
        each member row, when the factor 1 - eps*a*w that the u_t u_tt term
        divides by is not positive everywhere in that row."""
        sp, ik, grads = self.sp, self.sp.ik, self.grads
        block = np.empty((self.rows, *uh.shape), complex)
        for j in range(grads):
            if du is None:
                np.multiply(ik[j], uh, out=block[j])
            np.multiply(ik[j], wh, out=block[grads + j])
        block[-2] = wh
        lin_h = np.multiply(self.lin_u, uh, out=block[-1])
        lin_h += self.lin_w * wh
        fields = sp.ifft(block[0 if du is None else grads:])
        del block  # freed before the products below
        if du is None:
            # a copy, so that the next stage does not keep all of fields
            du, fields = fields[:grads].copy(), fields[grads:]
        if grads:
            dw, fields = fields[:grads], fields[grads:]
            # eps*b grad u . grad w, dealiased; sum() starts from the int 0,
            # which turns a -0.0 product into +0.0
            gdot = sum(np.multiply(du, dw, out=dw))
            gh = sp.fft(gdot)
            gh = np.multiply(self.gain, gh, out=gh)
        w, lin = fields
        denom = np.multiply(self.eps_a, w, out=w)
        denom = np.subtract(1.0, denom, out=denom)
        require_positive(denom, sp, lambda _row, margin: HyperbolicityLost(
            f"hyperbolicity lost at step {n}: min(1 - eps*a*w) = "
            f"{margin:.3e}"))
        if grads:
            rhs = sp.ifft(gh)
            rhs = np.add(lin, rhs, out=rhs)
            rhs /= denom
        else:
            rhs = lin / denom
        rhs -= lin
        out = sp.fft(rhs)
        return np.multiply(self.keep, out, out=out), du

    def carry(self, state):
        """The spectra (uh, wh) of the physical state (u, w)."""
        return tuple(self.sp.fft(np.stack(state)))

    def sample(self, carried):
        """The physical state (u, w) of the spectra (uh, wh)."""
        return tuple(self.sp.ifft(np.stack(carried)))

    def step(self, carried, n: int):
        """Linear half step, explicit midpoint for the nonlinear flow (u
        frozen, w evolves), linear half step."""
        uh, wh = self._propagate(*carried)
        k1, du = self._tendency(uh, wh, None, n)
        k1 = np.multiply(self.half_dt, k1, out=k1)
        k2, _ = self._tendency(uh, np.add(wh, k1, out=k1), du, n)
        k2 = np.multiply(self.full_dt, k2, out=k2)
        wh += k2
        return self._propagate(uh, wh)


def solve_kuznetsov(coeff: ModelCoefficients, u0: Field, u1: Field,
                    t_end: float, ctl: StepControl,
                    n_samples: int = 2) -> list[ModelState]:
    """Integrate the Kuznetsov equation from (u0, u1) up to t = t_end.

    Returns n_samples states evenly spaced in steps (always including the
    initial and final state)."""
    return only_row(solve_kuznetsov_rows(
        [(coeff, u0, u1, t_end, ctl, n_samples)]))


def solve_westervelt(coeff: ModelCoefficients, Pi0: Field, Pi1: Field,
                     t_end: float, ctl: StepControl,
                     n_samples: int = 2) -> list[ModelState]:
    """Integrate the Westervelt equation from (Pi0, Pi1) up to t = t_end."""
    return only_row(solve_westervelt_rows(
        [(coeff, Pi0, Pi1, t_end, ctl, n_samples)]))


def solve_kuznetsov_rows(rows) -> list:
    """solve_kuznetsov of each row (coeff, u0, u1, t_end, ctl, n_samples),
    the rows marched as one batch (see base.march): per row its states, or
    the SolverError that stopped it."""
    return _wave_rows(rows, ModelKind.KUZNETSOV, "u0 and u1",
                      lambda coeff: coeff.alpha, 2.0)


def solve_westervelt_rows(rows) -> list:
    """solve_westervelt of each row (coeff, Pi0, Pi1, t_end, ctl,
    n_samples), marched as one batch like solve_kuznetsov_rows."""
    return _wave_rows(rows, ModelKind.WESTERVELT, "Pi0 and Pi1",
                      lambda coeff: (coeff.gamma + 1.0) / coeff.c**2, 0.0)


def _wave_rows(rows, model: ModelKind, names: str, a_local,
               b_grad: float) -> list:
    """The rows of either model, whose factor a is a_local(coeff)."""
    rows_share([row[0] for row in rows], [row[1].grid for row in rows])
    marches = []
    for coeff, f0, f1, t_end, ctl, n_samples in rows:
        if f0.grid != f1.grid:
            raise ValueError(f"{names} must share one grid")
        nsteps, dt = resolve_steps(t_end, ctl)
        stepper = _WaveStepper(f0.grid, coeff, dt, a_local(coeff), b_grad)
        marches.append((stepper, (f0.scalar, f1.scalar), nsteps, n_samples))
    grid = rows[0][1].grid
    return [done if isinstance(done, SolverError) else
            [ModelState(model, t, Field(grid, u), Field(grid, w))
             for t, (u, w) in done]
            for done in march(marches, model.value)]
