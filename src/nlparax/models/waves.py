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
spectral core in one call, as stacks (see models.base.through).

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

from ..fields import Field
from ..spectral import Spectral
from .base import (
    HyperbolicityLost,
    ModelCoefficients,
    ModelKind,
    ModelState,
    StepControl,
    Work,
    full,
    march,
    member_axis,
    only_row,
    require_positive,
    through,
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

    A march builds it for the member rows it steps, from one eps and one
    step size per row, and again for the survivors.  The carried state is
    the spectra (uh, wh) of (u, w): a step runs both half-step propagations
    and the midpoint stages on them.  A stage makes one inverse call on
    the stacks of the spectra of grad w (and grad u on the first stage), w
    and the linear tendency; then a forward and an inverse call for the
    gradient product, and a forward call for the rest.  On a 1D grid every
    multiplier has the full shape of what it multiplies, and every array
    of a step but the two it returns is one of its Work arrays.
    """

    def __init__(self, sp: Spectral, coeff: ModelCoefficients, eps, dt,
                 a_local: float, b_grad: float):
        self.sp = sp
        ndim = len(sp.shape)
        eps, dt = member_axis(eps, ndim), member_axis(dt, ndim)
        damp = eps * coeff.nu / coeff.rho0
        ksq = sp.ksq
        keep = sp.keep()
        # the shapes of the rows' spectra and of their physical arrays
        spectra, points = (len(eps), *ksq.shape), (len(eps), *sp.shape)
        # The step's constants, folded as its formulas group them, with a
        # member axis where they depend on eps or the step.  Multipliers of
        # spectra are stored complex: numpy would convert them on every call.
        self.e11, self.e12, self.e21, self.e22 = (
            e.astype(complex) for e in
            _linear_propagator(ksq, coeff.c, damp, dt / 2.0))
        # linear tendency of w: -c^2 |k|^2 u - damp |k|^2 w
        self.lin_u = full(sp, (-coeff.c**2 * ksq).astype(complex), spectra)
        self.lin_w = (-damp * ksq).astype(complex)
        self.keep = full(sp, keep.astype(complex), spectra)
        self.gain = (keep * (eps * b_grad)).astype(complex)
        self.eps_a = full(sp, eps * a_local, points)
        self.one = full(sp, 1.0, points)
        self.zero = full(sp, 0, points, float)
        self.half_dt = full(sp, (0.5 * dt).astype(complex), spectra)
        self.full_dt = full(sp, dt.astype(complex), spectra)
        # the gradient stacks of a stage's inverse call: grad u and grad w
        # when b_grad != 0
        self.grads = ndim if b_grad != 0.0 else 0
        self.ik = sp.ik if ndim > 1 else [full(sp, k, spectra)
                                          for k in sp.ik]
        # the stacks of the first and the second stage's inverse call
        first, second = 2 * self.grads + 2, self.grads + 2
        self.work = Work(
            sp, uh=(spectra, complex), wh=(spectra, complex),
            tmp=(spectra, complex), k1=(spectra, complex),
            k2=(spectra, complex), gh=(spectra, complex),
            gdot=(points, float), rhs=(points, float),
            block1=((first, *spectra), complex),
            fields1=((first, *points), float),
            block2=((second, *spectra), complex),
            fields2=((second, *points), float))

    def _propagate(self, uh: np.ndarray, wh: np.ndarray, u_out, w_out):
        """The linear half step of (uh, wh), into u_out and w_out (fresh
        arrays when None)."""
        u = np.multiply(self.e11, uh, u_out)
        u += np.multiply(self.e12, wh, self.work.tmp)
        w = np.multiply(self.e21, uh, w_out)
        w += np.multiply(self.e22, wh, self.work.tmp)
        return u, w

    def _lin(self, uh: np.ndarray, wh: np.ndarray, out: np.ndarray):
        """The spectrum of the linear tendency of w, into out."""
        np.multiply(self.lin_u, uh, out)
        out += np.multiply(self.lin_w, wh, self.work.tmp)

    def _tendency(self, uh: np.ndarray, wh: np.ndarray,
                  du: np.ndarray | None, n: int, out):
        """Spectrum, into out, of the dealiased deviation of w_t from the
        linear tendency at u (spectrum uh, gradient du) and w (spectrum
        wh), and du.  When du is None, grad u is transformed in this
        stage's inverse call and returned.  Raises RowsFailed, with a
        HyperbolicityLost for each member row, when the factor 1 - eps*a*w
        that the u_t u_tt term divides by is not positive everywhere in
        that row."""
        sp, work, grads = self.sp, self.work, self.grads
        # stacks: grad u (on the first stage) and grad w, then w and the
        # linear tendency
        stacks = [(np.multiply, k, f)
                  for f in ((uh, wh) if du is None else (wh,))
                  for k in self.ik[:grads]]
        stacks += [wh, (self._lin, uh, wh)]
        if du is None:
            fields = through(sp, stacks, uh.shape, work.block1, work.fields1,
                             inverse=True)
            # on one axis a view of a Work array that the next stage leaves
            # alone; on more a copy, so that it does not keep all of fields
            du = fields[:grads]
            if work.fields1 is None:
                du = du.copy()
        else:
            fields = through(sp, stacks, uh.shape, work.block2, work.fields2,
                             inverse=True)
        dw, w, lin = fields[-2 - grads:-2], fields[-2], fields[-1]
        if grads:
            # eps*b grad u . grad w, dealiased; the sum starts from 0, as
            # sum() does, which turns a -0.0 product into +0.0
            products = np.multiply(du, dw, dw)
            gdot = np.add(products[0], self.zero, work.gdot)
            for j in range(1, grads):
                gdot += products[j]
            gh = sp.fft(gdot, out=work.gh)
            gh = np.multiply(self.gain, gh, gh)
        denom = np.multiply(self.eps_a, w, w)
        denom = np.subtract(self.one, denom, denom)
        require_positive(denom, sp, _hyperbolicity_lost, n)
        if grads:
            rhs = sp.ifft(gh, out=work.rhs)
            rhs = np.add(lin, rhs, rhs)
            rhs /= denom
        else:
            rhs = np.divide(lin, denom, work.rhs)
        rhs -= lin
        out = sp.fft(rhs, out=out)
        return np.multiply(self.keep, out, out), du

    def step(self, carried, n: int):
        """Linear half step, explicit midpoint for the nonlinear flow (u
        frozen, w evolves), linear half step."""
        work = self.work
        uh, wh = self._propagate(*carried, work.uh, work.wh)
        k1, du = self._tendency(uh, wh, None, n, work.k1)
        k1 = np.multiply(self.half_dt, k1, k1)
        k2, _ = self._tendency(uh, np.add(wh, k1, k1), du, n, work.k2)
        k2 = np.multiply(self.full_dt, k2, k2)
        wh += k2
        return self._propagate(uh, wh, None, None)


def _hyperbolicity_lost(n: int, _row: int, margin: float):
    return HyperbolicityLost(f"hyperbolicity lost at step {n}: "
                             f"min(1 - eps*a*w) = {margin:.3e}")


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
    members = []
    for coeff, f0, f1, t_end, ctl, n_samples in rows:
        if f0.grid != f1.grid:
            raise ValueError(f"{names} must share one grid")
        members.append((coeff, f0.grid, (f0.scalar, f1.scalar), t_end, ctl,
                        n_samples))

    def build(sp, coeff, eps, dt):
        return _WaveStepper(sp, coeff, eps, dt, a_local(coeff), b_grad)

    return march(build, members, model.value, lambda grid, t, state:
                 ModelState(model, t, *(Field(grid, a) for a in state)))
