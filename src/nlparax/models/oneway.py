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
once, the fixed source is transformed once per march, and the state
returns to physical space only at the samples the march returns.
"""

from __future__ import annotations

import numpy as np

from ..fields import Field
from ..spectral import Spectral, require_mean_zero
from .base import (
    ModelCoefficients,
    ModelKind,
    ModelState,
    StepControl,
    Work,
    full,
    march,
    member_axis,
    only_row,
)

__all__ = ["solve_kzk", "solve_npe", "solve_npe_rows"]


class _OneWayStepper:
    """Shared machinery for the two one-way models.

    The evolution equation is dI/devol = a_nl * d_ax(I^2) + d_visc * d_ax^2 I
    + d_diff * Lap_y(invd_ax I) + src_scale * S, where `ax` is the periodic
    conjugate axis (tau for KZK, z for NPE) and S a fixed array.  Every
    linear operator is a multiplier on the whole-grid spectrum vh, which is
    the carried state: each stage of a step transforms v back and v^2
    forward.  The forcing src_scale * S is projected mean-zero along ax.
    On a 1D grid every multiplier has the full shape of what it
    multiplies, and every array of a step but the one it returns is one of
    its Work arrays.
    A march builds the stepper for the member rows it steps, from one step
    size and src_scale per row and the spectrum source_h of S (None for no
    forcing), and again for the survivors.
    """

    def __init__(self, sp: Spectral, ax_name: str, a_nl: float,
                 d_visc: float, d_diff: float, dt, src_scale,
                 source_h: np.ndarray | None):
        self.sp = sp
        self.ax = sp.grid.axis_index(ax_name)
        k, ik = sp.k[self.ax], sp.ik[self.ax]
        ndim = len(sp.shape)
        dt = member_axis(dt, ndim)
        # the shapes of the rows' spectra and of their physical arrays
        spectra, points = (len(dt), *sp.ksq.shape), (len(dt), *sp.shape)
        # The multipliers that depend on eps or the step have a member axis.
        # Multipliers of spectra are stored complex: numpy would convert
        # them on every call.  The mean-zero projection along ax drops k = 0.
        mean_zero = (k != 0.0).astype(float)
        self.mean_zero = full(sp, mean_zero.astype(complex), spectra)
        self.forcing = None
        if source_h is not None:
            self.forcing = (member_axis(src_scale, ndim) * mean_zero
                            * source_h)
        self.decay_half = np.exp(-d_visc * k**2 * dt / 2.0).astype(complex)
        self.half_dt = full(sp, (0.5 * dt).astype(complex), spectra)
        self.full_dt = full(sp, dt.astype(complex), spectra)
        # a_nl * d_ax with the 2/3 rule along ax
        self.nonlinear = full(sp, a_nl * ik * sp.keep(self.ax), spectra)
        # d_diff * Lap_y(invd_ax .): invd_ax drops mode 0 and the Nyquist mode
        self.diffraction = None
        ys = [sp.grid.axis_index(name) for name in sp.group("y")]
        if ys:
            inv = np.divide(1.0, ik, out=np.zeros_like(ik), where=ik != 0.0)
            self.diffraction = d_diff * -sum(sp.k[j]**2 for j in ys) * inv
        self.work = Work(sp, vh=(spectra, complex), v=(points, float),
                         k1=(spectra, complex))

    def _tendency(self, v: np.ndarray, vh: np.ndarray, out) -> np.ndarray:
        """Spectrum, into out, of the explicit tendency at v (spectrum
        vh)."""
        out = self.sp.fft(np.multiply(v, v, v), out=out)
        out = np.multiply(self.nonlinear, out, out)
        if self.diffraction is not None:
            out += self.diffraction * vh
        if self.forcing is not None:
            out += self.forcing
        return out

    def step(self, carried, n: int):
        """Viscous half step, explicit midpoint, viscous half step."""
        sp, work = self.sp, self.work
        (vh,) = carried
        vh = np.multiply(vh, self.decay_half, work.vh)
        k1 = self._tendency(sp.ifft(vh, out=work.v), vh, work.k1)
        vh_m = np.multiply(self.half_dt, k1, k1)
        vh_m = np.add(vh, vh_m, vh_m)
        # the new spectrum is the second stage's output, fresh
        k2 = self._tendency(sp.ifft(vh_m, out=work.v), vh_m, None)
        out = np.multiply(self.full_dt, k2, k2)
        out = np.add(vh, out, out)
        out *= self.decay_half
        out *= self.mean_zero
        return (out,)


def solve_kzk(coeff: ModelCoefficients, I0: Field, z_end: float,
              ctl: StepControl,
              source: np.ndarray | None = None,
              n_samples: int = 2) -> list[ModelState]:
    """March the KZK equation in z from the mean-zero profile I0(tau, y).

    If `source` is given, a real array S(tau, y) on I0's grid that does not
    vary with z, eps*rho0/(2 c^2) * S is added to the right side of the
    c dI/dz form (the mechanism used by the perturbed-comparison
    experiments); the source is projected mean-zero along tau.
    """
    return only_row(_oneway_rows([(coeff, I0, z_end, ctl, n_samples)],
                                 ModelKind.KZK, source))


def solve_npe(coeff: ModelCoefficients, xi0: Field, tau_end: float,
              ctl: StepControl,
              n_samples: int = 2) -> list[ModelState]:
    """March the NPE equation in tau from the mean-zero profile xi0(z, y)."""
    return only_row(solve_npe_rows([(coeff, xi0, tau_end, ctl, n_samples)]))


def solve_npe_rows(rows) -> list:
    """solve_npe of each row (coeff, xi0, tau_end, ctl, n_samples), the rows
    marched as one batch (see base.march): per row its states, or the
    SolverError that stopped it."""
    return _oneway_rows(rows, ModelKind.NPE, None)


#: model -> its conjugate axis, and of a coeff and its rows' eps the a_nl,
#: d_visc, d_diff and src_scale of _OneWayStepper
_MODELS = {
    ModelKind.KZK: ("tau", lambda co, eps: (
        (co.gamma + 1.0) / (4.0 * co.rho0 * co.c),
        co.nu / (2.0 * co.c**3 * co.rho0), co.c / 2.0,
        [e * co.rho0 / (2.0 * co.c**3) for e in eps])),
    ModelKind.NPE: ("z", lambda co, eps: (
        -(co.gamma + 1.0) * co.c / (4.0 * co.rho0), co.nu / (2.0 * co.rho0),
        -co.c / 2.0, [0.0] * len(eps))),
}


def _start_profile(model: ModelKind, v0: Field) -> np.ndarray:
    """The array a march of either model starts from, and returns as its
    first sample: the mean-zero profile v0 projected mean-zero along the
    conjugate axis once more, so that no rounding of its means is left."""
    v = v0.scalar
    return v - v.mean(axis=v0.grid.axis_index(_MODELS[model][0]),
                      keepdims=True)


def _oneway_rows(rows, model: ModelKind,
                 source: np.ndarray | None) -> list:
    """The rows (coeff, v0, span, ctl, n_samples) of either model, marched
    as one batch, each forced by its src_scale * source when a source is
    given."""
    ax_name, coefficients = _MODELS[model]
    members = []
    for coeff, v0, span, ctl, n_samples in rows:
        require_mean_zero(v0, ax_name)
        if source is not None and (np.shape(source) != v0.grid.shape
                                   or np.iscomplexobj(source)
                                   or not np.all(np.isfinite(source))):
            raise ValueError(
                f"source of shape {np.shape(source)} must be a finite real "
                f"array of the grid's shape {v0.grid.shape}")
        members.append((coeff, v0.grid, (_start_profile(model, v0),), span,
                        ctl, n_samples))
    source_h = None

    def build(sp, coeff, eps, dt):
        nonlocal source_h
        if source is not None and source_h is None:
            source_h = sp.fft(source)  # once per march
        a_nl, d_visc, d_diff, src_scale = coefficients(coeff, eps)
        return _OneWayStepper(sp, ax_name, a_nl, d_visc, d_diff, dt,
                              src_scale, source_h)

    return march(build, members, model.value, lambda grid, evol, state:
                 ModelState(model, evol, Field(grid, *state)))
