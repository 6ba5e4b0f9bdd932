"""One step of each stepper against the same scheme composed from the
one-axis operators of `Spectral` (`d`, `lap`, `inv`, `filter`, `dealias`),
each of which transforms on its own.  The steppers run on whole-grid
spectra; the two must agree to rounding.  A long march, which carries the
spectra from step to step, must agree with the same steps taken one at a
time from physical space and back."""

import numpy as np
import pytest

from nlparax import Axis, Frame, Grid, ModelCoefficients, StepControl
from nlparax.flow import _FlowStepper, pressure_from_density
from nlparax.models.base import _transform, march
from nlparax.models.oneway import _OneWayStepper
from nlparax.models.waves import _linear_propagator, _WaveStepper
from nlparax.spectral import Spectral

COEFF = ModelCoefficients(c=1.3, rho0=0.9, gamma=1.4, nu=0.2, eps=0.05)
DT = 0.05
RTOL = 1e-12


def _grid(frame, *axes):
    return Grid(tuple(Axis(name, length, n) for name, length, n in axes),
                frame)


def _smooth(grid, rng, amp, kmax=3):
    """Sum of random low plane waves scaled to max |.| = amp."""
    out = np.zeros(grid.shape)
    for _ in range(6):
        ks = rng.integers(-kmax, kmax + 1, size=len(grid.axes))
        phase = sum(2 * np.pi * m * x / a.length
                    for m, x, a in zip(ks, grid.mesh(), grid.axes))
        out += rng.standard_normal() * np.cos(phase + rng.uniform(0, 6.0))
    return amp * out / np.abs(out).max()


def _assert_same_state(got, expect):
    assert len(got) == len(expect)
    for a, b in zip(got, expect):
        assert np.abs(a - b).max() <= RTOL * np.abs(b).max()


def _one_step(stepper, state, n):
    """Step n of a one-row stepper from the physical state, back in
    physical space."""
    sp = stepper.sp
    row = -len(sp.shape) - 1  # the member axis, before the grid's
    carried = _transform(stepper, tuple(np.expand_dims(a, row)
                                        for a in state), sp.fft)
    return tuple(np.squeeze(a, row) for a in _transform(
        stepper, stepper.step(carried, n), sp.ifft))


GRIDS_1D = _grid(Frame.PHYSICAL, ("x1", 2 * np.pi, 64))
GRIDS_2D = _grid(Frame.PHYSICAL, ("x1", 2 * np.pi, 32), ("x2", 3.0, 16))


# ----------------------------------------------------------------------
# Kuznetsov and Westervelt


def _wave_reference(grid, coeff, dt, a_local, b_grad, damp, u, w):
    sp = Spectral(grid)
    e11, e12, e21, e22 = _linear_propagator(sp.ksq, coeff.c, damp, dt / 2)
    eps = coeff.eps

    def linear_half(u, w):
        uh, wh = sp.fft(u), sp.fft(w)
        return sp.ifft(e11 * uh + e12 * wh), sp.ifft(e21 * uh + e22 * wh)

    def tendency(u, w):
        lin = coeff.c**2 * sp.lap(u) + damp * sp.lap(w)
        rhs = lin
        if b_grad:
            rhs = rhs + eps * b_grad * sum(
                sp.dealias(sp.d(u, i) * sp.d(w, i))
                for i in range(len(grid.axes)))
        if a_local:
            return sp.dealias(rhs / (1.0 - eps * a_local * w) - lin)
        return sp.dealias(rhs - lin)

    u, w = linear_half(u, w)
    k1 = tendency(u, w)
    k2 = tendency(u, w + 0.5 * dt * k1)
    return linear_half(u, w + dt * k2)


@pytest.mark.parametrize("grid", [GRIDS_1D, GRIDS_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("model", ["kuznetsov", "westervelt",
                                   "kuznetsov-gradient-only"])
def test_wave_step_matches_the_composed_operators(grid, model, rng):
    a_local = {"kuznetsov": COEFF.alpha,
               "westervelt": (COEFF.gamma + 1.0) / COEFF.c**2,
               "kuznetsov-gradient-only": 0.0}[model]
    b_grad = 0.0 if model == "westervelt" else 2.0
    damp = COEFF.eps * COEFF.nu / COEFF.rho0
    u, w = _smooth(grid, rng, 0.3), _smooth(grid, rng, 0.3)
    stepper = _WaveStepper(Spectral(grid), COEFF, [COEFF.eps], [DT],
                           a_local, b_grad)
    _assert_same_state(
        _one_step(stepper, (u, w), 1),
        _wave_reference(grid, COEFF, DT, a_local, b_grad, damp, u, w))


# ----------------------------------------------------------------------
# isentropic Navier-Stokes / Euler


def _flow_reference(grid, coeff, dt, rho, v):
    sp = Spectral(grid)
    ndim = len(grid.axes)
    visc0 = coeff.eps * coeff.nu / coeff.rho0
    decay = np.exp(-visc0 * sp.ksq * dt / 2.0)
    visc = coeff.eps * coeff.nu

    def visc_half(v):
        return [sp.ifft(sp.fft(vi) * decay) for vi in v]

    def tendency(rho, v):
        drho = -sum(sp.d(sp.dealias(rho * v[i]), i) for i in range(ndim))
        p = pressure_from_density(coeff, rho)
        dv = []
        for i in range(ndim):
            acc = -sum(sp.dealias(v[j] * sp.d(v[i], j)) for j in range(ndim))
            acc = acc - sp.dealias(sp.d(p, i) / rho)
            if visc:
                acc = acc + sp.dealias(
                    visc * sp.lap(v[i]) * (1.0 / rho - 1.0 / coeff.rho0))
            dv.append(acc)
        return drho, dv

    v = visc_half(v)
    d1rho, d1v = tendency(rho, v)
    d2rho, d2v = tendency(rho + 0.5 * dt * d1rho,
                          [vi + 0.5 * dt * di for vi, di in zip(v, d1v)])
    v = visc_half([vi + dt * di for vi, di in zip(v, d2v)])
    return (rho + dt * d2rho, *v)


@pytest.mark.parametrize("grid", [GRIDS_1D, GRIDS_2D], ids=["1d", "2d"])
@pytest.mark.parametrize("nu", [COEFF.nu, 0.0], ids=["viscous", "inviscid"])
def test_flow_step_matches_the_composed_operators(grid, nu, rng):
    coeff = ModelCoefficients(c=COEFF.c, rho0=COEFF.rho0, gamma=COEFF.gamma,
                              nu=nu, eps=COEFF.eps)
    rho = coeff.rho0 * (1.0 + _smooth(grid, rng, 0.1))
    v = [_smooth(grid, rng, 0.1) for _ in grid.axes]
    stepper = _FlowStepper(Spectral(grid), coeff, [coeff.eps], [DT])
    rho_1, *v_1 = _flow_reference(grid, coeff, DT, rho, v)
    _assert_same_state(_one_step(stepper, (rho, np.stack(v)), 1),
                       (rho_1, np.stack(v_1)))


# ----------------------------------------------------------------------
# KZK and NPE


def _oneway_reference(grid, ax, a_nl, d_visc, d_diff, dt, src_scale,
                      source, v):
    sp = Spectral(grid)
    k = sp.k_along(ax)
    decay = np.exp(-d_visc * k**2 * dt / 2.0)
    idx = np.arange(k.size).reshape(k.shape)
    keep = idx <= grid.axes[ax].points // 3

    def tendency(v):
        out = a_nl * sp.d(sp.filter(v * v, ax, keep), ax)
        if sp.group("y"):
            out = out + d_diff * sp.lap(sp.inv(v, ax), "y")
        if source is not None:
            out = out + src_scale * sp.mean_zero(source, ax)
        return out

    v = sp.filter(v, ax, decay)
    k1 = tendency(v)
    k2 = tendency(v + 0.5 * dt * k1)
    return (sp.mean_zero(sp.filter(v + dt * k2, ax, decay), ax),)


ONEWAY_CASES = {
    "kzk-1d-source": (_grid(Frame.KZK, ("tau", 2 * np.pi, 64)), "tau", True),
    "kzk-2d": (_grid(Frame.KZK, ("tau", 2 * np.pi, 32), ("y1", 3.0, 16)),
               "tau", False),
    "kzk-2d-source": (_grid(Frame.KZK, ("tau", 2 * np.pi, 32),
                            ("y1", 3.0, 16)), "tau", True),
    "npe-1d": (_grid(Frame.NPE, ("z", 2 * np.pi, 64)), "z", False),
    "npe-2d": (_grid(Frame.NPE, ("z", 2 * np.pi, 32), ("y1", 3.0, 16)),
               "z", False),
}


@pytest.mark.parametrize("case", sorted(ONEWAY_CASES))
def test_oneway_step_matches_the_composed_operators(case, rng):
    grid, ax_name, with_source = ONEWAY_CASES[case]
    ax = grid.axis_index(ax_name)
    sp = Spectral(grid)
    v = sp.mean_zero(_smooth(grid, rng, 0.3), ax)
    # not mean-zero along ax: the stepper projects it
    source = 0.5 + _smooth(grid, rng, 1.0) if with_source else None
    coefs = dict(a_nl=0.7, d_visc=0.05, d_diff=-0.6)
    stepper = _OneWayStepper(
        sp, ax_name, **coefs, dt=[DT], src_scale=[0.4],
        source_h=None if source is None else sp.fft(source))
    _assert_same_state(_one_step(stepper, (v,), 3),
                       _oneway_reference(grid, ax, dt=DT, src_scale=0.4,
                                         source=source, v=v, **coefs))


# ----------------------------------------------------------------------
# the carried state


LONG_MARCH = 200


def _long_march_cases(rng):
    """label -> (stepper, physical initial state) for every stepper on a 1D
    and a 2D grid."""
    cases = {}
    for dim, grid in (("1d", GRIDS_1D), ("2d", GRIDS_2D)):
        def wave(a_local, b_grad):
            return (_WaveStepper(Spectral(grid), COEFF, [COEFF.eps], [0.01],
                                 a_local, b_grad),
                    (_smooth(grid, rng, 0.3), _smooth(grid, rng, 0.3)))

        cases[f"kuznetsov-{dim}"] = wave(COEFF.alpha, 2.0)
        cases[f"westervelt-{dim}"] = wave((COEFF.gamma + 1.0) / COEFF.c**2,
                                          0.0)
        for tag, nu in (("viscous", COEFF.nu), ("inviscid", 0.0)):
            coeff = ModelCoefficients(c=COEFF.c, rho0=COEFF.rho0,
                                      gamma=COEFF.gamma, nu=nu,
                                      eps=COEFF.eps)
            cases[f"flow-{tag}-{dim}"] = (
                _FlowStepper(Spectral(grid), coeff, [coeff.eps], [0.01]),
                (coeff.rho0 * (1.0 + _smooth(grid, rng, 0.1)),
                 np.stack([_smooth(grid, rng, 0.1) for _ in grid.axes])))
    for case, (grid, ax_name, with_source) in ONEWAY_CASES.items():
        sp = Spectral(grid)
        source = 0.5 + _smooth(grid, rng, 1.0) if with_source else None
        cases[case] = (
            _OneWayStepper(sp, ax_name, 0.7, 0.05, -0.6, [0.005], [0.4],
                           None if source is None else sp.fft(source)),
            (sp.mean_zero(_smooth(grid, rng, 0.3), ax_name),))
    return cases


def test_long_march_matches_the_steps_through_physical_space(rng):
    for label, (stepper, state) in _long_march_cases(rng).items():
        span = LONG_MARCH * 0.01
        (out,) = march(lambda *_: stepper,
                       [(COEFF, stepper.sp.grid, state, span,
                         StepControl(step=span, substeps=LONG_MARCH), 2)],
                       label, lambda grid, evol, arrays: (evol, arrays))
        _, carried = out[-1]
        physical = state
        for n in range(1, LONG_MARCH + 1):
            physical = _one_step(stepper, physical, n)
        for a, b in zip(carried, physical, strict=True):
            assert np.abs(a - b).max() <= 1e-10 * np.abs(b).max(), label
