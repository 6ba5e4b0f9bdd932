"""The one-way marches against an exact solution of their own nonlinear
equation.

Without a y axis, KZK and NPE march viscous Burgers on a periodic axis
(models.oneway):

    v' = a_nl d(v^2) + d_visc d^2 v,

KZK in z along tau with a_nl = (gamma+1)/(4 rho0 c) and d_visc =
nu/(2 c^3 rho0), NPE in tau along z with a_nl = -(gamma+1) c/(4 rho0) and
d_visc = nu/(2 rho0).  With w = -2 a_nl v this is w' + w dw = d_visc d^2 w,
and w = -2 d_visc d log(theta) turns that into the heat equation
theta' = d_visc d^2 theta, exact per Fourier mode, from theta =
exp(-W/(2 d_visc)) where W is the mean-zero antiderivative of w (Hopf, CPAM
3:201, 1950; Cole, Q. Appl. Math. 9:225, 1951; Whitham, Linear and
Nonlinear Waves, ch. 4).  So v = (d_visc/a_nl) d theta / theta, which
numpy alone gives.

The profile 0.5 sin x + 0.2 (sin 2x + cos 2x) has no mirror symmetry, so
the two signs of a_nl take it to different states, 0.4 apart at evolution
1: a sign slip in a_nl leaves an O(1) error.

Measured on 128 points of 2 pi with COEFF, L2 error at evolution 1 (the
oracle on 4x and 8x the points differs by 1e-14):

    step   0.05       0.025      0.0125
    KZK    2.902e-4   7.203e-5   1.793e-5
    NPE    5.475e-4   1.366e-4   3.412e-5

At 64 points the KZK error floors near 4.8e-5: its d_visc = 0.076 leaves
a front the grid does not resolve.  At the kuznetsov-npe study's step, the
NPE march's error, taken to the study's norm, is 8.3e-9, 1.3e-9 and
1.9e-10 at eps 0.04, 0.02 and 0.01: 3e-6 to 1e-6 of the study's error.
"""

import math

import numpy as np
import pytest

from nlparax import experiments
from nlparax.experiments import ExperimentConfig, scaling_study
from nlparax.fields import Axis, Field, Frame, Grid
from nlparax.models.base import ModelCoefficients, ModelKind, StepControl
from nlparax.models.oneway import solve_kzk, solve_npe, solve_npe_rows

from test_acceptance import PAIRWISE_CFG

COEFF = ModelCoefficients(c=1.3, rho0=0.9, gamma=1.4, nu=0.3, eps=0.02)
LENGTH = 2 * np.pi


def _burgers(model: ModelKind, co: ModelCoefficients) -> tuple[float, float]:
    """a_nl and d_visc of a march of the model with no y axis, from its
    equation in the models.oneway docstring."""
    if model is ModelKind.KZK:
        return ((co.gamma + 1.0) / (4.0 * co.rho0 * co.c),
                co.nu / (2.0 * co.c**3 * co.rho0))
    return -(co.gamma + 1.0) * co.c / (4.0 * co.rho0), co.nu / (2.0 * co.rho0)


def _cole_hopf(v0: np.ndarray, a_nl: float, d_visc: float, t: float,
               refine: int = 8) -> np.ndarray:
    """The exact v at evolution t on the points of v0, a band-limited
    mean-zero profile on n even points of a periodic axis of LENGTH; theta
    is taken on refine x n points."""
    n, m = v0.size, refine * v0.size
    k = 2 * np.pi * np.fft.rfftfreq(m, LENGTH / m)
    vh = np.zeros(m // 2 + 1, complex)
    vh[:n // 2] = refine * np.fft.rfft(v0)[:n // 2]
    # -W/(2 d_visc) is a_nl V/d_visc, V the mean-zero antiderivative of v0
    big_v = np.fft.irfft(np.divide(vh, 1j * k, out=np.zeros_like(vh),
                                   where=k != 0.0), m)
    theta = np.exp(a_nl / d_visc * big_v)
    theta_h = np.fft.rfft(theta / theta.max()) * np.exp(-d_visc * k**2 * t)
    v = (d_visc / a_nl * np.fft.irfft(1j * k * theta_h, m)
         / np.fft.irfft(theta_h, m))
    return v[::refine]


def _profile(x: np.ndarray) -> np.ndarray:
    return 0.5 * np.sin(x) + 0.2 * (np.sin(2 * x) + np.cos(2 * x))


def _l2(a: np.ndarray, b: np.ndarray, grid: Grid) -> float:
    return float(np.sqrt(grid.cell_volume * np.sum((a - b) ** 2)))


TAU, Z, Y = (Axis(name, LENGTH, points)
             for name, points in (("tau", 128), ("z", 128), ("y1", 8)))
CASES = {
    "kzk": (ModelKind.KZK, solve_kzk, Grid((TAU,), Frame.KZK)),
    "npe": (ModelKind.NPE, solve_npe, Grid((Z,), Frame.NPE)),
    # y-independent data: diffraction must leave it the 1D march's
    "kzk y-independent": (ModelKind.KZK, solve_kzk,
                          Grid((TAU, Y), Frame.KZK)),
}


@pytest.mark.parametrize("case", CASES)
def test_one_way_march_converges_to_cole_hopf(case):
    model, solve, grid = CASES[case]
    x = grid.axes[0].coordinates()
    exact = _cole_hopf(_profile(x), *_burgers(model, COEFF), 1.0)
    along_y = (1,) * (len(grid.axes) - 1)
    v0 = Field(grid, np.broadcast_to(_profile(x).reshape(-1, *along_y),
                                     grid.shape).copy())
    errs = [_l2(solve(COEFF, v0, 1.0, StepControl(step=step))[-1]
                .primary.scalar, exact.reshape(-1, *along_y), grid)
            for step in (0.05, 0.025, 0.0125)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # the bound of test_flow_order_two_under_step_halving
    assert orders.min() >= 1.8, (errs, orders)


def test_npe_time_error_is_a_small_part_of_the_kuznetsov_npe_error(
        monkeypatch):
    # the NPE marches of the kuznetsov-npe study, at the study's own step,
    # against the oracle from the profile each march starts from
    marched = []

    def recorded(rows):
        out = solve_npe_rows(rows)
        marched.extend(out)
        return out

    monkeypatch.setattr(experiments, "solve_npe_rows", recorded)
    rep = scaling_study(ExperimentConfig(**PAIRWISE_CFG,
                                         pair="kuznetsov-npe"))
    assert len(marched) == len(rep.series) == 3
    coeff = PAIRWISE_CFG["coeff"]  # eps does not enter a_nl or d_visc
    for states, series in zip(marched, rep.series):
        start, end = states[0].primary, states[-1].primary
        exact = _cole_hopf(start.scalar, *_burgers(ModelKind.NPE, coeff),
                           states[-1].evol)
        err = _l2(end.scalar, exact, end.grid)
        # u_t and grad u of the Kuznetsov state transported from xi are
        # each c/rho0 xi to leading order: sqrt(2) c/rho0 takes the error to
        # the study's energy norm.  A march's own time error may be at most
        # a tenth of the claim error it stands beside.
        share = math.sqrt(2) * coeff.c / coeff.rho0 * err
        assert share <= 0.1 * series["l2_error"][-1], (series["eps"], err)
