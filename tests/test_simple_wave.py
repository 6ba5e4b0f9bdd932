"""The flow reference against an exact solution of the nonlinear system.

In 1D without viscosity, data on which the left-moving Riemann invariant is
constant stay a simple wave until the gradient catastrophe (Courant and
Friedrichs, Supersonic Flow and Shock Waves, 1948; Whitham, Linear and
Nonlinear Waves, ch. 6).  With the quadratic state law, p'(s) = a + b s for
a = c^2 (2 - gamma) and b = (gamma - 1) c^2 / rho0; the sound speed is
q = sqrt(a + b s), the velocity v(rho) = int_rho0^rho q(s)/s ds and the
speed lambda = v + q.  The density is rho(x, t) = rho_init(x0) where
x = x0 + lambda(rho_init(x0)) t, and the momentum is rho v(rho).

Measured with rho_init = rho0 + eps 0.5 cos x on 64 points, eps = 0.04, the
L2 error in (rho, m) at t = 1/eps, where the studies' step is
dt = 0.5 / (c k_max) = 1/64:

    step   dt         dt/2       dt/4
    error  1.566e-4   3.911e-5   9.875e-6

The error is the midpoint rule's phase error, O(dt^2 t) on an O(eps) wave,
and falls fourfold per halving.  The same wave along the diagonal of a
32 x 32 box, at t = 5 and the studies' step 1/32 there:

    step   dt         dt/2       dt/4
    error  3.156e-4   7.890e-5   1.973e-5
"""

import math

import numpy as np

from nlparax.experiments import l2_error
from nlparax.fields import Axis, Field, Frame, Grid
from nlparax.flow import FlowState, solve_flow_rows
from nlparax.models.base import ModelCoefficients, StepControl

COEFF = ModelCoefficients(c=1.0, rho0=1.0, gamma=1.4, nu=0.0, eps=0.04)
GRID = Grid((Axis("x1", 2 * np.pi, 64),), Frame.PHYSICAL)
#: the studies' step on this grid: 0.5 / (c k_max) with k_max = 32
STEP = 0.5 / (COEFF.c * 32)
GRID_2D = Grid((Axis("x1", 2 * np.pi, 32), Axis("x2", 2 * np.pi, 32)),
               Frame.PHYSICAL)
STEP_2D = 0.5 / (COEFF.c * 16)


def _simple_wave(coeff: ModelCoefficients, amp: float, x: np.ndarray,
                 t: float) -> tuple[np.ndarray, np.ndarray]:
    """The density and momentum at the points x and time t of the simple
    wave from rho_init = rho0 + amp cos x."""
    a = coeff.c**2 * (2.0 - coeff.gamma)
    b = (coeff.gamma - 1.0) * coeff.c**2 / coeff.rho0
    ra = math.sqrt(a)

    def q(rho):
        return np.sqrt(a + b * rho)

    def prim(rho):  # an antiderivative of q(s)/s, for gamma < 2
        return 2.0 * q(rho) + ra * np.log((q(rho) - ra) / (q(rho) + ra))

    def v(rho):
        return prim(rho) - prim(coeff.rho0)

    x0 = x - coeff.c * t
    for _ in range(50):  # Newton on x0 + lambda(rho_init(x0)) t = x
        rho = coeff.rho0 + amp * np.cos(x0)
        residual = x0 + (v(rho) + q(rho)) * t - x
        if np.abs(residual).max() <= 1e-12:
            break
        dlam = q(rho) / rho + b / (2.0 * q(rho))  # d lambda / d rho
        x0 = x0 - residual / (1.0 - t * dlam * amp * np.sin(x0))
    else:
        raise AssertionError("Newton did not converge")
    return rho, rho * v(rho)


def _exact(coeff: ModelCoefficients, amp: float, t: float) -> FlowState:
    """The simple wave on GRID at time t."""
    rho, m = _simple_wave(coeff, amp, GRID.mesh()[0], t)
    return FlowState(Field(GRID, rho), Field(GRID, m[..., None], 1))


def _exact_oblique(coeff: ModelCoefficients, amp: float,
                   t: float) -> FlowState:
    """The plane simple wave from rho_init = rho0 + amp cos(x1 + x2) on
    GRID_2D at time t.  Along n = (1, 1)/sqrt(2) it is the 1D wave in
    xi = n . x, and s = x1 + x2 = sqrt(2) xi; so it is the wave of
    _simple_wave in s at time sqrt(2) t, its momentum along n split
    equally between the two axes."""
    x1, x2 = GRID_2D.mesh()
    rho, m = _simple_wave(coeff, amp, x1 + x2, math.sqrt(2) * t)
    return FlowState(Field(GRID_2D, rho),
                     Field(GRID_2D, np.stack([m / math.sqrt(2)] * 2, -1), 2))


def _orders(coeff: ModelCoefficients, exact, t_end: float, step: float):
    """The orders of the flow reference's error against exact(t) under two
    halvings of the step, and the errors."""
    amp = 0.5 * coeff.eps
    rows = [(coeff, exact(coeff, amp, 0.0), t_end,
             StepControl(step=step / k), 2) for k in (1, 2, 4)]
    end = exact(coeff, amp, t_end)
    errs = [l2_error(traj[-1][1], end) for traj in solve_flow_rows(rows)]
    return np.log2(np.array(errs[:-1]) / np.array(errs[1:])), errs


def test_flow_reference_converges_to_the_simple_wave_at_order_two():
    orders, errs = _orders(COEFF, _exact, 1.0 / COEFF.eps, STEP)
    # the bound of test_flow_order_two_under_step_halving
    assert orders.min() >= 1.8, (errs, orders)


def test_flow_reference_converges_to_an_oblique_simple_wave_at_order_two():
    # both axes' fluxes and pressure gradients carry the wave; at t = 5 it
    # has steepened 0.17 of the way to its gradient catastrophe
    orders, errs = _orders(COEFF, _exact_oblique, 5.0, STEP_2D)
    assert orders.min() >= 1.8, (errs, orders)
