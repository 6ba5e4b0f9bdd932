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
and falls fourfold per halving.
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


def _exact(coeff: ModelCoefficients, amp: float, t: float) -> FlowState:
    """The simple wave from rho_init = rho0 + amp cos x at time t."""
    a = coeff.c**2 * (2.0 - coeff.gamma)
    b = (coeff.gamma - 1.0) * coeff.c**2 / coeff.rho0
    ra = math.sqrt(a)

    def q(rho):
        return np.sqrt(a + b * rho)

    def prim(rho):  # an antiderivative of q(s)/s, for gamma < 2
        return 2.0 * q(rho) + ra * np.log((q(rho) - ra) / (q(rho) + ra))

    def v(rho):
        return prim(rho) - prim(coeff.rho0)

    x = GRID.mesh()[0]
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
    return FlowState(Field(GRID, rho), Field(GRID, (rho * v(rho))[..., None],
                                             1))


def test_flow_reference_converges_to_the_simple_wave_at_order_two():
    amp, t_end = 0.5 * COEFF.eps, 1.0 / COEFF.eps
    init = _exact(COEFF, amp, 0.0)
    exact = _exact(COEFF, amp, t_end)
    rows = [(COEFF, init, t_end, StepControl(step=STEP / k), 2)
            for k in (1, 2, 4)]
    errs = [l2_error(traj[-1][1], exact) for traj in solve_flow_rows(rows)]
    orders = np.log2(np.array(errs[:-1]) / np.array(errs[1:]))
    # the bound of test_flow_order_two_under_step_halving
    assert orders.min() >= 1.8, (errs, orders)
