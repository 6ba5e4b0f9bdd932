import numpy as np
import pytest

from nlparax import (
    Axis,
    Field,
    FlowState,
    Frame,
    Grid,
    ModelCoefficients,
    StepControl,
    admissibility_residual,
    entropy_hessian,
    entropy_pair,
    solve_flow,
)
from nlparax.flow import entropy_gradient, pressure_from_density
from nlparax.models import PositivityLost, SolverError


def _smooth_state(coeff, n=64, amp=0.05):
    g = Grid((Axis("x1", 2 * np.pi, n),), Frame.PHYSICAL)
    x = g.mesh()[0]
    rho = Field(g, coeff.rho0 * (1.0 + amp * np.sin(x)))
    v = Field(g, (amp * np.cos(x))[..., None], 1)
    return FlowState.from_primitive(rho, v)


def test_constant_state_is_fixed_point(coeff):
    g = Grid((Axis("x1", 2 * np.pi, 32),), Frame.PHYSICAL)
    init = FlowState.from_primitive(Field(g, np.full(32, coeff.rho0)),
                                    Field.zeros(g, 1))
    traj = solve_flow(coeff, init, 1.0, StepControl(step=0.01))
    final = traj[-1][1]
    assert np.abs(final.rho.scalar - coeff.rho0).max() < 1e-13
    assert np.abs(final.momentum.values).max() < 1e-13


def test_mass_is_conserved(coeff):
    init = _smooth_state(coeff)
    w = init.grid.cell_volume
    m0 = np.sum(init.rho.scalar) * w
    traj = solve_flow(coeff, init, 1.0, StepControl(step=0.005), n_samples=5)
    for _t, U in traj:
        assert abs(np.sum(U.rho.scalar) * w - m0) < 1e-10 * abs(m0)


def test_flow_requires_physical_frame(coeff):
    g = Grid((Axis("z", 2 * np.pi, 16),), Frame.NPE)
    init = FlowState.from_primitive(Field(g, np.full(16, 1.0)),
                                    Field.zeros(g, 1))
    with pytest.raises(ValueError):
        solve_flow(coeff, init, 1.0, StepControl(step=0.1))


def test_entropy_pair_positive_and_rejects_vacuum(coeff):
    U = _smooth_state(coeff)
    eta, q = entropy_pair(coeff, U)
    assert q.components == 1
    # eta is rho h(rho) + kinetic; h is only defined up to a constant, but
    # the Hessian convexity below is the meaningful statement
    # vacuum/negative densities are rejected at construction already
    with pytest.raises(ValueError):
        FlowState.from_primitive(Field(U.grid, -np.ones(64)),
                                 Field.zeros(U.grid, 1))


def test_entropy_hessian_positive_definite(coeff, rng):
    for _ in range(50):
        rho = float(rng.uniform(0.1, 4.0))
        v = rng.uniform(-3.0, 3.0, size=int(rng.integers(1, 4)))
        H = entropy_hessian(coeff, rho, v)
        assert H.shape == (v.size + 1, v.size + 1)
        assert np.allclose(H, H.T)
        assert np.linalg.eigvalsh(H).min() > 0.0


def test_entropy_gradient_matches_finite_differences(coeff):
    rho, v = 1.3, np.array([0.4])
    eps = 1e-6

    def eta(rho_, m_):
        U = m_ / rho_
        from nlparax.flow import _h
        return rho_ * _h(coeff, np.asarray(rho_)) + 0.5 * m_**2 / rho_

    m = rho * v[0]
    g_rho, g_m = entropy_gradient(coeff, np.asarray(rho), v)
    fd_rho = (eta(rho + eps, m) - eta(rho - eps, m)) / (2 * eps)
    fd_m = (eta(rho, m + eps) - eta(rho, m - eps)) / (2 * eps)
    assert float(g_rho) == pytest.approx(float(fd_rho), rel=1e-6)
    assert float(g_m[0]) == pytest.approx(float(fd_m), rel=1e-6)


def test_pressure_linearization(coeff):
    # p(rho0) = 0 and dp/drho(rho0) = c^2
    rho0 = coeff.rho0
    assert pressure_from_density(coeff, np.asarray(rho0)) == pytest.approx(0.0)
    h = 1e-6
    dp = (pressure_from_density(coeff, np.asarray(rho0 + h))
          - pressure_from_density(coeff, np.asarray(rho0 - h))) / (2 * h)
    assert dp == pytest.approx(coeff.c**2, rel=1e-6)


def test_admissibility_residual_requirements(coeff):
    init = _smooth_state(coeff)
    traj = solve_flow(coeff, init, 0.1, StepControl(step=0.01), n_samples=2)
    with pytest.raises(ValueError):
        admissibility_residual(coeff, traj)  # too few samples
    traj = solve_flow(coeff, init, 0.1, StepControl(step=0.01), n_samples=11)
    bad = [traj[0], traj[1], traj[4]]
    with pytest.raises(ValueError):
        admissibility_residual(coeff, bad)  # non-uniform sampling


def test_admissibility_residual_small_for_smooth_flow(coeff):
    init = _smooth_state(coeff)
    traj = solve_flow(coeff, init, 1.0, StepControl(step=0.01), n_samples=101)
    times, res = admissibility_residual(coeff, traj)
    assert len(times) == len(traj) - 2
    assert np.abs(res).max() < 1e-6


def test_lost_positivity_is_a_solver_error():
    # a strong compression wave with a coarse step drives rho below zero
    coeff = ModelCoefficients(nu=0.0, eps=0.5)
    g = Grid((Axis("x1", 2 * np.pi, 32),), Frame.PHYSICAL)
    x = g.mesh()[0]
    init = FlowState.from_primitive(Field(g, 1.0 + 0.9 * np.sin(x)),
                                    Field(g, (2.0 * np.cos(x))[..., None], 1))
    with pytest.raises(PositivityLost, match="density positivity lost") as exc:
        solve_flow(coeff, init, 5.0, StepControl(step=0.05))
    assert isinstance(exc.value, SolverError)
