import numpy as np
import pytest

from nlparax import (
    Axis,
    Field,
    FlowState,
    Frame,
    Grid,
    ModelKind,
    assemble_ansatz,
    build_correctors,
    westervelt_initial_data,
    westervelt_transform,
)
from nlparax.ansatz import (
    kzk_intensity,
    kzk_potential,
    npe_potential,
    npe_xi,
)
from nlparax.models.base import ModelState
from nlparax.remainders import Ref, _Ctx
from nlparax.spectral import Spectral


def _kuz_state(coeff, n=64):
    g = Grid((Axis("x1", 2 * np.pi, n),), Frame.PHYSICAL)
    x = g.mesh()[0]
    u = Field(g, 0.4 * np.sin(x) + 0.1 * np.cos(2 * x))
    ut = Field(g, -coeff.c * 0.4 * np.cos(x))
    return ModelState(ModelKind.KUZNETSOV, 0.0, u, ut)


def test_kuznetsov_first_corrector(coeff):
    st = _kuz_state(coeff)
    rho1, _rho2 = build_correctors(coeff, st)
    expect = coeff.rho0 / coeff.c**2 * st.velocity.scalar
    assert np.abs(rho1 - expect).max() < 1e-14


def test_kuznetsov_second_corrector(coeff):
    st = _kuz_state(coeff)
    _rho1, rho2 = build_correctors(coeff, st)
    g = st.primary.grid
    u, ut = st.primary.scalar, st.velocity.scalar
    ux = Spectral(g).d(u, 0)
    uxx = Spectral(g).d(u, 0, 2)
    c2 = coeff.c**2
    expect = (-coeff.rho0 * (coeff.gamma - 2.0) / (2 * c2**2) * ut**2
              - coeff.rho0 / (2 * c2) * ux**2 - coeff.nu / c2 * uxx)
    assert np.abs(rho2 - expect).max() < 1e-12


def test_kuznetsov_correctors_need_velocity(coeff):
    st = _kuz_state(coeff)
    bare = ModelState(ModelKind.KUZNETSOV, 0.0, st.primary)
    with pytest.raises(ValueError):
        build_correctors(coeff, bare)


def test_assemble_kuznetsov_flow_state(coeff):
    st = _kuz_state(coeff)
    rho1, rho2 = build_correctors(coeff, st)
    out = assemble_ansatz(coeff, st, (rho1, rho2))
    assert isinstance(out, FlowState)
    eps = coeff.eps
    expect_rho = coeff.rho0 + eps * rho1 + eps**2 * rho2
    assert np.abs(out.rho.scalar - expect_rho).max() < 1e-13
    ux = Spectral(st.primary.grid).d(st.primary.scalar, 0)
    assert np.abs(out.velocity().component(0) + eps * ux).max() < 1e-13


def test_kzk_correctors_consistency(coeff):
    g = Grid((Axis("tau", 2 * np.pi, 64), Axis("y1", 2.0, 8)), Frame.KZK)
    T, Y = g.mesh()
    I = Field(g, 0.2 * np.sin(T) * (1.0 + 0.3 * np.cos(np.pi * Y)))
    ctx = _Ctx(g, coeff, {"I": I})
    phi = ctx.eval(Ref("Phi")).arr
    # potential satisfies I = rho0/c^2 dPhi/dtau
    dphi = Spectral(g).d(phi, 0)
    assert np.abs(coeff.rho0 / coeff.c**2 * dphi - I.scalar).max() < 1e-12
    # J is the tau-only second corrector
    d2phi = Spectral(g).d(phi, 0, 2)
    expect = (-coeff.rho0 * (coeff.gamma - 1.0) / (2 * coeff.c**4) * dphi**2
              - coeff.nu / coeff.c**4 * d2phi)
    assert np.abs(ctx.eval(Ref("J")).arr - expect).max() < 1e-12


def test_npe_correctors_consistency(coeff):
    # chi reads d/dtau of Psi, so the grid carries a tau axis
    g = Grid((Axis("z", 2 * np.pi, 64), Axis("tau", 2 * np.pi, 8)),
             Frame.NPE)
    z = np.broadcast_arrays(*g.mesh())[0]
    xi = Field(g, 0.2 * np.sin(z) + 0.05 * np.cos(3 * z))
    dpsi = Spectral(g).d(_Ctx(g, coeff, {"xi": xi}).eval(Ref("Psi")).arr, 0)
    # xi = -rho0/c dPsi/dz
    assert np.abs(-coeff.rho0 / coeff.c * dpsi - xi.scalar).max() < 1e-12


@pytest.mark.parametrize("frame, axis, inverse, potential", [
    (Frame.KZK, "tau", kzk_intensity, kzk_potential),
    (Frame.NPE, "z", npe_xi, npe_potential),
], ids=["kzk", "npe"])
def test_inverse_relations_recover_the_potential(coeff, frame, axis, inverse,
                                                 potential):
    g = Grid((Axis(axis, 2 * np.pi, 64), Axis("y1", 2.0, 8)), frame)
    s, y = g.mesh()
    sp = Spectral(g)
    pot = sp.mean_zero(np.exp(np.sin(s)) * (1.0 + 0.3 * np.cos(np.pi * y)),
                       axis)
    back = potential(coeff, sp.inv(inverse(coeff, sp.d(pot, axis)), axis))
    assert np.abs(back - pot).max() < 1e-12


def test_westervelt_transform_formula(coeff):
    st = _kuz_state(coeff)
    out = westervelt_transform(coeff, st.primary, st.velocity)
    expect = (st.primary.scalar
              + coeff.eps / coeff.c**2 * st.primary.scalar
              * st.velocity.scalar)
    assert np.abs(out.scalar - expect).max() < 1e-15
    other = Field.zeros(Grid((Axis("x1", 1.0, 8),), Frame.PHYSICAL))
    with pytest.raises(ValueError):
        westervelt_transform(coeff, st.primary, other)


def test_westervelt_initial_data_matches_transform(coeff):
    st = _kuz_state(coeff)
    pi0, pi1 = westervelt_initial_data(coeff, st.primary, st.velocity)
    expect = westervelt_transform(coeff, st.primary, st.velocity)
    assert np.abs(pi0.scalar - expect.scalar).max() < 1e-14
    assert pi1.grid == pi0.grid


def test_westervelt_initial_data_degeneracy_guard(coeff):
    g = Grid((Axis("x1", 2 * np.pi, 32),), Frame.PHYSICAL)
    u0 = Field.zeros(g)
    # u1 large enough to destroy the hyperbolicity margin
    huge = 0.8 * coeff.c**2 / ((coeff.gamma - 1.0) * coeff.eps)
    u1 = Field(g, np.full(32, huge))
    with pytest.raises(ValueError):
        westervelt_initial_data(coeff, u0, u1)


@pytest.mark.parametrize("op", ["d", "inv", "mean_zero"])
def test_ops_refuse_a_bounded_axis(op):
    g = Grid((Axis("x1", 2 * np.pi, 16), Axis("t", 1.0, 9, periodic=False)),
             Frame.PHYSICAL)
    ops = Spectral(g)
    v = np.ones(g.shape)
    with pytest.raises(ValueError, match="axis 't' is not periodic"):
        getattr(ops, op)(v, "t")
    assert getattr(ops, op)(v, "x1").shape == g.shape
