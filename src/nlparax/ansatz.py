"""Corrector closed forms, the Kuznetsov ansatz and the Westervelt transform.

The density expansion around the constant state rho0 reads

  rho = rho0 + eps * first + eps^2 * second

with (first, second) = (rho1, rho2) for Kuznetsov, (I, J) for KZK and
(xi, chi) for NPE.  The KZK potential is Phi = (c^2/rho0) invdtau(I), the NPE
potential Psi = -(c/rho0) invdz(xi), with the inverses I = (rho0/c^2) dtau Phi
and xi = -(rho0/c) dz Psi.  Each closed form is one function of the
derivative arrays it needs, shared by the remainder tables and the studies.
The studies lift Kuznetsov states to flow states (build_correctors,
assemble_ansatz); the remainder tables derive the correctors of every pair.
"""

from __future__ import annotations

import numpy as np

from .fields import Field
from .flow import FlowState
from .models.base import ModelCoefficients, ModelState
from .spectral import Spectral

__all__ = [
    "build_correctors",
    "assemble_ansatz",
    "westervelt_transform",
    "westervelt_initial_data",
    "right_moving_velocity",
]


def kuznetsov_rho1(coeff: ModelCoefficients, ut: np.ndarray) -> np.ndarray:
    """rho1 = (rho0/c^2) u_t."""
    return coeff.rho0 / (coeff.c * coeff.c) * ut


def kuznetsov_rho2(coeff: ModelCoefficients, ut: np.ndarray,
                   grad_sq_u: np.ndarray, lap_u: np.ndarray) -> np.ndarray:
    """rho2 = -rho0 (gamma-2)/(2c^4) u_t^2 - rho0/(2c^2) |grad u|^2 - nu/c^2 Lap u."""
    c2, rho0 = coeff.c * coeff.c, coeff.rho0
    return (-rho0 * (coeff.gamma - 2.0) / (2.0 * c2**2) * ut**2
            - rho0 / (2.0 * c2) * grad_sq_u - coeff.nu / c2 * lap_u)


def kzk_potential(coeff: ModelCoefficients, inv_tau_I: np.ndarray) -> np.ndarray:
    """Phi = (c^2/rho0) invdtau(I), from the antiderivative of I."""
    return coeff.c * coeff.c / coeff.rho0 * inv_tau_I


def kzk_intensity(coeff: ModelCoefficients, dtau_phi: np.ndarray) -> np.ndarray:
    """I = (rho0/c^2) dtau Phi, the inverse of kzk_potential."""
    return coeff.rho0 / (coeff.c * coeff.c) * dtau_phi


def kzk_j(coeff: ModelCoefficients, dtau_phi: np.ndarray,
          dtau2_phi: np.ndarray) -> np.ndarray:
    """J = -rho0 (gamma-1)/(2c^4) (dtau Phi)^2 - (nu/c^4) dtau^2 Phi."""
    c2 = coeff.c * coeff.c
    return (-coeff.rho0 * (coeff.gamma - 1.0) / (2.0 * c2**2) * dtau_phi**2
            - coeff.nu / c2**2 * dtau2_phi)


def npe_potential(coeff: ModelCoefficients, inv_z_xi: np.ndarray) -> np.ndarray:
    """Psi = -(c/rho0) invdz(xi), from the antiderivative of xi."""
    return -coeff.c / coeff.rho0 * inv_z_xi


def npe_xi(coeff: ModelCoefficients, dz_psi: np.ndarray) -> np.ndarray:
    """xi = -(rho0/c) dz Psi, the inverse of npe_potential."""
    return -coeff.rho0 / coeff.c * dz_psi


def npe_chi(coeff: ModelCoefficients, dtau_psi: np.ndarray,
            dz_psi: np.ndarray, dz2_psi: np.ndarray) -> np.ndarray:
    """chi = rho0/c^2 dtau Psi - rho0 (gamma-1)/(2c^2) (dz Psi)^2 - nu/c^2 dz^2 Psi."""
    c2, rho0 = coeff.c * coeff.c, coeff.rho0
    return (rho0 / c2 * dtau_psi
            - rho0 * (coeff.gamma - 1.0) / (2.0 * c2) * dz_psi**2
            - coeff.nu / c2 * dz2_psi)


def _kuznetsov_utt(sp: Spectral, coeff: ModelCoefficients, u: np.ndarray,
                   ut: np.ndarray) -> np.ndarray:
    """u_tt through the Kuznetsov equation, the elimination the stepper makes:
    (c^2 Lap u + eps nu/rho0 Lap u_t + 2 eps grad u . grad u_t)
    / (1 - eps (gamma-1)/c^2 u_t)."""
    eps = coeff.eps
    grad_dot = np.zeros_like(u)
    for name in sp.group("x"):
        grad_dot += sp.d(u, name) * sp.d(ut, name)
    denom = 1.0 - coeff.alpha * eps * ut
    return (coeff.c**2 * sp.lap(u, "x") + eps * coeff.nu / coeff.rho0
            * sp.lap(ut, "x") + 2.0 * eps * grad_dot) / denom


def _npe_dtau_psi(sp: Spectral, coeff: ModelCoefficients, psi: np.ndarray) -> np.ndarray:
    """d Psi/dtau for an NPE potential without a tau axis, via the model
    equation (mean-zero in z by the potential normalization)."""
    c, rho0 = coeff.c, coeff.rho0
    dz = sp.d(psi, "z")
    out = ((coeff.gamma + 1.0) / 4.0 * dz**2
           + coeff.nu / (2.0 * rho0) * sp.d(psi, "z", 2)
           - c / 2.0 * sp.inv(sp.lap(psi, "y"), "z"))
    return sp.mean_zero(out, "z")


def build_correctors(coeff: ModelCoefficients,
                     state: ModelState) -> tuple[np.ndarray, np.ndarray]:
    """The density correctors (rho1, rho2) of one Kuznetsov state.

    u_t is the state's velocity; the spatial derivatives run over the x axes.
    """
    if state.velocity is None:
        raise ValueError("Kuznetsov correctors need u_t (the state's "
                         "velocity field)")
    sp = Spectral(state.primary.grid)
    u, ut = state.primary.scalar, state.velocity.scalar
    return (kuznetsov_rho1(coeff, ut),
            kuznetsov_rho2(coeff, ut, sp.grad_sq(u, "x"), sp.lap(u, "x")))


def assemble_ansatz(coeff: ModelCoefficients, state: ModelState,
                    correctors: tuple[np.ndarray, np.ndarray]):
    """The flow state rho = rho0 + eps rho1 + eps^2 rho2, v = -eps grad u
    of one Kuznetsov state, on its physical grid."""
    grid = state.primary.grid
    sp = Spectral(grid)
    eps = coeff.eps
    rho1, rho2 = correctors
    rho = coeff.rho0 + eps * rho1 + eps**2 * rho2
    u = state.primary.scalar
    xnames = sp.group("x")
    v = np.stack([-eps * sp.d(u, n) for n in xnames], axis=-1)
    return FlowState.from_primitive(Field(grid, rho),
                                    Field(grid, v, len(xnames)))


def westervelt_transform(coeff: ModelCoefficients, u: Field, u_t: Field) -> Field:
    """Quadratic change of unknown Pi = u + (eps/c^2) u u_t."""
    if u.grid != u_t.grid:
        raise ValueError("u and u_t must share one grid")
    eps, c2 = coeff.eps, coeff.c**2
    return u.with_values(u.values + eps / c2 * u.values * u_t.values)


def westervelt_initial_data(coeff: ModelCoefficients, u0: Field,
                            u1: Field) -> tuple[Field, Field]:
    """Initial data (Pi0, Pi1) matched to Kuznetsov data (u0, u1).

    Pi1 eliminates u_tt(0) through the Kuznetsov equation itself, which
    brings in the factor (1 - (gamma-1)/c^2 eps u1)^(-1); the map errors out
    if that factor's magnitude drops below 0.5 (loss of the hyperbolicity
    margin)."""
    if u0.grid != u1.grid:
        raise ValueError("u0 and u1 must share one grid")
    a0, a1 = u0.scalar, u1.scalar
    if np.min(np.abs(1.0 - coeff.alpha * coeff.eps * a1)) < 0.5:
        raise ValueError(
            "degeneracy factor |1 - (gamma-1)/c^2 eps u1| dropped below 0.5"
        )
    pi1 = westervelt_pi_t(Spectral(u0.grid), coeff, a0, a1)
    return westervelt_transform(coeff, u0, u1), Field(u0.grid, pi1)


def westervelt_pi_t(sp: Spectral, coeff: ModelCoefficients, u: np.ndarray,
                    ut: np.ndarray) -> np.ndarray:
    """Pi_t = u_t + (eps/c^2) u_t^2 + (eps/c^2) u u_tt along a Kuznetsov
    state, with u_tt eliminated through the Kuznetsov equation."""
    utt = _kuznetsov_utt(sp, coeff, u, ut)
    eps, c2 = coeff.eps, coeff.c**2
    return ut + eps / c2 * ut**2 + eps / c2 * u * utt


def right_moving_velocity(coeff: ModelCoefficients, u0: Field) -> Field:
    """First-order data u1 = -c du0/dx1 of a wave moving towards +x1."""
    return Field(u0.grid, -coeff.c * Spectral(u0.grid).d(u0.scalar, "x1"))
