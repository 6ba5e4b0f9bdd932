"""Graded remainder terms for the six model pairs.

Every remainder expression is transcribed into a table of terms
(term_id, eps power as a Fraction, coefficient, factor-derivative tree);
nothing is hand-expanded.  The tables are evaluated on a single grid whose
periodic axes use spectral derivatives and whose bounded axes (the evolution
direction of a stacked solver trajectory) use fourth-order centered finite
differences.  Finite-difference applications wrap around, so each result
carries a per-axis margin of edge points to discard.

Pairs and the base fields they need (`_PAIR_TABLE` names the one the CLI
passes and each pair's variants):

  ns-kuznetsov           u(t, x...)            -> mass + momentum per x axis
  ns-kzk                 Phi or I (tau, z, y)  -> mass + axial + transverse
  ns-npe                 Psi or xi (tau, z, y) -> mass + axial + transverse
  kuznetsov-kzk          Phi or I (tau, z, y)  -> single field
  kuznetsov-npe          Psi or xi (tau, z, y) -> single field
  kuznetsov-westervelt   u(t, x...)            -> single field

The returned fields are the graded sums divided by eps^3 (flow pairs) or
eps^2 (model-to-model pairs); fractional powers in the transverse momentum
tables therefore leave explicit sqrt(eps) factors in the output.
"""

from __future__ import annotations

from dataclasses import dataclass, field as dc_field
from fractions import Fraction
from typing import Callable, Mapping, Sequence, Union

import numpy as np

from .ansatz import (
    kuznetsov_rho1,
    kuznetsov_rho2,
    kzk_intensity,
    kzk_j,
    kzk_potential,
    npe_chi,
    npe_potential,
    npe_xi,
)
from .fields import Field, Grid, MissingInput
from .models.base import ModelCoefficients
from .spectral import Spectral

__all__ = [
    "PAIRS",
    "Term",
    "RemainderResult",
    "input_field",
    "term_table",
    "base_power",
    "evaluate_remainder",
]

#: pair -> (the input field the CLI passes, the variants, default first).
#: The "printed" source expressions contain slips that the
#: residual-consistency oracle rejects, so each pair that has them defaults
#: to the corrected ("consistent") form.
_PAIR_TABLE = {
    "ns-kuznetsov": ("u", ("consistent", "printed")),
    "ns-kzk": ("I", ("consistent", "printed")),
    "ns-npe": ("xi", ("consistent", "printed")),
    "kuznetsov-kzk": ("I", ("",)),
    "kuznetsov-npe": ("xi", ("",)),
    "kuznetsov-westervelt": ("u", ("consistent", "printed")),
}
PAIRS = tuple(_PAIR_TABLE)

CoeffFn = Callable[[ModelCoefficients], float]
Scale = Union[float, CoeffFn]


# ---------------------------------------------------------------------------
# expression trees


@dataclass(frozen=True)
class Ref:
    name: str
    derivs: tuple[tuple[str, int], ...] = ()


@dataclass(frozen=True)
class Deriv:
    expr: "Expr"
    axis: str
    order: int = 1


@dataclass(frozen=True)
class Prod:
    factors: tuple["Expr", ...]


@dataclass(frozen=True)
class Sum:
    addends: tuple[tuple[Scale, "Expr"], ...]


Expr = Union[Ref, Deriv, Prod, Sum]


@dataclass(frozen=True)
class Term:
    term_id: str
    power: Fraction
    coeff: CoeffFn
    expr: Expr


def _R(name: str, *derivs: tuple[str, int]) -> Ref:
    return Ref(name, tuple(derivs))


def _P(*factors: Expr) -> Prod:
    return Prod(tuple(factors))


def _S(*addends: tuple[Scale, Expr]) -> Sum:
    return Sum(tuple(addends))


def _dot(a: str, da: tuple, b: str, db: tuple, axes: Sequence[str]) -> Sum:
    """sum_j d_j(a-derivative) * d_j(b-derivative) over the listed axes."""
    return Sum(tuple(
        (1.0, _P(Ref(a, tuple(da) + ((ax, 1),)), Ref(b, tuple(db) + ((ax, 1),))))
        for ax in axes))


def _grad_sq(name: str, axes: Sequence[str], extra: tuple = ()) -> Sum:
    return _dot(name, extra, name, extra, axes)


def _lap(name: str, axes: Sequence[str], extra: tuple = ()) -> Sum:
    return Sum(tuple((1.0, Ref(name, tuple(extra) + ((ax, 2),))) for ax in axes))


# ---------------------------------------------------------------------------
# term tables


def _ns_kuznetsov_mass(xs: Sequence[str], variant: str) -> list[Term]:
    u_t = _R("u", ("t", 1))
    terms = [
        Term("mass-e3-ut-dt-ut2", Fraction(3),
             lambda C: C.rho0 * (C.gamma - 2.0) / (2.0 * C.c**6),
             _P(u_t, Deriv(_P(u_t, u_t), "t"))),
        Term("mass-e3-ut-dt-gradsq", Fraction(3),
             lambda C: C.rho0 / C.c**4,
             _P(u_t, Deriv(_grad_sq("u", xs), "t"))),
        Term("mass-e3-ut-dtlap", Fraction(3),
             lambda C: C.nu / C.c**4,
             _P(u_t, _lap("u", xs, extra=(("t", 1),)))),
        Term("mass-e3-gradrho2-gradu", Fraction(3),
             lambda C: -1.0, _dot("rho2", (), "u", (), xs)),
        Term("mass-e3-rho2-lap", Fraction(3),
             lambda C: -1.0, _P(_R("rho2"), _lap("u", xs))),
    ]
    if variant != "consistent":
        terms += [
            Term("mass-e3-ut-lap", Fraction(3),
                 lambda C: -C.rho0 / C.c**2,
                 _P(u_t, _lap("u", xs))),
            Term("mass-e4-ut-gradrho2-gradu", Fraction(4),
                 lambda C: 1.0 / C.c**2,
                 _P(u_t, _dot("rho2", (), "u", (), xs))),
            Term("mass-e4-ut-rho2-lap", Fraction(4),
                 lambda C: 1.0 / C.c**2,
                 _P(u_t, _R("rho2"), _lap("u", xs))),
        ]
    else:
        # the operator identity closes with + (rho0/c^4)(u_t)^2 Lap u at
        # eps^3 and (rho0/c^6)(u_t)^2 d_t N at eps^4, N being the full
        # nonlinear right side of the wave model
        terms += [
            Term("mass-e3-ut2-lap", Fraction(3),
                 lambda C: C.rho0 / C.c**4,
                 _P(u_t, u_t, _lap("u", xs))),
            Term("mass-e4-ut2-dt-gradsq", Fraction(4),
                 lambda C: C.rho0 / C.c**6,
                 _P(u_t, u_t, Deriv(_grad_sq("u", xs), "t"))),
            Term("mass-e4-ut2-dt-ut2", Fraction(4),
                 lambda C: C.rho0 * (C.gamma - 1.0) / (2.0 * C.c**8),
                 _P(u_t, u_t, Deriv(_P(u_t, u_t), "t"))),
            Term("mass-e4-ut2-dtlap", Fraction(4),
                 lambda C: C.nu / C.c**6,
                 _P(u_t, u_t, _lap("u", xs, extra=(("t", 1),)))),
        ]
    return terms


def _ns_kuznetsov_momentum(a: str, xs: Sequence[str], variant: str) -> list[Term]:
    terms = [
        Term(f"mom-{a}-e3-rho1-dgradsq", Fraction(3),
             lambda C: 0.5, _P(_R("rho1"), Deriv(_grad_sq("u", xs), a))),
        Term(f"mom-{a}-e3-rho2-dtd", Fraction(3),
             lambda C: -1.0, _P(_R("rho2"), _R("u", ("t", 1), (a, 1)))),
        Term(f"mom-{a}-e4-rho2-dgradsq", Fraction(4),
             lambda C: 0.5, _P(_R("rho2"), Deriv(_grad_sq("u", xs), a))),
    ]
    if variant == "consistent":
        # cross terms of the quadratic state law, grad(p(rho)) at third and
        # fourth order in the density expansion
        terms += [
            Term(f"mom-{a}-e3-d-rho1rho2", Fraction(3),
                 lambda C: (C.gamma - 1.0) * C.c**2 / C.rho0,
                 Deriv(_P(_R("rho1"), _R("rho2")), a)),
            Term(f"mom-{a}-e4-d-rho2sq", Fraction(4),
                 lambda C: (C.gamma - 1.0) * C.c**2 / (2.0 * C.rho0),
                 Deriv(_P(_R("rho2"), _R("rho2")), a)),
        ]
    return terms


# recurring bracketed combinations in the KZK flow-remainder tables
def _kzk_b1(ys: Sequence[str]) -> Sum:
    """-(2/c) dz Phi dtau Phi + (grad_y Phi)^2"""
    return _S(
        (lambda C: -2.0 / C.c, _P(_R("Phi", ("z", 1)), _R("Phi", ("tau", 1)))),
        (1.0, _grad_sq("Phi", ys)),
    )


def _kzk_b2(ys: Sequence[str]) -> Sum:
    """-(2/c) dtau dz Phi + Lap_y Phi"""
    return _S(
        (lambda C: -2.0 / C.c, _R("Phi", ("tau", 1), ("z", 1))),
        (1.0, _lap("Phi", ys)),
    )


def _kzk_b3() -> Sum:
    """(1/c^2)(dtau Phi)^2"""
    return _S((lambda C: 1.0 / C.c**2,
               _P(_R("Phi", ("tau", 1)), _R("Phi", ("tau", 1)))))


_KZK_B4 = _P(_R("Phi", ("z", 1)), _R("Phi", ("z", 1)))  # (dz Phi)^2


def _ns_kzk_mass(ys: Sequence[str], variant: str) -> list[Term]:
    if variant == "consistent":
        tag, line4 = "phi", _P(_R("J", ("z", 1)), _R("Phi", ("tau", 1)))
    else:
        tag, line4 = "j", _P(_R("J", ("z", 1)), _R("J", ("tau", 1)))
    return [
        Term("mass-e3-dz2phi", Fraction(3), lambda C: -C.rho0,
             _R("Phi", ("z", 2))),
        Term("mass-e3-dzI-dtphi", Fraction(3), lambda C: 1.0 / C.c,
             _P(_R("I", ("z", 1)), _R("Phi", ("tau", 1)))),
        Term("mass-e3-dtI-dzphi", Fraction(3), lambda C: 1.0 / C.c,
             _P(_R("I", ("tau", 1)), _R("Phi", ("z", 1)))),
        Term("mass-e3-gradI-gradphi", Fraction(3), lambda C: -1.0,
             _dot("I", (), "Phi", (), ys)),
        Term("mass-e3-I-dtdzphi", Fraction(3), lambda C: 2.0 / C.c,
             _P(_R("I"), _R("Phi", ("tau", 1), ("z", 1)))),
        Term("mass-e3-I-lapphi", Fraction(3), lambda C: -1.0,
             _P(_R("I"), _lap("Phi", ys))),
        Term("mass-e3-dtJ-dtphi", Fraction(3), lambda C: -1.0 / C.c**2,
             _P(_R("J", ("tau", 1)), _R("Phi", ("tau", 1)))),
        Term("mass-e3-J-dt2phi", Fraction(3), lambda C: -1.0 / C.c**2,
             _P(_R("J"), _R("Phi", ("tau", 2)))),
        Term("mass-e4-dzI-dzphi", Fraction(4), lambda C: -1.0,
             _P(_R("I", ("z", 1)), _R("Phi", ("z", 1)))),
        Term("mass-e4-I-dz2phi", Fraction(4), lambda C: -1.0,
             _P(_R("I"), _R("Phi", ("z", 2)))),
        Term(f"mass-e4-dzJ-dt-{tag}", Fraction(4), lambda C: 1.0 / C.c,
             line4),
        Term("mass-e4-dtJ-dzphi", Fraction(4), lambda C: 1.0 / C.c,
             _P(_R("J", ("tau", 1)), _R("Phi", ("z", 1)))),
        Term("mass-e4-gradJ-gradphi", Fraction(4), lambda C: -1.0,
             _dot("J", (), "Phi", (), ys)),
        Term("mass-e4-J-dtdzphi", Fraction(4), lambda C: 2.0 / C.c,
             _P(_R("J"), _R("Phi", ("tau", 1), ("z", 1)))),
        Term("mass-e4-J-lapphi", Fraction(4), lambda C: -1.0,
             _P(_R("J"), _lap("Phi", ys))),
        Term("mass-e5-dzJ-dzphi", Fraction(5), lambda C: -1.0,
             _P(_R("J", ("z", 1)), _R("Phi", ("z", 1)))),
        Term("mass-e5-J-dz2phi", Fraction(5), lambda C: -1.0,
             _P(_R("J"), _R("Phi", ("z", 2)))),
    ]


def _ns_kzk_momentum_axial(ys: Sequence[str], variant: str) -> list[Term]:
    b1, b2, b3, b4 = _kzk_b1(ys), _kzk_b2(ys), _kzk_b3(), _KZK_B4
    if variant != "consistent":
        extra = [
            # transcribed with no outer derivative on the bracket
            Term("momax-e6-J-b1", Fraction(6),
                 lambda C: 0.5, _P(_R("J"), b1)),
        ]
    else:
        # quadratic state-law cross terms plus the missing range derivative
        # on the last mixed bracket, from re-deriving the momentum identity
        extra = [
            Term("momax-e3-dt-IJ", Fraction(3),
                 lambda C: -(C.gamma - 1.0) * C.c / C.rho0,
                 Deriv(_P(_R("I"), _R("J")), "tau")),
            Term("momax-e4-dz-IJ", Fraction(4),
                 lambda C: (C.gamma - 1.0) * C.c**2 / C.rho0,
                 Deriv(_P(_R("I"), _R("J")), "z")),
            Term("momax-e4-dt-Jsq", Fraction(4),
                 lambda C: -(C.gamma - 1.0) * C.c / (2.0 * C.rho0),
                 Deriv(_P(_R("J"), _R("J")), "tau")),
            Term("momax-e5-dz-Jsq", Fraction(5),
                 lambda C: (C.gamma - 1.0) * C.c**2 / (2.0 * C.rho0),
                 Deriv(_P(_R("J"), _R("J")), "z")),
            Term("momax-e6-J-dz-b1", Fraction(6),
                 lambda C: 0.5, _P(_R("J"), Deriv(b1, "z"))),
        ]
    return extra + [
        Term("momax-e3-dt-b1", Fraction(3),
             lambda C: -C.rho0 / (2.0 * C.c), Deriv(b1, "tau")),
        Term("momax-e3-dt-b2", Fraction(3),
             lambda C: -C.nu / C.c, Deriv(b2, "tau")),
        Term("momax-e3-I-dt-b3", Fraction(3),
             lambda C: -1.0 / (2.0 * C.c), _P(_R("I"), Deriv(b3, "tau"))),
        Term("momax-e3-J-dt2phi", Fraction(3),
             lambda C: 1.0 / C.c, _P(_R("J"), _R("Phi", ("tau", 2)))),
        Term("momax-e4-dz-b1", Fraction(4),
             lambda C: C.rho0 / 2.0, Deriv(b1, "z")),
        Term("momax-e4-dz-b2", Fraction(4),
             lambda C: C.nu, Deriv(b2, "z")),
        Term("momax-e4-I-dt-b1", Fraction(4),
             lambda C: -1.0 / (2.0 * C.c), _P(_R("I"), Deriv(b1, "tau"))),
        Term("momax-e4-I-dz-b3", Fraction(4),
             lambda C: 0.5, _P(_R("I"), Deriv(b3, "z"))),
        Term("momax-e4-J-dtdzphi", Fraction(4),
             lambda C: -1.0, _P(_R("J"), _R("Phi", ("tau", 1), ("z", 1)))),
        Term("momax-e4-J-dt-b3", Fraction(4),
             lambda C: -1.0 / (2.0 * C.c), _P(_R("J"), Deriv(b3, "tau"))),
        Term("momax-e4-dt-b4", Fraction(4),
             lambda C: -C.rho0 / (2.0 * C.c), Deriv(b4, "tau")),
        Term("momax-e4-dtdz2phi", Fraction(4),
             lambda C: -C.nu / C.c, _R("Phi", ("tau", 1), ("z", 2))),
        Term("momax-e5-I-dt-b4", Fraction(5),
             lambda C: -1.0 / (2.0 * C.c), _P(_R("I"), Deriv(b4, "tau"))),
        Term("momax-e5-I-dz-b1", Fraction(5),
             lambda C: 0.5, _P(_R("I"), Deriv(b1, "z"))),
        Term("momax-e5-J-dz-b3", Fraction(5),
             lambda C: 0.5, _P(_R("J"), Deriv(b3, "z"))),
        Term("momax-e5-J-dt-b1", Fraction(5),
             lambda C: -1.0 / (2.0 * C.c), _P(_R("J"), Deriv(b1, "tau"))),
        Term("momax-e5-dz-b4", Fraction(5),
             lambda C: C.rho0 / 2.0, Deriv(b4, "z")),
        Term("momax-e5-dz3phi", Fraction(5),
             lambda C: C.nu, _R("Phi", ("z", 3))),
        Term("momax-e6-I-dz-b4", Fraction(6),
             lambda C: 0.5, _P(_R("I"), Deriv(b4, "z"))),
        Term("momax-e6-J-dt-b4", Fraction(6),
             lambda C: -1.0 / (2.0 * C.c), _P(_R("J"), Deriv(b4, "tau"))),
        Term("momax-e7-J-dz-b4", Fraction(7),
             lambda C: 0.5, _P(_R("J"), Deriv(b4, "z"))),
    ]


def _ns_kzk_momentum_transverse(a: str, ys: Sequence[str],
                                variant: str) -> list[Term]:
    b1, b2, b3, b4 = _kzk_b1(ys), _kzk_b2(ys), _kzk_b3(), _KZK_B4
    extra = []
    if variant == "consistent":
        extra = [
            Term(f"momt-{a}-e7h-d-IJ", Fraction(7, 2),
                 lambda C: (C.gamma - 1.0) * C.c**2 / C.rho0,
                 Deriv(_P(_R("I"), _R("J")), a)),
            Term(f"momt-{a}-e9h-d-Jsq", Fraction(9, 2),
                 lambda C: (C.gamma - 1.0) * C.c**2 / (2.0 * C.rho0),
                 Deriv(_P(_R("J"), _R("J")), a)),
        ]
    return extra + [
        Term(f"momt-{a}-e7h-d-b1", Fraction(7, 2),
             lambda C: C.rho0 / 2.0, Deriv(b1, a)),
        Term(f"momt-{a}-e7h-d-b2", Fraction(7, 2),
             lambda C: C.nu, Deriv(b2, a)),
        Term(f"momt-{a}-e7h-I-d-b3", Fraction(7, 2),
             lambda C: 0.5, _P(_R("I"), Deriv(b3, a))),
        Term(f"momt-{a}-e7h-J-dtd", Fraction(7, 2),
             lambda C: -1.0, _P(_R("J"), _R("Phi", ("tau", 1), (a, 1)))),
        Term(f"momt-{a}-e9h-I-d-b1", Fraction(9, 2),
             lambda C: 0.5, _P(_R("I"), Deriv(b1, a))),
        Term(f"momt-{a}-e9h-J-d-b3", Fraction(9, 2),
             lambda C: 0.5, _P(_R("J"), Deriv(b3, a))),
        Term(f"momt-{a}-e9h-d-b4", Fraction(9, 2),
             lambda C: C.rho0 / 2.0, Deriv(b4, a)),
        Term(f"momt-{a}-e9h-dz2d", Fraction(9, 2),
             lambda C: C.nu, _R("Phi", ("z", 2), (a, 1))),
        Term(f"momt-{a}-e11h-I-d-b4", Fraction(11, 2),
             lambda C: 0.5, _P(_R("I"), Deriv(b4, a))),
        Term(f"momt-{a}-e11h-J-d-b1", Fraction(11, 2),
             lambda C: 0.5, _P(_R("J"), Deriv(b1, a))),
        Term(f"momt-{a}-e13h-J-d-b4", Fraction(13, 2),
             lambda C: 0.5, _P(_R("J"), Deriv(b4, a))),
    ]


def _ns_npe_mass(ys: Sequence[str]) -> list[Term]:
    return [
        Term("mass-e3-dtchi", Fraction(3), lambda C: 1.0,
             _R("chi", ("tau", 1))),
        Term("mass-e3-gradxi-gradpsi", Fraction(3), lambda C: -1.0,
             _dot("xi", (), "Psi", (), ys)),
        Term("mass-e3-xi-lappsi", Fraction(3), lambda C: -1.0,
             _P(_R("xi"), _lap("Psi", ys))),
        Term("mass-e3-dzchi-dzpsi", Fraction(3), lambda C: -1.0,
             _P(_R("chi", ("z", 1)), _R("Psi", ("z", 1)))),
        Term("mass-e3-chi-dz2psi", Fraction(3), lambda C: -1.0,
             _P(_R("chi"), _R("Psi", ("z", 2)))),
        Term("mass-e4-gradchi-gradpsi", Fraction(4), lambda C: -1.0,
             _dot("chi", (), "Psi", (), ys)),
        Term("mass-e4-chi-lappsi", Fraction(4), lambda C: -1.0,
             _P(_R("chi"), _lap("Psi", ys))),
    ]


_NPE_DZ_SQ = _P(_R("Psi", ("z", 1)), _R("Psi", ("z", 1)))  # (dz Psi)^2


def _ns_npe_momentum_axial(ys: Sequence[str], variant: str) -> list[Term]:
    gsq = _grad_sq("Psi", ys)
    lead = lambda C: -C.rho0 / C.c
    extra = []
    if variant == "consistent":
        # sign of the acceleration cross term plus the quadratic state-law
        # contributions, from re-deriving the momentum identity
        lead = lambda C: C.rho0 / C.c
        extra = [
            Term("momax-e3-dz-xichi", Fraction(3),
                 lambda C: (C.gamma - 1.0) * C.c**2 / C.rho0,
                 Deriv(_P(_R("xi"), _R("chi")), "z")),
            Term("momax-e4-dz-chisq", Fraction(4),
                 lambda C: (C.gamma - 1.0) * C.c**2 / (2.0 * C.rho0),
                 Deriv(_P(_R("chi"), _R("chi")), "z")),
        ]
    return extra + [
        Term("momax-e3-dzpsi-dtdzpsi", Fraction(3), lead,
             _P(_R("Psi", ("z", 1)), _R("Psi", ("tau", 1), ("z", 1)))),
        Term("momax-e3-dz-gradsq", Fraction(3),
             lambda C: C.rho0 / 2.0, Deriv(gsq, "z")),
        Term("momax-e3-dzlappsi", Fraction(3),
             lambda C: C.nu, _lap("Psi", ys, extra=(("z", 1),))),
        Term("momax-e3-xi-dz-dzsq", Fraction(3),
             lambda C: 0.5, _P(_R("xi"), Deriv(_NPE_DZ_SQ, "z"))),
        Term("momax-e3-chi-dz2psi", Fraction(3),
             lambda C: C.c, _P(_R("chi"), _R("Psi", ("z", 2)))),
        Term("momax-e4-xi-dz-gradsq", Fraction(4),
             lambda C: 0.5, _P(_R("xi"), Deriv(gsq, "z"))),
        Term("momax-e4-chi-dtdzpsi", Fraction(4),
             lambda C: -1.0,
             _P(_R("chi"), _R("Psi", ("tau", 1), ("z", 1)))),
        Term("momax-e4-chi-dz-dzsq", Fraction(4),
             lambda C: 0.5, _P(_R("chi"), Deriv(_NPE_DZ_SQ, "z"))),
        Term("momax-e5-chi-dz-gradsq", Fraction(5),
             lambda C: 0.5, _P(_R("chi"), Deriv(gsq, "z"))),
    ]


def _ns_npe_momentum_transverse(a: str, ys: Sequence[str],
                                variant: str) -> list[Term]:
    gsq = _grad_sq("Psi", ys)
    lead = lambda C: -C.rho0 / C.c
    extra = []
    if variant == "consistent":
        lead = lambda C: C.rho0 / C.c
        extra = [
            Term(f"momt-{a}-e7h-d-xichi", Fraction(7, 2),
                 lambda C: (C.gamma - 1.0) * C.c**2 / C.rho0,
                 Deriv(_P(_R("xi"), _R("chi")), a)),
            Term(f"momt-{a}-e9h-d-chisq", Fraction(9, 2),
                 lambda C: (C.gamma - 1.0) * C.c**2 / (2.0 * C.rho0),
                 Deriv(_P(_R("chi"), _R("chi")), a)),
        ]
    return extra + [
        Term(f"momt-{a}-e7h-dzpsi-dtd", Fraction(7, 2), lead,
             _P(_R("Psi", ("z", 1)), _R("Psi", ("tau", 1), (a, 1)))),
        Term(f"momt-{a}-e7h-d-gradsq", Fraction(7, 2),
             lambda C: C.rho0 / 2.0, Deriv(gsq, a)),
        Term(f"momt-{a}-e7h-dlappsi", Fraction(7, 2),
             lambda C: C.nu, _lap("Psi", ys, extra=((a, 1),))),
        Term(f"momt-{a}-e7h-xi-d-dzsq", Fraction(7, 2),
             lambda C: 0.5, _P(_R("xi"), Deriv(_NPE_DZ_SQ, a))),
        Term(f"momt-{a}-e7h-chi-dzd", Fraction(7, 2),
             lambda C: C.c, _P(_R("chi"), _R("Psi", ("z", 1), (a, 1)))),
        Term(f"momt-{a}-e9h-xi-d-gradsq", Fraction(9, 2),
             lambda C: 0.5, _P(_R("xi"), Deriv(gsq, a))),
        Term(f"momt-{a}-e9h-chi-dtd", Fraction(9, 2),
             lambda C: -1.0, _P(_R("chi"), _R("Psi", ("tau", 1), (a, 1)))),
        Term(f"momt-{a}-e9h-chi-d-dzsq", Fraction(9, 2),
             lambda C: 0.5, _P(_R("chi"), Deriv(_NPE_DZ_SQ, a))),
        Term(f"momt-{a}-e11h-chi-d-gradsq", Fraction(11, 2),
             lambda C: 0.5, _P(_R("chi"), Deriv(gsq, a))),
    ]


def _kuznetsov_kzk(ys: Sequence[str]) -> list[Term]:
    return [
        Term("e2-dz2phi", Fraction(2), lambda C: -C.c**2,
             _R("Phi", ("z", 2))),
        Term("e2-dt-dtdz", Fraction(2), lambda C: 2.0 / C.c,
             Deriv(_P(_R("Phi", ("tau", 1)), _R("Phi", ("z", 1))), "tau")),
        Term("e2-dt-gradsq", Fraction(2), lambda C: -1.0,
             Deriv(_grad_sq("Phi", ys), "tau")),
        Term("e2-dt2dzphi", Fraction(2),
             lambda C: 2.0 * C.nu / (C.c * C.rho0),
             _R("Phi", ("tau", 2), ("z", 1))),
        Term("e2-dtlapphi", Fraction(2), lambda C: -C.nu / C.rho0,
             _lap("Phi", ys, extra=(("tau", 1),))),
        Term("e3-dt-dzsq", Fraction(3), lambda C: -1.0,
             Deriv(_KZK_B4, "tau")),
        Term("e3-dtdz2phi", Fraction(3), lambda C: -C.nu / C.rho0,
             _R("Phi", ("tau", 1), ("z", 2))),
    ]


def _kuznetsov_npe(ys: Sequence[str]) -> list[Term]:
    return [
        Term("e2-dt2psi", Fraction(2), lambda C: 1.0,
             _R("Psi", ("tau", 2))),
        Term("e2-dz2dtpsi", Fraction(2), lambda C: -C.nu / C.rho0,
             _R("Psi", ("tau", 1), ("z", 2))),
        Term("e2-lapdzpsi", Fraction(2),
             lambda C: C.nu * C.c / C.rho0,
             _lap("Psi", ys, extra=(("z", 1),))),
        Term("e2-dtpsi-dz2psi", Fraction(2),
             lambda C: -(C.gamma - 1.0),
             _P(_R("Psi", ("tau", 1)), _R("Psi", ("z", 2)))),
        Term("e2-dzpsi-dtdzpsi-g", Fraction(2),
             lambda C: -2.0 * (C.gamma - 1.0),
             _P(_R("Psi", ("z", 1)), _R("Psi", ("tau", 1), ("z", 1)))),
        Term("e2-dzpsi-dtdzpsi", Fraction(2), lambda C: -2.0,
             _P(_R("Psi", ("z", 1)), _R("Psi", ("tau", 1), ("z", 1)))),
        Term("e2-gradpsi-graddzpsi", Fraction(2), lambda C: 2.0 * C.c,
             _dot("Psi", (), "Psi", (("z", 1),), ys)),
        Term("e3-lapdtpsi", Fraction(3), lambda C: -C.nu / C.rho0,
             _lap("Psi", ys, extra=(("tau", 1),))),
        Term("e3-dtpsi-dtdzpsi", Fraction(3),
             lambda C: 2.0 * (C.gamma - 1.0) / C.c,
             _P(_R("Psi", ("tau", 1)), _R("Psi", ("tau", 1), ("z", 1)))),
        Term("e3-dzpsi-dt2psi", Fraction(3),
             lambda C: (C.gamma - 1.0) / C.c,
             _P(_R("Psi", ("z", 1)), _R("Psi", ("tau", 2)))),
        Term("e3-gradpsi-graddtpsi", Fraction(3), lambda C: -2.0,
             _dot("Psi", (), "Psi", (("tau", 1),), ys)),
        Term("e4-dtpsi-dt2psi", Fraction(4),
             lambda C: -(C.gamma - 1.0) / C.c**2,
             _P(_R("Psi", ("tau", 1)), _R("Psi", ("tau", 2)))),
    ]


def _kuznetsov_westervelt(xs: Sequence[str], variant: str) -> list[Term]:
    u = _R("u")
    u_t = _R("u", ("t", 1))
    usq_tt = Deriv(_P(u, u), "t", 2)
    inner = _S(
        (1.0, _grad_sq("u", xs)),
        (lambda C: (C.gamma - 1.0) / (2.0 * C.c**2), _P(u_t, u_t)),
        (lambda C: C.nu / C.rho0, _lap("u", xs)),
    )
    lap_u_ut = Sum(tuple((1.0, Deriv(_P(u, u_t), ax, 2)) for ax in xs))
    visc = lambda C: -1.0 / (2.0 * C.c**2)
    if variant == "consistent":
        # the dissipative Laplacian term inherits the nu/rho0 coefficient of
        # the wave model's right side
        visc = lambda C: -C.nu / (C.rho0 * C.c**2)
    return [
        Term("e2-dt-lap-u-ut", Fraction(2), visc, Deriv(lap_u_ut, "t")),
        Term("e2-dt-ut-dt2usq", Fraction(2),
             lambda C: -(C.gamma + 1.0) / (2.0 * C.c**4),
             Deriv(_P(u_t, usq_tt), "t")),
        Term("e2-dt-u-dtinner", Fraction(2),
             lambda C: 1.0 / C.c**2,
             Deriv(_P(u, Deriv(inner, "t")), "t")),
        Term("e3-dt-dt2usq-sq", Fraction(3),
             lambda C: -(C.gamma + 1.0) / (8.0 * C.c**6),
             Deriv(_P(usq_tt, usq_tt), "t")),
    ]


# ---------------------------------------------------------------------------
# evaluation


_FD_STENCILS = {
    1: ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12), 2),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12), 2),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8), 3),
}


def _fd_deriv(arr: np.ndarray, ax: int, h: float, order: int) -> np.ndarray:
    offs, ws, _r = _FD_STENCILS[order]
    out = np.zeros_like(arr)
    for o, w in zip(offs, ws):
        out += w * np.roll(arr, -o, axis=ax)
    return out / h**order


@dataclass
class _Val:
    arr: np.ndarray
    margins: dict  # bounded-axis name -> edge points to discard


def _merge(*margins: Mapping[str, int]) -> dict:
    out: dict = {}
    for m in margins:
        for k, v in m.items():
            out[k] = max(out.get(k, 0), v)
    return out


class _Ctx:
    """Holds base arrays and performs cached derivative evaluation on the
    shared grid: spectral along periodic axes, 4th-order FD along bounded
    ones (with wrap-around edges tracked as margins)."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.sp = Spectral(grid)
        self.ax = {a.name: (i, a) for i, a in enumerate(grid.axes)}
        self.fields: dict[str, _Val] = {}
        self._cache: dict[tuple, _Val] = {}

    def add(self, name: str, arr: np.ndarray, margins: dict | None = None):
        self.fields[name] = _Val(np.asarray(arr, dtype=np.float64),
                                 dict(margins or {}))

    def deriv(self, val: _Val, axis: str, order: int) -> _Val:
        if axis not in self.ax:
            raise ValueError(
                f"the term table differentiates along {axis!r} but the grid "
                f"only carries axes {sorted(self.ax)}; include {axis!r} "
                f"(bounded evolution axes are allowed) in the input grid"
            )
        i, a = self.ax[axis]
        if a.periodic:
            return _Val(self.sp.d(val.arr, i, order), dict(val.margins))
        arr, margins = val.arr, dict(val.margins)
        o = order
        while o > 0:
            k = min(o, 3)
            arr = _fd_deriv(arr, i, a.spacing, k)
            margins[axis] = margins.get(axis, 0) + _FD_STENCILS[k][2]
            o -= k
        return _Val(arr, margins)

    def antideriv(self, val: _Val, axis: str) -> _Val:
        return _Val(self.sp.inv(val.arr, axis), dict(val.margins))

    def ref(self, name: str, derivs: tuple) -> _Val:
        if name not in self.fields:
            raise MissingInput(f"missing input field {name!r}")
        total: dict[str, int] = {}
        for axis, order in derivs:
            total[axis] = total.get(axis, 0) + order
        key = (name, tuple(sorted(total.items())))
        hit = self._cache.get(key)
        if hit is not None:
            return hit
        val = self.fields[name]
        for axis, order in sorted(total.items()):
            val = self.deriv(val, axis, order)
        self._cache[key] = val
        return val

    def eval(self, expr: Expr, C: ModelCoefficients) -> _Val:
        if isinstance(expr, Ref):
            return self.ref(expr.name, expr.derivs)
        if isinstance(expr, Deriv):
            return self.deriv(self.eval(expr.expr, C), expr.axis, expr.order)
        if isinstance(expr, Prod):
            vals = [self.eval(f, C) for f in expr.factors]
            arr = vals[0].arr.copy()
            for v in vals[1:]:
                arr *= v.arr
            return _Val(arr, _merge(*(v.margins for v in vals)))
        if isinstance(expr, Sum):
            arr = np.zeros(self.grid.shape)
            margins: dict = {}
            for scale, sub in expr.addends:
                v = self.eval(sub, C)
                s = scale(C) if callable(scale) else float(scale)
                arr += s * v.arr
                margins = _merge(margins, v.margins)
            return _Val(arr, margins)
        raise TypeError(f"unknown expression node {expr!r}")


def base_power(pair: str) -> Fraction:
    if pair.startswith("ns-"):
        return Fraction(3)
    return Fraction(2)


def _pair_entry(pair: str) -> tuple[str, tuple[str, ...]]:
    if pair not in _PAIR_TABLE:
        raise ValueError(f"unknown pair {pair!r}; expected one of {PAIRS}")
    return _PAIR_TABLE[pair]


def input_field(pair: str) -> str:
    """The name of the base field the CLI passes for one pair."""
    return _pair_entry(pair)[0]


def term_table(pair: str, grid: Grid,
               variant: str | None = None) -> dict[str, list[Term]]:
    """All term lists for one pair on one grid, keyed by output component;
    `variant` defaults to the pair's first."""
    variants = _pair_entry(pair)[1]
    if variant is None:
        variant = variants[0]
    elif variant not in variants:
        raise ValueError(f"unknown variant {variant!r} of pair {pair!r}; "
                         f"expected one of {variants}")
    names = [a.name for a in grid.axes]
    xs = [n for n in names if n.startswith("x")]
    ys = [n for n in names if n.startswith("y")]
    if pair == "ns-kuznetsov":
        out = {"mass": _ns_kuznetsov_mass(xs, variant)}
        for a in xs:
            out[f"momentum_{a}"] = _ns_kuznetsov_momentum(a, xs, variant)
        return out
    if pair == "ns-kzk":
        out = {"mass": _ns_kzk_mass(ys, variant),
               "momentum_axial": _ns_kzk_momentum_axial(ys, variant)}
        for a in ys:
            out[f"momentum_{a}"] = _ns_kzk_momentum_transverse(a, ys, variant)
        return out
    if pair == "ns-npe":
        out = {"mass": _ns_npe_mass(ys),
               "momentum_axial": _ns_npe_momentum_axial(ys, variant)}
        for a in ys:
            out[f"momentum_{a}"] = _ns_npe_momentum_transverse(a, ys, variant)
        return out
    if pair == "kuznetsov-kzk":
        return {"model": _kuznetsov_kzk(ys)}
    if pair == "kuznetsov-npe":
        return {"model": _kuznetsov_npe(ys)}
    return {"model": _kuznetsov_westervelt(xs, variant)}


def _prepare_context(pair: str, coeff: ModelCoefficients,
                     fields: Mapping[str, Field]) -> _Ctx:
    grids = {f.grid for f in fields.values()}
    if len(grids) != 1:
        raise ValueError("all input fields must share one grid")
    grid = next(iter(grids))
    ctx = _Ctx(grid)
    for name, f in fields.items():
        ctx.add(name, f.scalar)

    def derive(name: str, formula, *vals: _Val) -> None:
        """Set a corrector from its `ansatz` closed form and input margins."""
        ctx.fields[name] = _Val(formula(coeff, *(v.arr for v in vals)),
                                _merge(*(v.margins for v in vals)))

    if pair in ("ns-kuznetsov", "kuznetsov-westervelt"):
        if "u" not in ctx.fields:
            raise MissingInput("missing input field 'u'")
        if pair == "ns-kuznetsov":
            ut = ctx.ref("u", (("t", 1),))
            if "rho1" not in ctx.fields:
                derive("rho1", kuznetsov_rho1, ut)
            if "rho2" not in ctx.fields:
                xs = [n for n in ctx.ax if n.startswith("x")]
                derive("rho2", kuznetsov_rho2, ut,
                       ctx.eval(_grad_sq("u", xs), coeff),
                       ctx.eval(_lap("u", xs), coeff))
    elif pair in ("ns-kzk", "kuznetsov-kzk"):
        if "Phi" not in ctx.fields:
            if "I" not in ctx.fields:
                raise MissingInput("missing input field 'Phi' (or 'I')")
            derive("Phi", kzk_potential, ctx.antideriv(ctx.fields["I"], "tau"))
        if pair == "ns-kzk":
            dphi = ctx.ref("Phi", (("tau", 1),))
            if "I" not in ctx.fields:
                derive("I", kzk_intensity, dphi)
            if "J" not in ctx.fields:
                derive("J", kzk_j, dphi, ctx.ref("Phi", (("tau", 2),)))
    elif pair in ("ns-npe", "kuznetsov-npe"):
        if "Psi" not in ctx.fields:
            if "xi" not in ctx.fields:
                raise MissingInput("missing input field 'Psi' (or 'xi')")
            derive("Psi", npe_potential, ctx.antideriv(ctx.fields["xi"], "z"))
        if pair == "ns-npe":
            dz = ctx.ref("Psi", (("z", 1),))
            if "xi" not in ctx.fields:
                derive("xi", npe_xi, dz)
            if "chi" not in ctx.fields:
                derive("chi", npe_chi, ctx.ref("Psi", (("tau", 1),)), dz,
                       ctx.ref("Psi", (("z", 2),)))
    return ctx


@dataclass
class RemainderResult:
    """Graded remainder fields (normalized by eps^base) plus bookkeeping."""

    pair: str
    base: Fraction
    fields: dict[str, Field]
    margins: dict[str, dict[str, int]]
    term_stats: list = dc_field(default_factory=list)
    # term_stats rows: (component, term_id, power: Fraction, l2, linf)


def _trimmed(ctx: _Ctx, arr: np.ndarray, margins: Mapping[str, int]):
    sl = [slice(None)] * arr.ndim
    for name, m in margins.items():
        if m > 0:
            i, a = ctx.ax[name]
            if 2 * m >= a.points:
                raise ValueError(f"axis {name!r} too short for FD margins")
            sl[i] = slice(m, a.points - m)
    return arr[tuple(sl)]


def evaluate_remainder(pair: str, coeff: ModelCoefficients,
                       inputs: Mapping[str, Field],
                       variant: str | None = None,
                       with_term_stats: bool = False) -> RemainderResult:
    """Evaluate the graded remainder of one pair, term by term.

    `inputs` maps field names to Fields; the context derives whatever
    correctors the tables reference but the caller did not supply.
    """
    ctx = _prepare_context(pair, coeff, inputs)
    tables = term_table(pair, ctx.grid, variant=variant)
    base = base_power(pair)
    eps = coeff.eps

    out_fields: dict[str, Field] = {}
    out_margins: dict[str, dict[str, int]] = {}
    stats = []
    vol = ctx.grid.cell_volume
    for comp, terms in tables.items():
        total = np.zeros(ctx.grid.shape)
        margins: dict = {}
        for term in terms:
            v = ctx.eval(term.expr, coeff)
            graded = term.coeff(coeff) * float(eps) ** float(term.power) * v.arr
            total += graded
            margins = _merge(margins, v.margins)
            if with_term_stats:
                inner = _trimmed(ctx, graded, v.margins)
                l2 = float(np.sqrt(vol * np.sum(inner**2)))
                linf = float(np.max(np.abs(inner))) if inner.size else 0.0
                stats.append((comp, term.term_id, term.power, l2, linf))
        out_fields[comp] = Field(ctx.grid, total / float(eps) ** float(base))
        out_margins[comp] = margins
    return RemainderResult(pair, base, out_fields, out_margins, stats)
