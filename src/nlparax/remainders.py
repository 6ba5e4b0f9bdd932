"""Graded remainder terms for the six model pairs.

Every remainder expression is transcribed into a table of terms
(term_id, eps power as a Fraction, coefficient, factor-derivative tree);
nothing is hand-expanded.  The tables are evaluated on a single grid whose
periodic axes use spectral derivatives and whose bounded axes (the evolution
direction of a stacked solver trajectory) use fourth-order centered finite
differences.  Finite-difference applications wrap around, so each result
carries a per-axis margin of edge points to discard.

Pairs and the base fields they need (a `_PAIR_TABLE` row names the one the
CLI passes, the grading, the frame and the table builder):

  ns-kuznetsov           u(t, x...)            -> mass + momentum per x axis
  ns-kzk                 Phi or I (tau, z, y)  -> mass + axial + transverse
  ns-npe                 Psi or xi (tau, z, y) -> mass + axial + transverse
  kuznetsov-kzk          Phi or I (tau, z, y)  -> single field
  kuznetsov-npe          Psi or xi (tau, z, y) -> single field
  kuznetsov-westervelt   u(t, x...)            -> single field

A field that a term reads but the caller did not pass is derived from its
`_DERIVED` row.  The evaluation context counts every read of a table when
it is built: a derived field, each Ref, Deriv, Prod and Sum node, equal
nodes counting as one, and each derivative prefix: a Ref with derivatives
reads the Ref of all but its last and takes that one step, so every
derivative step is a counted node.  The context evaluates each distinct one
once and frees its value after its last read.

The returned fields are the graded sums divided by eps^3 (flow pairs) or
eps^2 (model-to-model pairs); fractional powers in the transverse momentum
tables therefore leave explicit sqrt(eps) factors in the output.

Each momentum component of a flow pair is linear in one outer derivative
d_i: the velocity is the potential flow v = -eps grad(potential), and every
term carries i once, through grad p, v_i or Lap v_i.  A flow pair therefore
states its momentum once, as gradient terms (stem, power, coeff, factor,
inner) standing for coeff * eps^power * factor * d_i(inner), and its frame's
rule writes d_i per component:

  physical   d_xa = d_xa                        at +0
  KZK        d_x1 = -(1/c) d_tau  at +0,  d_z   at +1;  d_xa = d_ya at +1/2
  NPE        d_x1 = d_z           at +0;            d_xa = d_ya at +1/2

The outer derivative folds into a Ref's derivatives and wraps any other
node in a Deriv.

Each pair has one table, and each table closes exactly against the pair's
full system: tests/test_symbolic.py expands both in computer algebra.  Where
the paper's printed remainders differ, that module states the difference.
"""

from __future__ import annotations

from dataclasses import dataclass
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
from .fields import Field, Frame, Grid, MissingInput
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


def _grad_sq(name: str, axes: Sequence[str]) -> Sum:
    return _dot(name, (), name, (), axes)


def _lap(name: str, axes: Sequence[str], extra: tuple = ()) -> Sum:
    return Sum(tuple((1.0, Ref(name, tuple(extra) + ((ax, 2),))) for ax in axes))


# ---------------------------------------------------------------------------
# momentum: gradient terms and the frame rules

#: One momentum term of a flow pair, linear in the outer derivative d_i of
#: component i: (id stem, eps power, coefficient, factor or None, inner),
#: standing for coeff * eps^power * factor * d_i(inner).  "{d}" in the stem
#: is replaced by the tag of the derivative the frame rule writes.
_Grad = tuple[str, int, CoeffFn, Union[Expr, None], Expr]

#: paraxial frame -> the parts of its axial derivative d_x1, each
#: (axis, eps power shift, scale or None, id tag)
_AXIAL_RULE = {
    Frame.KZK: (("tau", 0, lambda C: -1.0 / C.c, "dt"), ("z", 1, None, "dz")),
    Frame.NPE: (("z", 0, None, "dz"),),
}


def _frame_rule(frame: Frame, axes: Sequence[str]) -> list[tuple]:
    """(component, term-id prefix, derivative parts) of each momentum
    component: one per x axis in the physical frame; the axial rule and
    d_xa = sqrt(eps) d_ya per transverse axis in a paraxial one."""
    if frame is Frame.PHYSICAL:
        return [(f"momentum_{a}", f"mom-{a}", ((a, 0, None, "d"),))
                for a in axes]
    return [("momentum_axial", "momax", _AXIAL_RULE[frame])] + [
        (f"momentum_{a}", f"momt-{a}", ((a, Fraction(1, 2), None, "d"),))
        for a in axes]


def _outer(expr: Expr, axis: str) -> Expr:
    """d_axis(expr): folded into a Ref's derivatives, else a Deriv node."""
    if isinstance(expr, Ref):
        return Ref(expr.name, expr.derivs + ((axis, 1),))
    return Deriv(expr, axis)


def _grad_term(prefix: str, grad: _Grad, part: tuple) -> Term:
    stem, power, coeff, factor, inner = grad
    axis, shift, scale, tag = part
    p = Fraction(power) + shift
    expr = _outer(inner, axis)
    return Term(f"{prefix}-e{p.numerator}{'h' if p.denominator == 2 else ''}"
                f"-{stem.format(d=tag)}", p,
                coeff if scale is None else (lambda C: scale(C) * coeff(C)),
                expr if factor is None else _P(factor, expr))


def _momentum(frame: Frame, axes: Sequence[str],
              grads: Sequence[_Grad]) -> dict[str, list[Term]]:
    """The momentum components of a flow pair from its gradient terms."""
    return {comp: [_grad_term(prefix, g, part) for g in grads for part in parts]
            for comp, prefix, parts in _frame_rule(frame, axes)}


def _state_law(r1: str, r2: str) -> list[_Grad]:
    """grad p(rho) of the quadratic state law at third and fourth order,
    for the density rho0 + eps r1 + eps^2 r2."""
    return [
        (f"{{d}}-{r1}{r2}", 3,
         lambda C: (C.gamma - 1.0) * C.c**2 / C.rho0, None, _P(_R(r1), _R(r2))),
        (f"{{d}}-{r2}sq", 4,
         lambda C: (C.gamma - 1.0) * C.c**2 / (2.0 * C.rho0), None,
         _P(_R(r2), _R(r2))),
    ]


# ---------------------------------------------------------------------------
# term tables


def _ns_kuznetsov_mass(xs: Sequence[str]) -> list[Term]:
    u_t = _R("u", ("t", 1))
    return [
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
        # the operator identity closes with + (rho0/c^4)(u_t)^2 Lap u at
        # eps^3 and (rho0/c^6)(u_t)^2 d_t N at eps^4, N being the full
        # nonlinear right side of the wave model
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


def _ns_kuznetsov(xs: Sequence[str]) -> dict[str, list[Term]]:
    gsq = _grad_sq("u", xs)
    grads = [
        ("rho1-{d}gradsq", 3, lambda C: 0.5, _R("rho1"), gsq),
        ("rho2-dt{d}", 3, lambda C: -1.0, _R("rho2"), _R("u", ("t", 1))),
        ("rho2-{d}gradsq", 4, lambda C: 0.5, _R("rho2"), gsq),
        *_state_law("rho1", "rho2"),
    ]
    return {"mass": _ns_kuznetsov_mass(xs),
            **_momentum(Frame.PHYSICAL, xs, grads)}


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


def _ns_kzk_mass(ys: Sequence[str]) -> list[Term]:
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
        Term("mass-e4-dzJ-dt-phi", Fraction(4), lambda C: 1.0 / C.c,
             _P(_R("J", ("z", 1)), _R("Phi", ("tau", 1)))),
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


def _ns_kzk(ys: Sequence[str]) -> dict[str, list[Term]]:
    b1, b2, b3, b4 = _kzk_b1(ys), _kzk_b2(ys), _kzk_b3(), _KZK_B4
    I, J = _R("I"), _R("J")
    grads = [
        *_state_law("I", "J"),
        ("{d}-b1", 3, lambda C: C.rho0 / 2.0, None, b1),
        ("{d}-b2", 3, lambda C: C.nu, None, b2),
        ("I-{d}-b3", 3, lambda C: 0.5, I, b3),
        ("J-dt{d}phi", 3, lambda C: -1.0, J, _R("Phi", ("tau", 1))),
        ("I-{d}-b1", 4, lambda C: 0.5, I, b1),
        ("J-{d}-b3", 4, lambda C: 0.5, J, b3),
        ("{d}-b4", 4, lambda C: C.rho0 / 2.0, None, b4),
        ("{d}dz2phi", 4, lambda C: C.nu, None, _R("Phi", ("z", 2))),
        ("I-{d}-b4", 5, lambda C: 0.5, I, b4),
        ("J-{d}-b1", 5, lambda C: 0.5, J, b1),
        ("J-{d}-b4", 6, lambda C: 0.5, J, b4),
    ]
    return {"mass": _ns_kzk_mass(ys), **_momentum(Frame.KZK, ys, grads)}


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


def _ns_npe(ys: Sequence[str]) -> dict[str, list[Term]]:
    gsq = _grad_sq("Psi", ys)
    xi, chi = _R("xi"), _R("chi")
    psi_t, psi_z = _R("Psi", ("tau", 1)), _R("Psi", ("z", 1))
    grads = [
        *_state_law("xi", "chi"),
        ("dzpsi-dt{d}psi", 3, lambda C: C.rho0 / C.c, psi_z, psi_t),
        ("{d}-gradsq", 3, lambda C: C.rho0 / 2.0, None, gsq),
        ("{d}lappsi", 3, lambda C: C.nu, None, _lap("Psi", ys)),
        ("xi-{d}-dzsq", 3, lambda C: 0.5, xi, _NPE_DZ_SQ),
        ("chi-dz{d}psi", 3, lambda C: C.c, chi, psi_z),
        ("xi-{d}-gradsq", 4, lambda C: 0.5, xi, gsq),
        ("chi-dt{d}psi", 4, lambda C: -1.0, chi, psi_t),
        ("chi-{d}-dzsq", 4, lambda C: 0.5, chi, _NPE_DZ_SQ),
        ("chi-{d}-gradsq", 5, lambda C: 0.5, chi, gsq),
    ]
    return {"mass": _ns_npe_mass(ys), **_momentum(Frame.NPE, ys, grads)}


def _kuznetsov_kzk(ys: Sequence[str]) -> dict[str, list[Term]]:
    return {"model": [
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
    ]}


def _kuznetsov_npe(ys: Sequence[str]) -> dict[str, list[Term]]:
    return {"model": [
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
    ]}


def _kuznetsov_westervelt(xs: Sequence[str]) -> dict[str, list[Term]]:
    u = _R("u")
    u_t = _R("u", ("t", 1))
    usq_tt = Deriv(_P(u, u), "t", 2)
    inner = _S(
        (1.0, _grad_sq("u", xs)),
        (lambda C: (C.gamma - 1.0) / (2.0 * C.c**2), _P(u_t, u_t)),
        (lambda C: C.nu / C.rho0, _lap("u", xs)),
    )
    lap_u_ut = Sum(tuple((1.0, Deriv(_P(u, u_t), ax, 2)) for ax in xs))
    return {"model": [
        # the dissipative Laplacian term inherits the nu/rho0 coefficient of
        # the wave model's right side
        Term("e2-dt-lap-u-ut", Fraction(2),
             lambda C: -C.nu / (C.rho0 * C.c**2), Deriv(lap_u_ut, "t")),
        Term("e2-dt-ut-dt2usq", Fraction(2),
             lambda C: -(C.gamma + 1.0) / (2.0 * C.c**4),
             Deriv(_P(u_t, usq_tt), "t")),
        Term("e2-dt-u-dtinner", Fraction(2),
             lambda C: 1.0 / C.c**2,
             Deriv(_P(u, Deriv(inner, "t")), "t")),
        Term("e3-dt-dt2usq-sq", Fraction(3),
             lambda C: -(C.gamma + 1.0) / (8.0 * C.c**6),
             Deriv(_P(usq_tt, usq_tt), "t")),
    ]}


# ---------------------------------------------------------------------------
# evaluation


_FD_STENCILS = {
    1: ((-2, -1, 1, 2), (1 / 12, -8 / 12, 8 / 12, -1 / 12), 2),
    2: ((-2, -1, 0, 1, 2), (-1 / 12, 16 / 12, -30 / 12, 16 / 12, -1 / 12), 2),
    3: ((-3, -2, -1, 1, 2, 3), (1 / 8, -1.0, 13 / 8, -13 / 8, 1.0, -1 / 8), 3),
}


def _fd_deriv(arr: np.ndarray, ax: int, h: float, order: int) -> np.ndarray:
    """out[i] = sum_o w_o arr[i + o] / h^order, wrapping around: each
    weighted copy is added into the output by two slices, in stencil order,
    so the sums are those of a roll."""
    offs, ws, _r = _FD_STENCILS[order]
    n = arr.shape[ax]
    out = np.zeros_like(arr)
    weighted = np.empty_like(arr)

    def part(lo: int, hi: int) -> tuple:
        return (slice(None),) * ax + (slice(lo, hi),)

    for o, w in zip(offs, ws):
        np.multiply(arr, w, out=weighted)
        k = o % n
        out[part(0, n - k)] += weighted[part(k, n)]
        out[part(n - k, n)] += weighted[part(0, k)]
    out /= h**order
    return out


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


#: derived field -> its `ansatz` closed form and what the form reads: the
#: expressions, given the grid's x axes; or, for a potential, the given
#: profile whose mean-zero antiderivative along the named axis it scales
_DERIVED = {
    "rho1": (kuznetsov_rho1, lambda xs: (_R("u", ("t", 1)),)),
    "rho2": (kuznetsov_rho2, lambda xs: (_R("u", ("t", 1)), _grad_sq("u", xs),
                                         _lap("u", xs))),
    "Phi": (kzk_potential, ("I", "tau")),
    "I": (kzk_intensity, lambda xs: (_R("Phi", ("tau", 1)),)),
    "J": (kzk_j, lambda xs: (_R("Phi", ("tau", 1)), _R("Phi", ("tau", 2)))),
    "Psi": (npe_potential, ("xi", "z")),
    "xi": (npe_xi, lambda xs: (_R("Psi", ("z", 1)),)),
    "chi": (npe_chi, lambda xs: (_R("Psi", ("tau", 1)), _R("Psi", ("z", 1)),
                                 _R("Psi", ("z", 2)))),
}


def _key(expr: Expr) -> Expr:
    """What a read of expr is kept under: a Ref with its derivative orders
    summed per axis, sorted by axis name; any other node as it is, matched by
    equality."""
    if not isinstance(expr, Ref):
        return expr
    total: dict[str, int] = {}
    for axis, order in expr.derivs:
        total[axis] = total.get(axis, 0) + order
    return Ref(expr.name, tuple(sorted(total.items())))


def _reads(key: Union[Expr, str], given: Mapping,
           xs: Sequence[str]) -> tuple:
    """The keys (each a `_key` or the name of a derived field) that the
    evaluation of `key` reads through `_Ctx._read`, in its order."""
    if isinstance(key, str):
        rule = _DERIVED.get(key, (None, ()))[1]
        subs = rule(xs) if callable(rule) else ()
    elif isinstance(key, Ref) and key.derivs:
        subs = (Ref(key.name, key.derivs[:-1]),)
    elif isinstance(key, Ref):
        return () if key.name in given else (key.name,)
    elif isinstance(key, Deriv):
        subs = (key.expr,)
    elif isinstance(key, Prod):
        subs = key.factors
    elif isinstance(key, Sum):
        subs = tuple(sub for _scale, sub in key.addends)
    else:
        raise TypeError(f"unknown expression node {key!r}")
    return tuple(_key(sub) for sub in subs)


def _count_reads(reads: dict, key: Union[Expr, str], given: Mapping,
                 xs: Sequence[str]) -> None:
    """Count one read of `key` in `reads`, and on its first read its
    `_reads`, so a repeated node's subtree counts once.  Module level: a
    closure over the context would make a reference cycle that keeps its
    arrays alive until the cyclic collector runs."""
    seen = reads.get(key, 0)
    reads[key] = seen + 1
    if not seen:
        for sub in _reads(key, given, xs):
            _count_reads(reads, sub, given, xs)


class _Ctx:
    """Holds the input arrays and evaluates expressions on the shared grid:
    spectral derivatives along periodic axes, 4th-order FD along bounded
    ones (with wrap-around edges tracked as margins).  A field that a term
    reads but the caller did not pass is derived from its `_DERIVED` row.

    The reads of `exprs` (each Ref key, Deriv, Prod and Sum node, each
    derivative prefix of a Ref key, and each derived field) are counted
    when the context is built.  A Ref key reads its prefix, the Ref of all
    but its last derivative in sorted axis order, and takes that last step
    alone.  Each distinct key is then evaluated once and kept only until
    its last counted read; a context built with no expressions keeps
    nothing and recomputes each read."""

    def __init__(self, grid: Grid, coeff: ModelCoefficients,
                 inputs: Mapping[str, Field], exprs: Sequence[Expr] = ()):
        self.grid = grid
        self.coeff = coeff
        self.sp = Spectral(grid)
        self.ax = {a.name: (i, a) for i, a in enumerate(grid.axes)}
        self.xs = [n for n in self.ax if n.startswith("x")]
        self.fields = {name: _Val(np.asarray(f.scalar, dtype=np.float64), {})
                       for name, f in inputs.items()}
        self._reads_left: dict = {}
        for e in exprs:
            _count_reads(self._reads_left, _key(e), self.fields, self.xs)
        self._kept: dict = {}

    def _read(self, key: Union[Expr, str]) -> _Val:
        """One read of key: its kept value, or its evaluation; kept while
        counted reads of it remain."""
        val = self._kept.get(key)
        if val is None:
            val = self._evaluate(key)
        left = self._reads_left.pop(key, 0) - 1
        if left > 0:
            self._reads_left[key] = left
            self._kept[key] = val
        else:
            self._kept.pop(key, None)
        return val

    def eval(self, expr: Expr) -> _Val:
        return self._read(_key(expr))

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
        margins = dict(val.margins)
        margins[axis] = margins.get(axis, 0) + _FD_STENCILS[order][2]
        return _Val(_fd_deriv(val.arr, i, a.spacing, order), margins)

    def _derive(self, name: str, vals) -> _Val:
        if name not in _DERIVED:
            raise MissingInput(f"missing input field {name!r}")
        formula, reads = _DERIVED[name]
        if isinstance(reads, tuple):
            # I and xi are derived from their potential, so a profile
            # present here was given
            src, axis = reads
            if src not in self.fields:
                raise MissingInput(f"missing input field {name!r} "
                                   f"(or {src!r})")
            v = self.fields[src]
            vals = [_Val(self.sp.inv(v.arr, axis), dict(v.margins))]
        return _Val(formula(self.coeff, *(v.arr for v in vals)),
                    _merge(*(v.margins for v in vals)))

    def _evaluate(self, key: Union[Expr, str]) -> _Val:
        """The value of one key from its `_reads`, each read through
        `_read` as the evaluation reaches it."""
        vals = map(self._read, _reads(key, self.fields, self.xs))
        if isinstance(key, str):
            return self._derive(key, list(vals))
        if isinstance(key, Ref):
            if key.derivs:
                return self.deriv(next(vals), *key.derivs[-1])
            return next(vals, None) or self.fields[key.name]  # or given
        if isinstance(key, Deriv):
            return self.deriv(next(vals), key.axis, key.order)
        if isinstance(key, Prod):
            vals = list(vals)
            arr = np.multiply(vals[0].arr, vals[1].arr)
            for v in vals[2:]:
                arr *= v.arr
            return _Val(arr, _merge(*(v.margins for v in vals)))
        arr = np.zeros(self.grid.shape)
        margins: dict = {}
        for (scale, _sub), v in zip(key.addends, vals):
            s = scale(self.coeff) if callable(scale) else float(scale)
            arr += s * v.arr
            margins = _merge(margins, v.margins)
        return _Val(arr, margins)


@dataclass(frozen=True)
class _Pair:
    field: str  # the input field the CLI passes
    base: int  # the eps power the output fields are divided by
    frame: Frame  # its x axes (physical) or y axes (paraxial) span the table
    build: Callable[[Sequence[str]], dict[str, list[Term]]]


_PAIR_TABLE = {
    "ns-kuznetsov": _Pair("u", 3, Frame.PHYSICAL, _ns_kuznetsov),
    "ns-kzk": _Pair("I", 3, Frame.KZK, _ns_kzk),
    "ns-npe": _Pair("xi", 3, Frame.NPE, _ns_npe),
    "kuznetsov-kzk": _Pair("I", 2, Frame.KZK, _kuznetsov_kzk),
    "kuznetsov-npe": _Pair("xi", 2, Frame.NPE, _kuznetsov_npe),
    "kuznetsov-westervelt": _Pair("u", 2, Frame.PHYSICAL,
                                  _kuznetsov_westervelt),
}
PAIRS = tuple(_PAIR_TABLE)


def _pair_entry(pair: str) -> _Pair:
    if pair not in _PAIR_TABLE:
        raise ValueError(f"unknown pair {pair!r}; expected one of {PAIRS}")
    return _PAIR_TABLE[pair]


def base_power(pair: str) -> Fraction:
    """The eps power the remainder fields of one pair are divided by."""
    return Fraction(_pair_entry(pair).base)


def input_field(pair: str) -> str:
    """The name of the base field the CLI passes for one pair."""
    return _pair_entry(pair).field


def term_table(pair: str, grid: Grid) -> dict[str, list[Term]]:
    """All term lists for one pair on one grid, keyed by output component."""
    entry = _pair_entry(pair)
    lead = "x" if entry.frame is Frame.PHYSICAL else "y"
    return entry.build([a.name for a in grid.axes if a.name.startswith(lead)])


@dataclass
class RemainderResult:
    """Graded remainder fields (normalized by eps^base) plus bookkeeping."""

    pair: str
    base: Fraction
    fields: dict[str, Field]
    margins: dict[str, dict[str, int]]
    term_stats: list
    # term_stats rows: (component, term_id, power: Fraction, l2, linf)


def _trimmed(ctx: _Ctx, arr: np.ndarray, margins: Mapping[str, int]):
    sl = [slice(None)] * arr.ndim
    for name, m in margins.items():
        i, a = ctx.ax[name]
        if 2 * m >= a.points:
            raise ValueError(f"axis {name!r} too short for FD margins")
        sl[i] = slice(m, a.points - m)
    return arr[tuple(sl)]


def evaluate_remainder(pair: str, coeff: ModelCoefficients,
                       inputs: Mapping[str, Field]) -> RemainderResult:
    """Evaluate the graded remainder of one pair, term by term, with the L2
    and max norms of each graded term inside its margins.

    `inputs` maps field names to Fields on one grid; the context derives
    each field the tables read but the caller did not supply when a term
    first reads it.  A grid in another frame than the pair's is refused
    before anything is derived, and so is a bounded axis too short for a
    term's margins.
    """
    grids = {f.grid for f in inputs.values()}
    if len(grids) != 1:
        raise ValueError("all input fields must share one grid")
    grid = grids.pop()
    tables = term_table(pair, grid)
    frame = _pair_entry(pair).frame
    if grid.frame is not frame:
        raise ValueError(f"pair {pair!r} is evaluated in the {frame.value} "
                         f"frame, not in the {grid.frame.value} frame")
    ctx = _Ctx(grid, coeff, inputs,
               [t.expr for terms in tables.values() for t in terms])
    base = base_power(pair)
    eps = coeff.eps

    out_fields: dict[str, Field] = {}
    out_margins: dict[str, dict[str, int]] = {}
    stats = []
    vol = grid.cell_volume
    for comp, terms in tables.items():
        total = np.zeros(grid.shape)
        margins: dict = {}
        for term in terms:
            v = ctx.eval(term.expr)
            graded = term.coeff(coeff) * float(eps) ** float(term.power) * v.arr
            total += graded
            margins = _merge(margins, v.margins)
            inner = _trimmed(ctx, graded, v.margins)
            l2 = float(np.sqrt(vol * np.sum(inner**2)))
            # max |inner| without an |inner| copy; + 0.0 makes an all-zero
            # term's -0.0 read 0
            linf = (float(max(inner.max(), -inner.min())) + 0.0
                    if inner.size else 0.0)
            stats.append((comp, term.term_id, term.power, l2, linf))
            del v, graded, inner  # before the next term is evaluated
        out_fields[comp] = Field(grid, total / float(eps) ** float(base))
        out_margins[comp] = margins
    return RemainderResult(pair, base, out_fields, out_margins, stats)
