import gc
import hashlib
import math
import re
import weakref
from fractions import Fraction

import numpy as np
import pytest

from nlparax import (
    Axis,
    Field,
    Frame,
    Grid,
    ModelKind,
    ModelState,
    build_correctors,
    evaluate_remainder,
    term_table,
)
from nlparax import remainders
from nlparax.remainders import (
    _FD_STENCILS,
    _PAIR_TABLE,
    PAIRS,
    Deriv,
    Prod,
    Ref,
    _Ctx,
    _fd_deriv,
    base_power,
    input_field,
)
from nlparax.spectral import Spectral


def _periodic3(frame, n=48):
    return Grid((Axis("tau", 2.0, n), Axis("z", 3.0, n), Axis("y1", 2.5, n)),
                frame)


def _bandlimited(grid, seed=7, kmax=2, n_modes=6):
    rng = np.random.default_rng(seed)
    ms = grid.mesh()
    out = np.zeros(grid.shape)
    for _ in range(n_modes):
        ks = rng.integers(-kmax, kmax + 1, size=len(ms))
        ph = rng.uniform(0, 2 * np.pi)
        amp = rng.standard_normal()
        phase = sum(k * t / a.length for k, t, a in zip(ks, ms, grid.axes))
        out += amp * np.sin(2 * np.pi * phase + ph)
    return out


def test_fd_deriv_sums_the_stencil_as_a_roll_does(rng):
    # the slice adds take the wrapped neighbours in stencil order, so each
    # point sums the same products in the same order as np.roll would
    arr = rng.standard_normal((9, 7, 6))
    for order, (offs, ws, _r) in _FD_STENCILS.items():
        for ax in range(arr.ndim):
            want = np.zeros_like(arr)
            for o, w in zip(offs, ws):
                want += w * np.roll(arr, -o, axis=ax)
            want = want / 0.3**order
            got = _fd_deriv(arr, ax, 0.3, order)
            assert got.tobytes() == want.tobytes(), (order, ax)


def test_base_power():
    assert base_power("ns-kuznetsov") == Fraction(3)
    assert base_power("ns-kzk") == Fraction(3)
    assert base_power("kuznetsov-kzk") == Fraction(2)
    assert base_power("kuznetsov-westervelt") == Fraction(2)
    assert base_power("ns-npe") == Fraction(3)
    assert base_power("kuznetsov-npe") == Fraction(2)
    with pytest.raises(ValueError, match="unknown pair 'bogus'"):
        base_power("bogus")


def _table_grids():
    """One grid per frame with the most x or y axes a Grid holds."""
    return {Frame.PHYSICAL: Grid((Axis("t", 1.0, 12, periodic=False),
                                  Axis("x1", 2.0, 12), Axis("x2", 2.0, 12)),
                                 Frame.PHYSICAL),
            Frame.KZK: _periodic3(Frame.KZK, 12),
            Frame.NPE: _periodic3(Frame.NPE, 12)}


def test_term_table_structure(coeff):
    # residual.csv names a term by its id alone, so an id is unique across
    # all components of a pair, not only within one
    grids = _table_grids()
    for pair in PAIRS:
        tables = term_table(pair, grids[_PAIR_TABLE[pair].frame])
        assert tables
        ids = [t.term_id for terms in tables.values() for t in terms]
        assert len(ids) == len(set(ids)), pair
        for terms in tables.values():
            assert terms
            for t in terms:
                assert t.power >= 0
                assert np.isfinite(t.coeff(coeff))
    with pytest.raises(ValueError):
        term_table("kzk-ns", grids[Frame.KZK])


def _derivative_orders(expr):
    """The orders _Ctx.deriv takes: the derivatives of a Ref summed per
    axis, as remainders._key sums them, and the order of each Deriv."""
    if isinstance(expr, Ref):
        total = {}
        for axis, order in expr.derivs:
            total[axis] = total.get(axis, 0) + order
        return set(total.values())
    if isinstance(expr, Deriv):
        return {expr.order} | _derivative_orders(expr.expr)
    parts = expr.factors if isinstance(expr, Prod) else [
        e for _scale, e in expr.addends]
    return set().union(*(_derivative_orders(e) for e in parts))


def test_every_derivative_order_has_one_fd_stencil():
    # a bounded axis takes each derivative in one stencil, so no table may
    # ask for an order above the largest stencil's
    grids = _table_grids()
    for pair in PAIRS:
        tables = term_table(pair, grids[_PAIR_TABLE[pair].frame])
        orders = set().union(*(_derivative_orders(t.expr)
                               for terms in tables.values() for t in terms))
        assert orders <= set(_FD_STENCILS), (pair, orders)


def test_term_table_components_per_pair():
    gk = Grid((Axis("t", 1.0, 16, periodic=False), Axis("x1", 2.0, 16),
               Axis("x2", 2.0, 16)), Frame.PHYSICAL)
    out = term_table("ns-kuznetsov", gk)
    assert set(out) == {"mass", "momentum_x1", "momentum_x2"}
    gp = _periodic3(Frame.KZK, 12)
    out = term_table("ns-kzk", gp)
    assert set(out) == {"mass", "momentum_axial", "momentum_y1"}
    assert set(term_table("kuznetsov-npe", gp)) == {"model"}


def test_zero_input_gives_zero_remainder(coeff):
    g = _periodic3(Frame.KZK, 12)
    res = evaluate_remainder("kuznetsov-kzk", coeff, {"Phi": Field.zeros(g)})
    assert res.base == Fraction(2)
    for f in res.fields.values():
        assert f.linf_norm() == 0.0
    # a term with a negative coefficient grades to -0.0 everywhere, and its
    # max norm still reads +0.0
    assert any(t.coeff(coeff) < 0.0
               for t in term_table("kuznetsov-kzk", g)["model"])
    for row in res.term_stats:
        assert row[4] == 0.0 and math.copysign(1.0, row[4]) == 1.0, row


def test_missing_input_field_raises(coeff):
    g = Grid((Axis("t", 1.0, 16, periodic=False), Axis("x1", 2.0, 16)),
             Frame.PHYSICAL)
    with pytest.raises(KeyError, match="missing input field 'u'"):
        evaluate_remainder("ns-kuznetsov", coeff, {"Phi": Field.zeros(g)})


@pytest.mark.parametrize("pair, frame, message", [
    ("kuznetsov-kzk", Frame.KZK, "missing input field 'Phi' (or 'I')"),
    ("kuznetsov-npe", Frame.NPE, "missing input field 'Psi' (or 'xi')"),
])
def test_a_paraxial_pair_needs_its_potential_or_its_profile(coeff, pair,
                                                            frame, message):
    g = _periodic3(frame, 12)
    with pytest.raises(ValueError, match=re.escape(message)):
        evaluate_remainder(pair, coeff, {"u": Field.zeros(g)})


def test_inputs_on_two_grids_are_refused(coeff):
    g, other = _periodic3(Frame.KZK, 12), _periodic3(Frame.KZK, 16)
    with pytest.raises(ValueError, match="all input fields must share one "
                                         "grid"):
        evaluate_remainder("ns-kzk", coeff, {"Phi": Field.zeros(g),
                                             "J": Field.zeros(other)})


def test_missing_axis_is_reported_by_name(coeff):
    g = Grid((Axis("tau", 2.0, 16),), Frame.KZK)
    f = Field(g, np.sin(np.pi * g.mesh()[0]))
    with pytest.raises(ValueError, match="'z'"):
        evaluate_remainder("kuznetsov-kzk", coeff, {"Phi": f})


def test_margins_reported_for_bounded_axes(coeff):
    g = Grid((Axis("t", 1.0, 32, periodic=False), Axis("x1", 2 * np.pi, 16)),
             Frame.PHYSICAL)
    T, X = g.mesh()
    u = Field(g, 0.1 * np.sin(X) * np.cos(np.pi * T))
    res = evaluate_remainder("ns-kuznetsov", coeff, {"u": u})
    assert any(m.get("t", 0) > 0 for m in res.margins.values())


def test_term_stats_rows(coeff):
    g = _periodic3(Frame.NPE, 12)
    psi = Field(g, _bandlimited(g))
    res = evaluate_remainder("ns-npe", coeff, {"Psi": psi})
    assert res.term_stats
    comps = {row[0] for row in res.term_stats}
    assert comps == set(res.fields)
    for comp, term_id, power, l2, linf in res.term_stats:
        assert isinstance(power, Fraction)
        assert l2 >= 0.0 and linf >= 0.0


def test_pairs_all_evaluable(coeff):
    # smoke: every pair accepts a suitable input and returns finite fields
    inputs = {
        "ns-kuznetsov": (Grid((Axis("t", 1.0, 16, periodic=False),
                               Axis("x1", 2.0, 16)), Frame.PHYSICAL), "u"),
        "kuznetsov-westervelt": (Grid((Axis("t", 1.0, 16, periodic=False),
                                       Axis("x1", 2.0, 16)),
                                      Frame.PHYSICAL), "u"),
        "ns-kzk": (_periodic3(Frame.KZK, 12), "Phi"),
        "kuznetsov-kzk": (_periodic3(Frame.KZK, 12), "Phi"),
        "ns-npe": (_periodic3(Frame.NPE, 12), "Psi"),
        "kuznetsov-npe": (_periodic3(Frame.NPE, 12), "Psi"),
    }
    assert set(inputs) == set(PAIRS)
    for pair, (g, name) in inputs.items():
        f = Field(g, 0.01 * _bandlimited(g, seed=5, kmax=1))
        res = evaluate_remainder(pair, coeff, {name: f})
        for comp, fld in res.fields.items():
            assert np.isfinite(fld.values).all(), (pair, comp)


def test_context_derives_the_correctors_of_build_correctors(coeff):
    # the remainder tables and the studies share one statement of each
    # closed form: on a periodic grid they derive the same arrays bit for bit
    g = Grid((Axis("t", 2.0, 16), Axis("x1", 2.0, 16)), Frame.PHYSICAL)
    u = Field(g, 0.01 * _bandlimited(g, seed=5, kmax=1))
    ctx = _Ctx(g, coeff, {"u": u})
    ut = Field(g, Spectral(g).d(u.scalar, "t"))
    rho1, rho2 = build_correctors(
        coeff, ModelState(ModelKind.KUZNETSOV, 0.0, u, ut))
    assert np.array_equal(ctx.field("rho1").arr, rho1)
    assert np.array_equal(ctx.field("rho2").arr, rho2)


def test_input_field_names_the_profile_of_each_pair():
    assert {p: input_field(p) for p in PAIRS} == {
        "ns-kuznetsov": "u", "kuznetsov-westervelt": "u",
        "ns-kzk": "I", "kuznetsov-kzk": "I",
        "ns-npe": "xi", "kuznetsov-npe": "xi"}
    with pytest.raises(ValueError, match="unknown pair 'kzk-ns'"):
        input_field("kzk-ns")


#: per frame, a small grid laid out as the CLI's trajectory grids are (one
#: bounded evolution axis) and the fields a pair can be given on it
_READ_GRIDS = {
    Frame.PHYSICAL: (Grid((Axis("t", 1.0, 24, periodic=False),
                           Axis("x1", 2.0, 12), Axis("x2", 2.5, 8)),
                          Frame.PHYSICAL), ("u",)),
    Frame.KZK: (Grid((Axis("tau", 2.0, 12), Axis("z", 3.0, 24, periodic=False),
                      Axis("y1", 2.5, 8)), Frame.KZK), ("I", "Phi")),
    Frame.NPE: (Grid((Axis("z", 3.0, 12), Axis("tau", 2.0, 24, periodic=False),
                      Axis("y1", 2.5, 8)), Frame.NPE), ("xi", "Psi")),
}

_READ_CASES = [(pair, name) for pair in PAIRS
               for name in _READ_GRIDS[_PAIR_TABLE[pair].frame][1]]


def _read_input(pair, name):
    # varies along every axis, so no term vanishes by symmetry
    g = _READ_GRIDS[_PAIR_TABLE[pair].frame][0]
    return {name: Field(g, 0.1 * _bandlimited(g, seed=3, kmax=2))}


@pytest.mark.parametrize("pair, name", _READ_CASES)
def test_counted_reads_evaluate_each_node_once_bit_for_bit(
        coeff, monkeypatch, pair, name):
    made = []

    class Counted(_Ctx):
        def __init__(self, *args):
            super().__init__(*args)
            self.evaluated = []
            made.append(self)

        def _evaluate(self, key):
            self.evaluated.append(key)
            return super()._evaluate(key)

    class Recomputing(_Ctx):
        def __init__(self, grid, coeff, inputs, exprs):
            super().__init__(grid, coeff, inputs)

    # a Ref with derivatives reads its prefix as a counted node, so no table
    # takes the same derivative of the same values twice
    taken = []
    fd_deriv, spectral_filter = remainders._fd_deriv, Spectral.filter

    def digest(arr):
        return hashlib.sha256(np.ascontiguousarray(arr).tobytes()).digest()

    def counted_fd(arr, ax, h, order):
        taken.append(("fd", digest(arr), ax, order))
        return fd_deriv(arr, ax, h, order)

    def counted_filter(self, v, axis, symbol):
        taken.append(("filter", digest(v), axis, digest(symbol)))
        return spectral_filter(self, v, axis, symbol)

    inputs = _read_input(pair, name)
    monkeypatch.setattr(remainders, "_Ctx", Counted)
    monkeypatch.setattr(remainders, "_fd_deriv", counted_fd)
    monkeypatch.setattr(Spectral, "filter", counted_filter)
    got = evaluate_remainder(pair, coeff, inputs)
    monkeypatch.setattr(remainders, "_fd_deriv", fd_deriv)
    monkeypatch.setattr(Spectral, "filter", spectral_filter)
    monkeypatch.setattr(remainders, "_Ctx", Recomputing)
    want = evaluate_remainder(pair, coeff, inputs)

    assert got.term_stats == want.term_stats
    assert all(row[3] > 0.0 for row in got.term_stats)
    assert got.margins == want.margins
    assert set(got.fields) == set(want.fields)
    for comp, f in got.fields.items():
        assert f.values.tobytes() == want.fields[comp].values.tobytes(), comp
    (ctx,) = made
    # a count too high leaves a value kept, one too low evaluates it again
    assert ctx._kept == {} and ctx._reads_left == {}
    assert len(ctx.evaluated) == len(set(ctx.evaluated))
    assert taken and len(taken) == len(set(taken))


@pytest.mark.parametrize("pair, name", _READ_CASES)
def test_no_context_outlives_its_table(coeff, monkeypatch, pair, name):
    # the context's arrays go when evaluate_remainder returns, without the
    # cyclic collector: nothing it holds refers back to it
    refs = []

    class Watched(_Ctx):
        def __init__(self, *args):
            super().__init__(*args)
            refs.append(weakref.ref(self))

    inputs = _read_input(pair, name)
    monkeypatch.setattr(remainders, "_Ctx", Watched)
    gc.disable()
    try:
        evaluate_remainder(pair, coeff, inputs)
        assert len(refs) == 1 and refs[0]() is None
    finally:
        gc.enable()
