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
from nlparax.remainders import (
    PAIRS,
    _prepare_context,
    base_power,
    input_field,
)


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


def test_base_power():
    assert base_power("ns-kuznetsov") == Fraction(3)
    assert base_power("ns-kzk") == Fraction(3)
    assert base_power("kuznetsov-kzk") == Fraction(2)
    assert base_power("kuznetsov-westervelt") == Fraction(2)


def test_term_table_structure(coeff):
    g = _periodic3(Frame.KZK, 12)
    for pair in ("ns-kzk", "kuznetsov-kzk"):
        tables = term_table(pair, g)
        assert tables
        for comp, terms in tables.items():
            ids = [t.term_id for t in terms]
            assert len(ids) == len(set(ids)), (pair, comp)
            for t in terms:
                assert t.power >= 0
                assert np.isfinite(t.coeff(coeff))
    with pytest.raises(ValueError):
        term_table("kzk-ns", g)


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


def test_missing_input_field_raises(coeff):
    g = _periodic3(Frame.KZK, 12)
    with pytest.raises(KeyError):
        evaluate_remainder("ns-kuznetsov", coeff, {"Phi": Field.zeros(g)})


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


def test_printed_variant_differs_where_corrected(coeff):
    # the pairs with a corrected default must actually produce different
    # remainders under the two variants; the corrected one is the one the
    # off-shell identity closes against (exercised in the acceptance tests)
    g = _periodic3(Frame.KZK)
    phi = Field(g, _bandlimited(g))
    r_c = evaluate_remainder("ns-kzk", coeff, {"Phi": phi},
                             variant="consistent")
    r_p = evaluate_remainder("ns-kzk", coeff, {"Phi": phi},
                             variant="printed")
    diff = max(np.abs(r_c.fields[c].scalar - r_p.fields[c].scalar).max()
               for c in r_c.fields)
    assert diff > 1e-8


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
    ctx = _prepare_context("ns-kuznetsov", coeff, {"u": u})
    rho1, rho2 = build_correctors(
        coeff, ModelState(ModelKind.KUZNETSOV, 0.0, u))
    assert np.array_equal(ctx.fields["rho1"].arr, rho1)
    assert np.array_equal(ctx.fields["rho2"].arr, rho2)


@pytest.mark.parametrize("pair", PAIRS)
def test_every_pair_rejects_an_unknown_variant(coeff, pair):
    g = _periodic3(Frame.KZK, 12)
    with pytest.raises(ValueError,
                       match=f"unknown variant 'bogus' of pair '{pair}'"):
        term_table(pair, g, variant="bogus")


@pytest.mark.parametrize("pair", ["kuznetsov-kzk", "kuznetsov-npe"])
def test_pairs_without_a_printed_form_reject_printed(coeff, pair):
    g = _periodic3(Frame.KZK, 12)
    with pytest.raises(ValueError, match=r"expected one of \(''"):
        term_table(pair, g, variant="printed")
    f = Field(g, 0.01 * _bandlimited(g, seed=5, kmax=1))
    with pytest.raises(ValueError, match="unknown variant 'printed'"):
        evaluate_remainder(pair, coeff, {input_field(pair): f},
                           variant="printed")


def test_input_field_names_the_profile_of_each_pair():
    assert {p: input_field(p) for p in PAIRS} == {
        "ns-kuznetsov": "u", "kuznetsov-westervelt": "u",
        "ns-kzk": "I", "kuznetsov-kzk": "I",
        "ns-npe": "xi", "kuznetsov-npe": "xi"}
    with pytest.raises(ValueError, match="unknown pair 'kzk-ns'"):
        input_field("kzk-ns")
