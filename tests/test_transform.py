"""Round trips of snapshots through PAF files and frame changes on random
grids."""

import math

import numpy as np
from hypothesis import HealthCheck, given, settings, strategies as st

from nlparax import Axis, Field, Frame, Grid, read_paf, write_paf
from nlparax.frames import transform_field

# each direction with the leading and transverse axis names of its source
DIRECTIONS = [
    ("physical", "kzk", "t", "x"), ("kzk", "physical", "tau", "y"),
    ("physical", "npe", "x1", "x"), ("npe", "physical", "z", "y"),
    ("kzk", "npe", "tau", "y"), ("npe", "kzk", "z", "y"),
]


@st.composite
def snapshots(draw):
    src, dst, lead, prefix = draw(st.sampled_from(DIRECTIONS))
    first = 2 if prefix == "x" else 1
    nax = draw(st.integers(1, 3))
    axes = []
    for i in range(nax):
        name = lead if i == 0 else f"{prefix}{i - 1 + first}"
        # kzk <-> npe reverses the leading axis, which must be periodic
        periodic = (i == 0 and "physical" not in (src, dst)) or draw(
            st.booleans())
        axes.append(Axis(name, draw(st.floats(1e-3, 1e3)),
                         2 * draw(st.integers(2, 8)), periodic,
                         draw(st.just(0.0) | st.floats(-1e3, 1e3))))
    grid = Grid(tuple(axes), Frame(src))
    components = draw(st.integers(1, 2))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    f = Field(grid, rng.standard_normal(grid.shape + (components,)),
              components)
    return f, src, dst


def _paf_round_trip(path, f):
    write_paf(path, f)
    back = read_paf(path)
    assert back.grid == f.grid and back.components == f.components
    assert np.array_equal(back.values, f.values)  # bit exact
    return back


def _check_round_trip(tmp_path, f, src, dst, c, eps):
    f = _paf_round_trip(tmp_path / "src.paf", f)
    mid = _paf_round_trip(tmp_path / "mid.paf",
                          transform_field(f, src, dst, c, eps))
    assert mid.grid.frame is Frame(dst)
    back = transform_field(mid, dst, src, c, eps)
    assert back.grid.frame is f.grid.frame
    assert np.array_equal(back.values, f.values)
    for a, m, b in zip(back.grid.axes, mid.grid.axes, f.grid.axes,
                       strict=True):
        assert (a.name, a.points, a.periodic) == (b.name, b.points,
                                                  b.periodic)
        # a rescale by s and back by 1/s may round in the last bits; below
        # the normal range that rounding is absolute, up to one subnormal
        # step per rescale
        s = m.length / b.length
        assert abs(a.length - b.length) <= 1e-15 * b.length
        assert abs(a.origin - b.origin) <= (
            1e-15 * abs(b.origin) + (1 + max(s, 1 / s)) * math.ulp(0.0))


@settings(deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=snapshots(), c=st.floats(0.05, 20.0), eps=st.floats(1e-4, 0.9))
def test_paf_and_transform_round_trip(tmp_path, case, c, eps):
    _check_round_trip(tmp_path, *case, c, eps)


def test_subnormal_origin_round_trip(tmp_path):
    # 5e-324 * 0.5 rounds to 0, so the origin comes back as 0.0
    g = Grid((Axis("tau", 1.0, 4, origin=5e-324),), Frame.KZK)
    f = Field(g, np.arange(4.0))
    assert transform_field(transform_field(f, "kzk", "npe", 0.5, 0.5),
                           "npe", "kzk", 0.5, 0.5).grid.axes[0].origin == 0.0
    _check_round_trip(tmp_path, f, "kzk", "npe", 0.5, 0.5)


def test_kzk_to_npe_samples_the_bijection():
    # the NPE snapshot at z holds the KZK value at tau = -z/c
    c, L, o = 1.7, 3.0, 0.4
    tau = Axis("tau", L, 32, origin=o)
    g = Grid((tau, Axis("y1", 2.0, 8)), Frame.KZK)

    def profile(t, y):
        return np.sin(2 * np.pi * 3 * (t - o) / L + 0.3) * (1.0 + y**2)

    npe = transform_field(Field(g, profile(*g.mesh())), "kzk", "npe", c,
                          0.01)
    Z, Y = npe.grid.mesh()
    assert np.abs(npe.scalar - profile(-Z / c, Y)).max() < 1e-12
