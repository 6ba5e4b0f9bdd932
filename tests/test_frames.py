import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlparax import Axis, Field, Frame, Grid
from nlparax.frames import transform_field

from frame_maps import kzk_npe_bijection, map_coordinates, snapshot_point

coords = st.floats(-10.0, 10.0, allow_nan=False)


@settings(deadline=None, max_examples=60)
@given(t=coords, x1=coords, x2=coords,
       kind=st.sampled_from([Frame.KZK, Frame.NPE]),
       c=st.floats(0.2, 5.0), eps=st.floats(1e-4, 0.5))
def test_map_coordinates_round_trip(t, x1, x2, kind, c, eps):
    pt = (t, x1, x2)
    back = map_coordinates(kind, "inverse",
                           map_coordinates(kind, "forward", pt, c, eps),
                           c, eps)
    scale = max(1.0, abs(t), abs(x1), abs(x2))
    assert max(abs(a - b) for a, b in zip(pt, back)) < 1e-12 * scale


def test_map_coordinates_known_values():
    tau, z, y = map_coordinates(Frame.KZK, "forward", (3.0, 4.0, 5.0),
                                2.0, 0.04)
    assert tau == pytest.approx(3.0 - 4.0 / 2.0)
    assert z == pytest.approx(0.04 * 4.0)
    assert y == pytest.approx(0.2 * 5.0)
    tau, z, y = map_coordinates(Frame.NPE, "forward", (3.0, 4.0, 5.0),
                                2.0, 0.04)
    assert tau == pytest.approx(0.04 * 3.0)
    assert z == pytest.approx(4.0 - 2.0 * 3.0)


@settings(deadline=None, max_examples=60)
@given(tau=coords, z=coords, c=st.floats(0.2, 5.0), eps=st.floats(1e-4, 0.5))
def test_bijection_round_trip(tau, z, c, eps):
    mid = kzk_npe_bijection("kzk_to_npe", (tau, z), c, eps)
    back = kzk_npe_bijection("npe_to_kzk", mid, c, eps)
    scale = max(1.0, abs(tau), abs(z))
    assert abs(back[0] - tau) <= 1e-14 * scale
    assert abs(back[1] - z) <= 1e-14 * scale


# each direction with the leading and transverse axis names of its source
DIRECTIONS = [
    ("physical", "kzk", "t", ("x2", "x3")),
    ("kzk", "physical", "tau", ("y1", "y2")),
    ("physical", "npe", "x1", ("x2", "x3")),
    ("npe", "physical", "z", ("y1", "y2")),
    ("kzk", "npe", "tau", ("y1", "y2")),
    ("npe", "kzk", "z", ("y1", "y2")),
]


@pytest.mark.parametrize("src, dst, lead, trans", DIRECTIONS,
                         ids=[f"{s}-{d}" for s, d, _, _ in DIRECTIONS])
def test_transform_axes_follow_the_point_maps(src, dst, lead, trans, rng):
    reversed_lead = "physical" not in (src, dst)
    for _ in range(10):
        names = (lead, *trans[:int(rng.integers(0, 3))])
        axes = tuple(
            Axis(name, float(rng.uniform(0.5, 20.0)),
                 2 * int(rng.integers(2, 6)),
                 bool(i == 0 and reversed_lead or rng.integers(0, 2)),
                 float(rng.uniform(-10.0, 10.0)))
            for i, name in enumerate(names))
        g = Grid(axes, Frame(src))
        # each value is the flat index of its sample, so the output values
        # say which source sample landed where
        f = Field(g, np.arange(np.prod(g.shape), dtype=float).reshape(
            g.shape))
        c, eps = float(rng.uniform(0.2, 5.0)), float(rng.uniform(1e-3, 0.5))
        out = transform_field(f, src, dst, c, eps)
        source = [m.ravel() for m in np.broadcast_arrays(*g.mesh())]
        target = [m.ravel() for m in np.broadcast_arrays(*out.grid.mesh())]
        period = out.grid.axes[0].length
        for k, i in enumerate(out.scalar.ravel().astype(int)):
            want = snapshot_point(src, dst, [m[i] for m in source], c, eps)
            got = [m[k] for m in target]
            diff = np.subtract(got, want)
            if reversed_lead:  # equal modulo the period of the leading axis
                diff[0] -= period * np.round(diff[0] / period)
            scale = 1.0 + np.abs(want)
            assert np.all(np.abs(diff) <= 1e-12 * scale), (k, got, want)
