import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlparax import Frame, FrameMap, kzk_npe_bijection, map_coordinates
from nlparax.frames import bijection_transport_derivatives

coords = st.floats(-10.0, 10.0, allow_nan=False)


def test_frame_map_validation():
    with pytest.raises(ValueError):
        FrameMap(Frame.KZK, c=0.0, eps=0.1)
    with pytest.raises(ValueError):
        FrameMap(Frame.NPE, c=1.0, eps=1.5)
    with pytest.raises(ValueError, match="paraxial"):
        FrameMap(Frame.PHYSICAL, c=1.0, eps=0.1)


@settings(deadline=None, max_examples=60)
@given(t=coords, x1=coords, x2=coords,
       kind=st.sampled_from([Frame.KZK, Frame.NPE]),
       c=st.floats(0.2, 5.0), eps=st.floats(1e-4, 0.5))
def test_map_coordinates_round_trip(t, x1, x2, kind, c, eps):
    fm = FrameMap(kind, c=c, eps=eps)
    pt = (t, x1, x2)
    back = map_coordinates(fm, "inverse", map_coordinates(fm, "forward", pt))
    scale = max(1.0, abs(t), abs(x1), abs(x2))
    assert max(abs(a - b) for a, b in zip(pt, back)) < 1e-12 * scale


def test_map_coordinates_known_values():
    fm = FrameMap(Frame.KZK, c=2.0, eps=0.04)
    tau, z, y = map_coordinates(fm, "forward", (3.0, 4.0, 5.0))
    assert tau == pytest.approx(3.0 - 4.0 / 2.0)
    assert z == pytest.approx(0.04 * 4.0)
    assert y == pytest.approx(0.2 * 5.0)
    fm = FrameMap(Frame.NPE, c=2.0, eps=0.04)
    tau, z, y = map_coordinates(fm, "forward", (3.0, 4.0, 5.0))
    assert tau == pytest.approx(0.04 * 3.0)
    assert z == pytest.approx(4.0 - 2.0 * 3.0)


def test_map_coordinates_arity_and_direction_errors():
    fm = FrameMap(Frame.KZK, c=1.0, eps=0.1)
    with pytest.raises(ValueError):
        map_coordinates(fm, "forward", (1.0,))
    with pytest.raises(ValueError):
        map_coordinates(fm, "sideways", (1.0, 2.0))


@settings(deadline=None, max_examples=60)
@given(tau=coords, z=coords, c=st.floats(0.2, 5.0), eps=st.floats(1e-4, 0.5))
def test_bijection_round_trip(tau, z, c, eps):
    mid = kzk_npe_bijection("kzk_to_npe", (tau, z), c, eps)
    back = kzk_npe_bijection("npe_to_kzk", mid, c, eps)
    scale = max(1.0, abs(tau), abs(z))
    assert abs(back[0] - tau) <= 1e-14 * scale
    assert abs(back[1] - z) <= 1e-14 * scale


def test_bijection_direction_error():
    with pytest.raises(ValueError):
        kzk_npe_bijection("npe_to_npe", (0.0, 0.0), 1.0, 0.1)


def test_transport_derivatives_invert(rng):
    dtau = rng.standard_normal(8)
    dz = rng.standard_normal(8)
    c = 1.7
    fwd = bijection_transport_derivatives("kzk_to_npe", dtau, dz, c)
    back = bijection_transport_derivatives("npe_to_kzk", *fwd, c)
    assert np.allclose(back[0], dtau, atol=1e-14)
    assert np.allclose(back[1], dz, atol=1e-14)


def test_transport_derivatives_identities(rng):
    dtau, dz = 0.3, -1.1
    out = bijection_transport_derivatives("kzk_to_npe", dtau, dz, 2.0)
    assert out == (2.0 * dz, -dtau / 2.0)
    out = bijection_transport_derivatives("npe_to_kzk", dtau, dz, 2.0)
    assert out == (-2.0 * dz, dtau / 2.0)
