import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from nlparax import (
    Axis,
    Field,
    Frame,
    FrameKind,
    FrameMap,
    Grid,
    kzk_npe_bijection,
    map_coordinates,
)
from nlparax.frames import (
    bijection_transport_derivatives,
    evaluate_profile_in_physical,
    trig_resample,
)

coords = st.floats(-10.0, 10.0, allow_nan=False)


def test_frame_map_validation():
    with pytest.raises(ValueError):
        FrameMap(FrameKind.KZK_PARAXIAL, c=0.0, eps=0.1)
    with pytest.raises(ValueError):
        FrameMap(FrameKind.NPE_PARAXIAL, c=1.0, eps=1.5)


@settings(deadline=None, max_examples=60)
@given(t=coords, x1=coords, x2=coords,
       kind=st.sampled_from(list(FrameKind)),
       c=st.floats(0.2, 5.0), eps=st.floats(1e-4, 0.5))
def test_map_coordinates_round_trip(t, x1, x2, kind, c, eps):
    fm = FrameMap(kind, c=c, eps=eps)
    pt = (t, x1, x2)
    back = map_coordinates(fm, "inverse", map_coordinates(fm, "forward", pt))
    scale = max(1.0, abs(t), abs(x1), abs(x2))
    assert max(abs(a - b) for a, b in zip(pt, back)) < 1e-12 * scale


def test_map_coordinates_known_values():
    fm = FrameMap(FrameKind.KZK_PARAXIAL, c=2.0, eps=0.04)
    tau, z, y = map_coordinates(fm, "forward", (3.0, 4.0, 5.0))
    assert tau == pytest.approx(3.0 - 4.0 / 2.0)
    assert z == pytest.approx(0.04 * 4.0)
    assert y == pytest.approx(0.2 * 5.0)
    fm = FrameMap(FrameKind.NPE_PARAXIAL, c=2.0, eps=0.04)
    tau, z, y = map_coordinates(fm, "forward", (3.0, 4.0, 5.0))
    assert tau == pytest.approx(0.04 * 3.0)
    assert z == pytest.approx(4.0 - 2.0 * 3.0)


def test_map_coordinates_arity_and_direction_errors():
    fm = FrameMap(FrameKind.KZK_PARAXIAL, c=1.0, eps=0.1)
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


def test_trig_resample_exact_on_band_limited():
    n, L, origin = 32, 3.0, -1.0
    x = origin + L * np.arange(n) / n
    f = np.sin(2 * np.pi * 3 * (x - origin) / L + 0.4)
    targets = origin + np.array([0.123, 1.77, 2.9, 0.0])
    out = trig_resample(f, 0, n, L, origin, targets - origin + origin)
    exact = np.sin(2 * np.pi * 3 * (targets - origin) / L + 0.4)
    assert np.abs(out - exact).max() < 1e-12


def test_trig_resample_multi_axis(rng):
    n = 16
    f = rng.standard_normal((n, 4))
    # resampling at the original nodes reproduces the samples
    nodes = 2.0 * np.arange(n) / n
    out = trig_resample(f, 0, n, 2.0, 0.0, nodes)
    assert np.abs(out - f).max() < 1e-12


def test_evaluate_profile_in_physical_npe_slice():
    # 1D NPE profile xi(z); at t = 0 the physical field is xi(x1)
    eps, c = 0.04, 1.3
    g = Grid((Axis("z", 2 * np.pi, 64),), Frame.NPE)
    z = g.mesh()[0]
    prof = Field(g, np.sin(z))
    fm = FrameMap(FrameKind.NPE_PARAXIAL, c=c, eps=eps)
    phys = Grid((Axis("x1", 2 * np.pi, 48),), Frame.PHYSICAL)
    out = evaluate_profile_in_physical(prof, fm, phys, evol_value=0.0)
    assert np.abs(out.scalar - np.sin(phys.mesh()[0])).max() < 1e-10


def test_evaluate_profile_rejects_time_axis():
    g = Grid((Axis("z", 2 * np.pi, 16),), Frame.NPE)
    prof = Field(g, np.sin(g.mesh()[0]))
    fm = FrameMap(FrameKind.NPE_PARAXIAL, c=1.0, eps=0.1)
    bad = Grid((Axis("t", 1.0, 8, periodic=False),), Frame.PHYSICAL)
    with pytest.raises(ValueError):
        evaluate_profile_in_physical(prof, fm, bad)


def test_evaluate_profile_rejects_bounded_axis():
    g = Grid((Axis("tau", 2 * np.pi, 16),
              Axis("y1", 2.0, 9, periodic=False, origin=-1.0)), Frame.KZK)
    prof = Field(g, np.sin(g.mesh()[0]))
    fm = FrameMap(FrameKind.KZK_PARAXIAL, c=1.0, eps=0.1)
    phys = Grid((Axis("t", 2 * np.pi, 16), Axis("x2", 4.0, 8)),
                Frame.PHYSICAL)
    with pytest.raises(ValueError, match="'y1'"):
        evaluate_profile_in_physical(prof, fm, phys)
