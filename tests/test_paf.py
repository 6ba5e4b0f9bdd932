import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from nlparax import Axis, Field, Frame, Grid, read_paf, write_paf


def test_round_trip_scalar_1d(tmp_path, rng):
    g = Grid((Axis("x1", 2 * np.pi, 32),), Frame.PHYSICAL)
    f = Field(g, rng.standard_normal(32))
    p = tmp_path / "f.paf"
    write_paf(p, f)
    back = read_paf(p)
    assert back.grid == f.grid
    assert back.components == 1
    assert np.array_equal(back.values, f.values)  # bit exact


def test_round_trip_vector_mixed_axes(tmp_path, rng):
    g = Grid((Axis("t", 1.5, 9, periodic=False),
              Axis("x1", 3.0, 16, origin=-1.5)), Frame.PHYSICAL)
    f = Field(g, rng.standard_normal((9, 16, 2)), components=2)
    p = tmp_path / "v.paf"
    write_paf(p, f)
    back = read_paf(p)
    assert back.grid == f.grid
    assert back.components == 2
    assert np.array_equal(back.values, f.values)


def test_round_trip_paraxial_frame(tmp_path, rng):
    g = Grid((Axis("tau", 2.0, 8), Axis("y1", 2.5, 8, origin=-1.25)),
             Frame.KZK)
    f = Field(g, rng.standard_normal((8, 8)))
    p = tmp_path / "k.paf"
    write_paf(p, f)
    assert read_paf(p).grid.frame is Frame.KZK


def test_rejects_garbage(tmp_path):
    p = tmp_path / "bad.paf"
    p.write_bytes(b"not a paf file at all\n")
    with pytest.raises(ValueError):
        read_paf(p)


def test_rejects_truncated_block(tmp_path, rng):
    g = Grid((Axis("x1", 1.0, 16),), Frame.PHYSICAL)
    f = Field(g, rng.standard_normal(16))
    p = tmp_path / "t.paf"
    write_paf(p, f)
    data = p.read_bytes()
    p.write_bytes(data[:-8])
    with pytest.raises(ValueError):
        read_paf(p)


def test_rejects_trailing_bytes(tmp_path, rng):
    g = Grid((Axis("x1", 1.0, 16),), Frame.PHYSICAL)
    p = tmp_path / "t.paf"
    write_paf(p, Field(g, rng.standard_normal(16)))
    p.write_bytes(p.read_bytes() + b"\0" * 8)
    with pytest.raises(ValueError, match="expected 128"):
        read_paf(p)


@settings(deadline=None, max_examples=20,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(vals=st.lists(st.floats(allow_nan=False, allow_infinity=False,
                               width=64, min_value=-1e100, max_value=1e100),
                     min_size=8, max_size=8))
def test_round_trip_preserves_exact_floats(tmp_path, vals):
    g = Grid((Axis("x1", 1.0, 8),), Frame.PHYSICAL)
    f = Field(g, np.array(vals))
    p = tmp_path / "h.paf"
    write_paf(p, f)
    assert np.array_equal(read_paf(p).values, f.values)
