import json

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


def _axis_entry(key, value):
    def mutate(header):
        header["axes"][0][key] = value
    return mutate


def _header_entry(key, value):
    def mutate(header):
        header[key] = value
    return mutate


@pytest.mark.parametrize("mutate, message", [
    (_axis_entry("periodic", "false"),
     "axis 0 entry 'periodic' is not a valid bool: 'false'"),
    (_axis_entry("periodic", None),
     "axis 0 entry 'periodic' is not a valid bool: None"),
    (_axis_entry("periodic", 0),
     "axis 0 entry 'periodic' is not a valid bool: 0"),
    (_axis_entry("points", 8.9),
     "axis 0 entry 'points' is not a valid int: 8.9"),
    (_axis_entry("points", "8"),
     "axis 0 entry 'points' is not a valid int: '8'"),
    (_axis_entry("points", True),
     "axis 0 entry 'points' is not a valid int: True"),
    (_axis_entry("length", True),
     "axis 0 entry 'length' is not a valid float: True"),
    (_axis_entry("length", "2.0"),
     "axis 0 entry 'length' is not a valid float: '2.0'"),
    (_axis_entry("origin", False),
     "axis 0 entry 'origin' is not a valid float: False"),
    (_axis_entry("name", 1),
     "axis 0 entry 'name' is not a valid str: 1"),
    (_header_entry("components", 1.0),
     "header entry 'components' is not a valid int: 1.0"),
    (_header_entry("value_count", True),
     "header entry 'value_count' is not a valid int: True"),
], ids=["periodic-string", "periodic-null", "periodic-zero", "points-float",
        "points-string", "points-bool", "length-bool", "length-string",
        "origin-bool", "name-number", "components-float", "value_count-bool"])
def test_rejects_a_header_entry_of_the_wrong_json_type(tmp_path, mutate,
                                                        message):
    g = Grid((Axis("t", 2.0, 8, periodic=False),), Frame.PHYSICAL)
    p = tmp_path / "e.paf"
    write_paf(p, Field(g, np.arange(8.0)))
    header, blob = p.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    mutate(header)
    p.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ValueError) as info:
        read_paf(p)
    assert str(info.value) == f"{p}: {message}"


def test_integral_length_and_origin_read_as_floats(tmp_path):
    g = Grid((Axis("x1", 2.0, 8, origin=-1.0),), Frame.PHYSICAL)
    p = tmp_path / "i.paf"
    write_paf(p, Field(g, np.arange(8.0)))
    header, blob = p.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    header["axes"][0].update(length=2, origin=-1)
    p.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    assert read_paf(p).grid == g


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


@pytest.mark.parametrize("mutate, message", [
    (_axis_entry("points", 4),
     "header entry 'value_count' 8 disagrees with the axes' 'points' [4] "
     "times 'components' 1 = 4"),
    (_header_entry("components", 2),
     "header entry 'value_count' 8 disagrees with the axes' 'points' [8] "
     "times 'components' 2 = 16"),
    (_header_entry("components", 0),
     "header entry 'components' must be >= 1: 0"),
], ids=["points", "components", "components-zero"])
def test_rejects_a_header_whose_shape_disagrees_with_value_count(
        tmp_path, mutate, message):
    g = Grid((Axis("t", 2.0, 8, periodic=False),), Frame.PHYSICAL)
    p = tmp_path / "s.paf"
    write_paf(p, Field(g, np.arange(8.0)))
    header, blob = p.read_bytes().split(b"\n", 1)
    header = json.loads(header)
    mutate(header)
    p.write_bytes(json.dumps(header).encode() + b"\n" + blob)
    with pytest.raises(ValueError) as info:
        read_paf(p)
    assert str(info.value) == f"{p}: {message}"
