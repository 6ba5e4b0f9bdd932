import numpy as np
import pytest

from nlparax import Axis, Field, Frame, Grid


@pytest.mark.parametrize("key", ["length", "origin"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_axis_refuses_non_finite_values(key, bad):
    with pytest.raises(ValueError, match=f"^axis 'y1': {key} must be finite"):
        Axis("y1", **{"length": 1.0, "points": 8, key: bad})


def test_axis_validation():
    with pytest.raises(ValueError):
        Axis("x1", 0.0, 16)
    with pytest.raises(ValueError):
        Axis("x1", 1.0, 3)
    with pytest.raises(ValueError):
        Axis("x1", 1.0, 15)  # periodic axes need even point counts
    # bounded axes may be odd
    Axis("t", 1.0, 15, periodic=False)


def test_axis_coordinates():
    a = Axis("x1", 2.0, 4, origin=1.0)
    assert np.allclose(a.coordinates(), [1.0, 1.5, 2.0, 2.5])
    b = Axis("t", 3.0, 4, periodic=False)
    assert np.allclose(b.coordinates(), [0.0, 1.0, 2.0, 3.0])


def test_grid_validation():
    ax = Axis("x1", 1.0, 8)
    with pytest.raises(ValueError):
        Grid((), Frame.PHYSICAL)
    with pytest.raises(ValueError):
        Grid((ax, ax, ax, Axis("x4", 1.0, 8)), Frame.PHYSICAL)
    with pytest.raises(ValueError):
        Grid((ax, Axis("x1", 2.0, 8)), Frame.PHYSICAL)
    with pytest.raises(KeyError):
        Grid((ax,), Frame.PHYSICAL).axis_index("y1")


def test_grid_stores_its_axes_as_a_tuple():
    axes = [Axis("x1", 1.0, 8), Axis("x2", 2.0, 4)]
    listed, tupled = Grid(axes), Grid(tuple(axes))
    assert type(listed.axes) is tuple
    assert listed == tupled and hash(listed) == hash(tupled)


def test_cell_volume():
    g = Grid((Axis("x1", 2.0, 8), Axis("x2", 3.0, 6)), Frame.PHYSICAL)
    assert g.cell_volume == pytest.approx((2.0 / 8) * (3.0 / 6))


def test_mesh_shapes():
    g = Grid((Axis("x1", 1.0, 8), Axis("x2", 1.0, 4)), Frame.PHYSICAL)
    m = g.mesh()
    assert len(m) == 2
    assert m[0].shape == (8, 4)
    assert m[1].shape == (8, 4)


def test_l2_norm_of_sine():
    g = Grid((Axis("x1", 2 * np.pi, 128),), Frame.PHYSICAL)
    f = Field(g, np.sin(g.mesh()[0]))
    # integral of sin^2 over one period is pi
    assert f.l2_norm() == pytest.approx(np.sqrt(np.pi), rel=1e-12)


def test_field_shape_and_finiteness():
    g = Grid((Axis("x1", 1.0, 8),), Frame.PHYSICAL)
    with pytest.raises(ValueError):
        Field(g, np.zeros(7))
    bad = np.zeros(8)
    bad[3] = np.nan
    with pytest.raises(ValueError):
        Field(g, bad)


def test_scalar_accessor_guards_vectors():
    g = Grid((Axis("x1", 1.0, 8),), Frame.PHYSICAL)
    v = Field(g, np.zeros((8, 2)), components=2)
    with pytest.raises(ValueError):
        v.scalar
    assert v.component(0).shape == (8,)


def test_zeros():
    g = Grid((Axis("x1", 1.0, 8),), Frame.PHYSICAL)
    z = Field.zeros(g, components=3)
    assert z.values.shape == (8, 3)
    assert z.linf_norm() == 0.0
