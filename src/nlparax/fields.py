"""Periodic tensor-product grids and sampled fields.

Axis/Grid/Field are the immutable data carriers used by every solver in the
package.  Values are stored as real float64 samples in row-major order over
the grid axes, with a trailing component axis for vector quantities.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from enum import Enum

import numpy as np

__all__ = ["Frame", "Axis", "Grid", "Field", "MissingInput", "require_finite",
           "refuse_json_constant"]


class MissingInput(KeyError, ValueError):
    """An axis or input field the caller named is not there: bad input, not
    a failed lookup inside the program."""

    def __str__(self) -> str:
        # the message as written, not quoted as KeyError quotes a dict key
        return Exception.__str__(self)


def require_finite(obj, where: str = "") -> None:
    """Raise a ValueError, prefixed by `where`, naming the first field of a
    dataclass that is or holds (as a tuple, list or dict value) a NaN or
    infinite number."""
    for f in fields(obj):
        value = getattr(obj, f.name)
        if isinstance(value, dict):
            items = value.values()
        else:
            items = value if isinstance(value, (tuple, list)) else (value,)
        if any(isinstance(v, (int, float)) and not math.isfinite(v)
               for v in items):
            raise ValueError(f"{where}{f.name} must be finite, got {value!r}")


def refuse_json_constant(token: str):
    """The `parse_constant` hook of every JSON read: the NaN, Infinity and
    -Infinity tokens are not JSON, and no input may carry them."""
    raise ValueError(f"non-standard JSON token {token}")


class Frame(Enum):
    """Coordinate frame a grid lives in."""

    PHYSICAL = "physical"
    KZK = "kzk"
    NPE = "npe"


@dataclass(frozen=True)
class Axis:
    """One grid direction.

    For a periodic axis the samples are origin + L*j/N, j = 0..N-1 (the right
    endpoint is identified with the left).  For a bounded axis the samples
    span [origin, origin + L] inclusive with spacing L/(N-1).
    """

    name: str
    length: float
    points: int
    periodic: bool = True
    origin: float = 0.0

    def __post_init__(self) -> None:
        require_finite(self, f"axis {self.name!r}: ")
        if self.length <= 0:
            raise ValueError(f"axis {self.name!r}: length must be > 0")
        if self.points < 4:
            raise ValueError(
                f"axis {self.name!r}: points must be >= 4, got {self.points}"
            )
        if self.periodic and self.points % 2 != 0:
            raise ValueError(
                f"axis {self.name!r}: periodic axes need an even point count, "
                f"got {self.points}"
            )

    @property
    def spacing(self) -> float:
        if self.periodic:
            return self.length / self.points
        return self.length / (self.points - 1)

    def coordinates(self) -> np.ndarray:
        if self.periodic:
            return self.origin + self.length * np.arange(self.points) / self.points
        return self.origin + np.linspace(0.0, self.length, self.points)


@dataclass(frozen=True)
class Grid:
    """Tensor product of 1-3 axes plus a frame tag."""

    axes: tuple[Axis, ...]
    frame: Frame = Frame.PHYSICAL

    def __post_init__(self) -> None:
        if not isinstance(self.axes, tuple):
            object.__setattr__(self, "axes", tuple(self.axes))
        if not 1 <= len(self.axes) <= 3:
            raise ValueError("grid must have 1 to 3 axes")
        names = [a.name for a in self.axes]
        if len(set(names)) != len(names):
            raise ValueError(f"axis names must be unique, got {names}")

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(a.points for a in self.axes)

    def axis_index(self, name: str) -> int:
        for i, a in enumerate(self.axes):
            if a.name == name:
                return i
        raise MissingInput(f"grid has no axis named {name!r}; axes: "
                       f"{[a.name for a in self.axes]}")

    def axis(self, name: str) -> Axis:
        return self.axes[self.axis_index(name)]

    @property
    def cell_volume(self) -> float:
        """Quadrature weight of one sample (trapezoid weights are uniform on
        periodic axes; bounded axes use the interior spacing)."""
        return float(np.prod([a.spacing for a in self.axes]))

    def mesh(self) -> list[np.ndarray]:
        """Coordinate arrays broadcast to the grid shape (indexing='ij')."""
        return list(np.meshgrid(*[a.coordinates() for a in self.axes], indexing="ij"))


@dataclass(frozen=True)
class Field:
    """Real samples of a scalar or vector quantity on a Grid.

    values has shape grid.shape + (components,); flattening it in C order
    gives the row-major axes-then-components layout of the snapshot format.
    """

    grid: Grid
    values: np.ndarray
    components: int = 1

    def __post_init__(self) -> None:
        v = np.asarray(self.values, dtype=np.float64)
        expected = self.grid.shape + (self.components,)
        if v.shape == self.grid.shape and self.components == 1:
            v = v[..., np.newaxis]
        if v.shape != expected:
            raise ValueError(
                f"values shape {v.shape} does not match grid shape "
                f"{self.grid.shape} x {self.components} components"
            )
        if not np.all(np.isfinite(v)):
            raise ValueError("field values must all be finite")
        v = v.copy()
        v.setflags(write=False)
        object.__setattr__(self, "values", v)

    @classmethod
    def zeros(cls, grid: Grid, components: int = 1) -> "Field":
        return cls(grid, np.zeros(grid.shape + (components,)), components)

    def component(self, i: int) -> np.ndarray:
        """View of one component with the bare grid shape."""
        return self.values[..., i]

    @property
    def scalar(self) -> np.ndarray:
        if self.components != 1:
            raise ValueError("field is not scalar")
        return self.values[..., 0]

    def with_values(self, values: np.ndarray) -> "Field":
        return Field(self.grid, values, self.components)

    def l2_norm(self) -> float:
        """Quadrature-weighted discrete L2 norm over all components."""
        return float(np.sqrt(np.sum(self.values**2) * self.grid.cell_volume))

    def linf_norm(self) -> float:
        return float(np.max(np.abs(self.values)))

    def __add__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.values + other.values, self.components)

    def __sub__(self, other: "Field") -> "Field":
        self._check_compatible(other)
        return Field(self.grid, self.values - other.values, self.components)

    def __mul__(self, scalar: float) -> "Field":
        return Field(self.grid, self.values * float(scalar), self.components)

    __rmul__ = __mul__

    def _check_compatible(self, other: "Field") -> None:
        if self.grid != other.grid or self.components != other.components:
            raise ValueError("fields live on different grids or component counts")
