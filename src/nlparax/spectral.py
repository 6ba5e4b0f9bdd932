"""FFT differentiation, the mean-zero antiderivative and dealiasing.

All operators act along one named periodic axis of a Field (or, for the
array-level helpers used inside the steppers, along one axis of a plain
ndarray).  Real storage throughout; the transforms are real-to-complex.
"""

from __future__ import annotations

import numpy as np

from .fields import Axis, Field, Grid

__all__ = [
    "spectral_derivative",
    "spectral_antiderivative",
    "project_mean_zero",
    "dealias",
    "deriv_array",
    "antideriv_array",
    "dealias_array",
    "dealias_grid_array",
    "mean_zero_array",
    "rfftn_wavenumbers",
    "wavenumbers",
]


def wavenumbers(points: int, length: float) -> np.ndarray:
    """Angular wavenumbers 2*pi*k/L in rfft ordering (k = 0..N/2)."""
    return 2.0 * np.pi * np.fft.rfftfreq(points, d=length / points)


def _check_periodic(axis: Axis) -> None:
    if not axis.periodic:
        raise ValueError(f"axis {axis.name!r} is not periodic; spectral "
                         "operators require a periodic axis")


def rfftn_wavenumbers(grid: Grid) -> list[np.ndarray]:
    """Angular wavenumbers per axis for an rfftn over all axes of a periodic
    grid (full fft ordering, halved on the last axis), each shaped to
    broadcast against the transform."""
    ks = []
    nax = len(grid.axes)
    for i, a in enumerate(grid.axes):
        _check_periodic(a)
        freq = np.fft.rfftfreq if i == nax - 1 else np.fft.fftfreq
        k = 2 * np.pi * freq(a.points, d=a.length / a.points)
        shape = [1] * nax
        shape[i] = k.size
        ks.append(k.reshape(shape))
    return ks


def deriv_array(values: np.ndarray, ax: int, points: int, length: float,
                order: int = 1) -> np.ndarray:
    """order-th derivative along array axis ax by wavenumber multiplication."""
    fh = np.fft.rfft(values, axis=ax)
    k = wavenumbers(points, length)
    shape = [1] * values.ndim
    shape[ax] = k.size
    mult = (1j * k.reshape(shape)) ** order
    fh = fh * mult
    if order % 2 == 1 and points % 2 == 0:
        # odd derivative of the Nyquist mode has no real representative
        idx = [slice(None)] * values.ndim
        idx[ax] = -1
        fh[tuple(idx)] = 0.0
    return np.fft.irfft(fh, n=points, axis=ax)


def antideriv_array(values: np.ndarray, ax: int, points: int,
                    length: float) -> np.ndarray:
    """Mean-zero antiderivative along array axis ax (mode 0 set to zero)."""
    fh = np.fft.rfft(values, axis=ax)
    k = wavenumbers(points, length)
    ik = 1j * k
    ik[0] = 1.0  # placeholder, mode 0 zeroed below
    shape = [1] * values.ndim
    shape[ax] = k.size
    fh = fh / ik.reshape(shape)
    idx0 = [slice(None)] * values.ndim
    idx0[ax] = 0
    fh[tuple(idx0)] = 0.0
    if points % 2 == 0:
        idxn = [slice(None)] * values.ndim
        idxn[ax] = -1
        fh[tuple(idxn)] = 0.0
    return np.fft.irfft(fh, n=points, axis=ax)


def mean_zero_array(values: np.ndarray, ax: int) -> np.ndarray:
    return values - values.mean(axis=ax, keepdims=True)


def dealias_array(values: np.ndarray, ax: int, points: int) -> np.ndarray:
    """Zero modes with |k| above floor(points/3) along one axis (2/3 rule)."""
    fh = np.fft.rfft(values, axis=ax)
    cutoff = points // 3
    kidx = np.arange(fh.shape[ax])
    mask = kidx > cutoff
    idx = [slice(None)] * values.ndim
    idx[ax] = mask
    fh[tuple(idx)] = 0.0
    return np.fft.irfft(fh, n=points, axis=ax)


def spectral_derivative(f: Field, axis: str, order: int = 1) -> Field:
    """Differentiate f `order` times along the named periodic axis."""
    if order < 1:
        raise ValueError("order must be a positive integer")
    i = f.grid.axis_index(axis)
    a = f.grid.axes[i]
    _check_periodic(a)
    return f.with_values(deriv_array(f.values, i, a.points, a.length, order))


def line_means(f: Field, axis: str) -> np.ndarray:
    """Per-line means of f along the named axis (one value per transverse
    position and component)."""
    i = f.grid.axis_index(axis)
    return f.values.mean(axis=i)


#: largest per-line |mean| the antiderivative accepts, relative to ||f||_L2
_MEAN_TOL = 1e-10


def spectral_antiderivative(f: Field, axis: str) -> Field:
    """Mean-zero antiderivative along the named periodic axis.

    Requires f to have (numerically) zero mean along that axis: the largest
    per-line |mean| must not exceed _MEAN_TOL * ||f||_L2.  Matches the
    quadrature form int_0^tau f dl + int_0^L (l/L) f dl of the mean-zero
    primitive.
    """
    i = f.grid.axis_index(axis)
    a = f.grid.axes[i]
    _check_periodic(a)
    tol = _MEAN_TOL * f.l2_norm()
    worst = float(np.max(np.abs(f.values.mean(axis=i))))
    if worst > tol:
        raise ValueError(
            f"antiderivative precondition violated: mean along {axis!r} is "
            f"{worst:.3e}, tolerance {tol:.3e}"
        )
    return f.with_values(antideriv_array(f.values, i, a.points, a.length))


def project_mean_zero(f: Field, axis: str) -> Field:
    """Subtract the per-line mean along the named periodic axis."""
    i = f.grid.axis_index(axis)
    _check_periodic(f.grid.axes[i])
    return f.with_values(mean_zero_array(f.values, i))


def dealias_grid_array(values: np.ndarray, grid: Grid) -> np.ndarray:
    """Apply the 2/3-rule truncation along every periodic axis of grid to an
    array whose leading axes are the grid's."""
    for i, a in enumerate(grid.axes):
        if a.periodic:
            values = dealias_array(values, i, a.points)
    return values


def dealias(f: Field) -> Field:
    """Apply the 2/3-rule truncation on every periodic axis of f."""
    return f.with_values(dealias_grid_array(f.values, f.grid))
