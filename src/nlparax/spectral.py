"""The one spectral core: `Spectral(grid)`.

Every transform, derivative, antiderivative, shift and 2/3-rule truncation
of the solvers, correctors, remainders and error norms goes through one
grid-bound `Spectral`, which caches its symbols (wavenumbers, multipliers,
masks) on first use.  This is the only module that touches numpy's FFT: its
transforms call pocketfft's kernels, the gufuncs of
`numpy.fft._pocketfft_umath` (numpy 2.0 and later) that `numpy.fft` wraps,
with the factors `numpy.fft` passes, so they give its bits without its
argument handling.
Arrays carry the grid's axes last, after a batch's member axis and any
leading axes (a stack of components, say).  `fft`/`ifft` take one array,
or the inputs of one stage as a list of stacks of one shape, each an array
or a fill(out) that writes one, and write into a given output when there is
one.  On a 1D grid an array goes through one kernel call, so a 1D stepper
writes a stage's stacks into one block of its own and transforms that.  On
more axes the member rows of each component go through one kernel call per
axis, and a stack is filled only when the transform reaches it: a stage
holds one stack's input and that stack's intermediates at a time, not the
block.  An operator along a bounded axis raises a ValueError naming it.
Callers pass arrays: there are no Field-level wrappers.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft

from .fields import Axis, Field, Grid

__all__ = ["Spectral", "require_mean_zero"]


# pocketfft's kernels, each kernel(v, factor, out=out) along the last axis of
# v, or along another given as axes=[(j,), (), (j,)]; out, which they need,
# sets the output's length along the axis.  Periodic axes have an even point
# count, so rfft_n_even is the one forward real kernel.
_rfft = _pocketfft.rfft_n_even
_fft = _pocketfft.fft
_ifft = _pocketfft.ifft
_irfft = _pocketfft.irfft


def _check_periodic(axis: Axis) -> None:
    if not axis.periodic:
        raise ValueError(f"axis {axis.name!r} is not periodic; spectral "
                         "operators require a periodic axis")


def _forward(v, axes: tuple[int, ...], shape=None, out=None) -> np.ndarray:
    """rfftn over axes, the last axes, of v, into out when given: v is an
    array whose leading axes are rows, or, when shape is given, the stacks
    of a block whose first axis is the stack, each an array of that shape
    or a fill(out) that writes one into out.  An array on one axis goes
    through one kernel call; otherwise see _rows."""
    if shape is None and len(axes) == 1:  # _rfftn's one kernel call
        return _kernel(_rfft, v, 1.0, v.shape[-1] // 2 + 1, -1, complex, out)
    grid = (v.shape if shape is None else shape)[-len(axes):]
    spectrum = grid[:-1] + (grid[-1] // 2 + 1,)
    return _rows(v, shape, grid, spectrum, float, complex,
                 lambda rows, done: _rfftn(rows, axes, done), out)


def _inverse(vh, sizes, axes: tuple[int, ...], shape=None,
             out=None) -> np.ndarray:
    """irfftn over axes of vh back to the given sizes, into out when given,
    vh being an array or the stacks of a block as in _forward."""
    if shape is None and len(axes) == 1:  # _irfftn's one kernel call
        n = sizes[-1]
        return _kernel(_irfft, vh, 1.0 / n, n, -1, float, out)
    spectrum = (vh.shape if shape is None else shape)[-len(axes):]
    return _rows(vh, shape, spectrum, tuple(sizes), complex, float,
                 lambda rows, done: _irfftn(rows, sizes, axes, done), out)


def _rows(v, shape, grid: tuple, out_grid: tuple, dtype, out_dtype,
          op, out=None) -> np.ndarray:
    """The component loop of _forward and _inverse over v, an array or the
    stacks (when shape is given) of dtype of a block, into out (a fresh
    array when None): op(rows, done) transforms the member rows of one
    component (the axis before the grid's, if any) from grid to out_grid,
    one kernel call per axis, into done (fresh when None).  A stack is
    filled only once the one before it is transformed, into one buffer
    that they share, so a stage holds one stack's input and intermediates
    at a time.  One call per axis over the block ran faster once its pages
    were mapped, but raised the peak resident set."""
    if shape is None:
        if v.ndim <= len(grid) + 1:
            return op(v, out)
        stacks, shape, lead = (v,), v.shape, ()
    else:
        stacks, lead = v, (len(v),)
    if out is None:
        out = np.empty(lead + shape[:-len(grid)] + out_grid, out_dtype)
    members = shape[-len(grid) - 1:-len(grid)]  # () when shape is the grid's
    into = None
    for stack, parts in zip(stacks, out.reshape(len(stacks), -1, *members,
                                                *out_grid)):
        if callable(stack):
            if into is None:
                into = np.empty(shape, dtype)
            stack(into)
            stack = into
        for rows, done in zip(stack.reshape(-1, *members, *grid), parts):
            op(rows, done)
    return out


def _kernel(kernel, v: np.ndarray, factor: float, n: int, j: int, dtype,
            out=None) -> np.ndarray:
    """kernel, one of pocketfft's, along axis j (counted from the end) of v
    with factor, into out or, when out is None, a fresh array of n points
    along axis j: never into v."""
    if out is None:
        shape = list(v.shape)
        shape[j] = n
        out = np.empty(shape, dtype)
    if j == -1:  # the default axes, which cost a microsecond to parse
        return kernel(v, factor, out)
    return kernel(v, factor, axes=[(j,), (), (j,)], out=out)


def _rfftn(v: np.ndarray, axes: tuple[int, ...], out=None) -> np.ndarray:
    """rfft along the last of axes, then fft along the others from the
    second-last back, the last call into out when given: the kernel calls
    and factors of rfftn, so the same bits, without its argument
    handling."""
    j = axes[-1]
    vh = _kernel(_rfft, v, 1.0, v.shape[j] // 2 + 1, j, complex,
                 out if len(axes) == 1 else None)
    for j in axes[-2::-1]:
        vh = _kernel(_fft, vh, 1.0, vh.shape[j], j, complex,
                     out if j == axes[0] else None)
    return vh


def _irfftn(vh: np.ndarray, sizes, axes: tuple[int, ...],
            out=None) -> np.ndarray:
    """The inverse of _rfftn, in the order and with the factors (1/n) of
    irfftn, the last call into out when given."""
    for j in axes[:-1]:
        n = vh.shape[j]
        vh = _kernel(_ifft, vh, 1.0 / n, n, j, complex)
    n = sizes[-1]
    return _kernel(_irfft, vh, 1.0 / n, n, axes[-1], float, out)


def _real_sum_sq(v: np.ndarray) -> float:
    """Sum of |v|^2 over the real and imaginary parts as reals: a complex
    product that overflows gives NaN, not inf."""
    parts = np.ascontiguousarray(v).view(np.float64)
    return float(np.vdot(parts, parts))


class Spectral:
    """Transforms and periodic-axis operators of one grid; axes are given
    by name or by index into `grid.axes`.  `fft` is an rfftn over every axis
    (full-fft ordering on the non-last axes); the one-axis operators
    (`filter`, `d`, `inv`, `shift`) transform along their axis alone."""

    def __init__(self, grid: Grid):
        self.grid = grid
        self.shape = grid.shape
        self._points = math.prod(self.shape)
        self._symbols: dict[tuple, np.ndarray] = {}

    def _axis(self, axis: str | int) -> int:
        """Index of a periodic axis, counted from the end of the array."""
        i = self.grid.axis_index(axis) if isinstance(axis, str) else axis
        _check_periodic(self.grid.axes[i])
        return i % len(self.shape) - len(self.shape)

    def _along(self, values: np.ndarray, j: int) -> np.ndarray:
        """values shaped to broadcast along axis j (counted from the end)."""
        shape = [1] * len(self.shape)
        shape[j] = values.size
        return values.reshape(shape)

    def _symbol(self, key: tuple, build) -> np.ndarray:
        sym = self._symbols.get(key)
        if sym is None:
            sym = self._symbols[key] = build()
        return sym

    def k_along(self, axis: str | int) -> np.ndarray:
        """Angular wavenumbers 2*pi*k/L along one periodic axis in the layout
        of `filter`."""
        j = self._axis(axis)
        a = self.grid.axes[j]
        return self._symbol(("k", j), lambda: self._along(
            2.0 * np.pi * np.fft.rfftfreq(a.points, d=a.length / a.points), j))

    @cached_property
    def _axes(self) -> tuple[int, ...]:
        for a in self.grid.axes:
            _check_periodic(a)
        return tuple(range(-len(self.shape), 0))

    @cached_property
    def k(self) -> list[np.ndarray]:
        """Angular wavenumbers per axis in the layout of `fft`, each shaped
        to broadcast against the transform."""
        ks = []
        for j in self._axes:
            a = self.grid.axes[j]
            freq = np.fft.rfftfreq if j == -1 else np.fft.fftfreq
            ks.append(self._along(
                2.0 * np.pi * freq(a.points, d=a.length / a.points), j))
        return ks

    @cached_property
    def ksq(self) -> np.ndarray:
        """|k|^2 in the layout of `fft`."""
        return sum(k**2 for k in self.k)

    def fft(self, v, shape=None, out=None) -> np.ndarray:
        """Spectrum of v over every axis of the grid, written into out when
        it is given.  v is an array whose leading axes are rows, or, when
        shape is given, a sequence of stacks, each an array of that shape
        or a fill(out) that writes one: the spectrum is then that of the
        block they stack into, whose first axis is the stack, and a stack
        is filled only when the transform reaches it.  On a 1D grid an
        array of any number of rows goes through one kernel call."""
        return _forward(v, self._axes, shape, out)

    def ifft(self, vh, shape=None, out=None) -> np.ndarray:
        """Inverse of `fft`: vh is a spectrum whose leading axes are rows,
        or, when shape is given, a sequence of stacks of spectra."""
        return _inverse(vh, self.shape, self._axes, shape, out)

    def sum_sq(self, v: np.ndarray) -> float:
        """Sum of squares over the grid of a real array, or, for a spectrum
        in the layout of `fft`, of the real array it is the spectrum of
        (Parseval: the modes of the last axis between 0 and Nyquist stand
        for two)."""
        if not np.iscomplexobj(v):
            return float(np.vdot(v, v))
        total = _real_sum_sq(v)
        if not math.isfinite(total):
            return total  # and not inf - inf below
        return ((2.0 * total - _real_sum_sq(v[..., [0, -1]]))
                / self._points)

    def sum_sq_bound(self, v: np.ndarray) -> float:
        """`sum_sq(v)` for a real array; for a spectrum, an upper bound of
        it in floating point from one reduction, counting every mode
        twice.  Finite only when every entry of v, an array, is."""
        if v.dtype.kind != "c":
            return float(np.vdot(v, v))
        return 2.0 * _real_sum_sq(v) / self._points

    def filter(self, v: np.ndarray, axis: str | int,
               symbol: np.ndarray) -> np.ndarray:
        """v with its spectrum along one periodic axis multiplied by symbol
        (in the layout of `k_along`)."""
        j = self._axis(axis)
        vh = _rfftn(v, (j,))
        vh *= symbol
        return _irfftn(vh, (self.shape[j],), (j,))

    def d(self, v: np.ndarray, axis: str | int, order: int = 1) -> np.ndarray:
        """order-th derivative along a periodic axis.  An odd derivative of
        the Nyquist mode has no real representative and is set to zero."""
        j = self._axis(axis)

        def build():
            mult = (1j * self.k_along(j)) ** order
            if order % 2 == 1:
                mult.flat[-1] = 0.0  # periodic axes have an even point count
            return mult

        return self.filter(v, j, self._symbol(("d", j, order), build))

    def mean_zero(self, v: np.ndarray, axis: str | int) -> np.ndarray:
        """v minus its mean along a periodic axis."""
        j = self._axis(axis)
        return v - v.mean(axis=j, keepdims=True)

    def inv(self, v: np.ndarray, axis: str | int) -> np.ndarray:
        """Mean-zero antiderivative along a periodic axis (the mean of v
        along it is removed first)."""
        j = self._axis(axis)

        def build():
            ik = 1j * self.k_along(j)
            ik.flat[0] = 1.0  # placeholder, mode 0 is zeroed below
            return ik

        ik = self._symbol(("inv", j), build)
        vh = _rfftn(v - v.mean(axis=j, keepdims=True), (j,))
        vh /= ik
        ends = (Ellipsis, [0, -1]) + (slice(None),) * (-1 - j)
        vh[ends] = 0.0  # mode 0 and the Nyquist mode
        return _irfftn(vh, (self.shape[j],), (j,))

    def shift(self, v: np.ndarray, axis: str | int,
              offset: float) -> np.ndarray:
        """v evaluated at coordinate + offset along a periodic axis."""
        j = self._axis(axis)
        a = self.grid.axes[j]
        k = self._along(np.arange(a.points // 2 + 1), j)
        return self.filter(v, j, np.exp(2j * np.pi * k * offset / a.length))

    def group(self, prefix: str) -> list[str]:
        """Names of the axes that start with prefix, in grid order."""
        return [a.name for a in self.grid.axes if a.name.startswith(prefix)]

    def grad_sq(self, v: np.ndarray, prefix: str = "") -> np.ndarray:
        """|grad v|^2 over the axes that start with prefix (all by default)."""
        out = np.zeros_like(v)
        for name in self.group(prefix):
            out += self.d(v, name) ** 2
        return out

    def lap(self, v: np.ndarray, prefix: str = "") -> np.ndarray:
        """Laplacian of v over the axes that start with prefix (all by
        default)."""
        out = np.zeros_like(v)
        for name in self.group(prefix):
            out += self.d(v, name, 2)
        return out

    @cached_property
    def ik(self) -> list[np.ndarray]:
        """First-derivative symbols i*k per axis in the layout of `fft`, with
        the Nyquist mode zeroed as in `d`."""
        out = []
        for j, k in zip(self._axes, self.k):
            ik = 1j * k
            ik.flat[-1 if j == -1 else self.shape[j] // 2] = 0.0
            out.append(ik)
        return out

    def _keep(self, along: tuple[int, ...], axes: tuple[int, ...]
              ) -> np.ndarray:
        """2/3-rule mask along the axes `along` in the layout of an rfftn
        over `axes`: keeps the modes with |k_i| <= N_i // 3."""

        def build():
            keep = np.ones((1,) * len(self.shape))
            for j in along:
                n = self.shape[j]
                idx = np.arange(n // 2 + 1 if j == axes[-1] else n)
                keep = keep * self._along(np.minimum(idx, n - idx) <= n // 3, j)
            return keep

        return self._symbol(("keep", along, axes), build)

    def keep(self, *axes: str | int) -> np.ndarray:
        """The 2/3-rule mask in the layout of `fft`, along the given periodic
        axes (every axis when none is given)."""
        along = tuple(self._axis(a) for a in axes) or self._axes
        return self._keep(along, self._axes)

    def dealias(self, v: np.ndarray) -> np.ndarray:
        """Keep the modes with |k_i| <= N_i // 3 on every periodic axis and
        drop the rest: one transform pair with the tensor-product mask."""
        axes = tuple(i - len(self.shape)
                     for i, a in enumerate(self.grid.axes) if a.periodic)
        if not axes:
            return v
        vh = _rfftn(v, axes)
        vh *= self._keep(axes, axes)
        return _irfftn(vh, [self.shape[j] for j in axes], axes)


#: largest per-line |mean| a mean-zero profile may have, relative to ||f||_L2
_MEAN_TOL = 1e-10


def require_mean_zero(f: Field, axis: str) -> None:
    """Raise a ValueError unless every line mean of f along the named
    periodic axis is within _MEAN_TOL * ||f||_L2 of zero."""
    i = f.grid.axis_index(axis)
    _check_periodic(f.grid.axes[i])
    tol = _MEAN_TOL * f.l2_norm()
    worst = float(np.max(np.abs(f.values.mean(axis=i))))
    if worst > tol:
        raise ValueError(
            f"profile must be mean-zero along {axis!r}: largest line mean "
            f"is {worst:.3e}, tolerance {tol:.3e}"
        )

