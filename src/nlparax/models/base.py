"""Shared solver plumbing: coefficients, states, step control, error types,
and the one march loop every stepper runs under."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, replace
from enum import Enum
from typing import NamedTuple

import numpy as np

from ..fields import Field, require_finite
from ..spectral import Spectral

__all__ = [
    "ModelCoefficients",
    "ModelKind",
    "ModelState",
    "StepControl",
    "SolverError",
    "SolverDiverged",
    "SolverNaN",
    "PositivityLost",
    "HyperbolicityLost",
    "RowsFailed",
    "check_health",
    "march",
    "member_axis",
    "only_row",
    "require_positive",
    "resolve_steps",
]


@dataclass(frozen=True)
class ModelCoefficients:
    """Physical constants shared by every model in the hierarchy."""

    c: float = 1.0
    rho0: float = 1.0
    gamma: float = 1.4
    nu: float = 0.0
    eps: float = 0.01

    def __post_init__(self) -> None:
        require_finite(self)
        if self.c <= 0:
            raise ValueError("c must be > 0")
        if self.rho0 <= 0:
            raise ValueError("rho0 must be > 0")
        if self.gamma <= 1:
            raise ValueError("gamma must be > 1")
        if self.nu < 0:
            raise ValueError("nu must be >= 0")
        if not 0 < self.eps < 1:
            raise ValueError("eps must lie in (0, 1)")

    @property
    def alpha(self) -> float:
        """Local nonlinearity coefficient (gamma - 1)/c**2."""
        return (self.gamma - 1.0) / self.c**2


class ModelKind(Enum):
    KUZNETSOV = "kuznetsov"
    WESTERVELT = "westervelt"
    KZK = "kzk"
    NPE = "npe"


@dataclass(frozen=True)
class ModelState:
    """One model's unknowns at one value of its evolution variable.

    evol is t for Kuznetsov/Westervelt, z for KZK and tau for NPE.  velocity
    holds u_t (or Pi_t) for the second-order models and is absent for the
    one-way models.
    """

    model: ModelKind
    evol: float
    primary: Field
    velocity: Field | None = None

    def __post_init__(self) -> None:
        if self.velocity is not None and self.velocity.grid != self.primary.grid:
            raise ValueError("primary and velocity fields must share one grid")


@dataclass(frozen=True)
class StepControl:
    """Evolution-variable step and output sampling."""

    step: float
    substeps: int = 1

    def __post_init__(self) -> None:
        require_finite(self)
        if self.step <= 0:
            raise ValueError("step must be > 0")
        if self.substeps < 1:
            raise ValueError("substeps must be >= 1")


class SolverError(RuntimeError):
    """A march that could not go on; the input itself was well formed."""


class SolverDiverged(SolverError):
    """Field norm exceeded 1e6 x the initial norm."""


class SolverNaN(SolverError):
    """A non-finite value appeared during stepping."""


class PositivityLost(SolverError):
    """The density of the flow reference reached zero or below."""


class HyperbolicityLost(SolverError):
    """The factor 1 - eps*a*u_t of a wave model reached zero or below."""


class RowsFailed(Exception):
    """Raised by a step for the member rows that cannot go on: `errors`
    maps each to the SolverError a march of that member alone raises.  The
    march retires them and takes the step again with the other rows."""

    def __init__(self, errors: dict[int, SolverError]):
        super().__init__(errors)
        self.errors = errors


def require_positive(values: np.ndarray, sp: Spectral, error) -> None:
    """Raise RowsFailed for each member row of values (leading axes, then
    the grid's) whose minimum is zero or below, with error(row, minimum);
    a NaN minimum passes, for the health check to name."""
    if np.minimum.reduce(values, axis=None) > 0.0:
        return  # one reduction when every row passes
    mins = np.minimum.reduce(values.reshape(-1, math.prod(sp.shape)), axis=1)
    bad = mins <= 0.0
    if bad.any():
        raise RowsFailed({int(r): error(int(r), float(mins[r]))
                          for r in np.flatnonzero(bad)})


def _rows_share(coeffs, grids) -> None:
    """Refuse member rows that do not share one grid and every coefficient
    but eps: a stepper gives only its eps- and step-dependent multipliers a
    member axis."""
    for coeff, grid in zip(coeffs, grids):
        if grid != grids[0]:
            raise ValueError("the rows of one march must share one grid")
        if replace(coeff, eps=coeffs[0].eps) != coeffs[0]:
            raise ValueError("the rows of one march may differ in eps only")


def check_health(values: np.ndarray, initial_norm: float, where: str,
                 step: int, sp: Spectral) -> None:
    """Raise SolverNaN or SolverDiverged when values, a real array or a
    spectrum in the layout of `sp.fft`, are not healthy; the norm is the
    grid's sum of squares either way, and the message names `where` and the
    step.  The norm may grow to 1e6 x initial_norm."""
    limit = _norm_limit(initial_norm)
    # one reduction when healthy: the bound is finite only when every entry
    # is, and the norm cannot exceed its root, so this returns only where
    # the checks below pass
    bound = sp.sum_sq_bound(values)
    if math.isfinite(bound) and math.sqrt(bound) <= limit:
        return
    # a NaN or inf entry makes the sum of squares non-finite, and only then
    # is the finiteness scan needed to tell a non-finite entry from finite
    # values whose squares overflow
    sq = sp.sum_sq(values)
    if not math.isfinite(sq) and not np.all(np.isfinite(values)):
        raise SolverNaN(f"non-finite values during {where} step {step}")
    norm = math.sqrt(sq)
    if norm > limit:
        raise SolverDiverged(
            f"norm {norm:.3e} exceeds 1e6 x initial ({initial_norm:.3e}) "
            f"during {where} step {step}"
        )


def _norm_limit(initial_norm: float) -> float:
    """The largest grid norm check_health passes for an initial norm."""
    return 1e6 * max(initial_norm, 1e-300)


def resolve_steps(span: float, ctl: StepControl) -> tuple[int, float]:
    """Number of steps that cover `span` under `ctl`, and the step size that
    divides `span` exactly.  Raises a ValueError when the span is not > 0 or
    the count is not a finite number that fits an index."""
    if span <= 0:
        raise ValueError(f"span {span!r} must be > 0")
    count = span / ctl.step - 1e-12
    if not math.isfinite(count) or count * ctl.substeps >= sys.maxsize:
        raise ValueError(f"span {span!r} with step {ctl.step!r} does not give "
                         "a finite step count that fits an index")
    nsteps = max(1, math.ceil(count)) * ctl.substeps
    return nsteps, span / nsteps


def march(build, rows, label: str, wrap) -> list:
    """Advance the member rows of one batch together, one stepper call per
    step for every row.

    Each row is one member as the solvers receive it: (coeff, grid, state,
    span, ctl, n_samples), where state is a tuple of arrays on grid.  The
    rows must share one grid and every coefficient but eps.  Each row takes
    its own steps over its span (see resolve_steps) and returns n_samples
    samples: an integer of at least 2, or an integral float that counts as
    that integer.  build(sp, coeff, eps, dt) builds the stepper for
    the rows of the given eps and step sizes on the grid's Spectral `sp`:
    if it is forced, its `forcing` spectra along a leading member axis.
    The march builds it for every row to start, and again for the survivors
    when rows retire or fail.  The state arrays are stacked along the axis
    before the grid's; `carry` turns them into the form the stepper carries
    from step to step (spectra, mostly) once, and `sample` brings that back
    to physical space.

    After each step every row is health-checked on its own, one component
    of each carried array at a time, by the grid's sum of squares, against
    the norm of its initial state plus what its forcing can add over its
    march; one bound over all rows stands in for those checks while it
    passes every row's limit.  A row retires when it has taken its own
    steps, or when it fails: the health check, or a step that raises
    `RowsFailed` for it, which the march then takes again with the other
    rows.  So each row's numbers and its error are those of a march of its
    member alone.

    Returns per row either its wrap(grid, evol, state) at n_samples steps
    evenly spaced in step count, always including the initial state, as
    given, and the final state (only those samples return to physical
    space), or the SolverError that stopped it.  A march of no rows returns
    [].
    """
    if not rows:
        return []
    _rows_share([row[0] for row in rows], [row[1] for row in rows])
    coeff, grid = rows[0][0], rows[0][1]
    steps = []
    for *_, span, ctl, n_samples in rows:
        # n % 1 is 0 for an integral number alone, NaN for NaN and inf
        if isinstance(n_samples, bool) or n_samples % 1 != 0:
            raise ValueError(f"n_samples {n_samples!r} must be an integer")
        if n_samples < 2:
            raise ValueError(f"n_samples {n_samples!r} must be >= 2")
        steps.append((*resolve_steps(span, ctl), int(n_samples)))
    eps = [row[0].eps for row in rows]
    sp = Spectral(grid)
    ndim = len(sp.shape)
    stepper = build(sp, coeff, eps, [dt for _, dt, _ in steps])
    live, out = [], []
    for i, (_, _, state, *_) in enumerate(rows):
        nsteps, dt, n_samples = steps[i]
        # a sample at every step is the most there can be
        n_samples = min(n_samples, nsteps + 1)
        sample_at = {round(j * nsteps / (n_samples - 1))
                     for j in range(n_samples)} | {nsteps}
        ref_norm = math.sqrt(sum(float(np.sum(a**2)) for a in state))
        if getattr(stepper, "forcing", None) is not None:
            # a march from rest grows by the forcing alone
            ref_norm += nsteps * dt * math.sqrt(
                sp.sum_sq(stepper.forcing[i]))
        live.append(_Row(i, nsteps, sample_at, ref_norm,
                         _batch_limit(ref_norm), eps[i], dt))
        out.append([(0.0, state)])
    carried = stepper.carry(tuple(np.stack(parts, axis=-ndim - 1)
                                  for parts in zip(*(row[2] for row in rows))))
    n = 0
    while live:
        try:
            carried = stepper.step(carried, n + 1)
        except RowsFailed as exc:
            failed = exc.errors  # and step n + 1 again without them
        else:
            n += 1
            failed = _unhealthy(carried, live, label, n, sp)
            due = [r for r, row in enumerate(live)
                   if n in row.sample_at and r not in failed]
            if due:
                physical = stepper.sample(carried)
                for r in due:
                    out[live[r].index].append(
                        (n * live[r].dt,
                         tuple(_row(a, r, ndim) for a in physical)))
        for r, exc in failed.items():
            out[live[r].index] = exc
        keep = [r for r, row in enumerate(live)
                if r not in failed and row.nsteps > n]
        if len(keep) < len(live):
            live = [live[r] for r in keep]
            if live:
                carried = tuple(np.take(a, keep, axis=-ndim - 1)
                                for a in carried)
                stepper = build(sp, coeff, [row.eps for row in live],
                                [row.dt for row in live])
    del stepper, carried  # freed before the samples are wrapped
    return [done if isinstance(done, SolverError) else
            [wrap(grid, evol, state) for evol, state in done]
            for done in out]


def _batch_limit(ref_norm: float) -> float:
    """The sums of squares _unhealthy passes for a row of that initial
    norm: a margin inside the square of its norm limit, so that a sum in
    another order than check_health's passes only where its would."""
    limit = _norm_limit(ref_norm)
    return (1.0 - 1e-6) * min(limit * limit, sys.float_info.max)


def _unhealthy(carried, live, label: str, n: int, sp: Spectral) -> dict:
    """The SolverError of each live row whose carried arrays fail the
    health check after step n.  One reduction per carried array bounds the
    sum of squares of every row's components at once, and the per-row
    check runs only when a bound does not pass the smallest row's limit (a
    non-finite bound never does)."""
    limit = min(row.limit_sq for row in live)
    if all(sp.sum_sq_bound(a) <= limit for a in carried):
        return {}
    ndim, failed = len(sp.shape), {}
    for r, row in enumerate(live):
        try:
            for a in carried:
                part = _row(a, r, ndim)
                for comp in part.reshape(-1, *part.shape[-ndim:]):
                    check_health(comp, row.ref_norm, label, n, sp)
        except SolverError as exc:
            failed[r] = exc
    return failed


class _Row(NamedTuple):
    """What the march keeps of one member row."""

    index: int
    nsteps: int
    sample_at: set
    ref_norm: float
    limit_sq: float  # _batch_limit(ref_norm)
    eps: float
    dt: float


def _row(a: np.ndarray, r: int, ndim: int) -> np.ndarray:
    """Row r of a batched array, whose member axis is the one before its
    last ndim (the grid's)."""
    return a[(Ellipsis, r) + (slice(None),) * ndim]


def member_axis(values, ndim: int) -> np.ndarray:
    """One value per member row, as an array of shape (rows, 1, ..., 1)
    that broadcasts against a grid's ndim axes."""
    return np.array(values, float).reshape(-1, *(1,) * ndim)


def only_row(results: list):
    """The samples of a one-row march, or raise the SolverError that
    stopped it."""
    (result,) = results
    if isinstance(result, SolverError):
        raise result
    return result
