"""Shared solver plumbing: coefficients, states, step control, error types,
and the one march loop every stepper runs under."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from enum import Enum

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
    "check_health",
    "march",
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


def check_health(values: np.ndarray, initial_norm: float, where: str,
                 step: int, sp: Spectral) -> None:
    """Raise SolverNaN or SolverDiverged when values, a real array or a
    spectrum in the layout of `sp.fft`, are not healthy; the norm is the
    grid's sum of squares either way, and the message names `where` and the
    step.  The norm may grow to 1e6 x initial_norm."""
    limit = 1e6 * max(initial_norm, 1e-300)
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


def march(stepper, state: tuple[np.ndarray, ...], nsteps: int, n_samples: int,
          label: str) -> list[tuple[float, tuple[np.ndarray, ...]]]:
    """Advance `state` by `nsteps` calls of `stepper.step(carried, n)`.

    Between steps the state stays as the stepper carries it:
    `stepper.carry(state)` makes that form (spectra, mostly) once, and
    `stepper.sample(carried)` brings it back to physical space.  Every
    carried array is health-checked after each step, one component at a
    time, by the grid's sum of squares, against the norm of the initial
    state plus, for a stepper with a fixed `forcing` spectrum, what that
    forcing can add over the march.  Returns (evol, state) at n_samples
    steps evenly spaced in step count, always including the initial state,
    as given, and the final state; only those samples return to physical
    space.
    """
    # a sample at every step is the most there can be
    n_samples = min(n_samples, nsteps + 1)
    sample_at = {round(j * nsteps / max(n_samples - 1, 1))
                 for j in range(max(n_samples, 2))} | {nsteps}
    sp = stepper.sp
    ref_norm = math.sqrt(sum(float(np.sum(a**2)) for a in state))
    forcing = getattr(stepper, "forcing", None)
    if forcing is not None:
        # a march from rest grows by the forcing alone
        ref_norm += nsteps * stepper.dt * math.sqrt(sp.sum_sq(forcing))
    ndim = len(sp.shape)
    out = [(0.0, state)]
    carried = stepper.carry(state)
    for n in range(1, nsteps + 1):
        carried = stepper.step(carried, n)
        for a in carried:
            for part in a.reshape(-1, *a.shape[a.ndim - ndim:]):
                check_health(part, ref_norm, label, n, sp)
        if n in sample_at:
            out.append((n * stepper.dt, stepper.sample(carried)))
    return out
