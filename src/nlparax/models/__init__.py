"""Time/range integrators for the four acoustic models."""

from .base import (
    ModelCoefficients,
    ModelKind,
    HyperbolicityLost,
    ModelState,
    PositivityLost,
    SolverDiverged,
    SolverError,
    SolverNaN,
    StepControl,
)
from .oneway import solve_kzk, solve_npe
from .waves import solve_kuznetsov, solve_westervelt

__all__ = [
    "ModelCoefficients",
    "ModelKind",
    "ModelState",
    "SolverError",
    "SolverDiverged",
    "SolverNaN",
    "PositivityLost",
    "HyperbolicityLost",
    "StepControl",
    "solve_kuznetsov",
    "solve_westervelt",
    "solve_kzk",
    "solve_npe",
]
