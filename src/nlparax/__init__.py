"""nlparax: the nonlinear-acoustics model hierarchy at desk scale.

Pseudo-spectral solvers for the Kuznetsov, Westervelt, KZK and NPE equations,
a reference isentropic Navier-Stokes/Euler solver with convex-entropy
diagnostics, the perturbative/paraxial ansatz machinery linking the models,
and an experiment harness for eps-scaling approximation studies.
"""

__version__ = "0.1.0"

from .fields import Axis, Field, Frame, Grid
from .flow import (
    FlowState,
    admissibility_residual,
    entropy_hessian,
    entropy_pair,
    solve_flow,
)
from .models import (
    ModelCoefficients,
    ModelKind,
    ModelState,
    StepControl,
    solve_kuznetsov,
    solve_kzk,
    solve_npe,
    solve_westervelt,
)
from .ansatz import (
    assemble_ansatz,
    build_correctors,
    westervelt_initial_data,
    westervelt_transform,
)
from .remainders import RemainderResult, evaluate_remainder, term_table
from .experiments import (
    ExperimentConfig,
    Report,
    emit_report,
    gronwall_envelope_check,
    l2_error,
    preset_profile,
    scaling_study,
)
from .paf import read_paf, write_paf

__all__ = [
    "Axis",
    "Field",
    "Frame",
    "Grid",
    "ModelCoefficients",
    "ModelKind",
    "ModelState",
    "StepControl",
    "solve_kuznetsov",
    "solve_westervelt",
    "solve_kzk",
    "solve_npe",
    "read_paf",
    "write_paf",
    "FlowState",
    "solve_flow",
    "entropy_pair",
    "entropy_hessian",
    "admissibility_residual",
    "build_correctors",
    "assemble_ansatz",
    "westervelt_transform",
    "westervelt_initial_data",
    "RemainderResult",
    "evaluate_remainder",
    "term_table",
    "ExperimentConfig",
    "Report",
    "scaling_study",
    "l2_error",
    "gronwall_envelope_check",
    "emit_report",
    "preset_profile",
    "__version__",
]
