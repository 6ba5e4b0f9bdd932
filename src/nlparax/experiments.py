"""Desk-scale validation experiments for the model hierarchy.

Each study sweeps the Mach parameter eps over a decreasing list, runs a
reduced model and its reference system side by side, and checks the claim
its `_STUDIES` row states, which also lists the dims the study runs in:

  * slope studies gate the median slope of log(error) vs log(eps) at fixed
    times on grading - horizon exponent - 0.2; ns-kuznetsov also bounds
    error/eps at its horizon, and alone takes a delta perturbation,
  * kuznetsov-kzk fits Gronwall envelopes up to z = horizon, never horizon/eps.

Horizons of the form C/eps use one C across the sweep, sized so the coarsest
eps fits the step heuristics.  Each member's horizon is a whole number of
common sample intervals (the coarsest run's horizon split into `samples`),
each of a whole number of steps as `models.base.resolve_steps` counts them,
so sample j of every member lies j common intervals in: the slope at
fraction f of the horizon is read at sample f*n of each member, n being the
shortest member's interval count, and is undefined when f*n is not whole.
An error series carries the times of the march's own samples.

Every study is two batched marches: the eps members are the rows of one
march of each model (`models.base.march`), each row with its own step
count, samples and health checks, retiring at its own horizon or at its
failure, so a member whose first or second march fails reports that failure
and the others' numbers are those of marching each member alone.  A study
states only its parts: its first march, each member's second-march row
from the first march's first sample, and the (evol, error) of a pair of
samples.  The kuznetsov-kzk study's first march is its clean beam, one row
that every member shares, and its second the source-forced beams.  One
runner, `_march_study`, marches them, takes the errors, and alone names the
eps of a member in a ValueError raised building its row or its reference.

`_split(here_job, there_job)` runs a study's two marches: this process runs
the first while one child forked for it runs the second and sends its
result back through a pipe; the child is reaped before the study returns
or raises.  When the result does not come back (the fork was refused, the
march raised there, or the child died or cut its stream) the second march
runs here after one warning, so a study's numbers and exception are always
those of running both marches here.
Process-level measures of this process, such as the peak RSS that
`resource.getrusage(RUSAGE_SELF)` reports, leave the child out.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import pickle
import platform
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass, field as dc_field, replace
from typing import Callable, NamedTuple

import numpy as np

from . import __version__
from .ansatz import (
    _npe_dtau_psi,
    assemble_ansatz,
    build_correctors,
    npe_potential,
    npe_xi,
    right_moving_velocity,
    westervelt_initial_data,
    westervelt_pi_t,
    westervelt_transform,
)
from .fields import Axis, Field, Frame, Grid, require_finite
# The studies march their eps members as the rows of one batch through the
# *_rows solvers.  solve_flow, solve_kzk, solve_npe, solve_kuznetsov and
# solve_westervelt are imported as well: perfbench/spans.py wraps each
# solver by its name in this module, so its spans of them count no march
# of a study.
from .flow import FlowState, solve_flow, solve_flow_rows
from .models.base import (
    ModelCoefficients,
    ModelKind,
    ModelState,
    SolverError,
    StepControl,
    resolve_steps,
)
from .models.oneway import (
    _start_profile,
    solve_kzk,
    solve_kzk_rows,
    solve_npe,
    solve_npe_rows,
)
from .models.waves import (
    solve_kuznetsov,
    solve_kuznetsov_rows,
    solve_westervelt,
    solve_westervelt_rows,
)
from .remainders import base_power
from .spectral import Spectral

__all__ = [
    "PRESETS",
    "SLOPE_FRACTIONS",
    "ExperimentConfig",
    "Report",
    "band_limited_perturbation",
    "config_hash",
    "emit_report",
    "gronwall_envelope_check",
    "l2_error",
    "preset_profile",
    "scaling_study",
]

PRESETS = ("single_mode", "gaussian_beam", "polynomial_amplitude")
SLOPE_FRACTIONS = (0.25, 0.5, 1.0)
#: length of every study axis: the beam presets assume 2 pi-periodic axes
STUDY_LENGTH = 2.0 * math.pi


# ----------------------------------------------------------------------
# presets and perturbations


def preset_profile(name: str, grid: Grid, params=None) -> Field:
    """Sample one of the named initial profiles on a grid.

    single_mode: amplitude * sin(2 pi * mode * x / L) along the first
    axis.  gaussian_beam: -exp(-|y|^2) sin(tau).  polynomial_amplitude:
    -(1 - |y|^2)^2 * 1_{|y| <= 1} * sin(tau).  The beam profiles use the raw
    tau and y coordinate values, so the axes should span full periods of sin.
    An amplitude must be a finite number and a mode a finite integral one.
    """
    amp, mode = _preset_check(name, grid, params)
    mesh = grid.mesh()
    names = [a.name for a in grid.axes]
    if name == "single_mode":
        a = grid.axes[0]
        vals = amp * np.sin(2.0 * np.pi * mode * (mesh[0] - a.origin) / a.length)
    else:
        tau = mesh[names.index("tau")]
        r2 = sum(m**2 for n, m in zip(names, mesh) if n.startswith("y"))
        if name == "gaussian_beam":
            vals = -amp * np.exp(-r2) * np.sin(tau)
        else:
            vals = -amp * (1.0 - r2) ** 2 * (r2 <= 1.0) * np.sin(tau)
    return Field(grid, np.broadcast_to(vals, grid.shape))


def _preset_check(name: str, grid: Grid, params=None) -> tuple[float, int]:
    """The amplitude and mode (1 when the preset has none) with which
    preset_profile samples preset `name` with params on grid, or the
    ValueError that refuses them, without sampling it."""
    params = dict(params or {})
    amp = float(_preset_number(params, "amplitude", 1.0))
    mode = 1
    if name == "single_mode":
        mode = _preset_number(params, "mode", 1)
        if not float(mode).is_integer():
            raise ValueError(f"preset parameter 'mode' must be an integral "
                             f"number, got {mode!r}")
        mode = int(mode)
    elif name in ("gaussian_beam", "polynomial_amplitude"):
        if "tau" not in [a.name for a in grid.axes]:
            raise ValueError(f"preset {name!r} needs a tau axis")
    else:
        raise ValueError(f"unknown preset {name!r}; expected one of {PRESETS}")
    if params:
        raise ValueError(f"unknown preset parameters {sorted(params)}")
    return amp, mode


def _preset_number(params: dict, key: str, default):
    """Pop params[key], refused unless it is a finite number."""
    value = params.pop(key, default)
    if (isinstance(value, bool) or not isinstance(value, (int, float))
            or not math.isfinite(value)):
        raise ValueError(f"preset parameter {key!r} must be a finite number, "
                         f"got {value!r}")
    return value


def band_limited_perturbation(grid: Grid, seed: int, size: float) -> Field:
    """Fixed-seed random sum of six trigonometric modes, each of wavenumber
    at most 3 per axis, mean-zero, rescaled to the given
    (quadrature-weighted) L2 size."""
    rng = np.random.default_rng(seed)
    mesh = grid.mesh()
    vals = np.zeros(grid.shape)
    for _ in range(6):
        ks = rng.integers(-3, 4, size=len(grid.axes))
        if not np.any(ks):
            ks[0] = 1
        phase = rng.uniform(0.0, 2.0 * np.pi)
        a = rng.standard_normal()
        arg = sum(2.0 * np.pi * k * (x - ax.origin) / ax.length
                  for k, x, ax in zip(ks, mesh, grid.axes))
        vals += a * np.sin(arg + phase)
    norm = math.sqrt(float(np.sum(vals**2)) * grid.cell_volume)
    if norm == 0.0:
        raise ValueError("degenerate perturbation draw")
    return Field(grid, vals * (size / norm))


# ----------------------------------------------------------------------
# configuration and report containers


@dataclass(frozen=True)
class ExperimentConfig:
    """One eps-scaling study: which pair, which sweep, which grid/preset."""

    name: str
    pair: str
    coeff: ModelCoefficients
    eps_list: tuple[float, ...]
    horizon: float
    horizon_over_eps: bool = True
    points: int = 64
    dim: int = 1
    trans_points: int | None = None
    preset: str = "single_mode"
    preset_params: dict = dc_field(default_factory=dict)
    delta: float = 0.0
    seed: int = 0
    samples: int = 8
    source_size: float = 0.0

    def __post_init__(self) -> None:
        eps = tuple(float(e) for e in self.eps_list)
        object.__setattr__(self, "eps_list", eps)
        require_finite(self)
        if not eps:
            raise ValueError("eps_list must not be empty")
        if any(not 0.0 < e < 1.0 for e in eps):
            raise ValueError("every eps must lie in (0, 1)")
        if any(b >= a for a, b in zip(eps, eps[1:])):
            raise ValueError("eps_list must be strictly decreasing")
        if self.delta < 0.0:
            raise ValueError("delta must be >= 0")
        if self.delta > min(eps):
            raise ValueError("delta must not exceed the smallest eps")
        if self.horizon <= 0.0:
            raise ValueError("horizon must be > 0")
        if self.samples < 4:
            raise ValueError("need at least 4 sample intervals")
        if self.points < 8:
            raise ValueError(f"points must be >= 8, got {self.points}")
        # the study axes' counts: Axis refuses an odd or short one by name
        Axis("points", STUDY_LENGTH, self.points)
        if self.trans_points is not None:
            Axis("trans_points", STUDY_LENGTH, self.trans_points)
        if self.source_size < 0.0:
            raise ValueError("source_size must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.pair not in _STUDIES:
            raise ValueError(f"scaling_study does not drive pair {self.pair!r}; "
                             f"supported: {sorted(_STUDIES)}")
        study = _STUDIES[self.pair]
        if self.delta > 0.0 and study.horizon_bounds is None:
            bounded = [p for p, s in _STUDIES.items() if s.horizon_bounds]
            raise ValueError(f"delta applies only to the {', '.join(bounded)} "
                             f"study, not to pair {self.pair!r}")
        if self.dim not in study.dims:
            raise ValueError(f"pair {self.pair!r} runs in dims "
                             f"{list(study.dims)}, not in dim {self.dim}")
        if study.exponent is None and self.source_size <= 0.0:
            raise ValueError(f"pair {self.pair!r} forces its beams with a "
                             "source: source_size must be > 0")
        if study.exponent is not None:  # the studies that march this clock
            for e in eps:
                _intervals(self, e)
        # the preset and its parameters, on the grid the study samples
        _preset_check(self.preset, study.grid(self), self.preset_params)

    def to_dict(self) -> dict:
        d = asdict(self)
        d["eps_list"] = list(self.eps_list)
        return d

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        data = dict(data)
        known = set(cls.__dataclass_fields__)
        unknown = sorted(set(data) - known)
        if unknown:
            raise ValueError(f"unknown config keys: {unknown}")
        if "coeff" in data and isinstance(data["coeff"], dict):
            data["coeff"] = _coeff_from(data["coeff"])
        if "eps_list" in data:
            data["eps_list"] = tuple(data["eps_list"])
        return cls(**data)


def _coeff_from(data: dict | None) -> ModelCoefficients:
    """The coefficients of a config's `coeff` entry (the defaults when it
    is absent); a refusal names the entry."""
    try:
        return ModelCoefficients(**(data or {}))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"coeff: {exc}") from exc


def config_hash(cfg: ExperimentConfig) -> str:
    return _digest(cfg.to_dict())


def _digest(data: dict) -> str:
    """SHA-256 of the canonical JSON of data: sorted keys, default
    separators."""
    return hashlib.sha256(json.dumps(data, sort_keys=True).encode()).hexdigest()


@dataclass
class Report:
    """Outcome of one study: error series, fits, verdicts, metadata."""

    name: str = ""
    pair: str = ""
    config: dict = dc_field(default_factory=dict)
    config_sha256: str = ""
    series: list = dc_field(default_factory=list)
    slopes: dict = dc_field(default_factory=dict)
    median_slope: float | None = None
    gronwall: list = dc_field(default_factory=list)
    verdicts: list = dc_field(default_factory=list)
    meta: dict = dc_field(default_factory=dict)

    def passed(self) -> bool:
        return all(v["passed"] for v in self.verdicts)

    def to_dict(self) -> dict:
        return asdict(self)


def _runtime() -> dict:
    """The interpreter, numpy and platform a run record names."""
    return {"python": sys.version.split()[0], "numpy": np.__version__,
            "platform": platform.platform()}


def _write_json(path: str, data: dict) -> None:
    """Write a run record: sorted, indented JSON with a final newline."""
    with open(path, "w") as fh:
        json.dump(data, fh, sort_keys=True, indent=2)
        fh.write("\n")


# ----------------------------------------------------------------------
# error norms


def l2_error(a, b) -> float:
    """Discrete L2 distance of two states of the same kind on one grid.

    FlowState pairs: sqrt(|drho|^2 + |dm|^2).  Second-order wave states
    (velocity present on both): the energy norm sqrt(|d u_t|^2 +
    |grad du|^2).  One-way states: plain L2 of the primary profile.
    ModelStates of different models, or of which only one carries a
    velocity, raise a ValueError.
    """
    if isinstance(a, FlowState) and isinstance(b, FlowState):
        if a.grid != b.grid:
            raise ValueError("states live on different grids")
        w = a.grid.cell_volume
        dr = a.rho.values - b.rho.values
        dm = a.momentum.values - b.momentum.values
        return float(math.sqrt(w * (np.sum(dr**2) + np.sum(dm**2))))
    if isinstance(a, ModelState) and isinstance(b, ModelState):
        if a.primary.grid != b.primary.grid:
            raise ValueError("states live on different grids")
        if a.model is not b.model:
            raise ValueError(f"states of different models: {a.model.value} "
                             f"and {b.model.value}")
        if (a.velocity is None) != (b.velocity is None):
            raise ValueError("only one of the states carries a velocity")
        grid = a.primary.grid
        w = grid.cell_volume
        du = a.primary.scalar - b.primary.scalar
        if a.velocity is not None:
            dw = a.velocity.scalar - b.velocity.scalar
            acc = np.sum(dw**2) + np.sum(Spectral(grid).grad_sq(du))
            return float(math.sqrt(w * acc))
        return float(math.sqrt(w * np.sum(du**2)))
    raise TypeError("l2_error compares two FlowStates or two ModelStates")


# ----------------------------------------------------------------------
# fits


def _fit_loglog_slope(eps: np.ndarray, err: np.ndarray) -> float:
    return float(np.polyfit(np.log(eps), np.log(err), 1)[0])


def gronwall_envelope_check(z, errors, eps: float, tag: str = "envelope") -> dict:
    """Least-squares fit of the envelope eps*(C2/2)*z*exp(C1*z/2).

    In log variables the model is log(e / (eps z / 2)) = log C2 + (C1/2) z,
    linear in (log C2, C1).  Verdict passes when the measured series stays
    pointwise below 1.1x the fitted envelope.  A series at rounding level
    fits C2 = 0 and passes trivially.
    """
    z = np.asarray(z, dtype=np.float64)
    errors = np.asarray(errors, dtype=np.float64)
    if z.shape != errors.shape or z.ndim != 1:
        raise ValueError("z and errors must be 1D arrays of equal length")
    if z.size < 4:
        raise ValueError("need at least 4 samples to fit the envelope")
    if np.any(errors < 0.0):
        raise ValueError("error series must be nonnegative")
    mask = (z > 0.0) & (errors > 1e-300)
    if np.max(errors, initial=0.0) <= 1e-14:
        return {"tag": tag, "eps": float(eps), "C1": 0.0, "C2": 0.0,
                "passed": True, "max_ratio": 0.0,
                "detail": "series at rounding level; zero envelope"}
    zs, es = z[mask], errors[mask]
    y = np.log(es / (eps * zs / 2.0))
    c_half, logc2 = np.polyfit(zs, y, 1)
    C1, C2 = float(2.0 * c_half), float(math.exp(logc2))
    env = eps * (C2 / 2.0) * zs * np.exp(C1 * zs / 2.0)
    max_ratio = float(np.max(es / env))
    return {"tag": tag, "eps": float(eps), "C1": C1, "C2": C2,
            "passed": bool(max_ratio <= 1.1), "max_ratio": max_ratio,
            "detail": f"max measured/envelope ratio {max_ratio:.4f}"}


# ----------------------------------------------------------------------
# study internals


def _spatial_grid(cfg: ExperimentConfig) -> Grid:
    axes = tuple(Axis(f"x{i + 1}", STUDY_LENGTH, cfg.points)
                 for i in range(cfg.dim))
    return Grid(axes, Frame.PHYSICAL)


def _paraxial_grid(cfg: ExperimentConfig, frame: Frame = Frame.KZK) -> Grid:
    lead = "tau" if frame is Frame.KZK else "z"
    axes = [Axis(lead, STUDY_LENGTH, cfg.points)]
    tp = cfg.trans_points or cfg.points
    for i in range(cfg.dim - 1):
        axes.append(Axis(f"y{i + 1}", STUDY_LENGTH, tp,
                         origin=-STUDY_LENGTH / 2.0))
    return Grid(tuple(axes), frame)


def _intervals(cfg: ExperimentConfig, eps: float) -> tuple[float, int]:
    """(t_end, the whole number of sample intervals up to t_end, each as
    long as the sweep's common one); refuses a horizon that is not one."""
    eps_max = cfg.eps_list[0]
    if cfg.horizon_over_eps:
        t_common = cfg.horizon / eps_max
        t_end = cfg.horizon / eps
        if not math.isfinite(t_end):
            raise ValueError(f"horizon {cfg.horizon!r} over eps = {eps} is "
                             "not a finite time span")
    else:
        t_common = t_end = cfg.horizon
    n_int = t_end / (t_common / cfg.samples)
    if abs(n_int - round(n_int)) > 1e-9 * max(n_int, 1.0):
        raise ValueError(
            f"eps = {eps} gives a horizon that is not a whole number of "
            f"common sample intervals; choose commensurate eps values"
        )
    return t_end, int(round(n_int))


def _substeps(span: float, n_int: int, step_hint: float) -> StepControl:
    """`n_int` sample intervals of `per` steps each, the fewest that keep
    the step at or below `step_hint`, as `resolve_steps` counts them; it
    refuses a count that is not a finite number that fits an index."""
    per, _ = resolve_steps(span / n_int, StepControl(step=step_hint))
    return StepControl(step=span / n_int, substeps=per)


def _default_wave_step(cfg: ExperimentConfig,
                       coeff: ModelCoefficients) -> float:
    """0.5 / (c k_max) on the study grid, for the wave models and for the
    flow reference alike."""
    k_max = math.pi * cfg.points / STUDY_LENGTH
    return 0.5 / (coeff.c * k_max)


def _default_kzk_step(cfg: ExperimentConfig, coeff: ModelCoefficients,
                      grid: Grid) -> float:
    """Range step bounded by the explicitly-stepped diffraction term, whose
    per-mode rate peaks at (c/2) ky_max^2 / ktau_min."""
    tau = grid.axis("tau")
    ktau_min = 2.0 * math.pi / tau.length
    rate = 0.0
    for a in grid.axes[1:]:
        ky_max = math.pi * a.points / a.length
        rate += 0.5 * coeff.c * ky_max**2 / ktau_min
    return 0.3 / rate if rate > 0.0 else 0.02 * cfg.horizon


class _Member(NamedTuple):
    """One eps of a sweep: its coefficients, horizon, number of samples and
    the wave-step control that takes them."""

    coeff: ModelCoefficients
    t_end: float
    n_samples: int
    ctl: StepControl


def _members(cfg: ExperimentConfig) -> list[_Member]:
    out = []
    for eps in cfg.eps_list:
        coeff = replace(cfg.coeff, eps=eps)
        t_end, n_int = _intervals(cfg, eps)
        ctl = _substeps(t_end, n_int, _default_wave_step(cfg, coeff))
        out.append(_Member(coeff, t_end, n_int + 1, ctl))
    return out


def _split(here_job, there_job) -> tuple:
    """What here_job() and there_job() return, or the SolverError each
    raised, exactly as when both run here (see the module docstring).  The
    child always ends in os._exit: it never unwinds into the caller or
    flushes the caller's stdio.  It is reaped on every path, and killed
    first when this process raises before the child's result is read."""
    read, write = os.pipe()
    try:
        pid = os.fork()
    except OSError as exc:
        os.close(read)
        os.close(write)
        return tuple(_run_here([here_job, there_job],
                               f"os.fork failed ({exc})"))
    if pid == 0:
        code = 1
        try:
            os.close(read)
            with open(write, "wb") as fh:
                pickle.dump(_solved(there_job), fh)
            code = 0
        finally:
            os._exit(code)
    os.close(write)
    try:
        with open(read, "rb") as fh:
            here = _solved(here_job)
            try:
                there = pickle.load(fh)
            except Exception:  # no result: the child's job runs here
                there = None
    except BaseException:
        import signal  # here alone: at module level it adds to start-up

        os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
        raise
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if there is None:
        how = (f"was killed by signal {-code}" if code < 0 else
               f"exited with status {code}")
        (there,) = _run_here([there_job], f"the forked child {how} and "
                                          "sent no result")
    return here, there


def _run_here(jobs: list, why: str) -> list:
    """What each job() returns, or its SolverError, run in this process
    after a warning on stderr that says why."""
    import logging  # here alone: at module level it adds to start-up

    logging.getLogger("nlparax").warning(
        "%s: running %d march(es) in this process", why, len(jobs))
    return [_solved(job) for job in jobs]


def _solved(job):
    """job(), or the SolverError it raised."""
    try:
        return job()
    except SolverError as exc:
        return exc


@contextmanager
def _naming_eps(eps: float):
    """Raise a ValueError raised inside, an input of member eps refused,
    again with its message prefixed by that eps and chained from it."""
    try:
        yield
    except ValueError as exc:
        raise ValueError(f"eps = {eps}: {exc}") from exc


def _march_study(ms: list[_Member], first, starts: list, second_row,
                 solve_second, error) -> list:
    """Per member of `ms`, (its sample times, their errors) or the
    SolverError that stopped one of its marches.  first() marches every
    member from starts[i] for ms[i]; second_row(m, start) is member m's row
    of solve_second(rows); error(m, a, b) is the (evol, error) of samples a
    of the first march and b of the second.  The rows are built before
    `_split` runs the marches, the first here and the second in the child;
    a failed first march wins over its member's row exception, and a
    survivor's is raised before any error is taken.  A ValueError raised
    building a row or taking an error names the eps."""
    rows = []
    for m, start in zip(ms, starts):
        try:
            with _naming_eps(m.coeff.eps):
                rows.append(second_row(m, start))
        except Exception as exc:  # raised below, if member m survives
            rows.append(exc)
    built = [row for row in rows if not isinstance(row, Exception)]
    here, there = _split(first, lambda: solve_second(built))
    for row, a in zip(rows, here):
        if isinstance(row, Exception) and not isinstance(a, SolverError):
            raise row
    there, out = iter(there), []
    for m, row, a in zip(ms, rows, here):
        b = row if isinstance(row, Exception) else next(there)
        done = a if isinstance(a, SolverError) else b
        if not isinstance(done, SolverError):
            with _naming_eps(m.coeff.eps):
                done = tuple(zip(*(error(m, sa, sb) for sa, sb in zip(a, b))))
        out.append(done)
    return out


def _right_moving(cfg: ExperimentConfig) -> tuple:
    """(the sweep's members, their Kuznetsov march from the preset u0 and
    each member's right-moving u1, each member's first sample of it)."""
    u0 = preset_profile(cfg.preset, _spatial_grid(cfg), cfg.preset_params)
    ms = _members(cfg)
    starts = [ModelState(ModelKind.KUZNETSOV, 0.0, u0,
                         right_moving_velocity(m.coeff, u0)) for m in ms]
    return ms, lambda: solve_kuznetsov_rows(
        [(m.coeff, s.primary, s.velocity, m.t_end, m.ctl, m.n_samples)
         for m, s in zip(ms, starts)]), starts


def _ns_kuznetsov(cfg: ExperimentConfig):
    ms, first, starts = _right_moving(cfg)
    pert = (band_limited_perturbation(_spatial_grid(cfg), cfg.seed, cfg.delta)
            if cfg.delta > 0.0 else None)

    def ansatz_of(coeff: ModelCoefficients, state: ModelState) -> FlowState:
        return assemble_ansatz(coeff, state, build_correctors(coeff, state))

    def flow_row(m: _Member, start: ModelState):
        U0 = ansatz_of(m.coeff, start)
        if pert is not None:
            U0 = FlowState(U0.rho.with_values(U0.rho.values + pert.values),
                           U0.momentum)
        return m.coeff, U0, m.t_end, m.ctl, m.n_samples

    return _march_study(ms, first, starts, flow_row, solve_flow_rows,
                        lambda m, kuz, flow: (flow[0], l2_error(
                            flow[1], ansatz_of(m.coeff, kuz))))


def _kuznetsov_westervelt(cfg: ExperimentConfig):
    ms, first, starts = _right_moving(cfg)
    sp = Spectral(_spatial_grid(cfg))

    def reference(coeff: ModelCoefficients, ks: ModelState) -> ModelState:
        pib = westervelt_transform(coeff, ks.primary, ks.velocity)
        pib_t = ks.velocity.with_values(westervelt_pi_t(
            sp, coeff, ks.primary.scalar, ks.velocity.scalar))
        return ModelState(ModelKind.WESTERVELT, ks.evol, pib, pib_t)

    def westervelt_row(m: _Member, start: ModelState):
        pi0, pi1 = westervelt_initial_data(m.coeff, start.primary,
                                           start.velocity)
        return m.coeff, pi0, pi1, m.t_end, m.ctl, m.n_samples

    return _march_study(ms, first, starts, westervelt_row,
                        solve_westervelt_rows, lambda m, kuz, wes: (
                            wes.evol, l2_error(wes, reference(m.coeff, kuz))))


def _kuznetsov_npe(cfg: ExperimentConfig):
    grid = _spatial_grid(cfg)
    # NPE profile grid shares the spatial axis, renamed to z
    zgrid = _paraxial_grid(cfg, Frame.NPE)
    u0 = preset_profile(cfg.preset, grid, cfg.preset_params)
    sp = Spectral(zgrid)
    psi0 = sp.mean_zero(u0.scalar, "z")
    # xi reads c and rho0 only, which every member shares
    xi0 = Field(zgrid, npe_xi(cfg.coeff, sp.d(psi0, "z")))

    def transported(coeff: ModelCoefficients, state: ModelState, t: float):
        """u(x, t) = Psi(eps t, x - c t) and its time derivative, as a
        Kuznetsov state on the spatial grid."""
        psi = npe_potential(coeff, sp.inv(state.primary.scalar, "z"))
        ut = (coeff.eps * _npe_dtau_psi(sp, coeff, psi)
              - coeff.c * sp.d(psi, "z"))
        shift = -coeff.c * t
        return ModelState(ModelKind.KUZNETSOV, t,
                          Field(grid, sp.shift(psi, "z", shift)),
                          Field(grid, sp.shift(ut, "z", shift)))

    def kuznetsov_row(m: _Member, start: ModelState):
        # well-prepared data: u1 carries the slow O(eps) correction too
        ks = transported(m.coeff, start, 0.0)
        return m.coeff, ks.primary, ks.velocity, m.t_end, m.ctl, m.n_samples

    ms = _members(cfg)
    npe_rows = [(m.coeff, xi0, m.coeff.eps * m.t_end,
                 _substeps(m.coeff.eps * m.t_end, m.n_samples - 1,
                           m.coeff.eps * _default_wave_step(cfg, m.coeff)),
                 m.n_samples) for m in ms]
    start = ModelState(ModelKind.NPE, 0.0,
                       Field(zgrid, _start_profile(ModelKind.NPE, xi0)))
    return _march_study(ms, lambda: solve_npe_rows(npe_rows),
                        [start] * len(ms), kuznetsov_row,
                        solve_kuznetsov_rows, lambda m, npe, kuz: (
                            kuz.evol, l2_error(kuz, transported(
                                m.coeff, npe, kuz.evol))))


def _kuznetsov_kzk(cfg: ExperimentConfig):
    """Perturbed comparison: the clean beam, which reads no eps, is one row
    that every member shares, so when it fails each member fails alike;
    each member's error is its source-forced beam's against it."""
    grid = _paraxial_grid(cfg)
    I0 = preset_profile(cfg.preset, grid, cfg.preset_params)
    z_end = cfg.horizon  # the range variable is already slow; no 1/eps
    ctl = _substeps(z_end, cfg.samples,
                    _default_kzk_step(cfg, cfg.coeff, grid))
    n = cfg.samples + 1
    ms = [_Member(replace(cfg.coeff, eps=e), z_end, n, ctl)
          for e in cfg.eps_list]
    S = band_limited_perturbation(grid, cfg.seed, cfg.source_size).scalar
    clean = [(cfg.coeff, I0, z_end, ctl, n)]
    return _march_study(ms, lambda: solve_kzk_rows(clean) * len(ms),
                        [I0] * len(ms), lambda m, start: (
                            m.coeff, start, m.t_end, m.ctl, m.n_samples),
                        lambda rows: solve_kzk_rows(rows, S),
                        lambda m, base, beam: (base.evol,
                                               l2_error(base, beam)))


class _Study(NamedTuple):
    """run(cfg) -> per eps of cfg.eps_list, (sample times, error series) or
    the SolverError that stopped that member.  `exponent` is the claim's
    horizon exponent (None: Gronwall verdicts); `horizon_bounds` cap error/eps
    at the horizon without and with a delta perturbation."""

    run: Callable
    exponent: int | None
    horizon_bounds: tuple[float, float] | None = None
    dims: tuple[int, ...] = (1, 2, 3)
    grid: Callable = _spatial_grid  # grid(cfg): where the preset is sampled


#: the pairs scaling_study drives
_STUDIES = {
    "ns-kuznetsov": _Study(_ns_kuznetsov, 1, (2.0, 3.0)),
    "kuznetsov-westervelt": _Study(_kuznetsov_westervelt, 0),
    "kuznetsov-npe": _Study(_kuznetsov_npe, 0, dims=(1,)),
    "kuznetsov-kzk": _Study(_kuznetsov_kzk, None, grid=_paraxial_grid),
}
_SLOPE_ALLOWANCE = 0.2


def _median(values: list[float]) -> float:
    """np.median of a few floats, to the bit, without the `numpy.ma` that
    np.median imports: the middle value, or the mean of the two middle
    ones, each summed from +0.0 as numpy's mean sums; NaN when one is
    NaN."""
    if any(math.isnan(v) for v in values):
        return math.nan
    ordered = sorted(values)
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return 0.0 + ordered[mid]
    return (0.0 + ordered[mid - 1] + ordered[mid]) / 2.0


def _slope_verdicts(cfg: ExperimentConfig, report: Report) -> None:
    study = _STUDIES[cfg.pair]
    ok = [s for s in report.series if s["status"] == "ok"]
    degenerate = ok and all(max(s["l2_error"]) <= 1e-13 for s in ok)
    # sample j of every member lies j common intervals in, so fraction f of
    # the shortest member's n intervals is sample f n of each, if f n is whole
    n = min(len(s["evol"]) for s in ok) - 1 if ok else 0

    slopes = {}
    for frac in SLOPE_FRACTIONS:
        j = frac * n
        pts = [(s["eps"], s["l2_error"][int(j)]) for s in ok
               if j.is_integer() and s["l2_error"][int(j)] > 1e-13]
        if len(pts) >= 2:
            e, v = np.array(pts).T
            slopes[f"{frac:g}"] = _fit_loglog_slope(e, v)
        else:
            slopes[f"{frac:g}"] = None
    report.slopes = slopes
    valid = [v for v in slopes.values() if v is not None]
    report.median_slope = _median(valid) if valid else None

    if degenerate:
        report.verdicts.append({
            "criterion": "eps-scaling-slope",
            "passed": True,
            "detail": "error series at rounding level; slope undefined",
        })
        return

    # with a delta-sized perturbation the error floor is set by delta, not by
    # the eps grading, so only the horizon bound is meaningful
    if cfg.delta == 0.0:
        grading = base_power(cfg.pair)
        floor = float(grading) - study.exponent - _SLOPE_ALLOWANCE
        passed = report.median_slope is not None and report.median_slope >= floor
        report.verdicts.append({
            "criterion": "eps-scaling-slope",
            "passed": bool(passed),
            "detail": f"median slope {report.median_slope} vs floor {floor} "
                      f"= grading {grading} - horizon exponent "
                      f"{study.exponent} - allowance {_SLOPE_ALLOWANCE}",
        })

    if study.horizon_bounds is not None:
        factor = study.horizon_bounds[cfg.delta > 0.0]
        worst, bound_ok = 0.0, True
        for s in ok:
            ratio = s["l2_error"][-1] / s["eps"]
            worst = max(worst, ratio)
            bound_ok = bound_ok and ratio <= factor
        report.verdicts.append({
            "criterion": "horizon-error-bound",
            "passed": bool(bound_ok and ok),
            "detail": f"worst error/eps at the horizon {worst:.4f} "
                      f"vs bound {factor}",
        })


def _gronwall_verdicts(report: Report) -> None:
    fits = []
    for s in report.series:
        if s["status"] != "ok":
            continue
        fit = gronwall_envelope_check(s["evol"], s["l2_error"], s["eps"],
                                      tag=report.pair)
        fits.append(fit)
    report.gronwall = fits
    nontrivial = [f for f in fits if f["C2"] > 0.0]
    env_ok = bool(fits) and all(f["passed"] for f in fits)
    report.verdicts.append({
        "criterion": "gronwall-envelope",
        "passed": env_ok,
        "detail": f"{sum(f['passed'] for f in fits)}/{len(fits)} sweep members "
                  "inside 1.1x the fitted envelope",
    })
    if len(nontrivial) >= 2:
        c1 = [f["C1"] for f in nontrivial]
        c2 = [f["C2"] for f in nontrivial]
        spread1 = (max(c1) - min(c1)) / max(abs(np.mean(c1)), 1e-300)
        spread2 = (max(c2) - min(c2)) / max(abs(np.mean(c2)), 1e-300)
        passed = spread1 <= 0.25 and spread2 <= 0.25
        detail = f"C1 spread {spread1:.3f}, C2 spread {spread2:.3f} (limit 0.25)"
    else:
        passed, detail = bool(fits), "single-member sweep; spread not testable"
    report.verdicts.append({
        "criterion": "gronwall-constants-eps-independent",
        "passed": bool(passed),
        "detail": detail,
    })


def scaling_study(cfg: ExperimentConfig) -> Report:
    """Run one pair across the eps sweep and assemble the fitted Report."""
    study = _STUDIES[cfg.pair]
    report = Report(name=cfg.name, pair=cfg.pair, config=cfg.to_dict(),
                    config_sha256=config_hash(cfg),
                    meta=dict(_runtime(), package_version=__version__,
                              seed=cfg.seed))

    def member(eps: float, result) -> dict:
        if isinstance(result, SolverError):
            return {"eps": float(eps), "status": "failed",
                    "evol": [], "l2_error": [], "error": str(result)}
        times, errs = result
        return {"eps": float(eps), "status": "ok",
                "evol": [float(t) for t in times],
                "l2_error": [float(e) for e in errs]}

    results = [member(e, r) for e, r in zip(cfg.eps_list, study.run(cfg))]
    report.series = results  # already ordered by decreasing eps

    failed = [s for s in results if s["status"] != "ok"]
    if failed:
        report.verdicts.append({
            "criterion": "sweep-completion",
            "passed": False,
            "detail": f"{len(failed)} of {len(results)} runs failed",
        })
    if study.exponent is None:
        _gronwall_verdicts(report)
    else:
        _slope_verdicts(cfg, report)
    return report


# ----------------------------------------------------------------------
# artifacts


def _svg_plot(report: Report) -> str:
    """Minimal hand-rolled log-log error plot (presentation only)."""
    width, height, pad = 480, 360, 50
    pts_all = []
    for s in report.series:
        pts = [(t, e) for t, e in zip(s["evol"], s["l2_error"])
               if t > 0 and e > 0]
        if pts:
            pts_all.append((s["eps"], pts))
    lines = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{width}" '
             f'height="{height}">',
             f'<rect width="{width}" height="{height}" fill="white"/>']
    if pts_all:
        xs = [math.log10(t) for _e, p in pts_all for t, _v in p]
        ys = [math.log10(v) for _e, p in pts_all for _t, v in p]
        x0, x1 = min(xs), max(xs) or 1.0
        y0, y1 = min(ys), max(ys)
        x1 = x1 if x1 > x0 else x0 + 1.0
        y1 = y1 if y1 > y0 else y0 + 1.0

        def sx(x):
            return pad + (width - 2 * pad) * (x - x0) / (x1 - x0)

        def sy(y):
            return height - pad - (height - 2 * pad) * (y - y0) / (y1 - y0)

        for i, (eps, pts) in enumerate(pts_all):
            path = " ".join(f"{sx(math.log10(t)):.2f},{sy(math.log10(v)):.2f}"
                            for t, v in pts)
            hue = (i * 67) % 360
            lines.append(f'<polyline points="{path}" fill="none" '
                         f'stroke="hsl({hue},60%,40%)" stroke-width="1.5"/>')
            lines.append(f'<text x="{pad}" y="{pad + 14 * i}" '
                         f'font-size="11" fill="hsl({hue},60%,40%)">'
                         f'eps={eps:g}</text>')
    lines.append(f'<text x="{width // 2}" y="{height - 8}" font-size="11" '
                 f'text-anchor="middle">log10 evolution variable</text>')
    lines.append("</svg>")
    return "\n".join(lines) + "\n"


def emit_report(report: Report, out_dir: str) -> dict:
    """Write report.json, errors.csv (17 significant digits) and plot.svg.

    Byte output is a deterministic function of the Report contents."""
    os.makedirs(out_dir, exist_ok=True)
    paths = {}
    jpath = os.path.join(out_dir, "report.json")
    _write_json(jpath, report.to_dict())
    paths["report"] = jpath

    cpath = os.path.join(out_dir, "errors.csv")
    with open(cpath, "w", newline="") as fh:
        fh.write("eps,evol,l2_error\n")
        for s in report.series:
            for t, e in zip(s["evol"], s["l2_error"]):
                fh.write(f"{s['eps']:.17g},{t:.17g},{e:.17g}\n")
    paths["errors"] = cpath

    ppath = os.path.join(out_dir, "plot.svg")
    with open(ppath, "w") as fh:
        fh.write(_svg_plot(report))
    paths["plot"] = ppath
    return paths
