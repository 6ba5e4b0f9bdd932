import errno
import json
import math
import os
import signal
import tracemalloc
from contextlib import nullcontext

import numpy as np
import pytest

from nlparax import (
    Axis,
    Field,
    Frame,
    Grid,
    ModelCoefficients,
    ModelKind,
    Report,
    ExperimentConfig,
    decay_fit,
    emit_report,
    gronwall_envelope_check,
    l2_error,
    preset_profile,
    scaling_study,
)
from nlparax import experiments
from nlparax.experiments import band_limited_perturbation, config_hash
from nlparax.models.base import ModelState, SolverDiverged, resolve_steps


def _cfg(**kw):
    base = dict(
        name="t", pair="kuznetsov-westervelt",
        coeff=ModelCoefficients(c=1.0, rho0=1.0, gamma=1.4, nu=0.3, eps=0.01),
        eps_list=(0.04, 0.02), horizon=2.0, horizon_over_eps=False,
        points=32, samples=4, preset_params={"amplitude": 0.3})
    base.update(kw)
    return ExperimentConfig(**base)


# ---------------------------------------------------------------- presets


def test_single_mode_preset():
    g = Grid((Axis("x1", 4.0, 32, origin=1.0),), Frame.PHYSICAL)
    f = preset_profile("single_mode", g, {"amplitude": 0.5, "mode": 2})
    x = g.mesh()[0]
    assert np.allclose(f.scalar, 0.5 * np.sin(2 * np.pi * 2 * (x - 1.0) / 4.0))


def test_gaussian_beam_preset():
    g = Grid((Axis("tau", 2 * np.pi, 32),
              Axis("y1", 4.0, 16, origin=-2.0)), Frame.KZK)
    T, Y = g.mesh()
    f = preset_profile("gaussian_beam", g)
    assert np.allclose(f.scalar, -np.exp(-Y**2) * np.sin(T))


def test_polynomial_amplitude_preset_support():
    g = Grid((Axis("tau", 2 * np.pi, 32),
              Axis("y1", 4.0, 16, origin=-2.0)), Frame.KZK)
    T, Y = g.mesh()
    f = preset_profile("polynomial_amplitude", g)
    outside = np.abs(Y) > 1.0
    assert np.all(f.scalar[outside] == 0.0)
    inside = np.abs(Y) <= 1.0
    expect = -(1.0 - Y**2) ** 2 * np.sin(T)
    assert np.allclose(f.scalar[inside], expect[inside])


def test_preset_errors():
    g = Grid((Axis("x1", 1.0, 8),), Frame.PHYSICAL)
    with pytest.raises(ValueError):
        preset_profile("plane_wave", g)
    with pytest.raises(ValueError):
        preset_profile("single_mode", g, {"width": 2.0})
    with pytest.raises(ValueError):
        preset_profile("gaussian_beam", g)  # no tau axis


def test_band_limited_perturbation_size_and_seed():
    g = Grid((Axis("x1", 2 * np.pi, 64),), Frame.PHYSICAL)
    a = band_limited_perturbation(g, seed=5, size=0.01)
    b = band_limited_perturbation(g, seed=5, size=0.01)
    c = band_limited_perturbation(g, seed=6, size=0.01)
    assert a.l2_norm() == pytest.approx(0.01, rel=1e-12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)


# ------------------------------------------------------------ config


def test_config_validation():
    with pytest.raises(ValueError):
        _cfg(eps_list=(0.01, 0.02))  # not decreasing
    with pytest.raises(ValueError):
        _cfg(eps_list=(1.5, 0.02))
    with pytest.raises(ValueError):
        _cfg(eps_list=())
    with pytest.raises(ValueError):
        _cfg(delta=0.03)  # exceeds min eps
    with pytest.raises(ValueError):
        _cfg(samples=2)
    with pytest.raises(ValueError):
        _cfg(pair="ns-kzk")  # not a driveable pair
    with pytest.raises(ValueError):
        _cfg(preset="plane_wave")


@pytest.mark.parametrize("key, value", [
    ("points", 6), ("points", 33), ("trans_points", 2), ("trans_points", 5),
    ("source_size", -1.0), ("seed", -1),
])
def test_config_refuses_what_the_cli_refuses_and_names_the_field(key, value):
    # a library config is held to the rules a CLI config is, whether or not
    # its study reads the entry
    with pytest.raises(ValueError, match=key):
        _cfg(**{key: value})


def test_config_round_trip_and_unknown_keys():
    cfg = _cfg()
    again = ExperimentConfig.from_dict(cfg.to_dict())
    assert again == cfg
    bad = cfg.to_dict()
    bad["stepsize"] = 0.1
    with pytest.raises(ValueError, match="stepsize"):
        ExperimentConfig.from_dict(bad)


def test_config_hash_sensitivity():
    a, b = _cfg(), _cfg(seed=1)
    assert config_hash(a) == config_hash(_cfg())
    assert config_hash(a) != config_hash(b)
    assert len(config_hash(a)) == 64


def test_reading_a_config_allocates_no_sample_times():
    # at eps = 5e-6 a horizon of 1/eps spans 800000 sample intervals of the
    # eps = 0.5 member; the load checks that count without sampling it
    tracemalloc.start()
    try:
        _cfg(pair="ns-kuznetsov", eps_list=(0.5, 5e-6), horizon=1.0,
             horizon_over_eps=True, samples=8)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1_000_000


# ------------------------------------------------------------ metrics


def test_l2_error_against_quadrature():
    g = Grid((Axis("x1", 2 * np.pi, 128),), Frame.PHYSICAL)
    a = ModelState(ModelKind.NPE, 0.0, Field(g, np.sin(g.mesh()[0])))
    b = ModelState(ModelKind.NPE, 0.0, Field.zeros(g))
    assert l2_error(a, b) == pytest.approx(math.sqrt(math.pi), rel=1e-12)
    assert l2_error(a, a) == 0.0
    assert l2_error(a, b) == l2_error(b, a)


def test_l2_error_refuses_mixed_state_kinds():
    # a Kuznetsov state carries u_t, a KZK state none: comparing them would
    # drop the energy norm's velocity term
    g = Grid((Axis("x1", 2 * np.pi, 32),), Frame.PHYSICAL)
    f = Field(g, np.sin(g.mesh()[0]))
    kuz = ModelState(ModelKind.KUZNETSOV, 0.0, f, Field.zeros(g))
    with pytest.raises(ValueError, match="different models: kuznetsov and kzk"):
        l2_error(kuz, ModelState(ModelKind.KZK, 0.0, Field.zeros(g)))
    with pytest.raises(ValueError, match="only one of the states"):
        l2_error(ModelState(ModelKind.KUZNETSOV, 0.0, Field.zeros(g)), kuz)


def test_gronwall_synthetic_recovery():
    z = np.linspace(0.0, 2.0, 12)
    a, b, eps = 0.7, 0.9, 0.02
    fit = gronwall_envelope_check(z, a * z * np.exp(b * z), eps)
    assert fit["C1"] == pytest.approx(2 * b, rel=1e-9)
    assert fit["C2"] == pytest.approx(2 * a / eps, rel=1e-9)
    assert fit["passed"]
    assert fit["max_ratio"] <= 1.0 + 1e-9


def test_gronwall_degenerate_and_short_series():
    z = np.linspace(0.0, 1.0, 8)
    fit = gronwall_envelope_check(z, np.zeros(8), 0.02)
    assert fit["passed"]
    with pytest.raises(ValueError):
        gronwall_envelope_check(z[:3], np.ones(3), 0.02)


def test_decay_fit_synthetic():
    coeff = ModelCoefficients(c=1.0, rho0=1.0, gamma=1.4, nu=0.5, eps=0.01)
    g = Grid((Axis("z", 2 * np.pi, 16),), Frame.NPE)
    base = np.sin(g.mesh()[0])
    states = [ModelState(ModelKind.NPE, t, Field(g, math.exp(-0.3 * t) * base))
              for t in np.linspace(0.0, 3.0, 10)]
    fit = decay_fit(coeff, states)
    assert fit["rate"] == pytest.approx(-0.3, abs=1e-10)
    assert fit["passed"]


def test_decay_fit_requires_viscosity():
    coeff = ModelCoefficients(c=1.0, rho0=1.0, gamma=1.4, nu=0.0, eps=0.01)
    g = Grid((Axis("z", 2 * np.pi, 16),), Frame.NPE)
    states = [ModelState(ModelKind.NPE, t, Field(g, np.sin(g.mesh()[0])))
              for t in (0.0, 1.0, 2.0, 3.0)]
    with pytest.raises(ValueError):
        decay_fit(coeff, states)


# ------------------------------------------------------------ studies


def test_small_study_report_and_artifacts(tmp_path):
    cfg = _cfg()
    rep = scaling_study(cfg)
    assert rep.pair == cfg.pair
    assert set(rep.slopes) == {"0.25", "0.5", "1"}
    assert rep.passed()
    assert all(s["status"] == "ok" for s in rep.series)
    assert rep.config_sha256 == config_hash(cfg)

    # JSON round trip preserves everything
    again = Report(**json.loads(json.dumps(rep.to_dict())))
    assert again == rep

    out = emit_report(rep, str(tmp_path / "run"))
    d = tmp_path / "run"
    assert (d / "report.json").exists()
    assert (d / "plot.svg").exists()
    csv = (d / "errors.csv").read_text().splitlines()
    assert csv[0] == "eps,evol,l2_error"
    assert len(csv) == 1 + sum(len(s["l2_error"]) for s in rep.series)


def test_failed_member_fails_the_sweep(monkeypatch):
    study = experiments._STUDIES["kuznetsov-westervelt"]

    def failing(cfg):
        return [SolverDiverged("norm exceeds 1e6 x initial")
                if eps == 0.02 else result
                for eps, result in zip(cfg.eps_list, study.run(cfg))]

    monkeypatch.setitem(experiments._STUDIES, "kuznetsov-westervelt",
                        study._replace(run=failing))
    rep = scaling_study(_cfg())
    assert [s["status"] for s in rep.series] == ["ok", "failed"]
    assert rep.series[1]["error"] == "norm exceeds 1e6 x initial"
    completion = [v for v in rep.verdicts
                  if v["criterion"] == "sweep-completion"]
    assert len(completion) == 1 and not completion[0]["passed"]
    assert not rep.passed()


def _power_law(power):
    """A study whose members return errors 0.01 eps^power (1 + t)."""
    def run(cfg):
        times = [0.0, 1.0, 2.0, 3.0, 4.0]
        return [(times, [0.01 * eps**power * (1.0 + t) for t in times])
                for eps in cfg.eps_list]

    return run


def _power_law_study(monkeypatch, cfg, power):
    study = experiments._STUDIES[cfg.pair]
    monkeypatch.setitem(experiments._STUDIES, cfg.pair,
                        study._replace(run=_power_law(power)))
    rep = scaling_study(cfg)
    return rep, {v["criterion"]: v for v in rep.verdicts}


@pytest.mark.parametrize("pair, grading, exponent", [
    ("ns-kuznetsov", 3, 1),
    ("kuznetsov-westervelt", 2, 0),
    ("kuznetsov-npe", 2, 0),
])
def test_slope_floor_is_the_grading_less_the_horizon_exponent(
        monkeypatch, pair, grading, exponent):
    cfg = _cfg(pair=pair, eps_list=(0.04, 0.02, 0.01))
    for power, passed in ((1.85, True), (1.75, False)):
        rep, verdicts = _power_law_study(monkeypatch, cfg, power)
        assert rep.median_slope == pytest.approx(power)
        slope = verdicts["eps-scaling-slope"]
        assert slope["passed"] is passed
        assert slope["detail"].endswith(
            f"vs floor 1.8 = grading {grading} - horizon exponent "
            f"{exponent} - allowance 0.2")


def test_a_zero_amplitude_study_has_an_undefined_slope():
    # a zero initial profile stays zero in both models: every error is 0,
    # no slope can be fitted and the verdict says so instead of failing
    rep = scaling_study(_cfg(preset_params={"amplitude": 0.0}))
    assert all(max(s["l2_error"]) == 0.0 for s in rep.series)
    assert set(rep.slopes.values()) == {None} and rep.median_slope is None
    assert rep.verdicts == [{
        "criterion": "eps-scaling-slope", "passed": True,
        "detail": "error series at rounding level; slope undefined"}]


def test_a_fraction_between_samples_has_no_slope():
    # in 6 sample intervals a quarter of the horizon falls between samples
    # 1 and 2: that fraction has no slope, half the horizon is sample 3 and
    # the whole horizon sample 6, and the median is taken over those two
    rep = scaling_study(_cfg(samples=6))
    assert [len(s["evol"]) for s in rep.series] == [7, 7]
    eps = [s["eps"] for s in rep.series]

    def fitted(j):
        errs = [s["l2_error"][j] for s in rep.series]
        return np.polyfit(np.log(eps), np.log(errs), 1)[0]

    assert rep.slopes == {"0.25": None, "0.5": fitted(3), "1": fitted(6)}
    assert rep.median_slope == (fitted(3) + fitted(6)) / 2


def test_ns_kuznetsov_slope_below_its_claim_fails(monkeypatch):
    # an eps^3 remainder acting over a 1/eps horizon claims eps^2, so an
    # eps^1.6 series fails the slope gate even well inside the horizon bound
    cfg = _cfg(pair="ns-kuznetsov", eps_list=(0.04, 0.02, 0.01))
    rep, verdicts = _power_law_study(monkeypatch, cfg, 1.6)
    assert not verdicts["eps-scaling-slope"]["passed"]
    assert verdicts["horizon-error-bound"]["passed"]
    assert not rep.passed()


def test_the_envelope_study_has_no_slope_verdict(monkeypatch):
    rep, verdicts = _power_law_study(monkeypatch, _kzk_cfg(), 2.0)
    assert list(verdicts) == ["gronwall-envelope",
                              "gronwall-constants-eps-independent"]
    assert rep.slopes == {} and rep.median_slope is None
    assert len(rep.gronwall) == 3


def test_a_bug_in_a_member_propagates(monkeypatch):
    def run(cfg):
        raise NotImplementedError("pair not wired")

    study = experiments._STUDIES["kuznetsov-westervelt"]
    monkeypatch.setitem(experiments._STUDIES, "kuznetsov-westervelt",
                        study._replace(run=run))
    with pytest.raises(NotImplementedError):
        scaling_study(_cfg())


# --------------------------------------------- the forked second march

#: per slope study, its first and second marches' solvers and a builder of
#: its second march's rows that reads the member's coeff first
_PAIRS = {
    "ns-kuznetsov": ("solve_kuznetsov_rows", "solve_flow_rows",
                     "assemble_ansatz"),
    "kuznetsov-westervelt": ("solve_kuznetsov_rows", "solve_westervelt_rows",
                             "westervelt_initial_data"),
    "kuznetsov-npe": ("solve_npe_rows", "solve_kuznetsov_rows",
                      "npe_potential"),
}


def _in_process(jobs):
    """A stand-in for `experiments._split` that runs every job here."""
    return [experiments._solved(job) for job in jobs]


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_split_runs_the_first_half_of_its_jobs_here(n):
    pids = experiments._split([os.getpid] * n)
    here = math.ceil(n / 2)
    assert pids[:here] == [os.getpid()] * here
    assert len(set(pids[here:])) == 1 and os.getpid() not in pids[here:]


@pytest.mark.parametrize("where", [0, 2])  # run here, in the child
def test_split_takes_a_solver_error_as_that_jobs_result(where):
    def diverged():
        raise SolverDiverged("job diverged")

    jobs = [lambda i=i: i for i in range(3)]
    jobs[where] = diverged
    out = experiments._split(jobs)
    error = out.pop(where)
    assert type(error) is SolverDiverged and str(error) == "job diverged"
    assert out == [i for i in range(3) if i != where]


def _study_cfg(pair):
    """A three-member study of the pair."""
    if pair == "kuznetsov-kzk":
        return _kzk_cfg()
    return _cfg(pair=pair, eps_list=(0.04, 0.02, 0.01))


@pytest.mark.parametrize("pair", sorted(_PAIRS) + ["kuznetsov-kzk"])
def test_the_forked_march_gives_the_in_process_numbers(monkeypatch, pair):
    cfg = _study_cfg(pair)
    forked = scaling_study(cfg).series
    monkeypatch.setattr(experiments, "_split", _in_process)
    assert all(s["status"] == "ok" for s in forked)
    assert scaling_study(cfg).series == forked


def _fail_march(monkeypatch, pair, eps, march):
    """Member eps's first or second march of the pair's study returns a
    SolverError; the second march's, from the child."""
    name = _PAIRS[pair][0 if march == "first" else 1]
    solve = getattr(experiments, name)

    def failing(rows):
        return [SolverDiverged(f"{march} march diverged")
                if row[0].eps == eps else result
                for row, result in zip(rows, solve(rows))]

    monkeypatch.setattr(experiments, name, failing)


def _break_second_row(monkeypatch, pair, eps):
    """Building member eps's second-march row raises a ValueError."""
    name = _PAIRS[pair][2]
    build = getattr(experiments, name)

    def broken(coeff, *args):
        if coeff.eps == eps:
            raise ValueError("row cannot be built")
        return build(coeff, *args)

    monkeypatch.setattr(experiments, name, broken)


@pytest.mark.parametrize("march, unbuildable", [
    ("first", False), ("first", True), ("second", False)])
@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_a_member_whose_first_march_fails_changes_no_other(monkeypatch, pair,
                                                           march, unbuildable):
    alone = scaling_study(_cfg(pair=pair, eps_list=(0.04, 0.01))).series
    _fail_march(monkeypatch, pair, 0.02, march)
    if unbuildable:  # and its row is dropped, not raised
        _break_second_row(monkeypatch, pair, 0.02)
    series = scaling_study(_cfg(pair=pair, eps_list=(0.04, 0.02, 0.01))).series
    assert series[1] == {"eps": 0.02, "status": "failed", "evol": [],
                         "l2_error": [], "error": f"{march} march diverged"}
    assert [series[0], series[2]] == alone


@pytest.mark.parametrize("pair", sorted(_PAIRS))
def test_a_survivor_whose_row_cannot_be_built_raises(monkeypatch, pair):
    _break_second_row(monkeypatch, pair, 0.02)
    with pytest.raises(ValueError) as info:
        scaling_study(_cfg(pair=pair, eps_list=(0.04, 0.02, 0.01)))
    assert str(info.value) == "eps = 0.02: row cannot be built"


def _result(cfg):
    """The study's series, or the type and message of its exception."""
    try:
        return scaling_study(cfg).series
    except Exception as exc:
        return type(exc), str(exc)


def _as_in_process(monkeypatch, caplog, cfg, why):
    """The forked study's result, checked to equal the in-process one, and
    to have logged one warning that names `why` and no other."""
    forked = _result(cfg)
    [record] = caplog.records
    assert record.name == "nlparax" and why in record.getMessage()
    monkeypatch.setattr(experiments, "_split", _in_process)
    assert _result(cfg) == forked
    return forked


def test_a_refused_fork_gives_the_in_process_numbers(monkeypatch, caplog):
    def refused():
        raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

    monkeypatch.setattr(os, "fork", refused)
    series = _as_in_process(monkeypatch, caplog, _study_cfg(
        "kuznetsov-westervelt"), "os.fork failed ([Errno 11] Resource")
    assert all(s["status"] == "ok" for s in series)


def test_an_exception_of_the_forked_march_is_raised_here(monkeypatch,
                                                         caplog):
    # the child's march runs again here, so the exception is this process's
    def not_wired(rows):
        raise NotImplementedError(f"flow rows marched in {os.getpid()}")

    monkeypatch.setattr(experiments, "solve_flow_rows", not_wired)
    assert _as_in_process(monkeypatch, caplog, _cfg(pair="ns-kuznetsov"),
                          "exited with status 1") == (
        NotImplementedError, f"flow rows marched in {os.getpid()}")


class _TwoArgError(Exception):
    """Pickles, but cannot be rebuilt from its pickle."""

    def __init__(self, a, b):
        super().__init__(f"{a} and {b}")


def test_an_exception_that_cannot_come_back_is_raised_as_itself(monkeypatch,
                                                                caplog):
    def unpicklable(rows):
        raise _TwoArgError("one", "two")

    monkeypatch.setattr(experiments, "solve_flow_rows", unpicklable)
    assert _as_in_process(monkeypatch, caplog, _cfg(pair="ns-kuznetsov"),
                          "exited with status 1") == (
        _TwoArgError, "one and two")


class _CutWriter:
    """The child's end of the pipe: writes the first half of the first
    block of the result, then ends the child with status 5."""

    def __init__(self, fd):
        self.fd = fd

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        os.close(self.fd)

    def write(self, blob):
        os.write(self.fd, blob[:len(blob) // 2])
        os._exit(5)


@pytest.mark.parametrize("end, how", [
    ("exit-3", "exited with status 3"),
    ("SIGKILL", "killed by signal 9"),
    ("cut-stream", "exited with status 5"),
], ids=["exit-3", "SIGKILL", "cut-stream"])
def test_a_child_that_ends_without_a_result_changes_no_number(
        monkeypatch, caplog, end, how):
    # the patched march ends the child alone: ending this process would
    # end the test run
    test_pid, solve = os.getpid(), experiments.solve_flow_rows

    def ending(rows):
        if os.getpid() != test_pid:
            if end == "exit-3":
                os._exit(3)
            os.kill(os.getpid(), signal.SIGKILL)
        return solve(rows)

    if end == "cut-stream":  # the parent reads the stream as it unpickles
        real_open = open
        monkeypatch.setattr(experiments, "open", lambda fd, mode: (
            _CutWriter(fd) if mode == "wb" else real_open(fd, mode)),
            raising=False)
    else:
        monkeypatch.setattr(experiments, "solve_flow_rows", ending)
    series = _as_in_process(monkeypatch, caplog, _cfg(pair="ns-kuznetsov"),
                            how)
    assert all(s["status"] == "ok" for s in series)


@pytest.mark.parametrize("error", [RuntimeError, KeyboardInterrupt])
def test_the_child_is_reaped_when_the_first_march_raises(monkeypatch, error):
    def raising(rows):
        raise error("first march")

    monkeypatch.setattr(experiments, "solve_kuznetsov_rows", raising)
    with pytest.raises(error, match="first march"):
        scaling_study(_cfg(pair="ns-kuznetsov"))
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.parametrize("pair, refusal", [
    ("ns-kuznetsov", "density must be positive everywhere"),
    ("kuznetsov-westervelt",
     "degeneracy factor |1 - (gamma-1)/c^2 eps u1| dropped below 0.5"),
])
def test_a_refused_second_march_row_names_its_eps(pair, refusal):
    # at amplitude 8 the eps = 0.2 member survives its Kuznetsov march, but
    # the second model refuses its initial data: bad input, not a failure
    cfg = _cfg(pair=pair, eps_list=(0.2, 0.1, 0.05),
               preset_params={"amplitude": 8.0})
    with pytest.raises(ValueError) as info:
        scaling_study(cfg)
    assert str(info.value) == f"eps = 0.2: {refusal}"
    assert type(info.value.__cause__) is ValueError
    assert str(info.value.__cause__) == refusal


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"),
                    reason="needs /proc/self/fd to count descriptors")
@pytest.mark.parametrize("pair, end", [
    *((pair, "ok") for pair in sorted(_PAIRS) + ["kuznetsov-kzk"]),
    ("kuznetsov-kzk", "clean march fails"),
    ("kuznetsov-kzk", "child raises"),
])
def test_a_study_leaves_no_descriptor_open(monkeypatch, pair, end):
    if end == "clean march fails":  # every member fails with its error
        _patch_solve_kzk(monkeypatch, SolverDiverged("clean march diverged"))
    elif end == "child raises":
        _patch_solve_kzk(monkeypatch, forced_errors={0.01: OSError("lost")})
    open_fds = len(os.listdir("/proc/self/fd"))
    with (pytest.raises(OSError, match="lost") if end == "child raises"
          else nullcontext()):
        scaling_study(_study_cfg(pair))
    assert len(os.listdir("/proc/self/fd")) == open_fds


def test_study_is_deterministic(tmp_path):
    cfg = _cfg()
    r1, r2 = scaling_study(cfg), scaling_study(cfg)
    emit_report(r1, str(tmp_path / "a"))
    emit_report(r2, str(tmp_path / "b"))
    assert ((tmp_path / "a" / "errors.csv").read_bytes()
            == (tmp_path / "b" / "errors.csv").read_bytes())


def _kzk_cfg(**kw):
    base = dict(
        pair="kuznetsov-kzk", eps_list=(0.04, 0.02, 0.01), horizon=0.5,
        points=32, dim=2, trans_points=8, preset="gaussian_beam", seed=7,
        source_size=0.5)
    base.update(kw)
    return _cfg(**base)


def _patch_solve_kzk(monkeypatch, clean_error=None, forced_errors=None):
    """Record each study march as forced (True) or clean (False); with
    `clean_error`, every clean march raises it, and the forced march of an
    eps that `forced_errors` maps raises that eps's exception."""
    solve, forced = experiments.solve_kzk, []

    def patched(coeff, *args, source=None, **kwargs):
        forced.append(source is not None)
        error = (clean_error if source is None else
                 (forced_errors or {}).get(coeff.eps))
        if error is not None:
            raise error
        return solve(coeff, *args, source=source, **kwargs)

    monkeypatch.setattr(experiments, "solve_kzk", patched)
    return forced


def test_kzk_study_marches_its_clean_beam_once(monkeypatch):
    # in this process: the forked child's marches are not recorded here
    monkeypatch.setattr(experiments, "_split", _in_process)
    forced = _patch_solve_kzk(monkeypatch)
    rep = scaling_study(_kzk_cfg())
    assert [s["status"] for s in rep.series] == ["ok"] * 3
    assert forced == [False, True, True, True]


@pytest.mark.parametrize("eps_list, here", [
    ((0.04, 0.02, 0.01), [False, True]),
    ((0.04,), [False]),
])
def test_the_forked_kzk_study_marches_half_its_beams_here(monkeypatch,
                                                          eps_list, here):
    # the clean beam and the forced beams of the first half of the sweep;
    # the child marches the rest
    forced = _patch_solve_kzk(monkeypatch)
    rep = scaling_study(_kzk_cfg(eps_list=eps_list))
    assert [s["status"] for s in rep.series] == ["ok"] * len(eps_list)
    assert forced == here


@pytest.mark.parametrize("eps", [0.04, 0.01])  # marched here, in the child
def test_a_failed_forced_kzk_march_fails_that_member_alone(monkeypatch, eps):
    full = scaling_study(_kzk_cfg()).series
    _patch_solve_kzk(monkeypatch,
                     forced_errors={eps: SolverDiverged("forced diverged")})
    series = scaling_study(_kzk_cfg()).series
    i = (0.04, 0.02, 0.01).index(eps)
    assert series[i] == {"eps": eps, "status": "failed", "evol": [],
                         "l2_error": [], "error": "forced diverged"}
    assert series[:i] + series[i + 1:] == full[:i] + full[i + 1:]


def test_an_exception_of_a_forked_kzk_march_is_raised_here(monkeypatch,
                                                          caplog):
    solve = experiments.solve_kzk

    def not_wired(coeff, *args, source=None, **kwargs):
        if source is not None and coeff.eps == 0.01:
            raise NotImplementedError(f"beam marched in {os.getpid()}")
        return solve(coeff, *args, source=source, **kwargs)

    monkeypatch.setattr(experiments, "solve_kzk", not_wired)
    assert _as_in_process(monkeypatch, caplog, _kzk_cfg(),
                          "exited with status 1") == (
        NotImplementedError, f"beam marched in {os.getpid()}")


def test_kzk_study_members_match_one_member_studies():
    full = scaling_study(_kzk_cfg())
    for eps, member in zip((0.04, 0.02, 0.01), full.series):
        assert scaling_study(_kzk_cfg(eps_list=(eps,))).series == [member]


def test_a_failed_clean_kzk_march_fails_every_member(monkeypatch):
    message = "norm 1.000e+07 exceeds 1e6 x initial (1.000e+00) during kzk"
    _patch_solve_kzk(monkeypatch, SolverDiverged(message))
    rep = scaling_study(_kzk_cfg())
    assert [s["status"] for s in rep.series] == ["failed"] * 3
    assert [s["error"] for s in rep.series] == [message] * 3


def test_study_steps_fill_whole_sample_intervals():
    # a study marches n_int sample intervals of `per` steps each, so that
    # every sample lands on its common time grid.  A step of
    # span / (n_int * per), turned back into a count, resolved 668
    # intervals of 95 steps over a span of 9.06 to 63461 steps.
    rng = np.random.default_rng(2)
    draws = [(9.06, 668, 9.06 / 668 / 95)]
    for _ in range(5000):
        span = float(rng.uniform(1e-3, 100.0))
        n_int = int(rng.integers(1, 1000))
        draws.append((span, n_int, span / n_int / rng.uniform(1.0, 200.0)))
    for span, n_int, hint in draws:
        ctl = experiments._substeps(span, n_int, hint)
        per = ctl.substeps
        assert per == max(1, math.ceil(span / n_int / hint - 1e-12))
        assert resolve_steps(span, ctl) == (n_int * per,
                                            span / (n_int * per)), (span,
                                                                    n_int,
                                                                    hint)
    assert experiments._substeps(*draws[0]).substeps == 95
