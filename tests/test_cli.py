import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from nlparax import (
    Axis,
    ExperimentConfig,
    Field,
    Frame,
    Grid,
    ModelCoefficients,
    StepControl,
    cli,
    experiments,
    read_paf,
    remainders,
    write_paf,
)
from nlparax.cli import main
from nlparax.models import SolverDiverged
from nlparax.models.base import resolve_steps

COEFF = {"c": 1.0, "rho0": 1.0, "gamma": 1.4, "nu": 0.3, "eps": 0.01}


def _write(tmp_path, name, payload):
    # JSON has no infinity token; a number beyond the float range parses
    # to one, so an infinite entry is written as 1e400
    p = tmp_path / name
    p.write_text(json.dumps(payload).replace("Infinity", "1e400"))
    return str(p)


SOLVE = {
    "model": "kzk",
    "coeff": COEFF,
    "grid": {"frame": "kzk",
             "axes": [{"name": "tau", "length": 2 * math.pi, "points": 64},
                      {"name": "y1", "length": 2 * math.pi, "points": 16,
                       "origin": -math.pi}]},
    "initial": {"preset": "gaussian_beam"},
    "span": 0.5, "step": 0.005, "samples": 3,
}
MODE = {"preset": "single_mode", "params": {"amplitude": 0.1}}


def _solve_cfg(tmp_path, **solve_extra):
    return _write(tmp_path, "solve.json",
                  {"schema_version": 1, "solve": dict(SOLVE, **solve_extra)})


def test_solve_writes_artifacts(tmp_path):
    cfg = _solve_cfg(tmp_path)
    out = str(tmp_path / "run")
    assert main(["solve", "--config", cfg, "--out", out]) == 0
    index = json.loads((tmp_path / "run" / "index.json").read_text())
    assert len(index["files"]) == 3
    assert len(index["evol"]) == 3
    manifest = json.loads((tmp_path / "run" / "manifest.json").read_text())
    assert "config_sha256" in manifest
    first = read_paf(tmp_path / "run" / index["files"][0])
    assert first.grid.frame is Frame.KZK
    assert np.isfinite(first.values).all()


def _line(frame, axis):
    return {"frame": frame,
            "axes": [{"name": axis, "length": 2 * math.pi, "points": 32}]}


#: per model, the grid of its frame and an initial profile on it
SOLVE_MODELS = {
    "kuznetsov": (_line("physical", "x1"), MODE),
    "westervelt": (_line("physical", "x1"), MODE),
    "ns": (_line("physical", "x1"), MODE),
    "npe": (_line("npe", "z"), MODE),
    "kzk": (SOLVE["grid"], SOLVE["initial"]),
}


@pytest.mark.parametrize("model", sorted(SOLVE_MODELS))
def test_solve_writes_each_sample_of_every_model(tmp_path, model):
    grid, initial = SOLVE_MODELS[model]
    cfg = _solve_cfg(tmp_path, model=model, grid=grid, initial=initial,
                     span=0.1, step=0.005, samples=5)
    out = tmp_path / "run"
    assert main(["solve", "--config", cfg, "--out", str(out)]) == 0
    index = json.loads((out / "index.json").read_text())
    assert index["model"] == model
    assert index["files"] == [f"sample_{i:04d}.paf" for i in range(5)]
    assert index["evol"] == pytest.approx(np.linspace(0.0, 0.1, 5),
                                          rel=1e-12, abs=1e-15)
    for name in index["files"]:
        f = read_paf(out / name)
        assert f.grid.frame.value == grid["frame"]
        assert np.isfinite(f.values).all()


def test_solve_dry_run_prints_plan(tmp_path, capsys):
    # 0.07 / 0.005 rounds to 14.000000000000002; the solver takes 14 steps
    cfg = _solve_cfg(tmp_path, span=0.07)
    assert main(["solve", "--config", cfg, "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["model"] == "kzk"
    assert plan["steps"] == 14


def test_unknown_key_is_named(tmp_path, capsys):
    payload = {"schema_version": 1, "solve": {
        "model": "kzk", "coeff": COEFF,
        "grid": {"axes": [{"name": "tau", "length": 1.0, "points": 16}]},
        "initial": {"preset": "single_mode"},
        "span": 1.0, "step": 0.1, "bogus_key": 3}}
    cfg = _write(tmp_path, "bad.json", payload)
    assert main(["solve", "--config", cfg]) == 1
    assert "bogus_key" in capsys.readouterr().err


def test_missing_config_file(tmp_path):
    assert main(["solve", "--config", str(tmp_path / "nope.json")]) == 1


def test_module_entry_point_exits_with_main_status(tmp_path):
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run(
        [sys.executable, "-m", "nlparax.cli", "solve", "--config",
         str(tmp_path / "nope.json")], env=env, capture_output=True, text=True)
    assert proc.returncode == 1
    assert len(proc.stderr.splitlines()) == 1  # the error, printed once
    assert "cannot read config" in proc.stderr


def test_missing_axis_is_bad_input(tmp_path, capsys):
    cfg = _solve_cfg(tmp_path, grid={"frame": "kzk", "axes": [
        {"name": "s", "length": 2 * math.pi, "points": 16}]},
        initial={"preset": "single_mode"})
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 1
    # the message as written, not quoted like a dict key
    assert "error: grid has no axis named 'tau';" in capsys.readouterr().err


def test_a_bare_key_error_propagates(tmp_path, monkeypatch):
    # a failed lookup inside the program is a bug, not bad input
    def lookup_bug(args, argv):
        return {}["missing"]

    monkeypatch.setattr(cli, "_run_solve", lookup_bug)
    with pytest.raises(KeyError, match="missing"):
        main(["solve", "--config", _solve_cfg(tmp_path)])


def test_out_of_range_coefficient_is_a_config_error(tmp_path, capsys):
    cfg = _solve_cfg(tmp_path, coeff=dict(COEFF, eps=1.5))
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 1
    assert "eps" in capsys.readouterr().err


@pytest.mark.parametrize("cmd", ["solve", "residual", "sweep", "compare"])
def test_a_coefficient_refusal_names_its_entry(tmp_path, capsys, cmd):
    payload = {"solve": SOLVE, "residual": RESIDUAL}.get(cmd, FAILING_STUDY)
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, cmd: dict(
        payload, coeff=dict(payload["coeff"], c=0.0))})
    for dry_run in ([], ["--dry-run"]):
        assert main([cmd, "--config", cfg, "--out",
                     str(tmp_path / "out")] + dry_run) == 1
        assert capsys.readouterr().err == "error: coeff: c must be > 0\n"
    assert not (tmp_path / "out").exists()


def test_odd_periodic_axis_is_a_config_error(tmp_path, capsys):
    cfg = _solve_cfg(tmp_path, grid={
        "frame": "kzk",
        "axes": [{"name": "tau", "length": 2 * math.pi, "points": 33}]})
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 1
    assert "grid" in capsys.readouterr().err


def test_invalid_json(tmp_path):
    p = tmp_path / "broken.json"
    p.write_text("{not json")
    assert main(["solve", "--config", str(p)]) == 1


def test_numerical_failure_exits_2(tmp_path):
    # absurd amplitude and step blow up the march
    cfg = _solve_cfg(tmp_path, step=0.5,
                     initial={"preset": "gaussian_beam",
                              "params": {"amplitude": 1e6}})
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "boom")]) == 2


@pytest.mark.parametrize("model, grid, message", [
    ("ns", {"frame": "kzk",
            "axes": [{"name": "tau", "length": 2 * math.pi, "points": 16}]},
     "physical-frame grids"),
    ("kuznetsov", {"axes": [{"name": "x1", "length": 2 * math.pi,
                             "points": 17, "periodic": False}]},
     "axis 'x1' is not periodic"),
])
def test_input_rejected_by_a_solver_exits_1(tmp_path, capsys, model, grid,
                                             message):
    cfg = _solve_cfg(tmp_path, model=model, grid=grid,
                     initial={"preset": "single_mode"}, span=0.05, step=0.01)
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err


def test_non_finite_axis_origin_exits_1(tmp_path, capsys):
    grid = {"frame": "kzk",
            "axes": [{"name": "tau", "length": 2 * math.pi, "points": 64},
                     {"name": "y1", "length": 2 * math.pi, "points": 16,
                      "origin": math.inf}]}
    cfg = _solve_cfg(tmp_path, grid=grid)
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 1
    assert "axis 'y1': origin must be finite" in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize("c", [1e308, 1e-320])
def test_arithmetic_error_of_an_extreme_coefficient_exits_2(tmp_path,
                                                            capsys, c):
    # c**3 overflows (OverflowError) or underflows to a zero divisor
    # (ZeroDivisionError) when the kzk stepper is set up
    cfg = _solve_cfg(tmp_path, coeff=dict(COEFF, c=c))
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 2
    assert "numerical failure" in capsys.readouterr().err


@pytest.mark.parametrize("samples, written", [(1e308, 4 + 1), (3.0, 3)])
def test_sample_count_given_as_a_float(tmp_path, samples, written):
    # an integral JSON float passes the schema's integer check; a count
    # beyond the 4 steps gives one sample per step
    cfg = _solve_cfg(tmp_path, span=0.02, step=0.005, samples=samples)
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 0
    index = json.loads((tmp_path / "run" / "index.json").read_text())
    assert len(index["files"]) == written


def test_integral_float_entries_run_as_integers(tmp_path):
    # JSON Schema counts 16.0 as an integer, so it runs as the integer does
    written = []
    for tag, points in (("int", 16), ("float", 16.0)):
        grid = {"frame": "kzk",
                "axes": [{"name": "tau", "length": 2 * math.pi, "points": 64},
                         {"name": "y1", "length": 2 * math.pi,
                          "points": points, "origin": -math.pi}]}
        cfg = _solve_cfg(tmp_path, grid=grid)
        assert main(["solve", "--config", cfg, "--out",
                     str(tmp_path / tag)]) == 0
        index = json.loads((tmp_path / tag / "index.json").read_text())
        written.append([(tmp_path / tag / f).read_bytes()
                        for f in index["files"]])
    assert written[0] == written[1]

    study = {"name": "mini", "pair": "kuznetsov-westervelt", "coeff": COEFF,
             "eps_list": [0.04, 0.02], "horizon": 1.0,
             "horizon_over_eps": False}
    tables = []
    for tag, counts in (("int", (16, 4, 7)), ("float", (16.0, 4.0, 7.0))):
        cfg = _write(tmp_path, f"sweep-{tag}.json", {
            "schema_version": 1, "sweep": dict(
                study, **dict(zip(("points", "samples", "seed"), counts)))})
        out = tmp_path / f"sweep-{tag}"
        assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
        tables.append((out / "errors.csv").read_bytes())
    assert tables[0] == tables[1]


@pytest.mark.parametrize("params, message", [
    # math.inf is written as the JSON number 1e400, which parses to inf
    ({"mode": math.inf}, "'mode' must be a finite number, got inf"),
    ({"mode": 1.5}, "'mode' must be an integral number, got 1.5"),
    ({"mode": "2"}, "'mode' must be a finite number, got '2'"),
    ({"mode": True}, "'mode' must be a finite number, got True"),
    ({"amplitude": "1.5"}, "'amplitude' must be a finite number, got '1.5'"),
    ({"amplitude": -math.inf},
     "'amplitude' must be a finite number, got -inf"),
    ({"amplitude": False}, "'amplitude' must be a finite number, got False"),
], ids=["inf-mode", "fractional-mode", "string-mode", "bool-mode",
        "string-amplitude", "inf-amplitude", "bool-amplitude"])
def test_preset_parameters_must_be_finite_numbers(tmp_path, capsys, params,
                                                  message):
    cfg = _solve_cfg(tmp_path, model="kuznetsov", grid={"axes": [
        {"name": "x1", "length": 2 * math.pi, "points": 16}]},
        initial={"preset": "single_mode", "params": params})
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 1
    assert f"preset parameter {message}" in capsys.readouterr().err


@pytest.mark.parametrize("token", ["NaN", "Infinity", "-Infinity"])
def test_non_standard_json_tokens_are_refused(tmp_path, capsys, token):
    cfg = tmp_path / "solve.json"
    cfg.write_text(Path(_solve_cfg(tmp_path)).read_text().replace(
        '"span": 0.5', f'"span": {token}'))
    assert main(["solve", "--config", str(cfg), "--out",
                 str(tmp_path / "run")]) == 1
    assert f"non-standard JSON token {token}" in capsys.readouterr().err

    path = tmp_path / "k.paf"
    write_paf(path, Field.zeros(Grid((Axis("tau", 2.0, 16),), Frame.KZK)))
    path.write_bytes(path.read_bytes().replace(b'"origin": 0.0',
                                               f'"origin": {token}'.encode()))
    assert main(["transform", "--from", "kzk", "--to", "npe", "--input",
                 str(path), "--output", str(tmp_path / "n.paf")]) == 1
    assert f"non-standard JSON token {token}" in capsys.readouterr().err


@pytest.mark.parametrize("key, value", [("step", 1e-320), ("span", 1e308)])
def test_step_count_that_does_not_fit_exits_1(tmp_path, capsys, key, value):
    cfg = _solve_cfg(tmp_path, **{key: value})
    assert main(["solve", "--config", cfg, "--out",
                 str(tmp_path / "run")]) == 1
    assert f"{key} {value!r}" in capsys.readouterr().err


RESIDUAL = {"pair": "kuznetsov-westervelt", "coeff": COEFF,
            "grid": {"axes": [{"name": "x1", "length": 2 * math.pi,
                               "points": 16}]},
            "initial": {"preset": "single_mode"}}
STUDY = {"name": "mini", "pair": "kuznetsov-westervelt", "coeff": COEFF,
         "eps_list": [0.04, 0.02], "horizon": 1.0}


def test_a_subcommand_without_its_payload_exits_1(tmp_path, capsys):
    cfg = _write(tmp_path, "cfg.json", {"schema_version": 1,
                                        "compare": STUDY})
    assert main(["sweep", "--config", cfg, "--dry-run"]) == 1
    assert "config carries no 'sweep' payload" in capsys.readouterr().err


def test_residual_csv(tmp_path):
    payload = {"schema_version": 1, "residual": {
        "pair": "kuznetsov-kzk",
        "coeff": {"eps": 0.05, "nu": 0.2},
        "grid": {"frame": "kzk",
                 "axes": [{"name": "tau", "length": 2 * math.pi, "points": 32},
                          {"name": "z", "length": 2.0, "points": 32,
                           "periodic": False},
                          {"name": "y1", "length": 2 * math.pi, "points": 16,
                           "origin": -math.pi}]},
        "initial": {"preset": "gaussian_beam"}}}
    cfg = _write(tmp_path, "res.json", payload)
    out = str(tmp_path / "res")
    assert main(["residual", "--config", cfg, "--out", out]) == 0
    lines = (tmp_path / "res" / "residual.csv").read_text().splitlines()
    assert lines[0] == "pair,term_id,eps_power,l2_norm,linf_norm"
    assert any(row.startswith("kuznetsov-kzk,total-") for row in lines[1:])
    assert len(lines) > 3


def test_residual_refuses_an_axis_too_short_for_the_margins(tmp_path,
                                                           capsys):
    # the second z derivatives of the kzk table trim 2 points from each end
    # of a bounded z axis, which leaves nothing of 4 points
    payload = {"schema_version": 1, "residual": {
        "pair": "kuznetsov-kzk", "coeff": {"eps": 0.05, "nu": 0.2},
        "grid": {"frame": "kzk",
                 "axes": [{"name": "tau", "length": 2 * math.pi, "points": 16},
                          {"name": "z", "length": 2.0, "points": 4,
                           "periodic": False},
                          {"name": "y1", "length": 2 * math.pi, "points": 8,
                           "origin": -math.pi}]},
        "initial": {"preset": "gaussian_beam"}}}
    cfg = _write(tmp_path, "res.json", payload)
    assert main(["residual", "--config", cfg, "--out",
                 str(tmp_path / "res")]) == 1
    assert "axis 'z' too short for FD margins" in capsys.readouterr().err
    assert not (tmp_path / "res").exists()


def test_residual_refuses_a_grid_in_another_frame(tmp_path, capsys):
    # the ns-npe table spans the y axes of an NPE grid; a physical grid has
    # none, so every norm would read zero
    payload = {"schema_version": 1, "residual": {
        "pair": "ns-npe", "coeff": {"eps": 0.05, "nu": 0.2},
        "grid": {"frame": "physical",
                 "axes": [{"name": "tau", "length": 1.0, "points": 16,
                           "periodic": False},
                          {"name": "z", "length": 2 * math.pi,
                           "points": 16}]},
        "initial": {"preset": "single_mode"}}}
    cfg = _write(tmp_path, "res.json", payload)
    assert main(["residual", "--config", cfg, "--out",
                 str(tmp_path / "res")]) == 1
    err = capsys.readouterr().err
    assert "pair 'ns-npe' is evaluated in the npe frame" in err
    assert "not in the physical frame" in err
    assert not (tmp_path / "res").exists()


@pytest.mark.parametrize("pair, frame", [("ns-kzk", "kzk"), ("ns-npe", "npe")])
def test_residual_refuses_another_frame_before_reading_its_axes(
        tmp_path, capsys, pair, frame):
    # a physical (t, x1) grid carries none of the paraxial axes, so the
    # frame is refused before any corrector is derived along them
    payload = {"schema_version": 1, "residual": {
        "pair": pair, "coeff": {"eps": 0.05, "nu": 0.2},
        "grid": {"frame": "physical",
                 "axes": [{"name": "t", "length": 1.0, "points": 16,
                           "periodic": False},
                          {"name": "x1", "length": 2 * math.pi,
                           "points": 16}]},
        "initial": {"preset": "single_mode"}}}
    cfg = _write(tmp_path, "res.json", payload)
    assert main(["residual", "--config", cfg, "--out",
                 str(tmp_path / "res")]) == 1
    assert (f"pair {pair!r} is evaluated in the {frame} frame, not in the "
            f"physical frame" in capsys.readouterr().err)


def test_sweep_pass_and_artifacts(tmp_path):
    payload = {"schema_version": 1, "sweep": {
        "name": "mini", "pair": "kuznetsov-westervelt",
        "coeff": COEFF, "eps_list": [0.04, 0.02],
        "horizon": 2.0, "horizon_over_eps": False,
        "points": 32, "samples": 4,
        "preset_params": {"amplitude": 0.3}}}
    cfg = _write(tmp_path, "sweep.json", payload)
    out = tmp_path / "sweep"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    for name in ("report.json", "errors.csv", "plot.svg", "manifest.json"):
        assert (out / name).exists(), name
    rep = json.loads((out / "report.json").read_text())
    assert all(v["passed"] for v in rep["verdicts"])


def test_forced_sweep_from_rest_exits_0(tmp_path):
    # the forced KZK march starts from rest, so its divergence reference is
    # what the source can add over the march, not the zero initial norm
    payload = {"schema_version": 1, "sweep": {
        "name": "rest", "pair": "kuznetsov-kzk", "coeff": COEFF,
        "eps_list": [0.04, 0.02, 0.01], "horizon": 0.2,
        "horizon_over_eps": False, "points": 16, "dim": 2,
        "trans_points": 8, "preset": "gaussian_beam", "samples": 4,
        "seed": 7, "source_size": 0.5, "preset_params": {"amplitude": 0}}}
    cfg = _write(tmp_path, "rest.json", payload)
    out = tmp_path / "rest"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 0
    rows = (out / "errors.csv").read_text().splitlines()[1:]
    assert len({row.split(",")[0] for row in rows}) == 3
    assert all(float(row.split(",")[2]) > 0.0 for row in rows
               if float(row.split(",")[1]) > 0.0)


# heavy viscosity over an eps-long horizon erodes the eps^2 grading, so the
# slope floor verdict of this study fails
FAILING_STUDY = {"name": "fail", "pair": "kuznetsov-westervelt",
                 "coeff": dict(COEFF, nu=2.0), "eps_list": [0.04, 0.02],
                 "horizon": 1.0, "horizon_over_eps": True,
                 "points": 32, "samples": 4,
                 "preset_params": {"amplitude": 0.5}}


def test_sweep_verdict_failure_exits_3(tmp_path):
    payload = {"schema_version": 1, "sweep": FAILING_STUDY}
    cfg = _write(tmp_path, "sweepfail.json", payload)
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "sf")]) == 3


@pytest.mark.parametrize("key, value, message", [
    ("delta", 0.001, "delta applies only to the ns-kuznetsov study, not to "
                     "pair 'kuznetsov-westervelt'"),
    ("delta", math.nan, "non-standard JSON token NaN"),
    ("horizon", math.inf, "horizon must be finite, got inf"),
], ids=["delta-on-another-pair", "nan-delta", "inf-horizon"])
def test_sweep_refuses_a_setting_that_would_skip_its_gate(tmp_path, capsys,
                                                          key, value,
                                                          message):
    # a delta that only the ns-kuznetsov study reads, or a NaN, must not
    # let this failing study pass
    payload = {"schema_version": 1, "sweep": dict(FAILING_STUDY,
                                                  **{key: value})}
    cfg = _write(tmp_path, "sweepfail.json", payload)
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "sf")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("over_eps, message", [
    (False, "span 2.5e+307 with step 0.03125 does not give a finite step "
            "count"),
    (True, "horizon 1e+308 over eps = 0.04 is not a finite time span"),
], ids=["fixed-horizon", "horizon-over-eps"])
def test_sweep_step_count_that_does_not_fit_exits_1(tmp_path, capsys,
                                                    over_eps, message):
    # a step count beyond the float range is refused by name before a
    # member marches, as a solve refuses its span
    payload = {"schema_version": 1, "sweep": dict(
        FAILING_STUDY, horizon=1e308, horizon_over_eps=over_eps)}
    cfg = _write(tmp_path, "sweepbig.json", payload)
    assert main(["sweep", "--config", cfg, "--out",
                 str(tmp_path / "sb")]) == 1
    assert message in capsys.readouterr().err


@pytest.mark.parametrize("cmd, payload, message", [
    ("sweep", {k: v for k, v in FAILING_STUDY.items() if k != "horizon"},
     "config.sweep: missing required key 'horizon'"),
    # a study has no default eps_list
    ("compare", {k: v for k, v in FAILING_STUDY.items() if k != "eps_list"},
     "config.compare: missing required key 'eps_list'"),
    ("sweep", dict(FAILING_STUDY, bogus=1, extra=2),
     "config.sweep: unknown key 'bogus' (and 1 more)"),
    # Euler is ns with coeff.nu = 0; no model name overrides a config's nu
    ("solve", dict(SOLVE, model="euler"),
     "config.solve.model: value 'euler' not one of"),
], ids=["missing-required", "missing-eps-list", "two-unknown",
        "euler-model"])
def test_schema_refusal_exits_1_naming_the_entry(tmp_path, capsys, cmd,
                                                 payload, message):
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, cmd: payload})
    assert main([cmd, "--config", cfg, "--out", str(tmp_path / "run")]) == 1
    assert message in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def _set(node, path, value):
    """A copy of a JSON value with the entry at `path` (keys and list
    indices) set to `value`."""
    out = dict(node) if isinstance(node, dict) else list(node)
    out[path[0]] = (value if len(path) == 1
                    else _set(node[path[0]], path[1:], value))
    return out


def _coeff(p):
    return ModelCoefficients(**p["coeff"])


#: every value rule the schema leaves to the constructor or table that owns
#: it: (subcommand, entry, one bad value, the owner called on the payload)
OWNED_RULES = {
    "coeff-c": ("solve", ("coeff", "c"), 0.0, _coeff),
    "coeff-rho0": ("solve", ("coeff", "rho0"), -1.0, _coeff),
    "coeff-gamma": ("residual", ("coeff", "gamma"), 1.0, _coeff),
    "coeff-nu": ("sweep", ("coeff", "nu"), -0.1, _coeff),
    # the schema asked only for eps > 0
    "coeff-eps": ("sweep", ("coeff", "eps"), 1.5, _coeff),
    "axis-length": ("solve", ("grid", "axes", 0, "length"), 0.0,
                    lambda p: Axis(**p["grid"]["axes"][0])),
    "axis-points": ("residual", ("grid", "axes", 0, "points"), 2,
                    lambda p: Axis(**p["grid"]["axes"][0])),
    "grid-frame": ("solve", ("grid", "frame"), "lab",
                   lambda p: Frame(p["grid"]["frame"])),
    "solve-span": ("solve", ("span",), -0.5,
                   lambda p: resolve_steps(p["span"], StepControl(p["step"]))),
    "solve-step": ("solve", ("step",), 0.0,
                   lambda p: StepControl(p["step"])),
    "study-pair": ("sweep", ("pair",), "ns-kzk", ExperimentConfig.from_dict),
    "study-preset": ("sweep", ("preset",), "plane_wave",
                     ExperimentConfig.from_dict),
    "study-eps": ("sweep", ("eps_list", 1), 0.0, ExperimentConfig.from_dict),
    "study-horizon": ("sweep", ("horizon",), -1.0,
                      ExperimentConfig.from_dict),
    "study-dim-below": ("sweep", ("dim",), 0, ExperimentConfig.from_dict),
    "study-dim-above": ("sweep", ("dim",), 4, ExperimentConfig.from_dict),
    "study-delta": ("sweep", ("delta",), -0.001, ExperimentConfig.from_dict),
    "study-samples": ("sweep", ("samples",), 3, ExperimentConfig.from_dict),
    "residual-pair": ("residual", ("pair",), "ns-euler",
                      lambda p: remainders.input_field(p["pair"])),
}


@pytest.mark.parametrize("case", sorted(OWNED_RULES))
def test_each_value_rule_is_refused_by_its_owner_before_the_plan(
        tmp_path, capsys, case):
    cmd, path, value, owner = OWNED_RULES[case]
    base = {"solve": SOLVE, "sweep": FAILING_STUDY, "residual": RESIDUAL}[cmd]
    payload = _set(base, path, value)
    with pytest.raises(ValueError) as refusal:
        owner(payload)
    cfg = _write(tmp_path, "bad.json", {"schema_version": 1, cmd: payload})
    assert main([cmd, "--config", cfg, "--dry-run"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert str(refusal.value) in captured.err


#: where the schema may state a value rule: nothing else states these
#: before the work
SCHEMA_VALUE_RULES = {
    ("properties", "schema_version", "enum"),
    ("definitions", "solve", "properties", "model", "enum"),
    ("definitions", "initial", "properties", "preset", "enum"),
    ("definitions", "solve", "properties", "samples", "minimum"),
}


def _value_rules(node, path=()):
    """The path of every value rule (enum or bound) in a schema node."""
    if not isinstance(node, dict):
        return set()
    own = {path + (k,) for k in ("enum", "minimum", "maximum",
                                 "exclusiveMinimum", "exclusiveMaximum")
           if k in node}
    return own.union(*(_value_rules(v, path + (k,)) for k, v in node.items()))


def test_the_schema_states_only_the_value_rules_no_owner_states():
    assert _value_rules(cli.load_schema()) == SCHEMA_VALUE_RULES


@pytest.mark.parametrize("key, value, pair", [
    ("points", 6, "kuznetsov-westervelt"),
    ("points", 33, "kuznetsov-westervelt"),
    ("trans_points", 2, "kuznetsov-kzk"),
    ("trans_points", 5, "kuznetsov-kzk"),
    ("source_size", -1.0, "kuznetsov-kzk"),
    ("seed", -1, "kuznetsov-kzk"),
], ids=["points-short", "points-odd", "trans-points-short",
        "trans-points-odd", "negative-source-size", "negative-seed"])
def test_study_counts_sizes_and_seed_are_checked_when_read(tmp_path, capsys,
                                                            key, value, pair):
    # refused when the config is read, naming the entry, where the run
    # would fail only later (an odd count, a negative seed) or not at all
    payload = dict(FAILING_STUDY, pair=pair, dim=2, **{key: value})
    cfg = _write(tmp_path, "cfg.json", {"schema_version": 1,
                                        "sweep": payload})
    assert main(["sweep", "--config", cfg, "--dry-run"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ") and key in captured.err


def test_a_kzk_sweep_without_a_source_size_is_refused(tmp_path, capsys):
    # the envelope study forces its beams with a source of this size, so a
    # config that leaves it at its default of 0 is refused when it is read
    payload = dict(FAILING_STUDY, pair="kuznetsov-kzk", dim=2,
                   trans_points=8, preset="gaussian_beam")
    cfg = _write(tmp_path, "cfg.json", {"schema_version": 1,
                                        "sweep": payload})
    out = tmp_path / "kzk"
    for dry_run in ([], ["--dry-run"]):
        assert main(["sweep", "--config", cfg, "--out", str(out)]
                    + dry_run) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ")
        assert "source_size must be > 0" in captured.err
        assert not out.exists()


def test_sweep_refuses_incommensurate_eps(tmp_path, capsys, monkeypatch):
    # t_common = 0.04 / 0.04 = 1 in 4 intervals of 0.25; 0.04 / 0.03 is not
    # a whole number of them, which the config load refuses before any
    # member marches, so a dry run refuses it too
    def no_march(*args, **kwargs):
        raise AssertionError("a sweep member marched")

    monkeypatch.setattr(experiments, "solve_kuznetsov_rows", no_march)
    monkeypatch.setattr(experiments, "solve_westervelt_rows", no_march)
    payload = {"schema_version": 1, "sweep": dict(
        FAILING_STUDY, eps_list=[0.04, 0.03], horizon=0.04, points=16)}
    cfg = _write(tmp_path, "incommensurate.json", payload)
    for dry_run in ([], ["--dry-run"]):
        assert main(["sweep", "--config", cfg, "--out",
                     str(tmp_path / "inc")] + dry_run) == 1
        captured = capsys.readouterr()
        assert ("eps = 0.03 gives a horizon that is not a whole number of "
                "common sample intervals" in captured.err)
        assert captured.out == ""
        assert not (tmp_path / "inc").exists()


def test_sweep_whose_every_member_fails_exits_2(tmp_path, monkeypatch,
                                                caplog):
    def diverging(cfg):
        return [SolverDiverged(f"norm exceeds 1e6 x initial at eps {eps}")
                for eps in cfg.eps_list]

    study = experiments._STUDIES["kuznetsov-westervelt"]
    monkeypatch.setitem(experiments._STUDIES, "kuznetsov-westervelt",
                        study._replace(run=diverging))
    cfg = _write(tmp_path, "diverge.json",
                 {"schema_version": 1, "sweep": FAILING_STUDY})
    out = tmp_path / "dv"
    assert main(["sweep", "--config", cfg, "--out", str(out)]) == 2
    assert "all sweep members failed" in caplog.text
    series = json.loads((out / "report.json").read_text())["series"]
    assert [(s["eps"], s["status"]) for s in series] == [
        (0.04, "failed"), (0.02, "failed")]
    assert series[1]["error"] == "norm exceeds 1e6 x initial at eps 0.02"


def _schema_refs(node):
    """Every "$ref" value in a schema node."""
    if isinstance(node, list):
        return [r for v in node for r in _schema_refs(v)]
    if not isinstance(node, dict):
        return []
    own = [node["$ref"]] if "$ref" in node else []
    return own + [r for v in node.values() for r in _schema_refs(v)]


def test_every_schema_ref_is_local_and_resolves():
    # _resolve_ref follows "#/..." paths only
    schema = cli.load_schema()
    refs = _schema_refs(schema)
    assert refs
    for ref in refs:
        assert ref.startswith("#/definitions/"), ref
        assert isinstance(cli._resolve_ref({"$ref": ref}, schema), dict)


def test_dry_run_of_a_sweep_too_long_to_march_prints_its_plan(tmp_path,
                                                             capsys):
    # eps = 1e-13 gives 4e13 sample intervals: never run this sweep
    payload = {"schema_version": 1, "sweep": {
        "name": "long", "pair": "ns-kuznetsov", "coeff": COEFF,
        "eps_list": [0.5, 1e-13], "horizon": 1.0}}
    cfg = _write(tmp_path, "long.json", payload)
    assert main(["sweep", "--config", cfg, "--dry-run"]) == 0
    plan = json.loads(capsys.readouterr().out)
    assert plan["action"] == "sweep" and plan["eps_list"] == [0.5, 1e-13]


def test_sweep_dry_run_refuses_a_dim_the_study_does_not_run(tmp_path,
                                                            capsys):
    payload = {"schema_version": 1, "sweep": dict(
        FAILING_STUDY, pair="kuznetsov-npe", dim=2)}
    cfg = _write(tmp_path, "npe2d.json", payload)
    assert main(["sweep", "--config", cfg, "--dry-run"]) == 1
    assert ("pair 'kuznetsov-npe' runs in dims [1], not in dim 2"
            in capsys.readouterr().err)


def test_compare_does_not_enforce_verdicts(tmp_path):
    payload = {"schema_version": 1,
               "compare": dict(FAILING_STUDY, name="cmp")}
    cfg = _write(tmp_path, "cmp.json", payload)
    assert main(["compare", "--config", cfg, "--out",
                 str(tmp_path / "cmp")]) == 0


def test_transform_round_trip(tmp_path):
    g = Grid((Axis("t", 2 * math.pi, 32), Axis("x2", 4.0, 16)),
             Frame.PHYSICAL)
    T, X = g.mesh()
    f = Field(g, np.sin(T) * np.cos(2 * np.pi * X / 4.0))
    src = str(tmp_path / "phys.paf")
    mid = str(tmp_path / "kzk.paf")
    dst = str(tmp_path / "back.paf")
    write_paf(src, f)
    assert main(["transform", "--from", "physical", "--to", "kzk",
                 "--input", src, "--output", mid, "--eps", "0.01"]) == 0
    assert main(["transform", "--from", "kzk", "--to", "physical",
                 "--input", mid, "--output", dst, "--eps", "0.01"]) == 0
    back = read_paf(dst)
    assert np.abs(back.values - f.values).max() <= 1e-10
    assert back.grid == g


def test_transform_kzk_npe_round_trip(tmp_path):
    g = Grid((Axis("tau", 2 * math.pi, 32), Axis("y1", 2.0, 8)), Frame.KZK)
    T, Y = g.mesh()
    f = Field(g, np.sin(T) * np.cos(np.pi * Y))
    src = str(tmp_path / "k.paf")
    mid = str(tmp_path / "n.paf")
    dst = str(tmp_path / "k2.paf")
    write_paf(src, f)
    assert main(["transform", "--from", "kzk", "--to", "npe",
                 "--input", src, "--output", mid, "--c", "1.3"]) == 0
    assert main(["transform", "--from", "npe", "--to", "kzk",
                 "--input", mid, "--output", dst, "--c", "1.3"]) == 0
    back = read_paf(dst)
    assert np.abs(back.values - f.values).max() <= 1e-10
    # the axis rescaling by c and 1/c may round in the last bit
    for a, b in zip(back.grid.axes, g.grid.axes if hasattr(g, "grid") else g.axes):
        assert a.name == b.name and a.points == b.points
        assert a.length == pytest.approx(b.length, rel=1e-15)


def _write_kzk_snapshot(tmp_path, tau):
    g = Grid((tau, Axis("y1", 2.0, 8)), Frame.KZK)
    src = str(tmp_path / "k.paf")
    write_paf(src, Field.zeros(g))
    return src


@pytest.mark.parametrize("points", [16, 15])
def test_transform_rejects_bounded_leading_axis(tmp_path, capsys, points):
    # z_npe = -c tau_kzk reverses the leading axis, which is a reflection
    # only on a periodic axis
    src = _write_kzk_snapshot(tmp_path, Axis("tau", 2.0, points,
                                             periodic=False))
    assert main(["transform", "--from", "kzk", "--to", "npe", "--input", src,
                 "--output", str(tmp_path / "n.paf")]) == 1
    assert "leading axis 'tau', which must be periodic" in \
        capsys.readouterr().err
    assert not (tmp_path / "n.paf").exists()


def test_transform_wrong_leading_axis_is_named(tmp_path, capsys):
    g = Grid((Axis("x1", 2.0, 16), Axis("x2", 2.0, 8)), Frame.PHYSICAL)
    src = str(tmp_path / "p.paf")
    write_paf(src, Field.zeros(g))
    assert main(["transform", "--from", "physical", "--to", "kzk",
                 "--input", src, "--output", str(tmp_path / "k.paf")]) == 1
    assert "expects leading axis 't', got 'x1'" in capsys.readouterr().err


def test_transform_checks_the_frame_tag(tmp_path, capsys):
    # axes named as in the npe frame, but the file says physical
    g = Grid((Axis("z", 2.0, 16), Axis("y1", 2.0, 8)), Frame.PHYSICAL)
    src = str(tmp_path / "p.paf")
    write_paf(src, Field.zeros(g))
    assert main(["transform", "--from", "npe", "--to", "kzk", "--input", src,
                 "--output", str(tmp_path / "k.paf")]) == 1
    err = capsys.readouterr().err
    assert "'npe' frame" in err and "'physical' frame" in err
    assert not (tmp_path / "k.paf").exists()


@pytest.mark.parametrize("flags", [["--c", "0"], ["--eps", "0"],
                                   ["--eps", "-0.1"]])
def test_transform_rejects_nonpositive_c_and_eps(tmp_path, capsys, flags):
    src = _write_kzk_snapshot(tmp_path, Axis("tau", 2.0, 16))
    assert main(["transform", "--from", "kzk", "--to", "physical",
                 "--input", src, "--output", str(tmp_path / "p.paf")]
                + flags) == 1
    assert "transform needs c > 0 and eps > 0" in capsys.readouterr().err


@pytest.mark.parametrize("dst, flags", [
    ("physical", ["--c", "inf"]), ("npe", ["--eps", "inf"]),
    ("npe", ["--eps", "nan"])])
def test_transform_rejects_a_non_finite_c_or_eps(tmp_path, capsys, dst,
                                                 flags):
    # kzk -> physical reads no c and kzk -> npe no eps; both are refused
    src = _write_kzk_snapshot(tmp_path, Axis("tau", 2.0, 16))
    assert main(["transform", "--from", "kzk", "--to", dst, "--input", src,
                 "--output", str(tmp_path / "out.paf")] + flags) == 1
    assert "both finite" in capsys.readouterr().err
    assert not (tmp_path / "out.paf").exists()


@pytest.mark.parametrize("src, dst, axes, frame, bad", [
    ("kzk", "physical", ("tau", "z"), Frame.KZK, "z"),
    ("physical", "kzk", ("t", "x1"), Frame.PHYSICAL, "x1"),
    ("physical", "npe", ("x1", "t"), Frame.PHYSICAL, "t"),
])
def test_transform_requires_the_transverse_axes(tmp_path, capsys, src, dst,
                                                axes, frame, bad):
    # only the transverse axes rename and rescale by sqrt(eps); any other
    # trailing axis is refused by name
    g = Grid((Axis(axes[0], 2.0, 16), Axis(axes[1], 1.0, 8)), frame)
    path = str(tmp_path / "in.paf")
    write_paf(path, Field.zeros(g))
    assert main(["transform", "--from", src, "--to", dst, "--input", path,
                 "--output", str(tmp_path / "out.paf")]) == 1
    assert f"got axis {bad!r}" in capsys.readouterr().err
    assert not (tmp_path / "out.paf").exists()


def _drop(entries: dict, key: str) -> dict:
    return {k: v for k, v in entries.items() if k != key}


#: malformed PAF headers: (edit of the header, the refusal)
MALFORMED_HEADERS = [
    (lambda h: _drop(h, "axes"), "header has no 'axes' entry"),
    (lambda h: [h], "header is not a JSON object"),
    (lambda h: dict(h, axes=[_drop(a, "name") for a in h["axes"]]),
     "axis 0 has no 'name' entry"),
    (lambda h: dict(h, axes=[dict(a, points=None) for a in h["axes"]]),
     "axis 0 entry 'points' is not a valid int: None"),
    (lambda h: dict(h, axes=[dict(a, periodic="false") for a in h["axes"]]),
     "axis 0 entry 'periodic' is not a valid bool: 'false'"),
    (lambda h: dict(h, components=2),
     "header entry 'value_count' 16 disagrees with the axes' 'points' [16] "
     "times 'components' 2 = 32"),
    (lambda h: dict(h, axes=[dict(a, length=math.nan) for a in h["axes"]]),
     "non-standard JSON token NaN"),
    (lambda h: dict(h, format="PAF2"), "not a PAF1 file"),
    (lambda h: dict(h, byte_order="big"), "unsupported scalar encoding"),
    (lambda h: dict(h, axes=["tau"]), "axis 0 is not a JSON object"),
    (lambda h: dict(h, frame="lab"),
     "header entry 'frame' is not a valid Frame: 'lab'"),
]
MALFORMED_IDS = ["no-axes", "list-header", "axis-without-name",
                 "null-points", "string-periodic", "components-disagree",
                 "nan-length", "other-format", "big-endian", "string-axis",
                 "unknown-frame"]


def _kzk_paf(tmp_path, mutate=lambda h: h):
    """A KZK-frame PAF file, its header edited by mutate."""
    path = tmp_path / "k.paf"
    write_paf(path, Field.zeros(Grid((Axis("tau", 2.0, 16),), Frame.KZK)))
    header, blob = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(mutate(json.loads(header))).encode()
                     + b"\n" + blob)
    return path


@pytest.mark.parametrize("mutate, message", MALFORMED_HEADERS,
                         ids=MALFORMED_IDS)
def test_transform_rejects_a_malformed_paf_header(tmp_path, capsys, mutate,
                                                  message):
    path = _kzk_paf(tmp_path, mutate)
    assert main(["transform", "--from", "kzk", "--to", "npe", "--input",
                 str(path), "--output", str(tmp_path / "n.paf")]) == 1
    assert f"{path}: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("mutate, message", MALFORMED_HEADERS,
                         ids=MALFORMED_IDS)
def test_transform_dry_run_reads_and_checks_its_input(tmp_path, capsys,
                                                      mutate, message):
    # every refusal of the run comes before the plan prints
    path = _kzk_paf(tmp_path, mutate)
    assert main(["transform", "--from", "kzk", "--to", "npe", "--input",
                 str(path), "--output", str(tmp_path / "n.paf"),
                 "--dry-run"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"{path}: {message}" in captured.err
    assert os.listdir(tmp_path) == ["k.paf"]


def test_transform_dry_run_applies_the_frame_refusals(tmp_path, capsys):
    path = _kzk_paf(tmp_path)
    assert main(["transform", "--from", "physical", "--to", "npe",
                 "--input", str(path), "--output", str(tmp_path / "n.paf"),
                 "--dry-run"]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "needs a snapshot in the 'physical' frame" in captured.err


@pytest.mark.parametrize("cmd", ["compare", "sweep", "residual",
                                 "transform"])
def test_dry_run_prints_one_plan_line_and_writes_nothing(tmp_path, capsys,
                                                         monkeypatch, cmd):
    if cmd == "transform":
        # the dry run reads its input, so it needs one
        src = _kzk_paf(tmp_path)
        argv = [cmd, "--from", "kzk", "--to", "npe", "--input", str(src),
                "--output", "out.paf"]
    else:
        payload = RESIDUAL if cmd == "residual" else FAILING_STUDY
        src = _write(tmp_path, "cfg.json", {"schema_version": 1, cmd: payload})
        argv = [cmd, "--config", src]
    monkeypatch.chdir(tmp_path)
    assert main(argv + ["--dry-run"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert len(out) == 1
    assert json.loads(out[0])["action"] == cmd
    assert os.listdir(tmp_path) == [os.path.basename(src)]


def test_transform_to_its_own_frame_writes_a_bit_exact_copy(tmp_path, rng):
    g = Grid((Axis("tau", 2.0, 16), Axis("y1", 1.0, 8, origin=-0.5)),
             Frame.KZK)
    src, dst = tmp_path / "k.paf", tmp_path / "copy.paf"
    write_paf(src, Field(g, rng.standard_normal(g.shape)))
    assert main(["transform", "--from", "kzk", "--to", "kzk", "--input",
                 str(src), "--output", str(dst)]) == 0
    assert dst.read_bytes() == src.read_bytes()


@pytest.mark.parametrize("cmd", ["solve", "compare", "residual",
                                 "transform"])
def test_an_output_path_that_cannot_be_made_exits_1(tmp_path, capsys,
                                                    monkeypatch, cmd):
    # the path is refused before the work: no march or remainder runs
    def no_work(*args, **kwargs):
        raise AssertionError("the work ran")

    for owner, name in ((cli, "solve_kzk"), (cli, "evaluate_remainder"),
                        (experiments, "solve_kuznetsov_rows"),
                        (experiments, "solve_westervelt_rows")):
        monkeypatch.setattr(owner, name, no_work)
    blocker = tmp_path / "file"
    blocker.write_text("")
    out = str(blocker / "out")
    if cmd == "transform":
        src = tmp_path / "k.paf"
        write_paf(src, Field.zeros(Grid((Axis("tau", 2.0, 16),), Frame.KZK)))
        argv = [cmd, "--from", "kzk", "--to", "kzk", "--input", str(src),
                "--output", out]
    else:
        # the westervelt table differentiates along t
        track = dict(RESIDUAL, grid={"axes": [
            {"name": "t", "length": 1.0, "points": 16, "periodic": False},
            {"name": "x1", "length": 2 * math.pi, "points": 16}]})
        payload = {"solve": SOLVE, "compare": FAILING_STUDY,
                   "residual": track}[cmd]
        cfg = _write(tmp_path, "cfg.json", {"schema_version": 1, cmd: payload})
        argv = [cmd, "--config", cfg, "--out", out]
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert "error:" in err and str(blocker) in err
    assert "Traceback" not in err


def test_help_and_version_exit_zero(capsys):
    assert main(["--help"]) == 0
    capsys.readouterr()
    assert main(["--version"]) == 0


def test_bad_flag_exits_one():
    assert main(["solve", "--frobnicate"]) == 1


class _ReadKeys(dict):
    """A payload that records which of its keys the program reads."""

    def __init__(self, data, seen):
        super().__init__(data)
        self.seen = seen

    def __getitem__(self, key):
        self.seen.add(key)
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.seen.add(key)
        return super().get(key, default)


def _keys_read(monkeypatch, tmp_path, runs):
    """Union of the payload keys that the given (argv, config) runs read."""
    tmp_path.mkdir(exist_ok=True)
    seen = set()
    payload = cli._payload
    monkeypatch.setattr(cli, "_payload",
                        lambda *a: _ReadKeys(payload(*a), seen))
    for i, (argv, config) in enumerate(runs):
        cfg = _write(tmp_path, f"cfg{i}.json", {"schema_version": 1, **config})
        assert main(argv + ["--config", cfg, "--out",
                            str(tmp_path / f"run{i}")]) == 0
    return seen


def test_every_config_key_has_a_reader(monkeypatch, tmp_path):
    schema = cli.load_schema()
    defs = schema["definitions"]
    assert set(schema["properties"]) == {
        "schema_version", "solve", "compare", "sweep", "residual"}
    assert (set(defs["experiment"]["properties"])
            == {f.name for f in dataclasses.fields(ExperimentConfig)})
    # the initial presets the schema admits are the ones preset_profile draws
    assert (defs["initial"]["properties"]["preset"]["enum"]
            == list(experiments.PRESETS))

    solve = {"coeff": COEFF, "span": 0.02, "step": 0.01, "samples": 2}
    line = {"axes": [{"name": "x1", "length": 2 * math.pi, "points": 16},
                     {"name": "x2", "length": 2 * math.pi, "points": 8}]}
    beam = {"frame": "kzk",
            "axes": [{"name": "tau", "length": 2 * math.pi, "points": 16},
                     {"name": "y1", "length": 2 * math.pi, "points": 8,
                      "origin": -math.pi}]}
    runs = [(["solve"], {"solve": dict(
        solve, model=model, grid=grid,
        initial={"preset": "gaussian_beam" if model == "kzk"
                 else "single_mode"})})
        for model, grid in (("kuznetsov", line), ("kzk", beam), ("ns", line))]
    assert (_keys_read(monkeypatch, tmp_path, runs)
            == set(defs["solve"]["properties"]))

    residual = {"pair": "kuznetsov-kzk", "coeff": COEFF,
                "grid": {"frame": "kzk", "axes": [
                    {"name": "tau", "length": 2 * math.pi, "points": 16},
                    {"name": "z", "length": 1.0, "points": 16,
                     "periodic": False},
                    {"name": "y1", "length": 2 * math.pi, "points": 8,
                     "origin": -math.pi}]},
                "initial": {"preset": "gaussian_beam"}}
    assert (_keys_read(monkeypatch, tmp_path / "res",
                       [(["residual"], {"residual": residual})])
            == set(defs["residual"]["properties"]))
