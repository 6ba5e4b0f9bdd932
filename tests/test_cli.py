import dataclasses
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from nlparax import (
    Axis,
    ExperimentConfig,
    Field,
    Frame,
    Grid,
    cli,
    experiments,
    read_paf,
    remainders,
    write_paf,
)
from nlparax.cli import main

COEFF = {"c": 1.0, "rho0": 1.0, "gamma": 1.4, "nu": 0.3, "eps": 0.01}


def _write(tmp_path, name, payload):
    # JSON has no infinity token; a number beyond the float range parses
    # to one, so an infinite entry is written as 1e400
    p = tmp_path / name
    p.write_text(json.dumps(payload).replace("Infinity", "1e400"))
    return str(p)


def _solve_cfg(tmp_path, **solve_extra):
    solve = {
        "model": "kzk",
        "coeff": COEFF,
        "grid": {"frame": "kzk",
                 "axes": [{"name": "tau", "length": 2 * math.pi, "points": 64},
                          {"name": "y1", "length": 2 * math.pi, "points": 16,
                           "origin": -math.pi}]},
        "initial": {"preset": "gaussian_beam"},
        "span": 0.5, "step": 0.005, "samples": 3,
    }
    solve.update(solve_extra)
    return _write(tmp_path, "solve.json",
                  {"schema_version": 1, "solve": solve})


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
    cfg.write_text(open(_solve_cfg(tmp_path)).read().replace(
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
         "horizon": 1.0}


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
    (False, "time span 1e+308 with step"),
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


@pytest.mark.parametrize("mutate, message", [
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
], ids=["no-axes", "list-header", "axis-without-name", "null-points",
        "string-periodic", "components-disagree", "nan-length"])
def test_transform_rejects_a_malformed_paf_header(tmp_path, capsys, mutate,
                                                  message):
    path = tmp_path / "k.paf"
    write_paf(path, Field.zeros(Grid((Axis("tau", 2.0, 16),), Frame.KZK)))
    header, blob = path.read_bytes().split(b"\n", 1)
    path.write_bytes(json.dumps(mutate(json.loads(header))).encode()
                     + b"\n" + blob)
    assert main(["transform", "--from", "kzk", "--to", "npe", "--input",
                 str(path), "--output", str(tmp_path / "n.paf")]) == 1
    assert f"{path}: {message}" in capsys.readouterr().err


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
    # every pair and preset the schema admits has one table entry behind it
    assert (defs["residual"]["properties"]["pair"]["enum"]
            == list(remainders.PAIRS))
    assert (defs["experiment"]["properties"]["pair"]["enum"]
            == list(experiments._STUDIES))
    for preset in (defs["initial"]["properties"]["preset"],
                   defs["experiment"]["properties"]["preset"]):
        assert preset["enum"] == list(experiments.PRESETS)

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
