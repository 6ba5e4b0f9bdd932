"""The benchmark tracer (`perfbench/spans.py`) wraps functions by module
and attribute name and reads solver arguments by name; a rename in the
program breaks `--trace 1` without failing any other test.  The benchmark's
workloads (`perfbench/workloads.py`) restate the acceptance configs."""

import importlib
import importlib.util
import inspect
from pathlib import Path

import pytest

from nlparax import ExperimentConfig, ModelCoefficients, cli, experiments
from nlparax.models.base import StepControl, resolve_steps

from test_acceptance import NS_KUZ_CFG, PAIRWISE_CFG
from test_experiments import _in_process


def _load_perfbench(name: str):
    path = Path(__file__).resolve().parents[1] / "perfbench" / f"{name}.py"
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


spans = _load_perfbench("spans")
workloads = _load_perfbench("workloads")


def _target(mod_name: str, attr: str):
    return getattr(importlib.import_module(mod_name), attr, None)


def test_every_span_target_resolves_to_a_callable():
    for mod_name, attr, _layer in spans.SPANS:
        assert callable(_target(mod_name, attr)), f"{mod_name}.{attr}"


def test_solvers_bind_their_span_argument_and_ctl():
    ctl = StepControl(step=0.1)
    solvers = [(m, a) for m, a, _layer in spans.SPANS if a in spans.SOLVERS]
    assert {a for _m, a in solvers} == set(spans.SOLVERS)
    for mod_name, attr in solvers:
        span_arg = spans.SOLVERS[attr]
        bound = inspect.signature(_target(mod_name, attr)).bind_partial(
            **{span_arg: 1.0, "ctl": ctl})
        assert bound.arguments == {span_arg: 1.0, "ctl": ctl}


@pytest.mark.parametrize("span, step, substeps", [
    (1.0, 0.1, 1), (1.0, 0.3, 1), (2.5, 0.01, 3), (0.04, 0.5, 2),
    (10.0, 1.0 / 3.0, 1)])
def test_tracer_counts_the_steps_the_solvers_take(span, step, substeps):
    ctl = StepControl(step=step, substeps=substeps)
    assert spans._steps(span, ctl) == resolve_steps(span, ctl)[0]


def test_no_study_repeats_a_march(monkeypatch):
    # the kuznetsov-kzk study marches its eps-independent clean beam once,
    # not per member, and each member's forced beam once, as rows of the
    # solve_kzk_rows calls recorded here.  The tracer's
    # experiments.duplicate_march_frac hashes the marches of the one-member
    # solvers alone, which no study calls, so it has none to count.  All
    # run here: the recorder does not see a forked child's rows.
    monkeypatch.setattr(experiments, "_split", _in_process)
    solve, marched = experiments.solve_kzk_rows, []

    def recorded(rows, source=None):
        marched.extend((row[0].eps, source is not None) for row in rows)
        return solve(rows, source)

    monkeypatch.setattr(experiments, "solve_kzk_rows", recorded)
    cfg = ExperimentConfig(
        name="envelope", pair="kuznetsov-kzk",
        coeff=ModelCoefficients(nu=0.3), eps_list=(0.04, 0.02, 0.01),
        horizon=0.5, horizon_over_eps=False, points=32, dim=2,
        trans_points=8, preset="gaussian_beam", samples=4, seed=7,
        source_size=0.5)
    cli.scaling_study(cfg)
    # one clean row (at the config's eps, which it does not read) and one
    # forced row per member
    assert marched == [(cfg.coeff.eps, False), (0.04, True), (0.02, True),
                       (0.01, True)]


@pytest.mark.parametrize("pair, config", [
    ("ns-kuznetsov", NS_KUZ_CFG),
    ("kuznetsov-westervelt", dict(PAIRWISE_CFG, pair="kuznetsov-westervelt")),
    ("kuznetsov-npe", dict(PAIRWISE_CFG, pair="kuznetsov-npe"))])
def test_sweep_1d_runs_the_acceptance_configs(pair, config):
    assert (ExperimentConfig.from_dict(workloads.SWEEP_1D[pair])
            == ExperimentConfig(**config))
