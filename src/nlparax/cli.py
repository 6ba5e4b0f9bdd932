"""Command-line entry point: strict JSON configs, subcommand dispatch,
reproducible run artifacts.

Subcommands: solve (one model trajectory), compare (one pair, report only),
sweep (scaling study with pass/fail verdicts), residual (per-term remainder
norms as CSV), transform (frame changes of PAF snapshot files).  Exit codes:
0 success, 1 config or input error, 2 numerical failure, 3 sweep verdict
failure.  Diagnostics go to standard error; data goes to files (and --dry-run
prints the resolved plan to standard output).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import logging
import os
import platform
import sys
from dataclasses import replace
from importlib import resources

import numpy as np

from . import __version__
from .ansatz import right_moving_velocity
from .experiments import (
    ExperimentConfig,
    config_hash,
    emit_report,
    preset_profile,
    scaling_study,
)
from .fields import Axis, Field, Frame, Grid
from .flow import FlowState, solve_flow
from .frames import transform_field
from .models.base import (
    ModelCoefficients,
    SolverError,
    StepControl,
    resolve_steps,
)
from .models.oneway import solve_kzk, solve_npe
from .models.waves import solve_kuznetsov, solve_westervelt
from .paf import read_paf, write_paf
from .remainders import evaluate_remainder, input_field

__all__ = ["main", "entry"]

log = logging.getLogger("nlparax")

SCHEMA_VERSION = 1


class ConfigError(Exception):
    """Anything wrong with flags or the configuration file."""


# ----------------------------------------------------------------------
# strict schema validation (hand-rolled; covers the subset the shipped
# schema file uses, so no third-party dependency is needed)


def load_schema() -> dict:
    text = (resources.files("nlparax") / "schema/run_config.schema.json").read_text()
    return json.loads(text)


def _resolve_ref(schema: dict, root: dict) -> dict:
    while "$ref" in schema:
        ref = schema["$ref"]
        if not ref.startswith("#/"):
            raise ConfigError(f"unsupported schema reference {ref!r}")
        node = root
        for part in ref[2:].split("/"):
            node = node[part]
        schema = node
    return schema


_TYPES = {
    "object": dict,
    "array": list,
    "string": str,
    "boolean": bool,
    "number": (int, float),
    "integer": int,
}


def validate_config(instance, schema: dict, root: dict | None = None,
                    path: str = "config") -> None:
    """Validate against the shipped schema; raises ConfigError naming the
    offending key or value."""
    root = root if root is not None else schema
    schema = _resolve_ref(schema, root)
    typ = schema.get("type")
    if typ is not None:
        py = _TYPES[typ]
        ok = isinstance(instance, py)
        if typ in ("number", "integer") and isinstance(instance, bool):
            ok = False
        if typ == "integer" and isinstance(instance, float):
            ok = float(instance).is_integer()
        if not ok:
            raise ConfigError(f"{path}: expected {typ}, got "
                              f"{type(instance).__name__}")
    if "enum" in schema and instance not in schema["enum"]:
        raise ConfigError(f"{path}: value {instance!r} not one of "
                          f"{schema['enum']}")
    if isinstance(instance, (int, float)) and not isinstance(instance, bool):
        if "minimum" in schema and instance < schema["minimum"]:
            raise ConfigError(f"{path}: {instance} below minimum "
                              f"{schema['minimum']}")
        if "maximum" in schema and instance > schema["maximum"]:
            raise ConfigError(f"{path}: {instance} above maximum "
                              f"{schema['maximum']}")
        if "exclusiveMinimum" in schema and instance <= schema["exclusiveMinimum"]:
            raise ConfigError(f"{path}: {instance} must be > "
                              f"{schema['exclusiveMinimum']}")
    if isinstance(instance, dict):
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            unknown = sorted(set(instance) - set(props))
            if unknown:
                raise ConfigError(f"{path}: unknown key {unknown[0]!r}"
                                  + (f" (and {len(unknown) - 1} more)"
                                     if len(unknown) > 1 else ""))
        for req in schema.get("required", ()):
            if req not in instance:
                raise ConfigError(f"{path}: missing required key {req!r}")
        for key, sub in props.items():
            if key in instance:
                validate_config(instance[key], sub, root, f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        for i, item in enumerate(instance):
            validate_config(item, schema["items"], root, f"{path}[{i}]")


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config {path} is not valid JSON: {exc}") from exc
    validate_config(data, load_schema())
    if data["schema_version"] != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema_version {data['schema_version']}")
    return data


# ----------------------------------------------------------------------
# shared builders


def _coeff_from(data: dict | None) -> ModelCoefficients:
    try:
        return ModelCoefficients(**(data or {}))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"coeff: {exc}") from exc


def _grid_from(data: dict) -> Grid:
    try:
        axes = tuple(Axis(**a) for a in data["axes"])
        return Grid(axes, Frame(data.get("frame", "physical")))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"grid: {exc}") from exc


def _initial_field(data: dict, grid: Grid) -> Field:
    try:
        return preset_profile(data["preset"], grid, data.get("params"))
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _manifest(out_dir: str, payload: dict, argv: list[str]) -> None:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    manifest = {
        "config_sha256": hashlib.sha256(blob).hexdigest(),
        "tool_version": __version__,
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "platform": platform.platform(),
        "argv": argv,
    }
    os.makedirs(out_dir, exist_ok=True)
    with open(os.path.join(out_dir, "manifest.json"), "w") as fh:
        json.dump(manifest, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _payload(cfg: dict, key: str, name: str, flag: str | None) -> dict:
    """A copy of the config's `key` payload whose `name` entry agrees with
    the --`name` flag: a flag and a config value must match, and one of the
    two must be given."""
    if key not in cfg:
        raise ConfigError(f"config carries no {key!r} payload")
    payload = dict(cfg[key])
    if flag is not None:
        if payload.get(name, flag) != flag:
            raise ConfigError(f"--{name} {flag} conflicts with config {name} "
                              f"{payload[name]}")
        payload[name] = flag
    if name not in payload:
        raise ConfigError(f"{name} must be given via --{name} or the config")
    return payload


def _out_dir(args, cfg: dict, default: str) -> str:
    return args.out or cfg.get("output_dir") or default


# ----------------------------------------------------------------------
# solve


def _run_solve(args, argv) -> int:
    cfg = load_config(args.config)
    payload = _payload(cfg, "solve", "model", args.model)
    model = payload["model"]
    coeff = _coeff_from(payload.get("coeff"))
    grid = _grid_from(payload["grid"])
    span = payload["span"]
    ctl = StepControl(step=payload["step"])
    # the schema admits an integral float, which range() does not
    n_samples = int(payload.get("samples", 2))
    out = _out_dir(args, cfg, f"{model}_run")

    if args.dry_run:
        print(json.dumps({"action": "solve", "model": model,
                          "grid": [a.name for a in grid.axes],
                          "span": span, "steps": resolve_steps(span, ctl)[0],
                          "samples": n_samples, "output_dir": out},
                         sort_keys=True))
        return 0

    init = _initial_field(payload["initial"], grid)
    if model in ("kuznetsov", "westervelt"):
        u1 = right_moving_velocity(coeff, init)
        solver = solve_kuznetsov if model == "kuznetsov" else solve_westervelt
        states = solver(coeff, init, u1, span, ctl, n_samples=n_samples)
        samples = [(s.evol, s.primary) for s in states]
    elif model in ("kzk", "npe"):
        solver = solve_kzk if model == "kzk" else solve_npe
        states = solver(coeff, init, span, ctl, n_samples=n_samples)
        samples = [(s.evol, s.primary) for s in states]
    elif model in ("ns", "euler"):
        if model == "euler":
            coeff = replace(coeff, nu=0.0)
        rho = Field(grid, coeff.rho0 * (1.0 + coeff.eps * init.scalar))
        vel = Field.zeros(grid, len(grid.axes))
        traj = solve_flow(coeff, FlowState(rho, Field(
            grid, vel.values, len(grid.axes))), span, ctl,
            n_samples=n_samples)
        samples = [(t, U.rho) for t, U in traj]
    else:  # pragma: no cover - argparse restricts choices
        raise ConfigError(f"unknown model {model!r}")

    os.makedirs(out, exist_ok=True)
    index = {"model": model, "evol": [], "files": []}
    for i, (t, f) in enumerate(samples):
        name = f"sample_{i:04d}.paf"
        write_paf(os.path.join(out, name), f)
        index["evol"].append(float(t))
        index["files"].append(name)
    with open(os.path.join(out, "index.json"), "w") as fh:
        json.dump(index, fh, sort_keys=True, indent=2)
        fh.write("\n")
    _manifest(out, cfg, argv)
    log.info("wrote %d samples to %s", len(samples), out)
    return 0


# ----------------------------------------------------------------------
# compare / sweep


def _experiment_from(cfg: dict, key: str, pair_flag: str | None) -> ExperimentConfig:
    payload = _payload(cfg, key, "pair", pair_flag)
    try:
        return ExperimentConfig.from_dict(payload)
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc


def _run_study(args, argv, key: str) -> int:
    cfg = load_config(args.config)
    pair_flag = getattr(args, "pair", None)
    ecfg = _experiment_from(cfg, key, pair_flag)
    out = _out_dir(args, cfg, f"{key}_{ecfg.name}")
    if args.dry_run:
        print(json.dumps({"action": key, "pair": ecfg.pair,
                          "eps_list": list(ecfg.eps_list),
                          "horizon": ecfg.horizon,
                          "config_sha256": config_hash(ecfg),
                          "output_dir": out},
                         sort_keys=True))
        return 0
    report = scaling_study(ecfg)
    emit_report(report, out)
    _manifest(out, cfg, argv)
    failed_runs = [s for s in report.series if s["status"] != "ok"]
    if len(failed_runs) == len(report.series):
        log.error("all sweep members failed")
        return 2
    if key == "sweep" and not report.passed():
        for v in report.verdicts:
            if not v["passed"]:
                log.error("verdict failed: %s (%s)", v["criterion"], v["detail"])
        return 3
    return 0


# ----------------------------------------------------------------------
# residual

def _run_residual(args, argv) -> int:
    cfg = load_config(args.config)
    payload = _payload(cfg, "residual", "pair", args.pair)
    pair = payload["pair"]
    coeff = _coeff_from(payload.get("coeff"))
    grid = _grid_from(payload["grid"])
    fname = input_field(pair)
    out = _out_dir(args, cfg, f"residual_{pair}")
    if args.dry_run:
        print(json.dumps({"action": "residual", "pair": pair,
                          "field": fname, "output_dir": out}, sort_keys=True))
        return 0
    f = _initial_field(payload["initial"], grid)
    result = evaluate_remainder(pair, coeff, {fname: f}, with_term_stats=True)
    os.makedirs(out, exist_ok=True)
    eps_base = float(coeff.eps) ** float(result.base)
    with open(os.path.join(out, "residual.csv"), "w", newline="") as fh:
        fh.write("pair,term_id,eps_power,l2_norm,linf_norm\n")
        for comp, term_id, power, l2, linf in result.term_stats:
            fh.write(f"{pair},{term_id},{power},{l2:.17g},{linf:.17g}\n")
        for comp, field in result.fields.items():
            fh.write(f"{pair},total-{comp},{result.base},"
                     f"{eps_base * field.l2_norm():.17g},"
                     f"{eps_base * field.linf_norm():.17g}\n")
    _manifest(out, cfg, argv)
    return 0


# ----------------------------------------------------------------------
# transform


def _run_transform(args, argv) -> int:
    if args.dry_run:
        print(json.dumps({"action": "transform", "from": args.src,
                          "to": args.dst, "input": args.input,
                          "output": args.output}, sort_keys=True))
        return 0
    try:
        f = read_paf(args.input)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {args.input}: {exc}") from exc
    g = transform_field(f, args.src, args.dst, args.sound_speed, args.eps)
    write_paf(args.output, g)
    return 0


# ----------------------------------------------------------------------
# entry


def _build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="nlparax")
    p.add_argument("--version", action="version", version=__version__)
    p.add_argument("--log-level", default="warning",
                   choices=["debug", "info", "warning", "error"])
    sub = p.add_subparsers(dest="cmd", required=True)

    def common(sp, pair=False):
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--dry-run", action="store_true")
        if pair:
            sp.add_argument("--pair", default=None)

    sp = sub.add_parser("solve", help="run one model trajectory")
    sp.add_argument("--model", choices=["kuznetsov", "westervelt", "kzk",
                                        "npe", "ns", "euler"])
    common(sp)

    sp = sub.add_parser("compare", help="run one pair and report errors")
    common(sp, pair=True)

    sp = sub.add_parser("sweep", help="scaling study with verdicts")
    common(sp, pair=True)

    sp = sub.add_parser("residual", help="per-term remainder norms as CSV")
    common(sp, pair=True)

    sp = sub.add_parser("transform", help="change the frame of a PAF snapshot")
    sp.add_argument("--from", dest="src", required=True,
                    choices=["physical", "kzk", "npe"])
    sp.add_argument("--to", dest="dst", required=True,
                    choices=["physical", "kzk", "npe"])
    sp.add_argument("--input", required=True)
    sp.add_argument("--output", required=True)
    sp.add_argument("--c", dest="sound_speed", type=float, default=1.0)
    sp.add_argument("--eps", type=float, default=0.01)
    sp.add_argument("--dry-run", action="store_true")
    return p


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for bad flags
        return 0 if exc.code in (0, None) else 1
    logging.basicConfig(stream=sys.stderr,
                        level=getattr(logging, args.log_level.upper()))
    try:
        if args.cmd == "solve":
            return _run_solve(args, argv)
        if args.cmd == "compare":
            return _run_study(args, argv, "compare")
        if args.cmd == "sweep":
            return _run_study(args, argv, "sweep")
        if args.cmd == "residual":
            return _run_residual(args, argv)
        if args.cmd == "transform":
            return _run_transform(args, argv)
        raise ConfigError(f"unknown subcommand {args.cmd!r}")
    except (ConfigError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


def entry() -> None:  # console-script wrapper
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
