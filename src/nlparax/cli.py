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
import json
import logging
import os
import sys
from importlib import resources

from . import __version__
from .ansatz import right_moving_velocity
from .experiments import (
    ExperimentConfig,
    _coeff_from,
    _digest,
    _runtime,
    _write_json,
    config_hash,
    emit_report,
    preset_profile,
    scaling_study,
)
from .fields import Axis, Field, Frame, Grid, refuse_json_constant
from .flow import FlowState, solve_flow
from .frames import transform_field
from .models.base import (
    SolverError,
    StepControl,
    resolve_steps,
)
from .models.oneway import solve_kzk, solve_npe
from .models.waves import solve_kuznetsov, solve_westervelt
from .paf import read_paf, write_paf
from .remainders import evaluate_remainder, input_field

__all__ = ["main"]

log = logging.getLogger("nlparax")


# ----------------------------------------------------------------------
# strict schema validation (hand-rolled; covers the subset the shipped
# schema file uses, so no third-party dependency is needed)


def load_schema() -> dict:
    text = (resources.files("nlparax") / "schema/run_config.schema.json").read_text()
    return json.loads(text)


def _resolve_ref(schema: dict, root: dict) -> dict:
    while "$ref" in schema:
        node = root
        for part in schema["$ref"][2:].split("/"):
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
                    path: str = "config"):
    """Validate against the shipped schema and return the instance with
    every value the schema types `integer` as an int (JSON Schema counts
    16.0 as an integer); raises ValueError naming the offending key or
    value."""
    root = root if root is not None else schema
    schema = _resolve_ref(schema, root)
    typ = schema.get("type")
    if typ is not None:
        py = _TYPES[typ]
        ok = isinstance(instance, py)
        if typ in ("number", "integer") and isinstance(instance, bool):
            ok = False
        if typ == "integer" and isinstance(instance, float):
            ok = instance.is_integer()
        if not ok:
            raise ValueError(f"{path}: expected {typ}, got "
                             f"{type(instance).__name__}")
        if typ == "integer":
            instance = int(instance)
    if "enum" in schema and instance not in schema["enum"]:
        raise ValueError(f"{path}: value {instance!r} not one of "
                         f"{schema['enum']}")
    if "minimum" in schema and instance < schema["minimum"]:
        raise ValueError(f"{path}: {instance} below minimum "
                         f"{schema['minimum']}")
    if isinstance(instance, dict):
        props = schema.get("properties", {})
        if schema.get("additionalProperties") is False:
            unknown = sorted(set(instance) - set(props))
            if unknown:
                raise ValueError(f"{path}: unknown key {unknown[0]!r}"
                                 + (f" (and {len(unknown) - 1} more)"
                                    if len(unknown) > 1 else ""))
        for req in schema.get("required", ()):
            if req not in instance:
                raise ValueError(f"{path}: missing required key {req!r}")
        instance = dict(instance)
        for key, sub in props.items():
            if key in instance:
                instance[key] = validate_config(instance[key], sub, root,
                                                f"{path}.{key}")
    if isinstance(instance, list) and "items" in schema:
        instance = [validate_config(item, schema["items"], root,
                                    f"{path}[{i}]")
                    for i, item in enumerate(instance)]
    return instance


def load_config(path: str) -> dict:
    try:
        with open(path) as fh:
            data = json.load(fh, parse_constant=refuse_json_constant)
    except OSError as exc:
        raise ValueError(f"cannot read config {path}: {exc}") from exc
    except ValueError as exc:
        raise ValueError(f"config {path} is not valid JSON: {exc}") from exc
    return validate_config(data, load_schema())


# ----------------------------------------------------------------------
# shared builders


def _grid_from(data: dict) -> Grid:
    try:
        axes = tuple(Axis(**a) for a in data["axes"])
        return Grid(axes, Frame(data.get("frame", "physical")))
    except (TypeError, ValueError) as exc:
        raise ValueError(f"grid: {exc}") from exc


def _manifest(out_dir: str, payload: dict, argv: list[str]) -> None:
    _write_json(os.path.join(out_dir, "manifest.json"),
                dict(_runtime(), config_sha256=_digest(payload),
                     tool_version=__version__, argv=argv))


def _out_dir(args, default: str) -> str:
    """`--out`, or `default`, refused before any work when its nearest
    existing ancestor is not a directory; creates nothing."""
    out = args.out or default
    probe = os.path.abspath(out)
    while not os.path.exists(probe):
        probe = os.path.dirname(probe)
    if not os.path.isdir(probe):
        raise ValueError(f"cannot create {out}: {probe} is not a directory")
    return out


def _payload(cfg: dict, key: str) -> dict:
    """A copy of the config's `key` payload."""
    if key not in cfg:
        raise ValueError(f"config carries no {key!r} payload")
    return dict(cfg[key])


# ----------------------------------------------------------------------
# solve


def _run_solve(args, argv) -> int:
    cfg = load_config(args.config)
    payload = _payload(cfg, "solve")
    model = payload["model"]
    coeff = _coeff_from(payload.get("coeff"))
    grid = _grid_from(payload["grid"])
    span = payload["span"]
    ctl = StepControl(step=payload["step"])
    n_samples = payload.get("samples", 2)
    out = _out_dir(args, f"{model}_run")

    if args.dry_run:
        print(json.dumps({"action": "solve", "model": model,
                          "grid": [a.name for a in grid.axes],
                          "span": span, "steps": resolve_steps(span, ctl)[0],
                          "samples": n_samples, "out": out},
                         sort_keys=True))
        return 0

    init = preset_profile(payload["initial"]["preset"], grid,
                          payload["initial"].get("params"))
    if model == "ns":
        rho = Field(grid, coeff.rho0 * (1.0 + coeff.eps * init.scalar))
        state = FlowState(rho, Field.zeros(grid, len(grid.axes)))
        traj = solve_flow(coeff, state, span, ctl, n_samples=n_samples)
        samples = [(t, U.rho) for t, U in traj]
    else:
        if model == "kuznetsov":
            states = solve_kuznetsov(coeff, init,
                                     right_moving_velocity(coeff, init),
                                     span, ctl, n_samples=n_samples)
        elif model == "westervelt":
            states = solve_westervelt(coeff, init,
                                      right_moving_velocity(coeff, init),
                                      span, ctl, n_samples=n_samples)
        elif model == "kzk":
            states = solve_kzk(coeff, init, span, ctl, n_samples=n_samples)
        else:
            states = solve_npe(coeff, init, span, ctl, n_samples=n_samples)
        samples = [(s.evol, s.primary) for s in states]

    os.makedirs(out, exist_ok=True)
    index = {"model": model, "evol": [], "files": []}
    for i, (t, f) in enumerate(samples):
        name = f"sample_{i:04d}.paf"
        write_paf(os.path.join(out, name), f)
        index["evol"].append(float(t))
        index["files"].append(name)
    _write_json(os.path.join(out, "index.json"), index)
    _manifest(out, cfg, argv)
    log.info("wrote %d samples to %s", len(samples), out)
    return 0


# ----------------------------------------------------------------------
# compare / sweep


def _run_study(args, argv, key: str) -> int:
    cfg = load_config(args.config)
    ecfg = ExperimentConfig.from_dict(_payload(cfg, key))
    out = _out_dir(args, f"{key}_{ecfg.name}")
    if args.dry_run:
        print(json.dumps({"action": key, "pair": ecfg.pair,
                          "eps_list": list(ecfg.eps_list),
                          "horizon": ecfg.horizon,
                          "config_sha256": config_hash(ecfg),
                          "out": out},
                         sort_keys=True))
        return 0
    report = scaling_study(ecfg)
    emit_report(report, out)
    _manifest(out, cfg, argv)
    if all(s["status"] != "ok" for s in report.series):
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
    payload = _payload(cfg, "residual")
    pair = payload["pair"]
    coeff = _coeff_from(payload.get("coeff"))
    grid = _grid_from(payload["grid"])
    fname = input_field(pair)
    out = _out_dir(args, f"residual_{pair}")
    if args.dry_run:
        print(json.dumps({"action": "residual", "pair": pair,
                          "field": fname, "out": out}, sort_keys=True))
        return 0
    f = preset_profile(payload["initial"]["preset"], grid,
                       payload["initial"].get("params"))
    result = evaluate_remainder(pair, coeff, {fname: f})
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
    # the input is read and transformed before the plan prints, so that a
    # dry run refuses what the run refuses
    try:
        f = read_paf(args.input)
    except (OSError, ValueError) as exc:
        raise ValueError(f"cannot read {args.input}: {exc}") from exc
    g = transform_field(f, args.src, args.dst, args.sound_speed, args.eps)
    if args.dry_run:
        print(json.dumps({"action": "transform", "from": args.src,
                          "to": args.dst, "input": args.input,
                          "output": args.output}, sort_keys=True))
        return 0
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

    for cmd, text in (("solve", "run one model trajectory"),
                      ("compare", "run one pair and report errors"),
                      ("sweep", "scaling study with verdicts"),
                      ("residual", "per-term remainder norms as CSV")):
        sp = sub.add_parser(cmd, help=text)
        sp.add_argument("--config", required=True)
        sp.add_argument("--out", default=None)
        sp.add_argument("--dry-run", action="store_true")

    sp = sub.add_parser("transform", help="change the frame of a PAF snapshot")
    frames = [f.value for f in Frame]
    sp.add_argument("--from", dest="src", required=True, choices=frames)
    sp.add_argument("--to", dest="dst", required=True, choices=frames)
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
        if args.cmd in ("compare", "sweep"):
            return _run_study(args, argv, args.cmd)
        if args.cmd == "residual":
            return _run_residual(args, argv)
        return _run_transform(args, argv)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except (SolverError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
