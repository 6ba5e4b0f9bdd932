"""Edge values in the numeric entries of small valid inputs.

Each example takes one valid config (a solve of kuznetsov, kzk and ns, a
sweep, a compare, a residual) or a PAF header, replaces one numeric entry by a value of
a fixed edge set and runs the CLI on it.  The CLI must return an exit code
and never raise; a non-finite number (the JSON number 1e400 parses to inf)
is bad input, exit 1; and a numerical failure, exit 2, needs a file whose
numbers are all finite.

Counts are never raised above their valid value, and spans and horizons
never take a mid-size value: a large count or span tests allocation and run
time, not parsing."""

import json
import math

import pytest
from hypothesis import given, settings, strategies as st

from nlparax import Axis, Field, Frame, Grid, write_paf
from nlparax.cli import main

#: stands for the JSON number 1e400, which json.dumps cannot write
BEYOND_FLOAT = "1e400"
EDGES = (0.0, -0.0, 1e-320, 1e308, -1e308, BEYOND_FLOAT, -1, 1.5, True, "1")
COUNTS = {"points", "samples", "dim", "trans_points", "components",
          "value_count"}
SPANS = {"span", "horizon"}

COEFF = {"c": 1.0, "rho0": 1.0, "gamma": 1.4, "nu": 0.3, "eps": 0.05}
LINE = {"axes": [{"name": "x1", "length": 2 * math.pi, "points": 16,
                  "origin": 0.0}]}
BEAM = {"frame": "kzk",
        "axes": [{"name": "tau", "length": 2 * math.pi, "points": 16},
                 {"name": "y1", "length": 2 * math.pi, "points": 8,
                  "origin": -math.pi}]}
SOLVE = {"coeff": COEFF, "span": 0.02, "step": 0.01, "samples": 2}
MODE = {"preset": "single_mode", "params": {"amplitude": 0.5, "mode": 1}}
STUDY = {"name": "fuzz", "pair": "kuznetsov-westervelt", "coeff": COEFF,
         "eps_list": [0.04, 0.02], "horizon": 0.5, "horizon_over_eps": False,
         "points": 8, "dim": 1, "trans_points": 8, "samples": 4, "seed": 0,
         "delta": 0.0, "source_size": 0.0,
         "preset_params": {"amplitude": 0.5, "mode": 1}}

CONFIGS = {
    "solve-kuznetsov": {"solve": dict(SOLVE, model="kuznetsov", grid=LINE,
                                      initial=MODE)},
    "solve-kzk": {"solve": dict(SOLVE, model="kzk", grid=BEAM, initial={
        "preset": "gaussian_beam", "params": {"amplitude": 0.5}})},
    "solve-ns": {"solve": dict(SOLVE, model="ns", grid=LINE, initial=MODE)},
    "sweep": {"sweep": STUDY},
    "compare": {"compare": STUDY},
    "residual": {"residual": {
        "pair": "kuznetsov-kzk", "coeff": COEFF, "initial": {
            "preset": "gaussian_beam", "params": {"amplitude": 0.5}},
        "grid": {"frame": "kzk", "axes": [
            BEAM["axes"][0],
            {"name": "z", "length": 1.0, "points": 16, "periodic": False},
            BEAM["axes"][1]]}}},
}


def _numbers(obj, path=()):
    """(path, value) of every number in a JSON value."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        if isinstance(obj, (int, float)) and not isinstance(obj, bool):
            yield path, obj
        return
    for key, value in items:
        yield from _numbers(value, path + (key,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = dict(obj) if isinstance(obj, dict) else list(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


def _allowed(path, valid, edge) -> bool:
    if isinstance(edge, (bool, str)) and edge != BEYOND_FLOAT:
        return True
    size = math.inf if edge == BEYOND_FLOAT else edge
    if path[-1] in COUNTS:
        return size <= valid
    return not (path[-1] in SPANS and edge == 1.5)


def _dumps(obj) -> str:
    return json.dumps(obj).replace(f'"{BEYOND_FLOAT}"', BEYOND_FLOAT)


def _paf_header(tmp_path):
    path = tmp_path / "k.paf"
    write_paf(path, Field.zeros(Grid((Axis("tau", 2.0, 16),
                                      Axis("y1", 2.0, 8)), Frame.KZK)))
    header, blob = path.read_bytes().split(b"\n", 1)
    return path, json.loads(header), blob


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_edge_values_exit_with_a_code_and_never_raise(tmp_path_factory,
                                                      data):
    tmp_path = tmp_path_factory.mktemp("fuzz")
    kind = data.draw(st.sampled_from(sorted(CONFIGS) + ["paf"]))
    if kind == "paf":
        paf, doc, blob = _paf_header(tmp_path)
    else:
        doc = {"schema_version": 1, **CONFIGS[kind]}
    path, valid = data.draw(st.sampled_from(list(_numbers(doc))))
    edge = data.draw(st.sampled_from(
        [e for e in EDGES if _allowed(path, valid, e)]))
    text = _dumps(_replaced(doc, path, edge))

    if kind == "paf":
        paf.write_bytes(text.encode() + b"\n" + blob)
        argv = ["transform", "--from", "kzk", "--to", "npe", "--input",
                str(paf), "--output", str(tmp_path / "out.paf")]
    else:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(text)
        argv = [kind.partition("-")[0], "--config", str(cfg), "--out",
                str(tmp_path / "out")]
    code = main(argv)

    assert code in (0, 1, 2, 3)
    finite = all(math.isfinite(v) for _p, v in _numbers(json.loads(text)))
    if not finite:
        assert code == 1, (kind, path, edge)
    if code == 2:
        assert finite, (kind, path, edge)
