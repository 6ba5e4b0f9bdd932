"""Time the steps of the steppers of two checkouts of nlparax.

    python tools/steps.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of nlparax.  Each one's
`src/nlparax` is imported under its own name (`nlparax_parent`,
`nlparax_change`), so both run in one process.  The script builds the
Kuznetsov, Westervelt, flow and NPE steppers of each side for the rows EPS
(the eps values of the `ns-kuznetsov` study) on a line of POINTS points,
with the study's coefficients and wave step.  It builds the 2D steppers of
GRIDS_2D with the same coefficients: the forced KZK stepper on the
benchmark's beam grids, for one row, EPS[-1], and for the rows EPS as the
`kuznetsov-kzk` study marches its forced beams, and the Kuznetsov and flow
steppers on its 128 x 128 grid for one row.  It times STEPS steps of each
(STEPS_128 at 128 x 128) from the same start, after one warm step.  The
sides take turns over ROUNDS rounds, each going first in every other
round.  It prints, per stepper and side, the median and the quartiles of
the rounds' times in microseconds per step, the change of the median, and
the verdict of `tools/pairs.py` on the rounds as pairs.  It writes nothing
into either tree.
"""

from __future__ import annotations

import importlib
import importlib.util
import math
import os
import statistics
import sys
import time

sys.dont_write_bytecode = True  # leave the checkouts' trees as they are

import numpy as np  # noqa: E402

from pairs import verdict  # noqa: E402

ROUNDS = 21
STEPS = 400
STEPS_128 = 40  # a 128 x 128 step costs 2-4 ms
POINTS = 64
EPS = (0.04, 0.02, 0.01)  # the ns-kuznetsov study's rows
SIDES = ("parent", "change")
#: label -> (model, axis points, steps a round times, rows) of the 2D
#: steppers
GRIDS_2D = {"kzk 64x16": ("kzk", (64, 16), STEPS, 1),
            "kzk 64x32": ("kzk", (64, 32), STEPS, 1),
            "kzk 64x16 3 rows": ("kzk", (64, 16), STEPS, 3),
            "kzk 64x32 3 rows": ("kzk", (64, 32), STEPS, 3),
            "kuznetsov 128x128": ("kuznetsov", (128, 128), STEPS_128, 1),
            "flow 128x128": ("flow", (128, 128), STEPS_128, 1)}
STEPPERS = ("kuznetsov", "westervelt", "flow", "npe", *GRIDS_2D)


def load(root: str, name: str):
    """The package under root/src/nlparax, imported as `name`."""
    path = os.path.join(os.path.abspath(root), "src", "nlparax")
    spec = importlib.util.spec_from_file_location(
        name, os.path.join(path, "__init__.py"),
        submodule_search_locations=[path])
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def steppers(name: str) -> dict:
    """label -> (stepper, carried arrays it starts from, steps to time) of
    the package imported as name."""
    pkg = sys.modules[name]
    base = importlib.import_module(f"{name}.models.base")
    waves = importlib.import_module(f"{name}.models.waves")
    oneway = importlib.import_module(f"{name}.models.oneway")
    flow = importlib.import_module(f"{name}.flow")
    spectral = importlib.import_module(f"{name}.spectral")
    # the ns-kuznetsov study's coefficients and its wave step, 0.5 / k_max
    coeff = pkg.ModelCoefficients(c=1.0, rho0=1.0, gamma=1.4, nu=1.0,
                                  eps=EPS[-1])
    dt = [0.5 / (math.pi * POINTS / (2.0 * math.pi))] * len(EPS)
    line = pkg.Grid((pkg.Axis("x1", 2.0 * math.pi, POINTS),))
    npe_line = pkg.Grid((pkg.Axis("z", 2.0 * math.pi, POINTS),),
                        pkg.Frame.NPE)
    x = line.mesh()[0]
    profile = np.stack([0.5 * np.sin(x)] * len(EPS))
    sp, sp_npe = spectral.Spectral(line), spectral.Spectral(npe_line)
    a_nl, d_visc, d_diff, src_scale = oneway._MODELS[
        pkg.ModelKind.NPE][1](coeff, EPS)
    built = {
        "kuznetsov": (waves._WaveStepper(sp, coeff, EPS, dt, coeff.alpha,
                                         2.0), (profile, -np.roll(profile, 16,
                                                                  axis=-1))),
        "westervelt": (waves._WaveStepper(
            sp, coeff, EPS, dt, (coeff.gamma + 1.0) / coeff.c**2, 0.0),
            (profile, -np.roll(profile, 16, axis=-1))),
        "flow": (flow._FlowStepper(sp, coeff, EPS, dt),
                 (1.0 + 0.01 * profile, 0.01 * profile[None])),
        "npe": (oneway._OneWayStepper(sp_npe, "z", a_nl, d_visc, d_diff, dt,
                                      src_scale, None), (profile,)),
    }
    steps = dict.fromkeys(built, STEPS)
    for label, (kind, (n1, n2), count, rows) in GRIDS_2D.items():
        steps[label] = count
        row, step = EPS[-rows:], [0.005] * rows  # at grid-2d's step
        if kind == "kzk":  # the grids of the kuznetsov-kzk sweep
            grid = pkg.Grid((pkg.Axis("tau", 2.0 * math.pi, n1),
                             pkg.Axis("y1", 2.0 * math.pi, n2,
                                      origin=-math.pi)), pkg.Frame.KZK)
        else:
            grid = pkg.Grid((pkg.Axis("x1", 2.0 * math.pi, n1),
                             pkg.Axis("x2", 2.0 * math.pi, n2)))
        sp2, (a, b) = spectral.Spectral(grid), grid.mesh()
        mode = np.stack([0.5 * np.sin(a + 2.0 * b)] * rows)  # mean-zero in a
        if kind == "kzk":  # forced, as the sweep's members are
            a_nl, d_visc, d_diff, src_scale = oneway._MODELS[
                pkg.ModelKind.KZK][1](coeff, row)
            built[label] = (oneway._OneWayStepper(
                sp2, "tau", a_nl, d_visc, d_diff, step, src_scale,
                sp2.fft(np.cos(a) * np.cos(b))), (mode,))
        elif kind == "kuznetsov":
            built[label] = (waves._WaveStepper(sp2, coeff, row, step,
                                               coeff.alpha, 2.0),
                            (mode, -np.roll(mode, 16, axis=-1)))
        else:
            built[label] = (flow._FlowStepper(sp2, coeff, row, step),
                            (1.0 + 0.01 * mode, 0.01 * np.stack([mode] * 2)))
    return {label: (stepper, base._transform(stepper, state, stepper.sp.fft),
                    steps[label])
            for label, (stepper, state) in built.items()}


def per_step(stepper, carried, steps: int) -> float:
    """Microseconds per step of that many steps from carried, after one."""
    carried = stepper.step(carried, 1)
    start = time.perf_counter()
    for n in range(steps):
        carried = stepper.step(carried, n + 2)
    return (time.perf_counter() - start) / steps * 1e6


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    built = {}
    for side, root in zip(SIDES, argv):
        load(root, f"nlparax_{side}")
        built[side] = steppers(f"nlparax_{side}")
    times = {side: {label: [] for label in STEPPERS} for side in SIDES}
    for r in range(ROUNDS):
        for side in SIDES if r % 2 == 0 else SIDES[::-1]:
            for label in STEPPERS:
                times[side][label].append(per_step(*built[side][label]))
    print(f"us/step, median [q1, q3] of {ROUNDS} rounds of {STEPS} steps "
          f"({STEPS_128} at 128x128); 1D: {len(EPS)} rows x {POINTS} points, "
          "2D: 1 row unless named; the verdict of the rounds as pairs")
    for label in STEPPERS:
        cells, medians = [], []
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(
                times[side][label], n=4, method="inclusive")
            cells.append(f"{side} {median:6.1f} [{q1:6.1f}, {q3:6.1f}]")
            medians.append(median)
        change = medians[1] / medians[0] - 1.0
        print(f"{label:<17}  " + "  ".join(cells) + f"  {change:+.0%}  "
              + verdict(times["parent"][label], times["change"][label]))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
