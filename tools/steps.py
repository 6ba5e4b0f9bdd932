"""Time the 1D steps of the steppers of two checkouts of nlparax.

    python tools/steps.py PARENT CHANGE

PARENT and CHANGE are the roots of two checkouts of nlparax.  Each one's
`src/nlparax` is imported under its own name (`nlparax_parent`,
`nlparax_change`), so both run in one process.  The script builds the
Kuznetsov, Westervelt, flow and NPE steppers of each side for ROWS rows
(the eps values of the `ns-kuznetsov` study) of POINTS points, with the
study's coefficients and wave step, and times STEPS steps of each from the
same start, after one warm step.  The sides take turns over ROUNDS rounds,
each going first in every other round.  It prints, per stepper and side,
the median and the quartiles of the rounds' times in microseconds per step,
and the change of the median.  It writes nothing into either tree.
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

ROUNDS = 21
STEPS = 400
POINTS = 64
EPS = (0.04, 0.02, 0.01)  # the ns-kuznetsov study's rows
SIDES = ("parent", "change")
STEPPERS = ("kuznetsov", "westervelt", "flow", "npe")


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
    """stepper -> (stepper, carried arrays it starts from) of the package
    imported as name."""
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
    return {label: (stepper, base._transform(stepper, state, stepper.sp.fft))
            for label, (stepper, state) in built.items()}


def per_step(stepper, carried) -> float:
    """Microseconds per step of STEPS steps from carried, after one."""
    carried = stepper.step(carried, 1)
    start = time.perf_counter()
    for n in range(STEPS):
        carried = stepper.step(carried, n + 2)
    return (time.perf_counter() - start) / STEPS * 1e6


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
    print(f"us/step, median [q1, q3] of {ROUNDS} rounds of {STEPS} steps, "
          f"{len(EPS)} rows x {POINTS} points")
    for label in STEPPERS:
        cells, medians = [], []
        for side in SIDES:
            q1, median, q3 = statistics.quantiles(
                times[side][label], n=4, method="inclusive")
            cells.append(f"{side} {median:6.1f} [{q1:6.1f}, {q3:6.1f}]")
            medians.append(median)
        change = medians[1] / medians[0] - 1.0
        print(f"{label:<10}  " + "  ".join(cells) + f"  {change:+.0%}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
