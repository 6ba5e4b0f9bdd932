"""Measure the baseline of the benchmark and check that traced counts repeat.

    python3 perfbench/baseline.py [--runs 10] [--out perfbench/baseline.json]

Runs every workload `--runs` times untraced, each with another seed, and twice
traced, then writes the median, quartiles and sample count of each metric on
each workload, with the machine it ran on.  Exits 1 when a run fails or when
the two traced runs of a workload disagree on an exact count.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run
import workloads

with open(os.path.join(run.ROOT, "BENCHMARK.json")) as _fh:
    BENCH = json.load(_fh)

#: counts that are exact: two traced runs of the same workload must agree
EXACT = (".steps", ".fft_per_step", "spectral.fft_calls",
         "remainders.fft_calls", "experiments.duplicate_march_frac")

#: layer -> the end-to-end figure each layer should move, and where
LAYER_MAP = {
    "models.waves": "sweep.ns-kuznetsov_s and sweep.kuznetsov-westervelt_s "
                    "on sweep-1d; solve_s on grid-2d; nothing elsewhere",
    "flow": "sweep.ns-kuznetsov_s on sweep-1d; solve_s on grid-2d",
    "models.oneway": "sweep.kuznetsov-kzk_s and solve_s on beam-2d; "
                     "sweep.kuznetsov-npe_s on sweep-1d (1D, no diffraction)",
    "ansatz": "sweep.ns-kuznetsov_s; below 0.1% of it at the seed commit",
    "experiments": "sweep.* on sweep-1d and beam-2d",
    "remainders": "residual_s on residual-3d",
    "paf": "solve_s and transform_s on beam-2d and grid-2d",
    "cli": "transform_s; wall_s everywhere",
    "frames": "setup_s on every workload (import of scipy.interpolate)",
    "import": "setup_s on every workload",
    "spectral": "wall_s on every workload; fft_share tells call-bound runs "
                "from FFT-bound ones",
    "trace": "none",
}


def one_run(name: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, os.path.join(run.HERE, "run.py"),
           "--workload", name, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=run.ROOT, stdout=subprocess.PIPE,
                          timeout=600)
    result = json.loads(proc.stdout.decode().splitlines()[-1])
    if proc.returncode != 0 or not result["correct"]:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stdout.decode()}")
    return {k: v["value"] for k, v in result["metrics"].items()}


def stats(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return {"median": med, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / med if med else 0.0}


def machine() -> dict:
    import numpy
    import scipy

    return {"nproc": len(os.sched_getaffinity(0)),
            "cpu_count": os.cpu_count(),
            "threads": len(os.sched_getaffinity(0)),
            "python": platform.python_version(),
            "numpy": numpy.__version__, "scipy": scipy.__version__,
            "platform": platform.platform()}


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--out", default=os.path.join(run.HERE, "baseline.json"))
    args = p.parse_args()

    out = {"machine": machine(), "run_seconds": BENCH["run_seconds"],
           "seeds": f"1..{args.runs}; a seed selects input variant seed "
                    "modulo the workload's variant count",
           "variants": workloads.VARIANTS, "layer_map": LAYER_MAP,
           "workloads": {}}
    status = 0
    for w in BENCH["workloads"]:
        name = w["name"]
        runs = [one_run(name, seed, 0) for seed in range(1, args.runs + 1)]
        traced = [one_run(name, seed, 1) for seed in (1, 2)]
        moved = [k for k in traced[0] if k.endswith(EXACT)
                 and traced[0][k] != traced[1][k]]
        if moved:
            print(f"{name}: counts differ between traced runs: {moved}")
            status = 1
        out["workloads"][name] = {
            "why": w["why"],
            "end_to_end": {m["name"]: stats([r[m["name"]] for r in runs])
                           for m in BENCH["end_to_end"]},
            "per_layer": {k: stats([t[k] for t in traced])
                          for k in traced[0]},
        }
        for m, s in out["workloads"][name]["end_to_end"].items():
            print(f"{name} {m} median {s['median']:.6g} "
                  f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.3f}")
    with open(args.out, "w") as fh:
        json.dump(out, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return status


if __name__ == "__main__":
    sys.exit(main())
