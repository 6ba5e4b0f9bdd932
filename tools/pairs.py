"""Run alternating benchmark pairs of two checkouts and write their record.

    python tools/pairs.py PARENT CHANGE --label LABEL [--workload W ...]
        [--pairs N] [--what TEXT]

PARENT and CHANGE are the roots of two checkouts of nlparax, each a clone of
its commit.  For every workload (by default each that BENCHMARK.json lists)
and every pair index n from 0 to N - 1 (N at least 10, the fewest pairs that
can show a gain; 10 by default), each side runs

    python3 perfbench/run.py --workload W --seed n --seconds S --trace 0

from its own root, the parent first on even n and the change first on odd
n, one run at a time; S is BENCHMARK.json's `run_seconds`.  For
each workload and end-to-end metric the script prints both sides' median
and quartiles, the number of pairs in which the change reads lower, and
the verdict of the pairs (see `verdict`), and it writes them with every
run's value to `BENCH_<LABEL>.json` at the root of this checkout, in the
layout of `BENCH_pr24.json` to `BENCH_pr34.json` plus each metric's
`verdict`.  Quartiles interpolate linearly between order statistics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SIDES = ("parent", "change")
MIN_PAIRS = 10


def run_once(root: str, workload: str, seed: int, seconds: float) -> dict:
    """The result object `perfbench/run.py` prints last, run from root."""
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", f"{seconds:g}", "--trace", "0"],
        cwd=root, capture_output=True, text=True)
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        raise SystemExit(f"error: {root}: perfbench/run.py exited "
                         f"{proc.returncode} with no result line\n"
                         f"{proc.stderr[-2000:]}")


def spread(values: list[float]) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "n": len(values), "q1": q1, "q3": q3}


def verdict(parent: list[float], change: list[float]) -> str:
    """What paired runs of one metric, lower being better, show: "gain"
    when the change reads lower in at least nine tenths of the pairs, ties
    counting for neither, and its median is lower than the parent's by
    more than the parent's interquartile range; "loss" when the same holds
    with the change higher; "unresolved" otherwise."""
    need = -(-9 * len(parent) // 10)
    base = spread(parent)
    iqr = base["q3"] - base["q1"]
    gap = base["median"] - spread(change)["median"]
    if sum(c < p for p, c in zip(parent, change)) >= need and gap > iqr:
        return "gain"
    if sum(c > p for p, c in zip(parent, change)) >= need and -gap > iqr:
        return "loss"
    return "unresolved"


def run_workload(roots: dict, workload: str, pairs: int,
                 seconds: float) -> dict:
    runs: dict = {side: [] for side in SIDES}
    first = {}
    for seed in range(pairs):
        order = SIDES if seed % 2 == 0 else SIDES[::-1]
        first[str(seed)] = order[0]
        result = {}
        for side in order:
            result[side] = run_once(roots[side], workload, seed, seconds)
        for side in SIDES:
            runs[side].append(result[side])
        print(f"{workload} seed {seed}: " + "  ".join(
            f"{side} " + " ".join(
                f"{k}={v['value']:.4g}"
                for k, v in result[side]["metrics"].items())
            for side in SIDES), file=sys.stderr, flush=True)

    table = {}
    for metric in runs["parent"][0]["metrics"]:
        values = {side: [r["metrics"][metric]["value"] for r in runs[side]]
                  for side in SIDES}
        table[metric] = {
            "change": spread(values["change"]),
            "change_lower": sum(c < p for p, c in zip(values["parent"],
                                                      values["change"])),
            "change_runs": values["change"],
            "parent": spread(values["parent"]),
            "parent_runs": values["parent"],
            "verdict": verdict(values["parent"], values["change"]),
        }
    correct = all(r["correct"] and r["failed"] == 0
                  for side in SIDES for r in runs[side])
    return {"all_correct": correct, "first": first, "pairs": table}


def commit(root: str) -> str | None:
    proc = subprocess.run(["git", "-C", root, "rev-parse", "HEAD"],
                          capture_output=True, text=True)
    return proc.stdout.strip() or None


def machine() -> dict:
    import numpy

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    pages = os.sysconf("SC_PHYS_PAGES") * os.sysconf("SC_PAGE_SIZE")
    return {"cpu": cpu, "mem_total_mb": pages // 2**20,
            "nproc": len(os.sched_getaffinity(0)), "numpy": numpy.__version__,
            "platform": platform.platform(),
            "python": platform.python_version()}


def main(argv: list[str] | None = None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    workloads = [w["name"] for w in bench["workloads"]]
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("parent")
    p.add_argument("change")
    p.add_argument("--label", required=True)
    p.add_argument("--workload", action="append", choices=workloads)
    p.add_argument("--pairs", type=int, default=MIN_PAIRS)
    p.add_argument("--what", default="")
    args = p.parse_args(argv)
    if args.pairs < MIN_PAIRS:
        p.error(f"--pairs must be at least {MIN_PAIRS}")
    seconds = bench["run_seconds"]
    roots = {"parent": os.path.abspath(args.parent),
             "change": os.path.abspath(args.change)}

    record = {
        "command": ("python3 perfbench/run.py --workload W --seed N "
                    f"--seconds {seconds:g} --trace 0"),
        "commits": {side: commit(roots[side]) for side in SIDES},
        "label": args.label,
        "machine": machine(),
        "what": args.what,
        "workloads": {},
    }
    for workload in args.workload or workloads:
        result = run_workload(roots, workload, args.pairs, seconds)
        record["workloads"][workload] = result
        for metric, row in result["pairs"].items():
            print(f"{workload} {metric}: " + "  ".join(
                f"{side} {row[side]['median']:.4g} "
                f"[{row[side]['q1']:.4g}, {row[side]['q3']:.4g}]"
                for side in SIDES)
                + f"  change lower in {row['change_lower']} of {args.pairs}"
                + f"  {row['verdict']}")
        print(f"{workload} all correct: {result['all_correct']}")

    path = os.path.join(ROOT, f"BENCH_{args.label}.json")
    with open(path, "w") as fh:
        json.dump(record, fh, indent=1, sort_keys=True)
        fh.write("\n")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
