"""nlparax benchmark: closed-loop CLI workloads with correctness checks.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the package is imported from `src`.
One client runs `nlparax.cli.main` calls in sequence in this process, pass
after pass, until another pass would overrun `--seconds` (at least one pass
runs).  `THREADS` is set to the number of usable cores, as the CLI default.
Every pass is checked: each CLI call must exit 0, each sweep member must
succeed, the checked values must match `references.json` and the transform
round trips must be bit-exact.

With `--trace 0` the last line of standard output is a JSON object with the
end-to-end metrics: `wall_s` (median time of one pass), `setup_s` (median over
fresh processes of the time from process start to the first CLI call) and
`peak_rss_mb`.  The lines before it list every per-operation time as
`name value unit`.  With `--trace 1` half the time runs untraced passes and
half runs passes under `spans.Tracer`; the JSON object then holds the
per-layer metrics, per pass.  The exit code is 1 when any check failed.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(ROOT, "perfbench_out")
REFERENCES = os.path.join(HERE, "references.json")

SETUP_PROBES = 3
# Checked values may move by rounding (a reordered FFT sum), not more: the
# verdict margins they feed are 10% or wider.
RTOL = 1e-6
SCALE_TOL = 1e-10

#: per-operation times: name -> the call group it sums
GROUP_TIMES = {
    "sweep.ns-kuznetsov_s": "sweep.ns-kuznetsov",
    "sweep.kuznetsov-westervelt_s": "sweep.kuznetsov-westervelt",
    "sweep.kuznetsov-npe_s": "sweep.kuznetsov-npe",
    "sweep.kuznetsov-kzk_s": "sweep.kuznetsov-kzk",
    "solve_s": "solve",
    "residual_s": "residual",
    "transform_s": "transform",
}


def _src_on_path() -> None:
    sys.path.insert(0, os.path.join(ROOT, "src"))


class Ledger:
    """Runs the CLI calls of a workload, times them by group and counts
    attempted and failed operations and checks."""

    def __init__(self, references: dict | None):
        from nlparax import cli

        self.cli = cli
        self.references = references
        self.attempted = self.failed = 0
        self.failures: list[str] = []
        self.groups: dict[str, float] = {}
        self.values: dict[str, tuple[float, float]] = {}

    def _count(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)

    def call(self, group: str, argv: list[str]) -> int:
        t0 = time.perf_counter()
        code = self.cli.main(argv)
        self.groups[group] = (self.groups.get(group, 0.0)
                              + time.perf_counter() - t0)
        self._count(code == 0, f"exit {code}: nlparax {' '.join(argv)}")
        return code

    def member(self, name: str, ok: bool) -> None:
        self._count(ok, f"sweep member failed: {name}")

    def exact(self, name: str, ok: bool) -> None:
        self._count(ok, f"not bit-exact: {name}")

    def value(self, name: str, value: float, scale: float) -> None:
        self.values[name] = (value, abs(scale))

    def start_pass(self) -> None:
        self.groups, self.values = {}, {}

    def check_values(self) -> None:
        """Compare the values of the pass with the references."""
        refs = self.references or {}
        for name in sorted(set(refs) | set(self.values)):
            if name not in refs or name not in self.values:
                self._count(False, f"{name}: observed or reference missing")
                continue
            got = self.values[name][0]
            ref, scale = refs[name]
            ok = abs(got - ref) <= RTOL * abs(ref) + SCALE_TOL * scale
            self._count(ok, f"{name}: {got!r} vs reference {ref!r}")


def run_passes(plan: dict, work: str, ledger: Ledger, budget_s: float):
    """Passes until another would overrun the budget; returns the wall time
    and the per-group times of each pass."""
    import workloads

    walls, groups = [], []
    start = time.perf_counter()
    while True:
        pass_dir = os.path.join(work, "pass")
        shutil.rmtree(pass_dir, ignore_errors=True)
        ledger.start_pass()
        t0 = time.perf_counter()
        workloads.run_pass(plan, pass_dir, ledger)
        walls.append(time.perf_counter() - t0)
        groups.append(ledger.groups)
        ledger.check_values()
        if time.perf_counter() - start + statistics.median(walls) > budget_s:
            return walls, groups


def measure_setup(args, work: str) -> list[float]:
    """Time from process start to the first CLI call, in fresh processes."""
    out = []
    for i in range(SETUP_PROBES):
        t0 = time.time()
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--setup-probe",
             "--workload", args.workload, "--seed", str(args.seed),
             "--out", os.path.join(work, f"probe{i}")],
            stdout=subprocess.PIPE, check=True, timeout=120)
        out.append(float(proc.stdout.decode().split()[-1]) - t0)
    return out


def setup_probe(args) -> None:
    """Everything a run does before its first CLI call, then the time."""
    _src_on_path()
    import nlparax.cli  # noqa: F401
    import workloads

    workloads.write_configs(args.workload,
                            workloads.variant_of(args.workload, args.seed),
                            os.path.join(args.out, "cfg"))
    print(repr(time.time()))


def import_times() -> dict[str, float]:
    """Import of nlparax.cli in a fresh process, split with -X importtime:
    self time summed per top-level package, and the cumulative time of
    nlparax.frames, whose import pulls in scipy.interpolate."""
    code = (f"import sys; sys.path.insert(0, {os.path.join(ROOT, 'src')!r}); "
            "import nlparax.cli")
    proc = subprocess.run([sys.executable, "-X", "importtime", "-c", code],
                          stderr=subprocess.PIPE, check=True, timeout=120)
    per_pkg = {"numpy": 0.0, "scipy": 0.0, "nlparax": 0.0, "other": 0.0}
    frames = 0.0
    for line in proc.stderr.decode().splitlines():
        parts = line.removeprefix("import time:").split("|")
        if len(parts) != 3 or not parts[0].strip().isdigit():
            continue
        self_us, cum_us, name = int(parts[0]), int(parts[1]), parts[2].strip()
        top = name.split(".")[0]
        per_pkg[top if top in per_pkg else "other"] += self_us * 1e-6
        if name == "nlparax.frames":
            frames = cum_us * 1e-6
    out = {f"import.{k}_s": v for k, v in per_pkg.items()}
    out["import.total_s"] = sum(per_pkg.values())
    out["frames.import_s"] = frames
    return out


def group_medians(groups: list[dict]) -> dict[str, float]:
    return {name: statistics.median(g.get(group, 0.0) for g in groups)
            for name, group in GROUP_TIMES.items()}


def unit_of(metric: str) -> str:
    """Unit of a per-layer metric, from its name."""
    for suffix, unit in (("ms_per_step", "ms/step"), ("ms_per_term", "ms/term"),
                         ("fft_per_step", "count/step"), ("_frac", "ratio"),
                         ("fft_share", "ratio"), ("_s", "s"), (".s", "s")):
        if metric.endswith(suffix):
            return unit
    return "bytes" if ".bytes_" in metric else "count"


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help=argparse.SUPPRESS)
    p.add_argument("--out", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0

    _src_on_path()
    import nlparax.cli  # noqa: F401  (fails in a tree without the package)
    import workloads
    from spans import Tracer

    if args.workload not in workloads.VARIANTS:
        p.error(f"unknown workload {args.workload!r}; "
                f"expected one of {list(workloads.VARIANTS)}")
    variant = workloads.variant_of(args.workload, args.seed)
    with open(REFERENCES) as fh:
        references = json.load(fh)[args.workload][str(variant)]
    os.environ["THREADS"] = str(len(os.sched_getaffinity(0)))

    work = os.path.join(OUT, args.workload)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    plan = workloads.write_configs(args.workload, variant,
                                   os.path.join(work, "cfg"))
    ledger = Ledger(references)

    if not args.trace:
        setup = measure_setup(args, work)
        walls, groups = run_passes(plan, work, ledger, args.seconds)
        metrics = {
            "wall_s": (statistics.median(walls), "s"),
            "setup_s": (statistics.median(setup), "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF)
                            .ru_maxrss / 1024.0, "MB"),
        }
        extra = {k: (v, "s") for k, v in group_medians(groups).items() if v}
        extra["failed_frac"] = (ledger.failed / ledger.attempted,
                                f"ratio_of_{ledger.attempted}")
        for name, (value, unit) in {**metrics, **extra}.items():
            print(f"{name} {value!r} {unit}")
        print(f"passes {len(walls)}")
    else:
        walls, groups = run_passes(plan, work, ledger, args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            traced, _ = run_passes(plan, work, ledger, args.seconds / 2)
        finally:
            tracer.uninstall()
        values = tracer.summary(len(traced), sum(traced))
        values["trace.overhead_frac"] = (statistics.median(traced)
                                         / statistics.median(walls) - 1.0)
        values.update(import_times())
        values.update(group_medians(groups))
        values["failed_frac"] = ledger.failed / ledger.attempted
        with open(os.path.join(work, "spans.json"), "w") as fh:
            json.dump(tracer.dump(), fh)
        metrics = {k: (v, unit_of(k)) for k, v in values.items()}
        print(f"passes {len(walls)} untraced, {len(traced)} traced")

    for what in ledger.failures[:20]:
        print(f"FAILED {what}")
    correct = ledger.failed == 0
    print(json.dumps({
        "correct": correct, "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
