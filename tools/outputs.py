"""List the outputs that two checkouts of nlparax must write byte for byte.

    PYTHONPATH=src:tests:perfbench python tools/outputs.py OUT

OUT must be missing or empty.  The package, `test_acceptance` and `workloads`
are imported from the path, so a checkout's outputs are those of the `src`,
`tests` and `perfbench` named there; the script itself reads nothing else of
a checkout.  It writes under OUT:

  * `studies/NAME/`: `report.json` (with its runtime `meta` dropped),
    `errors.csv` and `plot.svg`, written by `emit_report`, of the acceptance
    studies of tests/test_acceptance.py (`NS_KUZ_CFG`, its three delta runs,
    both `PAIRWISE_CFG` pairs, and the kuznetsov-kzk envelope study as the
    benchmark configures it at 16 transverse points), of the amplitude-8
    sweeps of the three slope pairs at eps 0.2, 0.1 and 0.05, and of a
    kuznetsov-npe sweep in 6 sample intervals.  A study that raises writes
    `error.txt` instead: its exception and the exception's cause.
  * `workloads/NAME-VARIANT/`: the config files and outputs of one
    `workloads.run_pass` of every variant of every benchmark workload, with
    the path of OUT in each `manifest.json`'s argv masked, and `ledger.json`:
    each CLI call's exit code and every check the pass reports.

Then it prints one `sha256  path` line per file under OUT, sorted by path.
Run it once per checkout, into two directories, and diff the listings.
"""

from __future__ import annotations

import hashlib
import json
import os
import sys

sys.dont_write_bytecode = True  # leave the checkouts' trees as they are

import test_acceptance  # noqa: E402
import workloads  # noqa: E402
from nlparax import ExperimentConfig, cli, emit_report, scaling_study  # noqa: E402

SLOPE_PAIRS = ("ns-kuznetsov", "kuznetsov-westervelt", "kuznetsov-npe")


def _studies() -> dict:
    """name -> the config entries of each study listed."""
    ns, pairwise = test_acceptance.NS_KUZ_CFG, test_acceptance.PAIRWISE_CFG
    out = {"ns-kuznetsov": ns}
    for eps in ns["eps_list"]:
        out[f"ns-kuznetsov-delta{eps:g}"] = dict(
            ns, name="delta-eps", eps_list=(eps,), delta=eps)
    for pair in SLOPE_PAIRS[1:]:
        out[pair] = dict(pairwise, pair=pair)
    out["kuznetsov-kzk"] = workloads._sweep_kzk(16, workloads.KZK_SOURCE_SEED)
    for pair in SLOPE_PAIRS:
        base = ns if pair == "ns-kuznetsov" else dict(pairwise, pair=pair)
        out[f"{pair}-amplitude8"] = dict(
            base, eps_list=(0.2, 0.1, 0.05), preset_params={"amplitude": 8.0})
    out["kuznetsov-npe-samples6"] = dict(pairwise, pair="kuznetsov-npe",
                                         samples=6)
    return out


def write_studies(root: str) -> None:
    for name, cfg in _studies().items():
        out = os.path.join(root, name)
        try:
            report = scaling_study(ExperimentConfig.from_dict(cfg))
        except ValueError as exc:
            os.makedirs(out)
            with open(os.path.join(out, "error.txt"), "w") as fh:
                for e in (exc, exc.__cause__):
                    if e is not None:
                        fh.write(f"{type(e).__name__}: {e}\n")
            continue
        report.meta = {}
        emit_report(report, out)


class Ledger:
    """The ledger `workloads.run_pass` reports to: it runs each CLI call and
    keeps every exit code and check."""

    def __init__(self):
        self.record = {"calls": [], "exact": {}, "members": {}, "values": {}}

    def call(self, group: str, argv: list[str]) -> int:
        code = cli.main(argv)
        self.record["calls"].append([group, code])
        return code

    def member(self, name: str, ok: bool) -> None:
        self.record["members"][name] = ok

    def exact(self, name: str, ok: bool) -> None:
        self.record["exact"][name] = ok

    def value(self, name: str, value: float, scale: float) -> None:
        self.record["values"][name] = [value, scale]


def write_workloads(root: str) -> None:
    mask = json.dumps(os.path.abspath(root))[1:-1]
    for name, count in workloads.VARIANTS.items():
        for variant in range(count):
            here = os.path.abspath(os.path.join(root, f"{name}-{variant}"))
            plan = workloads.write_configs(name, variant,
                                           os.path.join(here, "configs"))
            ledger = Ledger()
            workloads.run_pass(plan, os.path.join(here, "run"), ledger)
            with open(os.path.join(here, "ledger.json"), "w") as fh:
                json.dump(ledger.record, fh, sort_keys=True, indent=2)
    for dirpath, _dirs, files in os.walk(root):
        if "manifest.json" in files:
            path = os.path.join(dirpath, "manifest.json")
            with open(path) as fh:
                text = fh.read()
            with open(path, "w") as fh:
                fh.write(text.replace(mask, "OUT"))


def listing(root: str) -> list[str]:
    lines = []
    for dirpath, _dirs, files in os.walk(root):
        for f in files:
            path = os.path.join(dirpath, f)
            with open(path, "rb") as fh:
                digest = hashlib.sha256(fh.read()).hexdigest()
            lines.append((os.path.relpath(path, root), digest))
    return [f"{digest}  {path}" for path, digest in sorted(lines)]


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__.split("\n\n")[1], file=sys.stderr)
        return 2
    root = argv[0]
    if os.path.exists(root) and os.listdir(root):
        print(f"error: {root} is not empty", file=sys.stderr)
        return 1
    write_studies(os.path.join(root, "studies"))
    write_workloads(os.path.join(root, "workloads"))
    print("\n".join(listing(root)))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
