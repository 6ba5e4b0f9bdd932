"""Record the values the benchmark checks, for every workload variant.

    python3 perfbench/record.py

Run it from the root of a checkout whose numbers are trusted; it rewrites
perfbench/references.json.  Each value is stored with the scale its
tolerance is relative to.
"""

from __future__ import annotations

import json
import os
import shutil
import sys

import run


def main() -> int:
    run._src_on_path()
    import workloads

    os.environ["THREADS"] = str(len(os.sched_getaffinity(0)))
    refs: dict = {}
    for name, count in workloads.VARIANTS.items():
        for variant in range(count):
            work = os.path.join(run.OUT, "record", name)
            shutil.rmtree(work, ignore_errors=True)
            plan = workloads.write_configs(name, variant,
                                           os.path.join(work, "cfg"))
            ledger = run.Ledger(None)
            workloads.run_pass(plan, os.path.join(work, "pass"), ledger)
            if ledger.failed:
                print(f"{name} variant {variant}: {ledger.failures}",
                      file=sys.stderr)
                return 1
            refs.setdefault(name, {})[str(variant)] = {
                k: list(v) for k, v in sorted(ledger.values.items())}
            print(f"{name} variant {variant}: {len(ledger.values)} values")
    with open(run.REFERENCES, "w") as fh:
        json.dump(refs, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
