"""Record the per-n adaptive risks the output check compares against.

    python3 perfbench/make_reference.py [--workload NAME ...]

Runs every workload at each of the REFERENCE_SEEDS base seeds in this
process and writes ``perfbench/reference.json``: for each workload and base
seed, the per-n ``risk_adaptive`` and ``se_adaptive`` of the study report.
The table records the library as it stood when the benchmark was defined;
regenerate it only to cover a new workload, never to absorb a change of the
library's results.
"""
from __future__ import annotations

import argparse
import json
import os
import pathlib
import sys

HERE = pathlib.Path(__file__).resolve().parent
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"
sys.path.insert(0, str(HERE.parent / "src"))

from child import build_config  # noqa: E402
from workloads import REFERENCE_SEEDS, WORKLOADS, base_seed  # noqa: E402


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    from flradapt import harness

    path = HERE / "reference.json"
    table = json.loads(path.read_text()) if path.exists() else {}
    for name in args.workload or WORKLOADS:
        entry = table[name] = {}
        for k in range(REFERENCE_SEEDS):
            seed = base_seed(k)
            report = harness.run_study(build_config(name, seed))
            entry[str(seed)] = {
                "risk_adaptive": [row["risk_adaptive"] for row in report.rows],
                "se_adaptive": [row["se_adaptive"] for row in report.rows],
                "total_errors": report.total_errors,
            }
            print(name, seed, report.total_errors, flush=True)
        path.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
