"""Monte Carlo study benchmark of flradapt.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every study runs in a fresh single-process
interpreter (``child.py``) with one BLAS thread, so each study pays the
import and the oracle's tail-sum cache fill as a command-line user does.
Nothing is timed inside the library: set-up is timed from spawn to the
child's ``ready`` line, and the study from outside ``harness.run_study``.

``--trace 0`` runs studies until ``--seconds`` have passed (at least
MIN_STUDIES), each preceded by SETUP_PER_STUDY set-up-only children, and
reports the fastest ``study_s`` and the medians of ``setup_s`` and
``peak_rss_mb``.  ``--trace 1`` alternates untraced and traced studies of
the same inputs and reports the per-layer values of the traced ones plus
``trace.overhead_ratio``.

Every study's outputs are checked (``check_outputs``).  The last stdout
line is the result JSON; the line before it records the environment and
every sample.  The exit code is not 0 when flradapt cannot be imported.
"""
from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import os
import pathlib
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS, base_seed, total_replicates  # noqa: E402

SETUP_PER_STUDY = 2
MIN_STUDIES = 3
PERCENTILE_MIN_CALLS = 1000
CHILD_TIMEOUT_S = 150
# run_study's own failure budget: at most 1 % of replicates may error
ERROR_BUDGET = 0.01
# per-n risks must agree with reference.json within this many standard
# errors of the difference
RISK_TOLERANCE_SE = 3.0
THREAD_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

END_TO_END = {"study_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
# Other tenants of a shared machine only ever add time to a study, in
# episodes that can outlast a run; the fastest study of a run is then a far
# steadier estimate of the program's own cost than the median (which the
# samples line still records).  Every other metric is a median.
BEST_OF_RUN = {"study_s": min}

PER_LAYER = {
    "simulate.draw_dataset.calls": "count",
    "simulate.draw_dataset.self_s": "s",
    "simulate.draw_dataset.p50_us": "us",
    "simulate.draw_dataset.p99_us": "us",
    "simulate.draw_dataset.cells": "count",
    "simulate.true_value.self_s": "s",
    "simulate.make_slope.self_s": "s",
    "sequences.gamma_array.calls": "count",
    "sequences.gamma_array.self_s": "s",
    "functionals.coefficients.calls": "count",
    "functionals.coefficients.self_s": "s",
    "estimator.empirical_moments.calls": "count",
    "estimator.empirical_moments.self_s": "s",
    "estimator.galerkin_estimate.calls": "count",
    "estimator.galerkin_estimate.self_s": "s",
    "estimator.solve_block.calls": "count",
    "estimator.solve_block.self_s": "s",
    "linalg.eigh.calls": "count",
    "linalg.eigvalsh.calls": "count",
    "estimator.thresholded": "count",
    "estimator.candidate_ratio": "ratio",
    "adaptive.adaptive_estimate.calls": "count",
    "adaptive.adaptive_estimate.self_s": "s",
    "adaptive.adaptive_estimate.p50_us": "us",
    "adaptive.adaptive_estimate.p99_us": "us",
    "adaptive.penalties.self_s": "s",
    "adaptive.contrasts.self_s": "s",
    "adaptive.select.self_s": "s",
    "adaptive.penalty_truncations": "count",
    "adaptive.errors": "count",
    "oracle.ell_weight_tail.self_s": "s",
    "oracle.minimax_dimension.calls": "count",
    "oracle.minimax_dimension.self_s": "s",
    "oracle.theoretical_penalty_curve.self_s": "s",
    "oracle.side_condition_ratio.self_s": "s",
    "harness.run_study.self_s": "s",
    "harness.write_raw_csv.self_s": "s",
    "harness.write_report_json.self_s": "s",
    "harness.write_curves_csv.self_s": "s",
    "harness.report_bytes": "bytes",
    "trace.overhead_ratio": "ratio",
}


class SetupError(RuntimeError):
    """flradapt cannot be imported or configured in a child interpreter."""


@dataclasses.dataclass
class Study:
    """Outcome of one child: timings, per-layer values and the output check."""

    setup_s: float
    result: dict | None
    problems: list
    attempted: int
    failed: int
    report_bytes: bytes | None


def child_env() -> dict:
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def spawn(job: dict, log_path: pathlib.Path):
    """Run child.py on ``job``; returns (setup_s, first line, rest of stdout, exit code)."""
    cmd = [sys.executable, str(HERE / "child.py"), json.dumps(job)]
    with open(log_path, "w") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(), stdin=subprocess.DEVNULL,
                                stdout=subprocess.PIPE, stderr=log, text=True)
        try:
            first = proc.stdout.readline()
            setup_s = time.perf_counter() - start
            rest, _ = proc.communicate(timeout=CHILD_TIMEOUT_S)
        finally:
            if proc.poll() is None:
                proc.kill()
            proc.wait()
    return setup_s, first, rest, proc.returncode


def log_tail(log_path: pathlib.Path) -> str:
    lines = log_path.read_text().strip().splitlines()
    return lines[-1] if lines else "no output on stderr"


def environment(work: pathlib.Path) -> dict:
    log = work / "environment.log"
    _, first, _, code = spawn({"mode": "environment"}, log)
    if code != 0:
        raise SetupError(f"child interpreter failed: {log_tail(log)}")
    return json.loads(first)


def measure_setup(workload: str, seed: int, work: pathlib.Path) -> float:
    log = work / "setup.log"
    setup_s, first, _, code = spawn(
        {"mode": "setup", "workload": workload, "base_seed": seed}, log
    )
    if code != 0 or first != "ready\n":
        raise SetupError(f"set-up failed: {log_tail(log)}")
    return setup_s


def run_study(workload: str, seed: int, mode: str, work: pathlib.Path, reference: dict) -> Study:
    """One study in a child; a crash or a failed check fails every replicate."""
    out_dir = work / mode
    shutil.rmtree(out_dir, ignore_errors=True)
    out_dir.mkdir()
    log = work / f"{mode}.log"
    setup_s, first, rest, code = spawn(
        {"mode": mode, "workload": workload, "base_seed": seed, "out_dir": str(out_dir)}, log
    )
    attempted = total_replicates(workload)
    if code != 0 or first != "ready\n":
        return Study(setup_s, None, [f"child exited {code}: {log_tail(log)}"],
                     attempted, attempted, None)
    result = json.loads(rest.strip().splitlines()[-1])
    problems, errors = check_outputs(out_dir, workload, seed, reference)
    failed = attempted if problems else errors
    report_bytes = (out_dir / "study_report.json").read_bytes() if not problems else None
    return Study(setup_s, result, problems, attempted, failed, report_bytes)


def check_outputs(out_dir: pathlib.Path, workload: str, seed: int, reference: dict):
    """Check the three study files; returns (problems, errored replicates).

    * the report's total_errors is within the 1 % budget, and per n the
      errors plus successes make up the replicates;
    * every per-n risk_adaptive is finite and positive and agrees with the
      reference risk for this base seed within 3 standard errors of the
      difference;
    * every m_hat_histogram sums to replicates_ok;
    * every successful raw row has 1 <= m_hat <= m_hat_cap <= m_ell_cap, and
      the raw file has one row per (n, replicate);
    * the curves file has one row per n with the report's risk.
    """
    spec = WORKLOADS[workload]
    problems = []
    try:
        report = json.loads((out_dir / "study_report.json").read_text())
        with open(out_dir / "study_raw.csv", newline="") as fh:
            raw = list(csv.DictReader(fh))
        with open(out_dir / "study_curves.csv", newline="") as fh:
            curves = list(csv.DictReader(fh))
    except (OSError, ValueError) as err:
        return [f"unreadable outputs: {err}"], total_replicates(workload)
    errors = report["total_errors"]
    if errors > ERROR_BUDGET * total_replicates(workload):
        problems.append(f"total_errors {errors} over the 1% budget")
    ref = reference[workload][str(seed)]
    rows = report["per_n"]
    if [row["n"] for row in rows] != list(spec["n_grid"]):
        problems.append("per_n rows do not follow the grid")
        return problems, errors
    for i, row in enumerate(rows):
        n = row["n"]
        if row["replicates_ok"] + row["errors"] != spec["replicates"]:
            problems.append(f"n={n}: replicates_ok + errors != replicates")
        risk, se = row.get("risk_adaptive"), row.get("se_adaptive")
        if risk is None or not (math.isfinite(risk) and risk > 0):
            problems.append(f"n={n}: risk_adaptive {risk} not finite and positive")
            continue
        if sum(row["m_hat_histogram"].values()) != row["replicates_ok"]:
            problems.append(f"n={n}: m_hat histogram does not sum to replicates_ok")
        ref_risk, ref_se = ref["risk_adaptive"][i], ref["se_adaptive"][i]
        if abs(risk - ref_risk) > RISK_TOLERANCE_SE * math.hypot(se, ref_se):
            problems.append(f"n={n}: risk_adaptive {risk} vs reference {ref_risk}")
    if len(raw) != total_replicates(workload):
        problems.append(f"raw file has {len(raw)} rows")
    for rec in raw:
        if rec["error"]:
            continue
        m_hat, m_hat_cap, m_ell_cap = (int(rec[k]) for k in ("m_hat", "m_hat_cap", "m_ell_cap"))
        if not 1 <= m_hat <= m_hat_cap <= m_ell_cap:
            problems.append(
                f"n={rec['n']} replicate {rec['replicate']}: caps out of order "
                f"({m_hat}, {m_hat_cap}, {m_ell_cap})"
            )
            break
    if [(int(c["n"]), float(c["risk_adaptive"])) for c in curves] != [
        (row["n"], row["risk_adaptive"]) for row in rows
    ]:
        problems.append("curves file disagrees with the report")
    return problems, errors


def percentile(values, q: float) -> float:
    """Nearest-rank percentile, q in (0, 1]."""
    ordered = sorted(values)
    return ordered[max(math.ceil(q * len(ordered)) - 1, 0)]


def spread(values) -> dict:
    """Sample count, quartiles and the samples themselves."""
    if len(values) < 2:
        return {"n": len(values), "values": values}
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"n": len(values), "q1": q1, "median": q2, "q3": q3, "values": values}


def untraced_run(workload, seed, seconds, work, reference):
    studies, setups = [], []
    start = time.perf_counter()
    while len(studies) < MIN_STUDIES or time.perf_counter() - start < seconds:
        setups += [measure_setup(workload, seed, work) for _ in range(SETUP_PER_STUDY)]
        studies.append(run_study(workload, seed, "study", work, reference))
    ok = [s for s in studies if s.result is not None]
    setups += [s.setup_s for s in ok]
    samples = {
        "study_s": [s.result["study_s"] for s in ok],
        "setup_s": setups,
        "peak_rss_mb": [s.result["maxrss_kb"] / 1024.0 for s in ok],
        "study_cpu_s": [s.result["cpu_s"] for s in ok],
    }
    return studies, samples


def traced_run(workload, seed, seconds, work, reference):
    studies = []
    pairs = []
    durations = {}
    start = time.perf_counter()
    while (not pairs or time.perf_counter() - start < seconds
           or min(len(d) for d in durations.values()) < PERCENTILE_MIN_CALLS):
        plain = run_study(workload, seed, "study", work, reference)
        traced = run_study(workload, seed, "traced", work, reference)
        studies += [plain, traced]
        if plain.result is None or traced.result is None:
            break
        if plain.report_bytes != traced.report_bytes:
            traced.problems.append("traced study_report.json differs from the untraced one")
            traced.failed = traced.attempted
        pairs.append((plain, traced))
        for name, values in traced.result["durations"].items():
            durations.setdefault(name, []).extend(values)
    samples = {name: [] for name in PER_LAYER}
    for plain, traced in pairs:
        for name, value in traced.result["layers"].items():
            if name in samples:
                samples[name].append(value)
        samples["trace.overhead_ratio"].append(traced.result["study_s"] / plain.result["study_s"])
    for span, values in durations.items():
        samples[f"{span}.p50_us"] = [1e6 * percentile(values, 0.50)]
        samples[f"{span}.p99_us"] = [1e6 * percentile(values, 0.99)]
    return studies, samples


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # on SIGTERM, unwind through the finally blocks that stop the child and
    # remove the scratch directory
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    seed = base_seed(args.seed)
    reference = json.loads((HERE / "reference.json").read_text())
    bench_dir = ROOT / ".bench_work"
    bench_dir.mkdir(exist_ok=True)
    work = pathlib.Path(tempfile.mkdtemp(prefix="run-", dir=bench_dir))
    try:
        env = environment(work)
        measure_setup(args.workload, seed, work)  # warm the file cache, untimed
        run = traced_run if args.trace else untraced_run
        studies, samples = run(args.workload, seed, args.seconds, work, reference)
    except SetupError as err:
        print(f"perfbench: {err}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    units = PER_LAYER if args.trace else END_TO_END
    missing = [name for name in units if not samples.get(name)]
    problems = [p for s in studies for p in s.problems]
    if missing:
        problems.append(f"no samples for {', '.join(missing)}")
    attempted = sum(s.attempted for s in studies)
    failed = sum(s.failed for s in studies)
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "base_seed": seed,
        "environment": env, "studies": len(studies), "failed_ratio": failed / attempted,
        "problems": problems, "samples": {k: spread(v) for k, v in samples.items()},
    }))
    metrics = {
        name: {"value": BEST_OF_RUN.get(name, statistics.median)(samples[name]), "unit": unit}
        for name, unit in units.items() if samples.get(name)
    }
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
