"""One benchmark job in a fresh interpreter.

    python3 perfbench/child.py '{"mode": "study", "workload": "...", "base_seed": 1, "out_dir": "..."}'

Modes:

* ``setup``: import flradapt and build the model, functional and
  StudyConfig, print ``ready``, exit.
* ``study``: as ``setup``, then time one ``harness.run_study`` (which writes
  the report, raw and curve files into ``out_dir``) and print a JSON line with
  ``study_s`` and the peak resident set size.
* ``traced``: as ``study``, with every layer function named in ``LAYERS``
  wrapped by the tracer; the JSON line also carries the per-layer values.
* ``environment``: print the interpreter, numpy and BLAS versions, the CPU
  count and the BLAS thread settings as JSON.

The parent times spawn-to-``ready`` as set-up.  Nothing this script does
before ``ready`` may go beyond what a user of the library pays for.
"""
from __future__ import annotations

import contextlib
import json
import os
import resource
import sys
import time

from workloads import WORKLOADS


def build_config(workload: str, base_seed: int, out_dir=None):
    """StudyConfig of one workload; outputs go to ``out_dir`` when given."""
    import flradapt

    spec = WORKLOADS[workload]
    paths = {}
    if out_dir is not None:
        paths = {
            "report_path": os.path.join(out_dir, "study_report.json"),
            "raw_path": os.path.join(out_dir, "study_raw.csv"),
            "curves_path": os.path.join(out_dir, "study_curves.csv"),
        }
    return flradapt.StudyConfig(
        model=flradapt.SequenceModel(regime=flradapt.Regime.PP, p=1.0, a=1.0, r=2.0),
        spec=flradapt.PointEval(t0=0.3),
        sigma=1.0,
        n_grid=spec["n_grid"],
        replicates=spec["replicates"],
        base_seed=base_seed,
        mixing=spec["mixing"],
        **paths,
    )


# (module, attribute, span name); every call site in flradapt reaches these
# through the module attribute, so the wrappers see every call
LAYERS = (
    ("simulate", "draw_dataset"),
    ("simulate", "true_value"),
    ("simulate", "make_slope"),
    ("sequences", "gamma_array"),
    ("functionals", "coefficients"),
    ("estimator", "empirical_moments"),
    ("estimator", "galerkin_estimate"),
    ("estimator", "solve_block"),
    ("adaptive", "adaptive_estimate"),
    ("adaptive", "penalties"),
    ("adaptive", "contrasts"),
    ("adaptive", "select"),
    ("oracle", "ell_weight_tail"),
    ("oracle", "minimax_dimension"),
    ("oracle", "theoretical_penalty_curve"),
    ("oracle", "side_condition_ratio"),
    ("harness", "run_study"),
    ("harness", "write_raw_csv"),
    ("harness", "write_report_json"),
    ("harness", "write_curves_csv"),
)

# spans whose per-call durations are kept for p50/p99
PERCENTILE_SPANS = ("simulate.draw_dataset", "adaptive.adaptive_estimate")


def instrument(trace):
    """Replacement list for ``tracer.patched``: a span per LAYERS entry, call
    counters on numpy.linalg.eigh/eigvalsh, and counters read from the
    arguments and results of the sampler, the estimator and the writer."""
    import importlib

    import numpy as np

    counters = trace.counters

    def after_draw(args, kwargs, result):
        counters["simulate.draw_dataset.cells"] += result.n * result.dim

    def after_adaptive(args, kwargs, result):
        norms = result.diagnostics["inv_spectral_norms"]
        counters["estimator.thresholded"] += int(np.count_nonzero(~(norms <= args[0].n)))
        counters["adaptive.m_hat_cap_sum"] += result.m_hat_cap
        counters["adaptive.m_ell_cap_sum"] += result.m_ell_cap
        counters["adaptive.penalty_truncations"] += "penalty_truncated_at" in result.diagnostics

    def after_report(args, kwargs, result):
        counters["harness.report_bytes"] += os.path.getsize(args[1])

    hooks = {
        "simulate.draw_dataset": after_draw,
        "adaptive.adaptive_estimate": after_adaptive,
        "harness.write_report_json": after_report,
    }
    replacements = []
    for module_name, attr in LAYERS:
        module = importlib.import_module(f"flradapt.{module_name}")
        name = f"{module_name}.{attr}"
        wrapped = trace.span(name, getattr(module, attr), after=hooks.get(name),
                             keep_durations=name in PERCENTILE_SPANS)
        replacements.append((module, attr, wrapped))
    for attr in ("eigh", "eigvalsh"):
        replacements.append(
            (np.linalg, attr, trace.count(f"linalg.{attr}.calls", getattr(np.linalg, attr)))
        )
    return replacements


def layer_values(trace) -> dict:
    """Flat per-layer values of one traced study."""
    values = {}
    for name, stats in trace.spans.items():
        values[f"{name}.calls"] = stats.calls
        values[f"{name}.self_s"] = stats.self_s
    values.update(trace.counters)
    values["adaptive.errors"] = trace.spans["adaptive.adaptive_estimate"].errors
    values["estimator.candidate_ratio"] = (
        trace.counters["adaptive.m_hat_cap_sum"] / trace.counters["adaptive.m_ell_cap_sum"]
    )
    return values


def environment() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "nproc": len(os.sched_getaffinity(0)),
        **{name: os.environ.get(name)
           for name in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
    }


def main(job: dict) -> int:
    if job["mode"] == "environment":
        print(json.dumps(environment()), flush=True)
        return 0
    cfg = build_config(job["workload"], job["base_seed"], job.get("out_dir"))
    print("ready", flush=True)
    if job["mode"] == "setup":
        return 0
    from flradapt import harness

    trace = None
    context = contextlib.nullcontext()
    if job["mode"] == "traced":
        import tracer

        trace = tracer.Tracer()
        context = tracer.patched(instrument(trace))
    with context:
        start, cpu_start = time.perf_counter(), time.process_time()
        harness.run_study(cfg)
        study_s, cpu_s = time.perf_counter() - start, time.process_time() - cpu_start
    result = {
        "study_s": study_s,
        "cpu_s": cpu_s,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
    }
    if trace is not None:
        result["layers"] = layer_values(trace)
        result["durations"] = {
            name: trace.spans[name].durations for name in PERCENTILE_SPANS
        }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(json.loads(sys.argv[1])))
