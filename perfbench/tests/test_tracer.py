"""Tests of the benchmark's tracer, its instrumentation and its output check.

    python3 -m pytest perfbench/tests
"""
import csv
import dataclasses
import json
import pathlib

import pytest

import child
import run
import tracer
from workloads import WORKLOADS, base_seed

ROOT = pathlib.Path(__file__).resolve().parents[2]


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now

    def advance(self, seconds):
        self.now += seconds


def test_self_time_subtracts_nested_child_spans():
    clock = FakeClock()
    trace = tracer.Tracer(clock=clock)

    def leaf():
        clock.advance(3.0)

    def inner():
        clock.advance(2.0)
        leaf()

    def outer():
        clock.advance(1.0)
        inner()
        inner()
        clock.advance(1.0)

    leaf = trace.span("leaf", leaf)
    inner = trace.span("inner", inner)
    outer = trace.span("outer", outer)
    outer()
    spans = trace.spans
    assert (spans["outer"].calls, spans["inner"].calls, spans["leaf"].calls) == (1, 2, 2)
    assert spans["outer"].total_s == 12.0 and spans["outer"].self_s == 2.0
    assert spans["inner"].total_s == 10.0 and spans["inner"].self_s == 4.0
    assert spans["leaf"].total_s == 6.0 and spans["leaf"].self_s == 6.0


def test_failed_call_is_charged_and_counted():
    clock = FakeClock()
    trace = tracer.Tracer(clock=clock)

    def broken():
        clock.advance(5.0)
        raise ValueError("boom")

    def caller():
        clock.advance(1.0)
        with pytest.raises(ValueError):
            broken()

    broken = trace.span("broken", broken, keep_durations=True)
    trace.span("caller", caller)()
    assert trace.spans["broken"].errors == 1
    assert trace.spans["broken"].durations == [5.0]
    assert trace.spans["caller"].self_s == 1.0


def test_counter_opens_no_span_and_patch_is_undone():
    class Owner:
        @staticmethod
        def work():
            return 7

    original = Owner.work
    trace = tracer.Tracer()
    with pytest.raises(RuntimeError):
        with tracer.patched([(Owner, "work", trace.count("work.calls", Owner.work))]):
            assert Owner.work() == 7 and Owner.work() == 7
            raise RuntimeError
    assert Owner.work is original
    assert trace.counters["work.calls"] == 2 and not trace.spans


def small_study(out_dir):
    cfg = child.build_config("small_n_many_reps", 31, str(out_dir))
    return dataclasses.replace(cfg, n_grid=(16, 64, 256), replicates=20)


def test_traced_study_writes_identical_outputs(tmp_path):
    from flradapt import harness

    (tmp_path / "plain").mkdir()
    (tmp_path / "traced").mkdir()
    harness.run_study(small_study(tmp_path / "plain"))
    trace = tracer.Tracer()
    with tracer.patched(child.instrument(trace)):
        harness.run_study(small_study(tmp_path / "traced"))
    for name in ("study_report.json", "study_raw.csv", "study_curves.csv"):
        assert (tmp_path / "plain" / name).read_bytes() == (tmp_path / "traced" / name).read_bytes()
    values = child.layer_values(trace)
    assert values["simulate.draw_dataset.calls"] == 60
    assert values["harness.report_bytes"] == (tmp_path / "plain" / "study_report.json").stat().st_size
    # p50/p99 and the overhead ratio are formed by the runner across studies
    assert set(values) >= {
        name for name in run.PER_LAYER
        if not name.endswith("_us") and name != "trace.overhead_ratio"
    }


def test_headline_counts_match_roadmap_baseline(tmp_path):
    """Call counts of one traced headline study of the library as it stood
    when the benchmark was defined (ROADMAP "Recent")."""
    from flradapt import harness

    trace = tracer.Tracer()
    with tracer.patched(child.instrument(trace)):
        harness.run_study(child.build_config("headline_pp_point", base_seed(0), str(tmp_path)))
    values = child.layer_values(trace)
    assert values["simulate.draw_dataset.calls"] == 1000
    assert values["estimator.galerkin_estimate.calls"] == 6200
    assert values["estimator.solve_block.calls"] == 11896
    assert values["linalg.eigh.calls"] == 18096
    assert values["linalg.eigvalsh.calls"] == 1000


def rewrite_raw(path, edit):
    with open(path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    edit(rows)
    with open(path, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=list(rows[0]))
        writer.writeheader()
        writer.writerows(rows)


def test_output_check_accepts_the_study_and_flags_tampering(tmp_path):
    from flradapt import harness

    workload, seed = "small_n_many_reps", base_seed(0)
    harness.run_study(child.build_config(workload, seed, str(tmp_path)))
    reference = json.loads((ROOT / "perfbench" / "reference.json").read_text())
    assert run.check_outputs(tmp_path, workload, seed, reference) == ([], 0)

    def swap_caps(rows):
        rows[5]["m_hat"], rows[5]["m_ell_cap"] = rows[5]["m_ell_cap"], "1"

    rewrite_raw(tmp_path / "study_raw.csv", swap_caps)
    problems, _ = run.check_outputs(tmp_path, workload, seed, reference)
    assert any("caps out of order" in p for p in problems)

    report = json.loads((tmp_path / "study_report.json").read_text())
    report["per_n"][0]["risk_adaptive"] *= 2
    report["per_n"][1]["m_hat_histogram"]["1"] += 1
    (tmp_path / "study_report.json").write_text(json.dumps(report))
    problems, _ = run.check_outputs(tmp_path, workload, seed, reference)
    assert any("vs reference" in p for p in problems)
    assert any("histogram" in p for p in problems)


def test_benchmark_json_matches_the_runner():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER
    assert [w["why"] for w in spec["workloads"]] == [w["why"] for w in WORKLOADS.values()]
