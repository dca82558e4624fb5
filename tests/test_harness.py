import csv
import dataclasses
import gc
import json
import math
import os
import pathlib
import subprocess
import sys
import textwrap
import threading
import time
import tracemalloc
import warnings
import weakref

import numpy as np
import pytest

from flradapt import adaptive, functionals, harness, oracle, sequences, simulate
from flradapt._util import fmt
from flradapt.estimator import Moments
from flradapt.functionals import PointEval
from flradapt.harness import StudyConfig, fit_rate, run_study
from flradapt.sequences import Regime, SequenceModel

PP = SequenceModel(regime=Regime.PP, p=1.0, a=1.0)
SPEC = PointEval(t0=0.3)


def small_config(**overrides):
    kwargs = dict(
        model=PP, spec=SPEC, sigma=1.0, n_grid=(64, 128, 256),
        replicates=8, base_seed=101,
    )
    kwargs.update(overrides)
    return StudyConfig(**kwargs)


@pytest.fixture
def sampler_threads(monkeypatch):
    """Draw every grid point on sampler threads, however small its draws;
    the returned function sets how many threads the CPU count gives."""
    monkeypatch.setattr(harness, "THREADED_MIN_NORMALS", 0)

    def use(threads):
        monkeypatch.setattr(harness, "_sampler_threads", lambda: threads)

    use(2)
    return use


def study_files(tmp_path, name, cfg):
    """The bytes of the three files a study of ``cfg`` writes."""
    paths = {key: tmp_path / f"{name}_{key}"
             for key in ("report_path", "raw_path", "curves_path")}
    run_study(dataclasses.replace(cfg, **{key: str(path) for key, path in paths.items()}))
    return {key: path.read_bytes() for key, path in paths.items()}


# the raw CSV columns, one dict key each in the reference records below
RAW_COLUMNS = (
    "n", "replicate", "seed", "sq_err_adaptive", "sq_err_best_fixed",
    "sq_err_mstar", "m_hat", "m_hat_cap", "m_ell_cap", "sandwich_ok", "error",
)


def reference_single_n(cfg, n):
    """One dict per replicate: the record loop as it stood before the
    harness kept its records as per-n columns (draws on the calling
    thread, which does not change a record), every error squared as
    d * d.  Every size samples the population of the largest one and
    draws all of its J regressor columns."""
    cov = simulate.Covariance(cfg.model, simulate.default_truncation(cfg.n_grid[-1]),
                              cfg.mixing)
    slope = simulate.make_slope(cfg.model, cov.dim)
    target = simulate.true_value(cfg.spec, slope)
    m_ell = adaptive.cap_m_ell(cfg.spec, n)
    m_star, r_minimax = oracle.minimax_dimension(cfg.model, cfg.spec, 1.0 / n)
    m_diamond, r_adaptive = oracle.minimax_dimension(
        cfg.model, cfg.spec, (1.0 + math.log(n)) / n)
    if cov.is_diagonal:
        p_theo = oracle.theoretical_penalty_curve(cov, cfg.spec, slope, cfg.sigma, n, m_ell)
        mu_n = harness._lower_dimension_bound(cov, cfg.spec, n, m_ell)
    records = []
    for rep in range(cfg.replicates):
        record = dict.fromkeys(RAW_COLUMNS)
        record.update(n=n, replicate=rep, seed=cfg.base_seed + rep)
        data = simulate.draw_dataset(cov, slope, n, cfg.sigma, cfg.base_seed + rep)
        try:
            result = adaptive.adaptive_estimate(data, cfg.spec)
            est_all = result.diagnostics["estimates_all"]
            error, errors = result.value - target, est_all - target
            record["sq_err_adaptive"] = error * error
            record["sq_err_best_fixed"] = float(np.min(errors * errors))
            m_fixed = min(m_star, result.m_ell_cap)
            record["sq_err_mstar"] = float(errors[m_fixed - 1] * errors[m_fixed - 1])
            record["m_hat"] = result.selected
            record["m_hat_cap"] = result.m_hat_cap
            record["m_ell_cap"] = result.m_ell_cap
            if cov.is_diagonal:
                k_max = min(result.m_hat_cap, mu_n)
                p_hat, p_pop = result.penalties[:k_max], p_theo[:k_max]
                record["sandwich_ok"] = bool(
                    np.all(p_pop <= p_hat)
                    and np.all(p_hat <= harness.SANDWICH_UPPER_FACTOR * p_pop))
        except (adaptive.AdaptiveEstimationError, np.linalg.LinAlgError) as err:
            record["error"] = f"{type(err).__name__}: {err}"
        records.append(record)
    theory = {
        "m_star": m_star, "m_diamond": m_diamond, "r_star_minimax": r_minimax,
        "r_star_adaptive": r_adaptive, "target": target,
        "side_condition_ratio": oracle.side_condition_ratio(cfg.model, cfg.spec, n, m_diamond),
    }
    return records, theory


def reference_aggregate(records, theory, n):
    good = [rec for rec in records if rec["error"] is None]
    row = {
        "n": n, "replicates_ok": len(good), "errors": len(records) - len(good),
        "m_star": theory["m_star"], "m_diamond": theory["m_diamond"],
        "r_star_minimax": theory["r_star_minimax"],
        "r_star_adaptive": theory["r_star_adaptive"],
        "true_value": theory["target"],
        "side_condition_ratio": theory["side_condition_ratio"],
    }
    if good:
        ad = np.array([rec["sq_err_adaptive"] for rec in good])
        best = np.array([rec["sq_err_best_fixed"] for rec in good])
        mstar = np.array([rec["sq_err_mstar"] for rec in good])
        row["risk_adaptive"] = float(np.mean(ad))
        row["se_adaptive"] = float(np.std(ad, ddof=1) / math.sqrt(len(ad)))
        row["risk_best_fixed"] = float(np.mean(best))
        row["risk_mstar_fixed"] = float(np.mean(mstar))
        hist = {}
        for rec in good:
            key = str(rec["m_hat"])
            hist[key] = hist.get(key, 0) + 1
        row["m_hat_histogram"] = {k: hist[k] for k in sorted(hist, key=int)}
        flags = [rec["sandwich_ok"] for rec in good if rec["sandwich_ok"] is not None]
        row["sandwich_frequency"] = float(sum(flags) / len(flags)) if flags else None
    return row


def reference_study_files(tmp_path, name, cfg):
    """The bytes of the report and raw files of the dict-per-record study."""
    rows, raw = [], []
    for n in cfg.n_grid:
        records, theory = reference_single_n(cfg, n)
        raw.extend(records)
        rows.append(reference_aggregate(records, theory, n))
    risks = [row["risk_adaptive"] for row in rows]
    slopes = {}
    for abscissa in ("n", "n_over_log_n"):
        slope, stderr = fit_rate(cfg.n_grid, risks, abscissa)
        slopes[abscissa] = {"slope": slope, "stderr": stderr}
    report = harness.StudyReport(
        config_echo=harness._config_echo(cfg), rows=rows, blocks=[], slopes=slopes,
        total_errors=sum(row["errors"] for row in rows))
    report_path, raw_path = tmp_path / f"{name}_report_path", tmp_path / f"{name}_raw_path"
    harness.write_report_json(report, report_path)
    with open(raw_path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(RAW_COLUMNS)
        for rec in raw:
            writer.writerow(["" if rec[col] is None else fmt(rec[col]) for col in RAW_COLUMNS])
    return {"report_path": report_path.read_bytes(), "raw_path": raw_path.read_bytes()}


def fail_replicate(monkeypatch, n, seed, error=adaptive.AdaptiveEstimationError,
                   message="synthetic failure"):
    """Make ``adaptive_estimate`` raise ``error(message)`` on the dataset
    drawn at sample size n with ``seed``, on whichever thread it runs:
    each draw from now on carries its seed."""
    draw, estimate = simulate.draw_dataset, adaptive.adaptive_estimate

    def seeded_draw(cov, slope, n, sigma, seed, *, stream=None):
        data = draw(cov, slope, n, sigma, seed, stream=stream)
        data.seed = seed
        return data

    def failing(data, spec):
        if (data.n, data.seed) == (n, seed):
            raise error(message)
        return estimate(data, spec)

    monkeypatch.setattr(harness.simulate, "draw_dataset", seeded_draw)
    monkeypatch.setattr(harness.adaptive, "adaptive_estimate", failing)


class TestFitRate:
    def test_exact_power_law(self):
        n = [100, 200, 400, 800]
        risks = [3.0 * v ** -0.5 for v in n]
        slope, stderr = fit_rate(n, risks, "n")
        assert slope == pytest.approx(-0.5, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_constant_risks(self):
        slope, _ = fit_rate([100, 200, 400], [2.0, 2.0, 2.0], "n")
        assert slope == 0.0

    def test_log_corrected_power_law(self):
        n = [100, 200, 400, 800, 1600]
        risks = [2.0 * (math.log(v) / v) ** 0.25 for v in n]
        slope, stderr = fit_rate(n, risks, "n_over_log_n")
        assert slope == pytest.approx(-0.25, abs=1e-12)
        assert stderr == pytest.approx(0.0, abs=1e-12)

    def test_zero_risk_rejected(self):
        for bad in (0.0, -1.0, math.nan, math.inf):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                with pytest.raises(ValueError, match="log-log"):
                    fit_rate([100, 200, 400], [1.0, bad, 1.0], "n")

    @pytest.mark.parametrize("n, abscissa", [
        ([1, 2, 4], "n_over_log_n"),
        ([0, 2, 4], "n"),
        ([2, 2, 2], "n"),
        ([2, 4, 4], "n_over_log_n"),
        ([100, 200, math.inf], "n"),
        ([100, 200, math.inf], "n_over_log_n"),
        ([100, math.nan, 400], "n"),
    ])
    def test_degenerate_sample_sizes_rejected(self, n, abscissa):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="sample size"):
                fit_rate(n, [1.0, 0.5, 0.25], abscissa)

    def test_too_few_points_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([100, 200], [1.0, 0.5], "n")

    def test_unknown_abscissa_rejected(self):
        with pytest.raises(ValueError):
            fit_rate([100, 200, 400], [1, 1, 1], "log_n")


class TestStudyConfig:
    @pytest.mark.parametrize("theta", [math.nan, math.inf, -math.inf])
    def test_nonfinite_mixing_rejected(self, theta):
        with pytest.raises(ValueError, match="mixing angle theta"):
            small_config(mixing=theta)

    @pytest.mark.parametrize("setting, match", [
        ({"sigma": math.inf}, "sigma"),
        ({"sigma": math.nan}, "sigma"),
        ({"n_grid": (128, 64)}, "n_grid"),
        ({"sigma": -1.0}, "sigma"),
        ({"replicates": 1}, "replicates"),
        ({"n_grid": (64.9, 128)}, "n_grid"),
        ({"replicates": 2.5}, "replicates"),
        ({"base_seed": -1}, "base_seed"),
    ])
    def test_sampling_settings_rejected(self, setting, match):
        with pytest.raises(ValueError, match=match):
            small_config(**setting)


class TestRunStudy:
    def test_deterministic_replay(self):
        r1 = run_study(small_config(replicates=2))
        r2 = run_study(small_config(replicates=2))
        assert json.dumps(r1.to_json_dict()) == json.dumps(r2.to_json_dict())

    def test_noiseless_zero_slope_has_zero_risk(self, monkeypatch):
        monkeypatch.setattr(simulate, "make_slope", lambda model, J: np.zeros(J))
        cfg = small_config(sigma=0.0, replicates=3)
        report = run_study(cfg)
        for row in report.rows:
            assert row["risk_adaptive"] == 0.0
        assert "note" in report.slopes

    def test_adaptive_never_beats_per_replicate_best(self):
        report = run_study(small_config())
        for block in report.blocks:
            assert not block.errors
            records = block.records
            assert np.all(records["sq_err_adaptive"] >= records["sq_err_best_fixed"])

    def test_histogram_counts_replicates(self):
        cfg = small_config()
        report = run_study(cfg)
        for row in report.rows:
            assert sum(row["m_hat_histogram"].values()) == cfg.replicates
            assert 0.0 <= row["sandwich_frequency"] <= 1.0

    def test_standard_error_shrinks_with_replicates(self):
        # fixed-seed smoke test; squared errors are heavy tailed, so the
        # shrink factor is noisy around 1/sqrt(2)
        cfg = dict(n_grid=(256, 512, 1024))
        se_small = run_study(small_config(replicates=30, **cfg)).rows[0]["se_adaptive"]
        se_big = run_study(small_config(replicates=60, **cfg)).rows[0]["se_adaptive"]
        assert 0.6 <= se_big / se_small <= 0.85

    def test_slopes_present_for_positive_risks(self):
        report = run_study(small_config())
        assert set(report.slopes) == {"n", "n_over_log_n"}
        for fit in report.slopes.values():
            assert math.isfinite(fit["slope"]) and fit["stderr"] >= 0.0

    def test_error_budget_enforced(self, monkeypatch):
        calls = {"k": 0}
        original = adaptive.adaptive_estimate

        def flaky(data, spec):
            calls["k"] += 1
            if calls["k"] % 3 == 0:
                raise adaptive.AdaptiveEstimationError("synthetic failure")
            return original(data, spec)

        monkeypatch.setattr(harness.adaptive, "adaptive_estimate", flaky)
        with pytest.raises(harness.StudyError):
            run_study(small_config())

    def test_single_failure_recorded_not_fatal(self, monkeypatch):
        original = adaptive.adaptive_estimate
        state = {"failed": False}

        def once(data, spec):
            if not state["failed"]:
                state["failed"] = True
                raise adaptive.AdaptiveEstimationError("synthetic failure")
            return original(data, spec)

        monkeypatch.setattr(harness.adaptive, "adaptive_estimate", once)
        cfg = small_config(replicates=40, n_grid=(64, 128, 256))
        report = run_study(cfg)
        assert report.total_errors == 1
        bad = [error for block in report.blocks for error in block.errors.values()]
        assert len(bad) == 1 and "synthetic failure" in bad[0]

    def test_no_dataset_outlives_its_replicate(self, monkeypatch, sampler_threads):
        # the study never builds an n x J matrix: each dataset keeps the
        # max(m_ell, 4) columns the estimator reads at the grid's largest
        # size; a pool thread walks one replicate's sizes and drops each
        # dataset before the next draw, so when a draw starts only the other
        # threads hold one each; a failed replicate is still recorded
        threads = 3
        sampler_threads(threads)
        lock = threading.Lock()
        drawn, alive_at_draw = [], []
        draw = simulate.draw_dataset

        def tracked_draw(cov, slope, n, sigma, seed, *, stream=None):
            with lock:
                alive_at_draw.append(sum(ref() is not None for ref, _ in drawn))
            data = draw(cov, slope, n, sigma, seed, stream=stream)
            with lock:
                drawn.append((weakref.ref(data), (n, data.dim)))
            return data

        monkeypatch.setattr(harness.simulate, "draw_dataset", tracked_draw)
        fail_replicate(monkeypatch, 64, 101 + 2)
        cfg = small_config(replicates=40)
        report = run_study(cfg)
        assert len(drawn) == 120 and report.total_errors == 1
        assert report.blocks[0].errors[2] == (
            "AdaptiveEstimationError: synthetic failure")
        assert max(alive_at_draw) <= threads - 1
        kept = max(harness.MIN_KEPT_COLUMNS, adaptive.cap_m_ell(SPEC, cfg.n_grid[-1]))
        for _, (n, width) in drawn:
            assert width == kept
            assert width < simulate.default_truncation(n)

    @pytest.mark.parametrize("mixing", [0.0, 0.3])
    def test_every_size_reads_a_view_of_its_streams_columns(self, monkeypatch, mixing):
        # one kept width per study, set by the largest size: m_ell is 5 at
        # n = 700 and at most 4 below it, so within a replicate every
        # size's x is a 5-column view of the largest size's rows, not a copy
        cfg = small_config(n_grid=(64, 256, 700), replicates=3, mixing=mixing)
        lock = threading.Lock()
        drawn = {}
        draw = simulate.draw_dataset

        def kept_draw(cov, slope, n, sigma, seed, *, stream=None):
            data = draw(cov, slope, n, sigma, seed, stream=stream)
            with lock:
                drawn.setdefault(seed, {})[n] = data.x
            return data

        monkeypatch.setattr(harness.simulate, "draw_dataset", kept_draw)
        run_study(cfg)
        width = max(harness.MIN_KEPT_COLUMNS, adaptive.cap_m_ell(SPEC, cfg.n_grid[-1]))
        assert width == 5 and len(drawn) == cfg.replicates
        for xs in drawn.values():
            assert list(xs) == list(cfg.n_grid)
            for n, x in xs.items():
                assert x.shape == (n, width) and x.flags.c_contiguous
                assert np.shares_memory(x, xs[cfg.n_grid[-1]]), n

    @pytest.mark.parametrize("threads", [0, 2])
    def test_no_result_outlives_its_replicate(self, monkeypatch, sampler_threads, threads):
        # a result is scored into its record on the thread that estimated it
        # and dropped there: when the calling thread files a replicate, none
        # of that replicate's results is alive, inline or on pool threads
        sampler_threads(threads)
        cfg = small_config(replicates=12)
        lock = threading.Lock()
        results = {rep: [] for rep in range(cfg.replicates)}
        alive_at_file = []
        draw, estimate, file = simulate.draw_dataset, adaptive.adaptive_estimate, \
            harness._GridPoint.file

        def seeded_draw(cov, slope, n, sigma, seed, *, stream=None):
            data = draw(cov, slope, n, sigma, seed, stream=stream)
            data.seed = seed
            return data

        def tracked_estimate(data, spec):
            result = estimate(data, spec)
            with lock:
                results[data.seed - cfg.base_seed].append(weakref.ref(result))
            return result

        def checked_file(point, rep, record):
            with lock:
                alive_at_file.append(sum(ref() is not None for ref in results[rep]))
            file(point, rep, record)

        monkeypatch.setattr(harness.simulate, "draw_dataset", seeded_draw)
        monkeypatch.setattr(harness.adaptive, "adaptive_estimate", tracked_estimate)
        monkeypatch.setattr(harness._GridPoint, "file", checked_file)
        run_study(cfg)
        assert [len(refs) for refs in results.values()] == [3] * cfg.replicates
        assert alive_at_file == [0] * (3 * cfg.replicates)

    def test_threaded_grid_point_peaks_at_one_replicate_per_thread(self, monkeypatch):
        # a rotated n = 8000 grid point on two pool threads: each thread
        # holds at most its dataset (x of 9 columns and y), the stream's
        # products of the rows with the sampling weights (an n-vector) and
        # the sampler's 256 KiB row block of raw normals; the slack covers
        # the scaled and rotated kept columns of one row block (20 KiB) with
        # their two half-size rotation temporaries, the estimator's n-vector
        # workspace (64 KiB), the pool and the grid point's arrays.  Scaling
        # and rotating the whole row block took about 0.25 MiB more
        threads, n = 2, 8000
        monkeypatch.setattr(harness, "_sampler_threads", lambda: threads)
        cfg = small_config(n_grid=(n,), replicates=6, mixing=0.3)
        run_study(cfg)  # fill the library's caches before measuring
        gc.collect()
        tracemalloc.start()
        try:
            run_study(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        x, y = n * max(adaptive.cap_m_ell(SPEC, n), harness.MIN_KEPT_COLUMNS) * 8, n * 8
        row_block = 256 * 2 ** 10
        assert peak <= threads * (x + 2 * y + row_block) + 192 * 2 ** 10

    def test_threaded_grid_peaks_at_one_stream_per_thread(self, monkeypatch):
        # a rotated 500..8000 grid on two pool threads: a thread walks one
        # replicate's sizes over one stream, which holds the kept columns,
        # row products and noise of the largest size and, while it draws,
        # one row block of raw normals, and it holds one size's dataset, a
        # view of the kept columns, at a time; the budget is the one-point
        # test's above plus the smaller sizes' noise vectors, which the
        # stream copies out of its rows as it draws them
        threads, sizes = 2, (500, 1000, 2000, 4000, 8000)
        monkeypatch.setattr(harness, "_sampler_threads", lambda: threads)
        cfg = small_config(n_grid=sizes, replicates=6, mixing=0.3)
        run_study(cfg)  # fill the library's caches before measuring
        gc.collect()
        tracemalloc.start()
        try:
            run_study(cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        n = sizes[-1]
        x, y = n * max(adaptive.cap_m_ell(SPEC, n), harness.MIN_KEPT_COLUMNS) * 8, n * 8
        row_block, noise = 256 * 2 ** 10, sum(sizes[:-1]) * 8
        assert peak <= threads * (x + 2 * y + row_block + noise) + 192 * 2 ** 10

    @pytest.mark.parametrize("mixing", [0.0, 0.3])
    def test_grid_spanning_two_truncations_writes_the_reference_files(
            self, tmp_path, monkeypatch, mixing):
        # J = 128 up to n = 128 and 136 from n = 256 on: every size samples
        # the covariance and slope of J = 136, and each replicate walks the
        # whole grid over one stream on the pool (n * J = 69,632 normals at
        # n = 512), so every row scores the one target of that slope
        monkeypatch.setattr(simulate, "default_truncation", lambda n: 128 if n <= 128 else 136)
        cfg = small_config(n_grid=(64, 128, 256, 512), replicates=8, mixing=mixing)
        files = study_files(tmp_path, "grid", cfg)
        reference = reference_study_files(tmp_path, "reference", cfg)
        assert files["report_path"] == reference["report_path"]
        assert files["raw_path"] == reference["raw_path"]
        targets = {row["true_value"] for row in json.loads(files["report_path"])["per_n"]}
        assert targets == {simulate.true_value(SPEC, simulate.make_slope(PP, 136))}

    def test_pool_draws_at_most_threads_plus_one_ahead(self):
        # while the caller holds replicate 0, the pool has started exactly
        # replicates 0..threads; closing the generator starts no further draw
        threads = 2
        lock = threading.Lock()
        started = []

        def draw(rep):
            with lock:
                started.append(rep)
            return rep

        drawn = harness._drawn_in_order(draw, 20, threads)
        assert next(drawn) == 0
        deadline = time.monotonic() + 10.0
        while len(started) < threads + 1 and time.monotonic() < deadline:
            time.sleep(0.001)
        time.sleep(0.2)
        with lock:
            assert sorted(started) == list(range(threads + 1))
        drawn.close()
        with lock:
            assert sorted(started) == list(range(threads + 1))

    def test_thread_count_leaves_files_unchanged(self, tmp_path, sampler_threads):
        # more sampler threads than cores, switching every microsecond:
        # the replicates still land in their order with their own seeds
        cfg = small_config(n_grid=(16, 64, 256), replicates=12)
        sampler_threads(1)
        one = study_files(tmp_path, "one", cfg)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            sampler_threads(4)
            four = study_files(tmp_path, "four", cfg)
        finally:
            sys.setswitchinterval(interval)
        assert one == four

    def test_default_threshold_uses_threads_for_long_draws_only(self, monkeypatch):
        # the threshold judges a replicate's largest draw: n * J = 2^15 at
        # n = 256 draws and estimates the whole grid inline, 2^16 at n = 512
        # does both on pool threads for every grid point, n = 256 included
        main = threading.main_thread()
        on_main = {"draw": {}, "estimate": {}}
        draw, estimate = simulate.draw_dataset, adaptive.adaptive_estimate

        def tracked_draw(cov, slope, n, sigma, seed, *, stream=None):
            on_main["draw"].setdefault(n, set()).add(threading.current_thread() is main)
            return draw(cov, slope, n, sigma, seed, stream=stream)

        def tracked_estimate(data, spec):
            on_main["estimate"].setdefault(data.n, set()).add(
                threading.current_thread() is main)
            return estimate(data, spec)

        monkeypatch.setattr(harness, "_sampler_threads", lambda: 2)
        monkeypatch.setattr(harness.simulate, "draw_dataset", tracked_draw)
        monkeypatch.setattr(harness.adaptive, "adaptive_estimate", tracked_estimate)
        run_study(small_config(n_grid=(64, 256), replicates=4))
        assert on_main == {"draw": {64: {True}, 256: {True}},
                           "estimate": {64: {True}, 256: {True}}}
        on_main["draw"].clear()
        on_main["estimate"].clear()
        run_study(small_config(n_grid=(256, 512), replicates=4))
        assert on_main == {"draw": {256: {False}, 512: {False}},
                           "estimate": {256: {False}, 512: {False}}}

    def test_draw_error_propagates_and_threads_end(self, monkeypatch, sampler_threads):
        # a bug in a draw surfaces from run_study as it is, and no sampler
        # thread outlives the study
        sampler_threads(3)
        before = threading.active_count()
        draw = simulate.draw_dataset

        def broken_draw(cov, slope, n, sigma, seed, *, stream=None):
            if n == 128 and seed == 101 + 5:
                raise TypeError("synthetic draw bug")
            return draw(cov, slope, n, sigma, seed, stream=stream)

        monkeypatch.setattr(harness.simulate, "draw_dataset", broken_draw)
        with pytest.raises(TypeError, match="synthetic draw bug"):
            run_study(small_config(replicates=20))
        assert threading.active_count() == before

    def test_caller_error_state_reaches_threaded_draws(self, monkeypatch,
                                                       sampler_threads):
        # numpy keeps its error state in a context variable, and each draw
        # runs in a copy of the caller's context
        draw = simulate.draw_dataset

        def underflowing_draw(cov, slope, n, sigma, seed, *, stream=None):
            np.multiply(1e-300, 1e-300)
            return draw(cov, slope, n, sigma, seed, stream=stream)

        monkeypatch.setattr(harness.simulate, "draw_dataset", underflowing_draw)
        cfg = small_config(n_grid=(64,), replicates=4)
        run_study(cfg)
        with np.errstate(under="raise"), pytest.raises(FloatingPointError):
            run_study(cfg)

    def test_estimator_error_ends_the_pool(self, monkeypatch, sampler_threads):
        # a bug in the estimator surfaces from run_study as it is; the draws
        # not yet started are cancelled and no pool thread outlives the study
        threads = 3
        sampler_threads(threads)
        before = threading.active_count()
        started = []
        draw = simulate.draw_dataset

        def counted_draw(cov, slope, n, sigma, seed, *, stream=None):
            started.append(seed)
            return draw(cov, slope, n, sigma, seed, stream=stream)

        # the first grid point of the fifth replicate; a task draws every
        # grid point of its replicate, so the tasks started are counted
        monkeypatch.setattr(harness.simulate, "draw_dataset", counted_draw)
        fail_replicate(monkeypatch, 64, 101 + 4, TypeError, "synthetic estimator bug")
        with pytest.raises(TypeError) as excinfo:
            run_study(small_config(replicates=20))
        # the pool is closed although the traceback still holds the frames
        # that refer to it
        assert threading.active_count() == before
        assert str(excinfo.value) == "synthetic estimator bug"
        assert len(set(started)) <= 5 + threads + 1

    def test_sampler_warnings_reach_the_caller(self, monkeypatch, sampler_threads):
        # rotated pe with a = 1: gamma_j underflows below j = 27 < J, and
        # only the draws call gamma_array, all of them on sampler threads
        pe = SequenceModel(regime=Regime.PE, p=2.0, a=1.0)
        main = threading.main_thread()
        on_main = []
        draw = simulate.draw_dataset

        def tracked_draw(cov, slope, n, sigma, seed, *, stream=None):
            on_main.append(threading.current_thread() is main)
            return draw(cov, slope, n, sigma, seed, stream=stream)

        monkeypatch.setattr(harness.simulate, "draw_dataset", tracked_draw)
        with pytest.warns(sequences.UnderflowWarning):
            run_study(small_config(model=pe, mixing=0.3, n_grid=(64,), replicates=4))
        assert on_main and not any(on_main)

    def test_unexpected_exception_propagates(self, monkeypatch):
        # only the expected numerical failures are recorded; a bug surfaces
        def broken(data, spec):
            raise TypeError("synthetic bug")

        monkeypatch.setattr(harness.adaptive, "adaptive_estimate", broken)
        with pytest.raises(TypeError, match="synthetic bug"):
            run_study(small_config())

    def test_config_validation(self):
        with pytest.raises(ValueError):
            small_config(replicates=1)
        with pytest.raises(ValueError):
            small_config(n_grid=(64, 64))
        with pytest.raises(ValueError):
            small_config(n_grid=(8, 64))


class TestOutputs:
    def test_files_written_and_stable(self, tmp_path):
        paths = dict(
            report_path=str(tmp_path / "report.json"),
            raw_path=str(tmp_path / "raw.csv"),
            curves_path=str(tmp_path / "curves.csv"),
        )
        run_study(small_config(replicates=3, **paths))
        first = {k: pathlib.Path(v).read_bytes() for k, v in paths.items()}
        run_study(small_config(replicates=3, **paths))
        second = {k: pathlib.Path(v).read_bytes() for k, v in paths.items()}
        assert first == second

    def test_warm_coefficient_cache_writes_identical_files(self, tmp_path):
        # the first study fills the memoized coefficient vectors from cold,
        # the second reads every one of them back from the cache
        functionals._coefficient_prefix.cache_clear()
        functionals._gram_prefix.cache_clear()
        cold = study_files(tmp_path, "cold", small_config(replicates=3))
        warm = study_files(tmp_path, "warm", small_config(replicates=3))
        assert functionals._coefficient_prefix.cache_info().hits > 0
        assert cold == warm

    def test_curves_columns(self, tmp_path):
        path = tmp_path / "curves.csv"
        run_study(small_config(replicates=3, curves_path=str(path)))
        header = path.read_text().splitlines()[0]
        assert header == ("n,risk_adaptive,se,risk_oracle,"
                          "rate_theoretical_minimax,rate_theoretical_adaptive")

    def test_report_is_valid_json(self, tmp_path):
        path = tmp_path / "report.json"
        run_study(small_config(replicates=3, report_path=str(path)))
        doc = json.loads(path.read_text())
        assert [row["n"] for row in doc["per_n"]] == [64, 128, 256]

    def test_one_surviving_replicate_has_a_null_standard_error(self, tmp_path,
                                                               monkeypatch):
        # 2 replicates on 50 sizes: the 1 % budget allows one failure, which
        # leaves its size one survivor and no sample variance; the report is
        # standard JSON (RFC 8259), and the curves file keeps its nan
        def refuse(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        fail_replicate(monkeypatch, 40, 101 + 1)
        report_path, curves_path = tmp_path / "report.json", tmp_path / "curves.csv"
        cfg = small_config(n_grid=tuple(range(16, 66)), replicates=2,
                           report_path=str(report_path), curves_path=str(curves_path))
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            run_study(cfg)
        doc = json.loads(report_path.read_text(), parse_constant=refuse)
        row = doc["per_n"][40 - 16]
        assert (row["n"], row["replicates_ok"], row["se_adaptive"]) == (40, 1, None)
        assert all(other["se_adaptive"] is not None
                   for other in doc["per_n"] if other["n"] != 40)
        curves = curves_path.read_text().splitlines()
        assert curves[1 + 40 - 16].split(",")[:3] == ["40", repr(row["risk_adaptive"]), "nan"]


class TestReplicateColumns:
    def test_record_is_packed(self):
        # three float64, three int64 and one int8 with no padding: an aligned
        # dtype would take 56 bytes and still pass the memory bounds below
        assert harness.RECORD.itemsize == 49

    @pytest.mark.parametrize("mixing", [0.0, 0.3])
    def test_columns_write_the_files_of_the_record_dicts(self, tmp_path, monkeypatch,
                                                         mixing):
        # one failure in the second grid point: its row has an error cell
        # and an empty sandwich cell, as every rotated row has
        cfg = small_config(replicates=40, mixing=mixing)
        fail_replicate(monkeypatch, 128, 101 + 4)
        columns = study_files(tmp_path, "columns", cfg)
        reference = reference_study_files(tmp_path, "reference", cfg)
        assert columns["report_path"] == reference["report_path"]
        assert columns["raw_path"] == reference["raw_path"]
        raw = columns["raw_path"].decode().splitlines()
        assert raw[45] == "128,4,105,,,,,,,,AdaptiveEstimationError: synthetic failure"
        assert json.loads(columns["report_path"])["total_errors"] == 1

    def test_scoring_pass_files_crafted_results_like_the_record_dicts(self, tmp_path,
                                                                   monkeypatch):
        # results crafted around the real ones reach what a few simulated
        # draws rarely do: estimates whose squared error differs between
        # pow(x, 2) and x * x, random bounds below the sandwich's reach, and
        # penalties below, inside and above the sandwich
        cfg = small_config(n_grid=(256, 1024, 4096), replicates=24)
        estimate = adaptive.adaptive_estimate
        theory = {}
        for n in cfg.n_grid:
            cov = simulate.Covariance(PP, simulate.default_truncation(n))
            slope = simulate.make_slope(PP, cov.dim)
            target = simulate.true_value(SPEC, slope)
            candidates = target + np.random.default_rng(n).uniform(-1.0, 1.0, 200_000)
            pool = [e for e in candidates.tolist()
                    if (e - target) ** 2 != (e - target) * (e - target)]
            m_ell = adaptive.cap_m_ell(SPEC, n)
            p_theo = oracle.theoretical_penalty_curve(cov, SPEC, slope, 1.0, n, m_ell)
            theory[n] = pool, p_theo

        def crafted(data, spec):
            real = estimate(data, spec)
            pool, p_theo = theory[data.n]
            rng = np.random.default_rng(int(data.y.view(np.uint64)[0] % 2 ** 32))
            m_ell = real.m_ell_cap
            cap = int(rng.integers(1, m_ell + 1))
            est_all = np.array(rng.choice(pool, m_ell, replace=False))
            pen = p_theo[:cap] * rng.choice([0.5, 2.0, 30.0], cap)
            selected = int(rng.integers(1, cap + 1))
            return adaptive.AdaptiveResult(
                m_ell_cap=m_ell, m_hat_cap=cap, penalties=pen, contrasts=np.zeros(cap),
                selected=selected, estimates=est_all[:cap],
                value=float(est_all[selected - 1]),
                diagnostics={"estimates_all": est_all})

        monkeypatch.setattr(adaptive, "adaptive_estimate", crafted)
        columns = study_files(tmp_path, "columns", cfg)
        reference = reference_study_files(tmp_path, "reference", cfg)
        assert columns["report_path"] == reference["report_path"]
        assert columns["raw_path"] == reference["raw_path"]
        flags = [line.split(",")[9] for line in columns["raw_path"].decode().splitlines()[1:]]
        assert {"True", "False"} <= set(flags)

    def test_failed_replicate_keeps_the_failed_record(self, monkeypatch):
        # one value per RECORD field: NaN errors, no dimensions and an
        # unchecked sandwich
        assert [repr(value) for value in harness.FAILED] == \
            ["nan"] * 3 + ["0"] * 3 + ["-1"]
        assert len(harness.FAILED) == len(harness.RECORD.names)
        fail_replicate(monkeypatch, 128, 101 + 4)
        point = run_study(small_config(replicates=40)).blocks[1]
        assert (point.n, list(point.errors)) == (128, [4])
        assert [repr(value) for value in point.records[4].tolist()] == \
            [repr(value) for value in harness.FAILED]

    def test_best_fixed_error_is_nan_where_an_estimate_is(self):
        # the record loop took numpy's min of the squares, which is NaN when
        # any square is, wherever it stands
        n = 256
        cov = simulate.Covariance(PP, simulate.default_truncation(n))
        slope = simulate.make_slope(PP, cov.dim)
        point = harness._GridPoint(small_config(n_grid=(n,)), cov, slope, n)
        result = adaptive.adaptive_estimate(
            simulate.draw_dataset(cov, slope, n, 1.0, 7), SPEC)
        est_all = result.diagnostics["estimates_all"]
        assert point.score(result)[1] == float(np.min((est_all - point.target) ** 2))
        for k in range(len(est_all)):
            result.diagnostics["estimates_all"] = np.where(np.arange(len(est_all)) == k,
                                                           np.nan, est_all)
            assert math.isnan(point.score(result)[1])

    def test_selected_best_fixed_dimension_scores_its_error_bit_for_bit(self):
        # an error whose pow(x, 2) is not x * x (about one double in a
        # thousand): the adaptive error of a selected best fixed dimension
        # is the best fixed error itself
        n = 256
        cov = simulate.Covariance(PP, simulate.default_truncation(n))
        slope = simulate.make_slope(PP, cov.dim)
        point = harness._GridPoint(small_config(n_grid=(n,)), cov, slope, n)
        estimate = point.target - 0.007307508352737332
        while pow(estimate - point.target, 2) == \
                (estimate - point.target) * (estimate - point.target):
            estimate = math.nextafter(estimate, math.inf)
        est_all = np.array([point.target + 0.5, estimate, point.target - 0.25,
                            point.target + 0.125])
        result = adaptive.AdaptiveResult(
            m_ell_cap=4, m_hat_cap=4, penalties=np.zeros(4), contrasts=np.zeros(4),
            selected=2, estimates=est_all, value=float(est_all[1]),
            diagnostics={"estimates_all": est_all})
        record = point.score(result)
        assert record[0] == record[1]
        assert record[1] == (est_all[1] - point.target) * (est_all[1] - point.target)

    def test_histogram_counts_survivors_in_numeric_order(self):
        # selected dimensions 2, 9, 10 and 11 and one failure, whose record
        # keeps m_hat 0: the keys ascend as numbers, so "9" comes before
        # "10", where a sort of the keys as strings would not put it
        n = 256
        cov = simulate.Covariance(PP, simulate.default_truncation(n))
        slope = simulate.make_slope(PP, cov.dim)
        cfg = small_config(n_grid=(n,), replicates=8)
        point = harness._GridPoint(cfg, cov, slope, n)
        for rep, m_hat in enumerate([10, 2, 11, 9, 10, None, 2, 10]):
            if m_hat is None:
                point.file(rep, "AdaptiveEstimationError: synthetic failure")
            else:
                point.file(rep, (0.5, 0.25, 0.5, m_hat, 12, 12, 1))
        ok = np.ones(cfg.replicates, dtype=bool)
        ok[list(point.errors)] = False
        dims, counts = np.unique(point.records["m_hat"][ok], return_counts=True)
        expected = list(zip(map(str, dims.tolist()), counts.tolist()))
        assert expected == [("2", 2), ("9", 1), ("10", 3), ("11", 1)]
        assert list(point.row()["m_hat_histogram"].items()) == expected

        failed = harness._GridPoint(cfg, cov, slope, n)
        for rep in range(cfg.replicates):
            failed.file(rep, "AdaptiveEstimationError: synthetic failure")
        row = failed.row()
        assert (row["replicates_ok"], row["errors"]) == (0, cfg.replicates)
        assert "m_hat_histogram" not in row

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak resident set from /proc")
    def test_report_rows_add_nothing_to_the_peak_resident_set(self):
        # the rows of a finished grid must not run numpy code the grid has
        # not run: np.unique's first sort and an index-list store raise this
        # probe's peak by about 450 kB, the rows' own objects by about 4 kB.
        # The probe reads its own VmHWM: a spawned child's ru_maxrss starts
        # at the peak of the process that spawned it, which hides its own
        probe = textwrap.dedent("""
            from flradapt import harness
            from flradapt.functionals import PointEval
            from flradapt.sequences import Regime, SequenceModel

            def peak_kb():
                with open("/proc/self/status") as fh:
                    line = next(line for line in fh if line.startswith("VmHWM:"))
                return int(line.split()[1])

            cfg = harness.StudyConfig(
                model=SequenceModel(regime=Regime.PP, p=1.0, a=1.0),
                spec=PointEval(t0=0.3), sigma=1.0, n_grid=(16, 32, 64, 128, 256),
                replicates=200, base_seed=101)
            points = harness._run_grid(cfg)
            before = peak_kb()
            rows = [point.row() for point in points]
            print(peak_kb() - before)
        """)
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        out = subprocess.run([sys.executable, "-c", probe], env=env,
                             capture_output=True, text=True, check=True)
        assert int(out.stdout) < 128

    @pytest.mark.skipif(not sys.platform.startswith("linux"),
                        reason="reads the peak resident set from /proc")
    def test_raw_csv_adds_nothing_to_the_peak_resident_set(self, tmp_path):
        # the raw CSV is formatted one record at a time, which raises this
        # probe's peak by 0-8 kB; formatting a whole 1,000-replicate grid
        # point at once raised it by about 190 kB
        probe = textwrap.dedent("""
            import sys
            from flradapt import harness
            from flradapt.functionals import PointEval
            from flradapt.sequences import Regime, SequenceModel

            def peak_kb():
                with open("/proc/self/status") as fh:
                    line = next(line for line in fh if line.startswith("VmHWM:"))
                return int(line.split()[1])

            cfg = harness.StudyConfig(
                model=SequenceModel(regime=Regime.PP, p=1.0, a=1.0),
                spec=PointEval(t0=0.3), sigma=1.0, n_grid=(16, 32, 64, 128, 256),
                replicates=1000, base_seed=101)
            points = harness._run_grid(cfg)
            rows = [point.row() for point in points]
            report = harness.StudyReport(config_echo={}, rows=rows, blocks=points,
                                         slopes={}, total_errors=0)
            before = peak_kb()
            harness.write_raw_csv(report, sys.argv[1])
            print(peak_kb() - before)
        """)
        env = dict(os.environ)
        src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        raw = tmp_path / "raw.csv"
        out = subprocess.run([sys.executable, "-c", probe, str(raw)], env=env,
                             capture_output=True, text=True, check=True)
        assert len(raw.read_text().splitlines()) == 1 + 5 * 1000
        assert int(out.stdout) < 64

    def test_peak_grows_by_one_record_per_replicate(self):
        # a grid point keeps a replicate's record and nothing else: one
        # packed 49-byte harness.RECORD in its block; holding every
        # replicate's estimates at m <= m_ell and its penalties up to the
        # sandwich's reach until the grid point ends would add
        # 8 (m_ell + mu_n + 1) bytes, 32 to 48 on this grid
        grid = (16, 32, 64, 128, 256)

        def peak(replicates):
            gc.collect()
            tracemalloc.start()
            try:
                run_study(small_config(n_grid=grid, replicates=replicates))
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        replicates = 100
        # a traced, unmeasured study at each count first: they fill the
        # library's caches, and the first study traced peaks about 10 kB
        # higher than later ones with small allocations that later studies
        # reuse, so a growth measured on it read up to about 38,000 bytes
        peak(replicates)
        peak(2 * replicates)
        growth = peak(2 * replicates) - peak(replicates)
        assert growth <= 64 * len(grid) * replicates

    def test_finished_report_keeps_under_100_bytes_per_replicate(self):
        # a dict per replicate record kept about 572 bytes; a block keeps
        # one packed 49-byte harness.RECORD plus a fixed cost per grid point
        # and per report
        cfg = small_config(n_grid=(16, 32, 64), replicates=400)
        run_study(cfg)  # fill the library's caches before measuring
        gc.collect()
        tracemalloc.start()
        try:
            report = run_study(cfg)
            gc.collect()
            with_report = tracemalloc.get_traced_memory()[0]
            del report
            gc.collect()
            retained = with_report - tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 100 * len(cfg.n_grid) * cfg.replicates


class TestSandwich:
    def test_population_injection_gives_factor_seven(self):
        # forcing the empirical ingredients to the population ones makes the
        # stochastic penalty exactly seven times the theoretical one
        J = 16
        slope = simulate.make_slope(PP, J)
        gam = np.arange(1, J + 1.0) ** -2.0
        sig_y2 = 1.0 + float(np.sum(gam * slope ** 2))
        n = 500
        mom = Moments(ghat=gam * slope, gammahat=np.diag(gam),
                      sigma2_y_hat=sig_y2, n=n)
        m_max = 4
        p_hat = adaptive.penalties(mom, SPEC, n, m_max)
        p_pop = oracle.theoretical_penalty_curve(simulate.Covariance(PP, J), SPEC, slope,
                                                 1.0, n, m_max)
        np.testing.assert_allclose(p_hat, 7.0 * p_pop, rtol=1e-10)
        assert np.all(p_pop <= p_hat) and np.all(p_hat <= 24.0 * p_pop)

    def test_frequency_reported_at_tiny_n(self):
        row = run_study(small_config(n_grid=(16,), replicates=6)).rows[0]
        assert 0.0 <= row["sandwich_frequency"] <= 1.0

    def test_moderate_n_frequency_high(self):
        row = run_study(small_config(n_grid=(1024,), replicates=30)).rows[0]
        assert row["sandwich_frequency"] >= 0.8

    def test_mixing_disables_sandwich_column(self):
        report = run_study(small_config(mixing=0.3, replicates=3))
        for row in report.rows:
            assert row["sandwich_frequency"] is None
