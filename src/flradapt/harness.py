"""Monte Carlo risk studies over a grid of sample sizes.

A study builds one :class:`~flradapt.simulate.Covariance` and one slope, at
J = ``default_truncation`` of its largest sample size: every replicate's
draws sample from that covariance, the population penalty reads it, and
every size scores one target.
For each replicate and sample size the harness draws a dataset, runs the
data-driven estimator, and records the squared error of the selected value
next to two benchmarks: the per-replicate best fixed dimension (the
realized minimum over all candidate dimensions, an optimistic stand-in for
the infeasible oracle) and the fixed theoretically-optimal dimension.
Aggregates include theoretical risk levels, a log-log rate fit, the
selected-dimension histogram, and for diagonal covariances the frequency of
the penalty sandwich event.

The grid runs replicate-major.  Replicate ``rep`` draws every size from
seed ``base_seed + rep``, so a smaller size's sample is a prefix of the same
stream: one task per replicate walks the grid's sizes in increasing order
over one :class:`~flradapt.simulate.GridStream`, which draws each normal
once, in one pass, and estimates and drops one size's dataset at a time.
The grid points of a replicate therefore share their first rows, and their
errors are positively correlated.  Tasks whose largest draw is long go to a
``concurrent.futures`` thread pool with one thread per usable CPU; the
calling thread files the records in replicate order.  Each replicate has its
own seed, so the records do not depend on the thread count.  A dataset is
a view of the columns the estimator reads at the grid's largest size.

A task scores each result into its replicate's record on the thread that
estimated it and drops the result.  A record is one packed :data:`RECORD`
(49 bytes), whose fields are the raw CSV's record columns.  Each sample
size's grid point owns a preallocated array of R records and a map from
failed replicates to their error; ``StudyReport.blocks`` keeps the grid
points, and ``write_raw_csv`` writes their records row by row.
"""
from __future__ import annotations

import contextvars
import csv
import json
import math
import os
from collections import Counter, deque
from contextlib import closing
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import adaptive, functionals, oracle, simulate
from ._util import check_int, finite_or_null, fmt

SANDWICH_UPPER_FACTOR = 24.0

# numerical failures a replicate may end in; they are recorded in its "error"
# field and count against the failure budget, anything else propagates
_EXPECTED_FAILURES = (
    adaptive.AdaptiveEstimationError,
    np.linalg.LinAlgError,
)


# a study's stream keeps max(MIN_KEPT_COLUMNS, m_ell of its largest size)
# columns and every size reads a view of them: for m < 4 only, the moments of
# a C-contiguous n x m matrix take another BLAS path than a wider stride's
MIN_KEPT_COLUMNS = 4

# a study goes to pool threads only when its replicates' largest draw has
# this many normals (n_max * J): below it a replicate is mostly Python
# work, which holds the interpreter lock, and two threads buy no steady wall
# time for more processor time (on a 2-vCPU VM, with a whole replicate per
# task, small_n's 16..256 grid at 2^15 normals was faster on two threads in
# 9 of 10 alternated rounds of one batch and 2 of 10 of the next, for 19-45 %
# more process time)
THREADED_MIN_NORMALS = 2 ** 16


class StudyError(RuntimeError):
    """Too many replicate failures, or an unusable configuration."""


def _sampler_threads() -> int:
    """One sampler thread per CPU this process may run on."""
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _drawn_in_order(task, count: int, threads: int):
    """Yield ``task(rep)`` for rep = 0..count-1 in order.

    With no threads each task runs on the calling thread.  With threads a
    pool runs ahead, at most ``threads + 1`` futures at a time, so memory
    does not grow with the replicate count; each task runs in a copy of the
    caller's context (its numpy error state), and a task's exception is
    raised where its replicate is yielded.  Closing the generator cancels
    the tasks not yet started and joins the pool's threads.
    """
    if not threads:
        yield from map(task, range(count))
        return
    # imported here: concurrent.futures loads logging, which would add
    # about 10 ms to ``import flradapt`` for studies that never use a pool
    from concurrent.futures import ThreadPoolExecutor
    pool = ThreadPoolExecutor(threads)
    pending = deque()
    try:
        for rep in range(count):
            pending.append(pool.submit(contextvars.copy_context().run, task, rep))
            if len(pending) > threads:
                yield pending.popleft().result()
        while pending:
            yield pending.popleft().result()
    finally:
        pool.shutdown(wait=True, cancel_futures=True)


@dataclass(frozen=True)
class StudyConfig:
    model: object
    spec: object
    sigma: float
    n_grid: tuple
    replicates: int
    base_seed: int
    mixing: float = 0.0
    report_path: Optional[str] = None
    raw_path: Optional[str] = None
    curves_path: Optional[str] = None

    def __post_init__(self):
        object.__setattr__(self, "n_grid",
                           tuple(check_int(n, "n_grid entry", 16) for n in self.n_grid))
        check_int(self.replicates, "replicates", 2)
        check_int(self.base_seed, "base_seed", 0)
        if len(self.n_grid) == 0:
            raise ValueError("n_grid must be non-empty")
        if any(b <= a for a, b in zip(self.n_grid, self.n_grid[1:])):
            raise ValueError("n_grid must be strictly increasing")
        # every replicate samples with these settings; check them once here
        simulate.check_sigma(self.sigma)
        simulate.check_mixing(self.mixing)


# one replicate's record, its fields in the raw CSV's order; packed, so a
# record takes 49 bytes: the squared errors at the selected, the best fixed
# and the m* dimension, m_hat, the two caps and the sandwich code (1 where
# the penalty sandwich held, 0 where it did not and -1 where it was not
# checked: a rotated covariance, or a failure)
RECORD = np.dtype([
    ("sq_err_adaptive", "f8"), ("sq_err_best_fixed", "f8"), ("sq_err_mstar", "f8"),
    ("m_hat", "i8"), ("m_hat_cap", "i8"), ("m_ell_cap", "i8"),
    ("sandwich_ok", "i1"),
])

# the record of a failed replicate, one value per RECORD field
FAILED = (math.nan, math.nan, math.nan, 0, 0, 0, -1)

# raw CSV cell of each sandwich_ok code
_SANDWICH_CELLS = {-1: "", 0: "False", 1: "True"}


@dataclass(eq=False)
class StudyReport:
    config_echo: dict
    rows: list
    blocks: list
    slopes: dict
    total_errors: int

    def to_json_dict(self) -> dict:
        return {
            "config": self.config_echo,
            "per_n": self.rows,
            "slopes": self.slopes,
            "total_errors": self.total_errors,
            "note": (
                "risks are estimated for one slope/covariance configuration "
                "and therefore bound the class-maximal risk from below"
            ),
        }


def _config_echo(cfg: StudyConfig) -> dict:
    return {
        "model": asdict(cfg.model),
        "functional": {"kind": type(cfg.spec).__name__, **asdict(cfg.spec)},
        "sigma": cfg.sigma,
        "n_grid": list(cfg.n_grid),
        "replicates": cfg.replicates,
        "base_seed": cfg.base_seed,
        "penalty_constant": adaptive.PENALTY_CONSTANT,
        "slope_scale": simulate.SLOPE_SCALE,
        "mixing": cfg.mixing,
    }


def _lower_dimension_bound(cov, spec, n: int, m_ell: int) -> int:
    """Deterministic lower companion of the random dimension bound: the same
    rule with the inverse norms replaced by 16 d^3 / gamma_m, using the
    eigenvalue weights of ``cov`` (link constant d = 1, diagonal case)."""
    gam = cov.eigenvalues()[:m_ell]
    return adaptive.cap_m_hat(16.0 / gam, functionals.gram_prefix(spec, m_ell),
                              n, m_ell)


class _GridPoint:
    """One sample size: its per-n constants and its replicates' records.

    ``records`` holds one :data:`RECORD` per replicate, replicate ``rep``
    drawn with seed ``base_seed + rep``; a failed replicate has its
    ``"Kind: message"`` in ``errors`` and :data:`FAILED` as its record.
    ``score`` turns a replicate's result into its record on the thread that
    estimated it, so no result outlives its replicate; ``file`` stores the
    records in replicate order and ``row`` returns the per-n row of the
    report."""

    def __init__(self, cfg: StudyConfig, cov, slope, n: int):
        self.cfg, self.n = cfg, n
        self.target = simulate.true_value(cfg.spec, slope)
        self.m_ell = m_ell = adaptive.cap_m_ell(cfg.spec, n)
        self.m_star, self.r_minimax = oracle.minimax_dimension(cfg.model, cfg.spec, 1.0 / n)
        self.m_diamond, self.r_adaptive = oracle.minimax_dimension(
            cfg.model, cfg.spec, (1.0 + math.log(n)) / n
        )
        self.diagonal = cov.is_diagonal
        if self.diagonal:
            # the sandwich p_pop <= p_hat <= factor * p_pop reaches at most mu_n
            p_theo = oracle.theoretical_penalty_curve(cov, cfg.spec, slope, cfg.sigma, n, m_ell)
            p_pop = p_theo[:_lower_dimension_bound(cov, cfg.spec, n, m_ell)]
            self.p_pop = p_pop.tolist()
            self.p_upper = (SANDWICH_UPPER_FACTOR * p_pop).tolist()
        self.records = np.empty(cfg.replicates, RECORD)
        self.records[:] = FAILED
        self.errors = {}

    def score(self, result) -> tuple:
        """One replicate's record, its values in :data:`RECORD` order.

        Every error is squared as ``d * d``, so a selected best fixed
        dimension gives the best fixed error bit for bit.  It works on
        Python floats, faster than numpy for a replicate's few values.
        """
        target = self.target
        est_all = result.diagnostics["estimates_all"].tolist()
        squares = [(e - target) * (e - target) for e in est_all]
        error = result.value - target
        m_fixed = min(self.m_star, result.m_ell_cap)
        sandwich = -1
        if self.diagonal:
            # zip stops at k_max = min(m_hat_cap, mu_n)
            p_hat = result.penalties[:result.m_hat_cap].tolist()
            sandwich = int(all(low <= p <= high
                               for low, p, high in zip(self.p_pop, p_hat, self.p_upper)))
        return (
            error * error,
            # NaN when any square is, as numpy's min gives it
            math.nan if any(map(math.isnan, squares)) else min(squares),
            squares[m_fixed - 1],
            result.selected, result.m_hat_cap, result.m_ell_cap, sandwich,
        )

    def file(self, rep: int, record) -> None:
        """Store replicate ``rep``'s record, or its ``"Kind: message"``."""
        if isinstance(record, str):
            self.errors[rep] = record
        else:
            self.records[rep] = record

    def row(self) -> dict:
        """The per-n row of the report."""
        cfg, records = self.cfg, self.records
        # one scalar store per failure: an index list would run numpy's
        # index-array assignment for the first time, 128 kB of peak RSS
        ok = np.ones(len(records), dtype=bool)
        for rep in self.errors:
            ok[rep] = False
        good = int(np.count_nonzero(ok))
        row = {
            "n": self.n,
            "replicates_ok": good,
            "errors": len(self.errors),
            "m_star": self.m_star,
            "m_diamond": self.m_diamond,
            "r_star_minimax": self.r_minimax,
            "r_star_adaptive": self.r_adaptive,
            "true_value": self.target,
            "side_condition_ratio": oracle.side_condition_ratio(
                cfg.model, cfg.spec, self.n, self.m_diamond
            ),
        }
        if good:
            ad = records["sq_err_adaptive"][ok]
            row["risk_adaptive"] = float(np.mean(ad))
            # a sample variance needs two survivors
            row["se_adaptive"] = (float(np.std(ad, ddof=1) / math.sqrt(good))
                                  if good > 1 else math.nan)
            row["risk_best_fixed"] = float(np.mean(records["sq_err_best_fixed"][ok]))
            row["risk_mstar_fixed"] = float(np.mean(records["sq_err_mstar"][ok]))
            # exact Python counts, keyed in ascending numeric order:
            # np.unique would run numpy's sort and unique code for the first
            # time here, after the grid, and add 256-648 kB of peak RSS
            counts = Counter(records["m_hat"][ok].tolist())
            row["m_hat_histogram"] = {str(m): counts[m] for m in sorted(counts)}
            flags = records["sandwich_ok"][ok]
            checked = int(np.count_nonzero(flags >= 0))
            row["sandwich_frequency"] = (
                float(int(np.count_nonzero(flags == 1)) / checked) if checked else None
            )
        return row


def _run_grid(cfg: StudyConfig) -> list:
    """The grid points of the study, one per size, each holding its
    replicates' records.

    One task per replicate walks the sizes in increasing order over one
    :class:`~flradapt.simulate.GridStream` of the replicate's seed, which
    draws every size's normals on the first call: each size's dataset is
    estimated, scored and dropped before the next size's is handed out.
    """
    cov = simulate.Covariance(cfg.model, simulate.default_truncation(cfg.n_grid[-1]),
                              cfg.mixing)
    slope = simulate.make_slope(cfg.model, cov.dim)
    points = [_GridPoint(cfg, cov, slope, n) for n in cfg.n_grid]
    width = max(MIN_KEPT_COLUMNS, *(point.m_ell for point in points))

    def replicate(rep):
        # each dataset and result dies on this thread before the next size
        # is handed out; an expected failure gives its "Kind: message"
        seed = cfg.base_seed + rep
        stream = simulate.GridStream(cov, slope, seed, cfg.n_grid, width)
        records = []
        for point in points:
            data = simulate.draw_dataset(cov, slope, point.n, cfg.sigma, seed, stream=stream)
            try:
                records.append(point.score(adaptive.adaptive_estimate(data, cfg.spec)))
            except _EXPECTED_FAILURES as err:
                records.append(f"{type(err).__name__}: {err}")
            del data
        return records

    threads = 0
    if cfg.n_grid[-1] * cov.dim >= THREADED_MIN_NORMALS:
        threads = min(_sampler_threads(), cfg.replicates)
    with closing(_drawn_in_order(replicate, cfg.replicates, threads)) as replicates:
        for rep, records in enumerate(replicates):
            for point, record in zip(points, records):
                point.file(rep, record)
    return points


def run_study(cfg: StudyConfig) -> StudyReport:
    """Execute the full study; deterministic given the configuration.

    Raises :class:`StudyError` when more than one percent of all replicates
    fail; individual failures are recorded and excluded from the means.
    """
    points = _run_grid(cfg)
    rows = [point.row() for point in points]
    total = len(cfg.n_grid) * cfg.replicates
    total_errors = sum(row["errors"] for row in rows)
    if total_errors > 0.01 * total:
        raise StudyError(
            f"{total_errors} of {total} replicates failed (> 1%)"
        )
    slopes = {}
    risks = [row.get("risk_adaptive") for row in rows]
    if len(cfg.n_grid) >= 3 and all(r is not None and r > 0 for r in risks):
        for abscissa in ("n", "n_over_log_n"):
            slope, stderr = fit_rate(cfg.n_grid, risks, abscissa)
            slopes[abscissa] = {"slope": slope, "stderr": stderr}
    else:
        slopes["note"] = "rate fit skipped: needs >= 3 grid points with positive risk"
    report = StudyReport(
        config_echo=_config_echo(cfg),
        rows=rows,
        blocks=points,
        slopes=slopes,
        total_errors=total_errors,
    )
    if cfg.report_path:
        write_report_json(report, cfg.report_path)
    if cfg.raw_path:
        write_raw_csv(report, cfg.raw_path)
    if cfg.curves_path:
        write_curves_csv(report, cfg.curves_path)
    return report


def fit_rate(n_values, risks, abscissa: str = "n") -> tuple:
    """Least squares of log(risk) on the log abscissa; returns (slope, se).

    ``abscissa`` is "n" or "n_over_log_n".  ``se`` treats the per-n risks as
    independent, though a study's grid points share each replicate's stream.
    """
    if abscissa not in ("n", "n_over_log_n"):
        raise ValueError(f"unknown abscissa {abscissa!r}")
    n_values = [float(n) for n in n_values]
    risks = [float(r) for r in risks]
    if len(n_values) != len(risks) or len(n_values) < 3:
        raise ValueError("need at least three (n, risk) pairs")
    if not all(1 < n < math.inf for n in n_values):
        raise ValueError("every sample size must be finite and exceed 1")
    if not all(0 < r < math.inf for r in risks):
        raise ValueError("every risk must be finite and positive: log-log fit undefined")
    if abscissa == "n":
        x = np.log(n_values)
    else:
        x = np.log([n / math.log(n) for n in n_values])
    # n / log n is not monotone below e: n = 2 and 4 share one abscissa
    if len(set(x.tolist())) < 2:
        raise ValueError("the sample sizes give fewer than two distinct abscissae")
    y = np.log(risks)
    dx = x - x.mean()
    slope = float(np.sum(dx * (y - y.mean())) / np.sum(dx * dx))
    resid = y - y.mean() - slope * dx
    dof = len(x) - 2
    var = float(np.sum(resid ** 2) / dof) if dof > 0 else 0.0
    stderr = math.sqrt(var / float(np.sum(dx * dx)))
    return slope, stderr


def write_report_json(report: StudyReport, path) -> None:
    """The report as standard JSON: a NaN or infinite value is null."""
    with open(path, "w") as fh:
        json.dump(finite_or_null(report.to_json_dict()), fh, indent=2, allow_nan=False)
        fh.write("\n")


_RAW_COLUMNS = ("n", "replicate", "seed", *RECORD.names, "error")

# the raw CSV formats this many records at a time: their cells take about
# 10 kB, where a whole grid point's took 130 kB at 1,000 replicates and
# grew the heap past the grid's peak
RAW_BLOCK = 64


def write_raw_csv(report: StudyReport, path) -> None:
    """One row per replicate; the fields of a failed replicate are empty
    but its error."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RAW_COLUMNS)
        for point in report.blocks:
            writer.writerows(_raw_rows(point))


def _record_cells(records: np.ndarray, name: str):
    """The raw CSV cells of one record field, each as ``fmt`` writes it:
    tolist() gives the Python floats, formatted by repr, and ints, formatted
    by str."""
    values = records[name].tolist()
    if name == "sandwich_ok":
        return map(_SANDWICH_CELLS.__getitem__, values)
    return map(repr if RECORD[name].kind == "f" else str, values)


def _raw_rows(point: _GridPoint):
    """The raw CSV rows of one grid point, formatted :data:`RAW_BLOCK`
    records at a time."""
    n, seed = fmt(point.n), point.cfg.base_seed
    errors, failed = point.errors, ("",) * len(RECORD)
    for start in range(0, len(point.records), RAW_BLOCK):
        records = point.records[start:start + RAW_BLOCK]
        reps = range(start, start + len(records))
        rows = zip(
            [n] * len(reps),
            map(str, reps),
            map(str, range(seed + start, seed + reps.stop)),
            *(_record_cells(records, name) for name in RECORD.names),
            [""] * len(reps),
        )
        for rep, row in zip(reps, rows):
            yield row if rep not in errors else row[:3] + failed + (errors[rep],)


def write_curves_csv(report: StudyReport, path) -> None:
    """Plot-ready risk curves, one row per sample size."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([
            "n", "risk_adaptive", "se", "risk_oracle",
            "rate_theoretical_minimax", "rate_theoretical_adaptive",
        ])
        for row in report.rows:
            writer.writerow([
                fmt(row["n"]),
                fmt(row.get("risk_adaptive", float("nan"))),
                fmt(row.get("se_adaptive", float("nan"))),
                fmt(row.get("risk_best_fixed", float("nan"))),
                fmt(row["r_star_minimax"]),
                fmt(row["r_star_adaptive"]),
            ])
