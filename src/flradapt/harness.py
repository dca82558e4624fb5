"""Monte Carlo risk studies over a grid of sample sizes.

Each run of sample sizes with one J = ``default_truncation(n)`` builds one
:class:`~flradapt.simulate.Covariance` and one slope: every replicate's
draws sample from that covariance, and the population penalty reads it.
For each replicate and sample size the harness draws a dataset, runs the
data-driven estimator, and records the squared error of the selected value
next to two benchmarks: the per-replicate best fixed dimension (the
realized minimum over all candidate dimensions, an optimistic stand-in for
the infeasible oracle) and the fixed theoretically-optimal dimension.
Aggregates include theoretical risk levels, a log-log rate fit, the
selected-dimension histogram, and for diagonal covariances the frequency of
the penalty sandwich event.

The grid runs replicate-major within each run of sample sizes that share J.
Replicate ``rep`` draws every size from seed ``base_seed + rep``, so a
smaller size's sample is a prefix of the same stream: one task per
replicate walks the run's sizes in increasing order over one
:class:`~flradapt.simulate.GridStream`, which draws each normal once, in
one pass, and estimates and drops one size's dataset at a time.
The grid points of a replicate therefore share their first rows, and their
errors are positively correlated.  Tasks whose largest draw is long go to a
``concurrent.futures`` thread pool with one thread per usable CPU; the
calling thread files the records in replicate order.  Each replicate has its
own seed, so the records do not depend on the thread count.  A drawn
dataset keeps only the regressor columns the estimator reads.

A task scores each result into its replicate's record on the thread that
estimated it and drops the result.  A record is one packed :data:`RECORD`
(49 bytes), whose fields are the raw CSV's record columns.  The records of a
grid point live in one :class:`ReplicateBlock`, a preallocated array of R
records and a map from failed replicates to their error;
``StudyReport.blocks`` keeps one block per sample size, and
``write_raw_csv`` writes them row by row.
"""
from __future__ import annotations

import contextvars
import csv
import json
import math
import os
from collections import deque
from contextlib import closing
from dataclasses import asdict, dataclass
from typing import Optional

import numpy as np

from . import adaptive, functionals, oracle, sequences, simulate
from ._util import check_int, fmt

SANDWICH_UPPER_FACTOR = 24.0

# numerical failures a replicate may end in; they are recorded in its "error"
# field and count against the failure budget, anything else propagates
_EXPECTED_FAILURES = (
    adaptive.AdaptiveEstimationError,
    np.linalg.LinAlgError,
)


# a study's dataset keeps max(m_ell, MIN_KEPT_COLUMNS) regressor columns:
# the moments of a C-contiguous n x m matrix with m < 4 take another BLAS
# path than those of a wider row stride and can differ in the last bits
MIN_KEPT_COLUMNS = 4

# a run of sizes goes to pool threads only when its replicates' largest draw
# has this many normals (n_max * J): below it a replicate is mostly Python
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

# raw CSV cell of each sandwich_ok code
_SANDWICH_CELLS = {-1: "", 0: "False", 1: "True"}


@dataclass(eq=False)
class ReplicateBlock:
    """The replicate records of one sample size, one :data:`RECORD` each.

    Replicate ``rep`` drew with seed ``base_seed + rep``.  A failed replicate
    has its ``"Kind: message"`` in ``errors`` and NaN, 0 or -1 in its record.
    """

    n: int
    base_seed: int
    records: np.ndarray
    errors: dict

    @classmethod
    def allocate(cls, n: int, base_seed: int, replicates: int) -> "ReplicateBlock":
        records = np.empty(replicates, RECORD)
        records[:] = (math.nan, math.nan, math.nan, 0, 0, 0, -1)
        return cls(n=n, base_seed=base_seed, records=records, errors={})

    def succeeded(self) -> np.ndarray:
        """Boolean mask of the replicates that did not fail."""
        ok = np.ones(len(self.records), dtype=bool)
        ok[list(self.errors)] = False
        return ok


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


def _lower_dimension_bound(cfg, n: int, m_ell: int) -> int:
    """Deterministic lower companion of the random dimension bound: the same
    rule with the inverse norms replaced by 16 d^3 / gamma_m, using the known
    eigenvalue weights (link constant d = 1, diagonal case)."""
    gam = sequences.gamma_array(cfg.model, m_ell)
    return adaptive.cap_m_hat(16.0 / gam, functionals.gram_prefix(cfg.spec, m_ell),
                              n, m_ell)


class _GridPoint:
    """The per-n constants of one sample size and the block its replicates
    are filed into.  ``score`` turns a replicate's result into its record on
    the thread that estimated it, so no result outlives its replicate;
    ``file`` stores the records in replicate order and ``finish`` returns
    the block and its per-n row of the report."""

    def __init__(self, cfg: StudyConfig, cov, slope, n: int):
        self.cfg, self.n = cfg, n
        self.target = simulate.true_value(cfg.spec, slope)
        m_ell = adaptive.cap_m_ell(cfg.spec, n)
        self.m_star, self.r_minimax = oracle.minimax_dimension(cfg.model, cfg.spec, 1.0 / n)
        self.m_diamond, self.r_adaptive = oracle.minimax_dimension(
            cfg.model, cfg.spec, (1.0 + math.log(n)) / n
        )
        self.diagonal = cov.is_diagonal
        if self.diagonal:
            # the sandwich p_pop <= p_hat <= factor * p_pop reaches at most mu_n
            p_theo = oracle.theoretical_penalty_curve(cov, cfg.spec, slope, cfg.sigma, n, m_ell)
            p_pop = p_theo[:_lower_dimension_bound(cfg, n, m_ell)]
            self.p_pop = p_pop.tolist()
            self.p_upper = (SANDWICH_UPPER_FACTOR * p_pop).tolist()
        self.columns = max(m_ell, MIN_KEPT_COLUMNS)
        self.block = ReplicateBlock.allocate(n, cfg.base_seed, cfg.replicates)

    def score(self, result) -> tuple:
        """One replicate's record, its values in :data:`RECORD` order.

        The adaptive and m* errors are ``pow(x, 2)`` and the best fixed one the
        least ``x * x``, which differ in the last bit for about one double in a
        thousand; the split stays because study outputs keep their bytes.  It
        works on Python floats, faster than numpy for a replicate's few values.
        """
        target = self.target
        est_all = result.diagnostics["estimates_all"].tolist()
        squares = [(e - target) * (e - target) for e in est_all]
        m_fixed = min(self.m_star, result.m_ell_cap)
        sandwich = -1
        if self.diagonal:
            # zip stops at k_max = min(m_hat_cap, mu_n)
            p_hat = result.penalties[:result.m_hat_cap].tolist()
            sandwich = int(all(low <= p <= high
                               for low, p, high in zip(self.p_pop, p_hat, self.p_upper)))
        return (
            (result.value - target) ** 2,
            # NaN when any square is, as numpy's min gives it
            math.nan if any(map(math.isnan, squares)) else min(squares),
            (est_all[m_fixed - 1] - target) ** 2,
            result.selected, result.m_hat_cap, result.m_ell_cap, sandwich,
        )

    def file(self, rep: int, record) -> None:
        """Store replicate ``rep``'s record, or its ``"Kind: message"``."""
        if isinstance(record, str):
            self.block.errors[rep] = record
        else:
            self.block.records[rep] = record

    def finish(self) -> tuple:
        """The block and its per-n row of the report."""
        cfg, block = self.cfg, self.block
        records, ok = block.records, block.succeeded()
        good = int(np.count_nonzero(ok))
        row = {
            "n": self.n,
            "replicates_ok": good,
            "errors": len(block.errors),
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
            row["se_adaptive"] = float(np.std(ad, ddof=1) / math.sqrt(len(ad)))
            row["risk_best_fixed"] = float(np.mean(records["sq_err_best_fixed"][ok]))
            row["risk_mstar_fixed"] = float(np.mean(records["sq_err_mstar"][ok]))
            # np.unique returns the selected dimensions in ascending order
            dims, counts = np.unique(records["m_hat"][ok], return_counts=True)
            row["m_hat_histogram"] = dict(zip(map(str, dims.tolist()), counts.tolist()))
            flags = records["sandwich_ok"][ok]
            checked = int(np.count_nonzero(flags >= 0))
            row["sandwich_frequency"] = (
                float(int(np.count_nonzero(flags == 1)) / checked) if checked else None
            )
        return block, row


def _truncation_runs(n_grid) -> list:
    """The grid split into runs of consecutive sample sizes that share
    J = ``default_truncation(n)``."""
    runs = []
    for n in n_grid:
        if runs and simulate.default_truncation(runs[-1][-1]) == simulate.default_truncation(n):
            runs[-1].append(n)
        else:
            runs.append([n])
    return runs


def _run_sizes(cfg: StudyConfig, sizes: list) -> list:
    """The replicate blocks and per-n rows of sample sizes that share J,
    one (block, row) pair per size.

    One task per replicate walks the sizes in increasing order over one
    :class:`~flradapt.simulate.GridStream` of the replicate's seed, which
    draws every size's normals on the first call: each size's dataset is
    estimated, scored and dropped before the next size's is handed out.
    """
    cov = simulate.Covariance(cfg.model, simulate.default_truncation(sizes[0]), cfg.mixing)
    slope = simulate.make_slope(cfg.model, cov.dim)
    points = [_GridPoint(cfg, cov, slope, n) for n in sizes]
    width = max(point.columns for point in points)

    def replicate(rep):
        # each dataset and result dies on this thread before the next size
        # is handed out; an expected failure gives its "Kind: message"
        seed = cfg.base_seed + rep
        stream = simulate.GridStream(cov, slope, seed, sizes, width)
        records = []
        for point in points:
            data = simulate.draw_dataset(cov, slope, point.n, cfg.sigma, seed,
                                         point.columns, stream=stream)
            try:
                records.append(point.score(adaptive.adaptive_estimate(data, cfg.spec)))
            except _EXPECTED_FAILURES as err:
                records.append(f"{type(err).__name__}: {err}")
            del data
        return records

    threads = 0
    if sizes[-1] * cov.dim >= THREADED_MIN_NORMALS:
        threads = min(_sampler_threads(), cfg.replicates)
    with closing(_drawn_in_order(replicate, cfg.replicates, threads)) as replicates:
        for rep, records in enumerate(replicates):
            for point, record in zip(points, records):
                point.file(rep, record)
    return [point.finish() for point in points]


def run_study(cfg: StudyConfig) -> StudyReport:
    """Execute the full study; deterministic given the configuration.

    Raises :class:`StudyError` when more than one percent of all replicates
    fail; individual failures are recorded and excluded from the means.
    """
    rows = []
    blocks = []
    for sizes in _truncation_runs(cfg.n_grid):
        for block, row in _run_sizes(cfg, sizes):
            blocks.append(block)
            rows.append(row)
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
        blocks=blocks,
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

    ``abscissa`` is "n" or "n_over_log_n".
    """
    if abscissa not in ("n", "n_over_log_n"):
        raise ValueError(f"unknown abscissa {abscissa!r}")
    n_values = [float(n) for n in n_values]
    risks = [float(r) for r in risks]
    if len(n_values) != len(risks) or len(n_values) < 3:
        raise ValueError("need at least three (n, risk) pairs")
    if not all(n > 1 for n in n_values):
        raise ValueError("every sample size must exceed 1")
    if any(r <= 0 for r in risks):
        raise ValueError("zero or negative risk: log-log fit undefined")
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
    with open(path, "w") as fh:
        json.dump(report.to_json_dict(), fh, indent=2)
        fh.write("\n")


_RAW_COLUMNS = ("n", "replicate", "seed", *RECORD.names, "error")


def write_raw_csv(report: StudyReport, path) -> None:
    """One row per replicate; the fields of a failed replicate are empty
    but its error."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_RAW_COLUMNS)
        for block in report.blocks:
            writer.writerows(_raw_rows(block))


def _record_cells(records: np.ndarray, name: str):
    """The raw CSV cells of one record field, each as ``fmt`` writes it:
    tolist() gives the Python floats, formatted by repr, and ints, formatted
    by str."""
    values = records[name].tolist()
    if name == "sandwich_ok":
        return map(_SANDWICH_CELLS.__getitem__, values)
    return map(repr if RECORD[name].kind == "f" else str, values)


def _raw_rows(block: ReplicateBlock):
    """The raw CSV rows of one block."""
    records, count = block.records, len(block.records)
    rows = zip(
        [fmt(block.n)] * count,
        map(str, range(count)),
        map(str, range(block.base_seed, block.base_seed + count)),
        *(_record_cells(records, name) for name in RECORD.names),
        [""] * count,
    )
    errors, failed = block.errors, ("",) * len(RECORD)
    for rep, row in enumerate(rows):
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
