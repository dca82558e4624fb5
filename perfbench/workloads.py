"""Workload table of the study benchmark and the mapping from --seed to inputs.

Every workload studies the same model and functional: polynomial decay
(`pp`, p = a = 1, ellipsoid radius r = 2) and point evaluation at t0 = 0.3,
with sigma = 1.  They differ in the sample-size grid, the replicate count and
the covariance construction, which moves the cost between the layers.
"""
from __future__ import annotations

WORKLOADS = {
    "headline_pp_point": {
        "why": "the ROADMAP headline study users run; row sampling at n up to 8000 dominates",
        "n_grid": (500, 1000, 2000, 4000, 8000),
        "replicates": 200,
        "mixing": 0.0,
    },
    "small_n_many_reps": {
        "why": "n = 16..256 with many replicates; per-replicate fixed costs of estimator, selection and harness dominate",
        "n_grid": (16, 32, 64, 128, 256),
        "replicates": 1000,
        "mixing": 0.0,
    },
    "rotated_pp_point": {
        "why": "headline grid with Givens mixing 0.3; rotation loop in the sampler, no diagonal-only oracle or sandwich work",
        "n_grid": (500, 1000, 2000, 4000, 8000),
        "replicates": 100,
        "mixing": 0.3,
    },
}

# --seed picks one of REFERENCE_SEEDS study base seeds.  The output check
# compares risks against values recorded for exactly these base seeds
# (reference.json); SEED_STRIDE exceeds every replicate count, so the
# replicate seeds base_seed + rep of two base seeds never overlap.
BASE_SEED = 20260810
SEED_STRIDE = 10_000
REFERENCE_SEEDS = 32


def base_seed(seed: int) -> int:
    """Study base seed for the benchmark's --seed."""
    return BASE_SEED + SEED_STRIDE * (seed % REFERENCE_SEEDS)


def total_replicates(name: str) -> int:
    """Replicates one study of the workload attempts (grid points x replicates)."""
    spec = WORKLOADS[name]
    return len(spec["n_grid"]) * spec["replicates"]
