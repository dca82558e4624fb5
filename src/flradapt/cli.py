"""Command-line entry point.

Subcommands: ``simulate`` writes a dataset CSV, ``estimate`` reads one and
prints the selection result as JSON, ``mc-study`` runs a Monte Carlo study
and writes its report files, ``rates`` prints the theoretical risk curve and
closed-form rate orders.

Configuration comes from an optional YAML file (sections ``model``,
``functional``, ``simulate``, ``study``, ``output``); every flag overrides
the matching config key, and an unknown section or key is a config error.

Exit codes: 0 success, 1 usage or configuration error, 2 numerical failure.
Errors print one machine-parsable line on stderr: ``error: <category>:
<detail>``.
"""
from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
import yaml

from . import adaptive, functionals, harness, oracle, sequences, simulate
from ._util import check_int, finite_or_null

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_NUMERIC = 2


class ConfigError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    """Raises ValueError where argparse would print its usage block and exit
    2, so that a refused command line is one ``error: usage:`` line."""

    def error(self, message):
        raise ValueError(f"{self.prog}: {message}")


# keys some subcommand reads, per config section; the ``functional`` section
# takes ``kind`` plus that kind's fields from ``_FUNCTIONAL_KINDS``
_CONFIG_KEYS = {
    "model": ("regime", "p", "a", "r"),
    "functional": ("kind",),
    "simulate": ("n", "sigma", "seed", "theta"),
    "study": ("n_grid", "replicates", "base_seed", "n"),
    "output": ("dir", "dataset"),
}


def _load_config(path):
    if path is None:
        return {}
    if not os.path.exists(path):
        raise ConfigError(f"config not found: {path}")
    with open(path) as fh:
        try:
            cfg = yaml.safe_load(fh) or {}
        except yaml.YAMLError as err:
            raise ConfigError(f"config unreadable: {err}") from err
    if not isinstance(cfg, dict):
        raise ConfigError("config must be a mapping of sections")
    for name, sec in cfg.items():
        if name not in _CONFIG_KEYS:
            raise ConfigError(f"unknown section {name!r}")
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
        known = _CONFIG_KEYS[name]
        if name == "functional" and sec:
            _, fields = _functional_kind(sec.get("kind"), "config section 'functional'")
            known = ("kind", *(field for field, _ in fields))
        for key in sec:
            if key not in known:
                raise ConfigError(f"unknown key {name}.{key}")
    return cfg


def _pick(cfg, section, key, flag_value, default=None, cast=None):
    """The flag value if given, else the config's ``section.key``, else
    ``default``; a key set to null counts as absent.  A value ``cast``
    refuses is a config error naming the key."""
    val = flag_value
    if val is None:
        val = cfg.get(section, {}).get(key)
    if val is None:
        val = default
    if val is None or cast is None:
        return val
    try:
        return cast(val)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{section}.{key}: {err}") from err


def _int(value) -> int:
    """Strict integer cast: refuses booleans and non-integral numbers."""
    if isinstance(value, bool) or (isinstance(value, float) and not value.is_integer()):
        raise ValueError(f"expected an integer, got {value!r}")
    return int(value)


def _float(value) -> float:
    """Strict float cast: refuses booleans."""
    if isinstance(value, bool):
        raise ValueError(f"expected a number, got {value!r}")
    return float(value)


def _ints(value):
    """Integer list from ``n1,n2,..`` text or a YAML sequence."""
    if isinstance(value, str):
        value = value.split(",")
    return tuple(_int(v) for v in value)


def _floats(value):
    """Coefficient list from ``c1,c2,..`` text or a YAML sequence."""
    if isinstance(value, str):
        value = value.split(",")
    return tuple(_float(v) for v in value)


def _build_model(cfg, args):
    regime = _pick(cfg, "model", "regime", args.regime)
    if regime is None:
        raise ConfigError("model regime missing (set model.regime or --regime)")
    p, a = (_pick(cfg, "model", key, getattr(args, key), cast=_float) for key in ("p", "a"))
    missing = [k for k, v in (("p", p), ("a", a)) if v is None]
    if missing:
        raise ConfigError(f"model parameters missing: {', '.join(missing)}")
    r = _pick(cfg, "model", "r", args.r, default=1.0, cast=_float)
    try:
        return sequences.SequenceModel(regime=sequences.Regime(regime), p=p, a=a, r=r)
    except ValueError as err:
        raise ConfigError(str(err)) from err


# functional kind -> (constructor, ordered (field, cast) pairs); the ordered
# fields are the colon-separated values of the ``--functional`` text and the
# keys of the ``functional:`` config section
_FUNCTIONAL_KINDS = {
    "point": (functionals.PointEval, (("t0", _float),)),
    "deriv": (functionals.DerivativeEval, (("t0", _float), ("q", _int))),
    "avg": (functionals.LocalAverage, (("b", _float),)),
    "custom": (functionals.Custom, (("coeffs", _floats),)),
}
_FUNCTIONAL_USAGE = "point:t0 | deriv:t0:q | avg:b | custom:c1,c2,.."


def _functional_kind(kind, source: str):
    if not isinstance(kind, str) or kind not in _FUNCTIONAL_KINDS:
        raise ConfigError(f"unknown functional kind {kind!r} in {source} ({_FUNCTIONAL_USAGE})")
    return _FUNCTIONAL_KINDS[kind]


def _make_functional(kind, values: dict, source: str):
    cls, fields = _functional_kind(kind, source)
    try:
        return cls(**{name: cast(values[name]) for name, cast in fields})
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad functional {source}: {err!r}") from err


def parse_functional(text):
    """Parse ``point:t0``, ``deriv:t0:q``, ``avg:b``, or ``custom:c1,c2,...``."""
    kind, *parts = str(text).split(":")
    names = [name for name, _ in _FUNCTIONAL_KINDS.get(kind, (None, ()))[1]]
    if len(parts) != len(names):
        raise ConfigError(f"bad functional {text!r} ({_FUNCTIONAL_USAGE})")
    return _make_functional(kind, dict(zip(names, parts)), repr(text))


def _build_functional(cfg, args):
    if getattr(args, "functional", None) is not None:
        return parse_functional(args.functional)
    sec = cfg.get("functional", {})
    if sec.get("kind") is None:
        raise ConfigError("functional missing (set functional.kind or --functional)")
    return _make_functional(sec["kind"], sec, "config section 'functional'")


def _cmd_simulate(args):
    cfg = _load_config(args.config)
    model = _build_model(cfg, args)
    n = _pick(cfg, "simulate", "n", args.n, cast=_int)
    sigma = _pick(cfg, "simulate", "sigma", args.sigma, default=1.0, cast=_float)
    seed = _pick(cfg, "simulate", "seed", args.seed, default=0, cast=_int)
    if n is None:
        raise ConfigError("sample size missing (simulate.n or --n)")
    theta = _pick(cfg, "simulate", "theta", args.theta, default=0.0, cast=_float)
    out = _pick(cfg, "output", "dataset", args.out, cast=os.fspath)
    if out is None:
        raise ConfigError("output path missing (output.dataset or --out)")
    cov = simulate.Covariance(model, simulate.default_truncation(n), theta)
    slope = simulate.make_slope(model, cov.dim)
    data = simulate.draw_dataset(cov, slope, n, sigma, seed)
    simulate.save_dataset_csv(data, out)
    print(f"wrote {data.n} x {data.dim} dataset to {out}")
    return EXIT_OK


def _cmd_estimate(args):
    cfg = _load_config(args.config)
    spec = _build_functional(cfg, args)
    data_path = _pick(cfg, "output", "dataset", args.data, cast=os.fspath)
    if data_path is None:
        raise ConfigError("dataset path missing (--data)")
    if not os.path.exists(data_path):
        raise ConfigError(f"dataset not found: {data_path}")
    data = simulate.load_dataset_csv(data_path)
    result = adaptive.adaptive_estimate(data, spec)
    text = json.dumps(result.to_record(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_mc_study(args):
    cfg = _load_config(args.config)
    model = _build_model(cfg, args)
    spec = _build_functional(cfg, args)
    n_grid = _pick(cfg, "study", "n_grid", args.n_grid, cast=_ints)
    if n_grid is None:
        raise ConfigError("study n_grid missing (study.n_grid or --n-grid)")
    out_dir = _pick(cfg, "output", "dir", args.out_dir, default=".", cast=os.fspath)
    study = harness.StudyConfig(
        model=model,
        spec=spec,
        sigma=_pick(cfg, "simulate", "sigma", args.sigma, default=1.0, cast=_float),
        n_grid=n_grid,
        replicates=_pick(cfg, "study", "replicates", args.replicates, default=100,
                         cast=_int),
        base_seed=_pick(cfg, "study", "base_seed", args.base_seed, default=0, cast=_int),
        mixing=_pick(cfg, "simulate", "theta", args.theta, default=0.0, cast=_float),
        report_path=os.path.join(out_dir, "study_report.json"),
        raw_path=os.path.join(out_dir, "study_raw.csv"),
        curves_path=os.path.join(out_dir, "study_curves.csv"),
    )
    os.makedirs(out_dir, exist_ok=True)
    report = harness.run_study(study)
    summary = {
        "per_n_risk_adaptive": {
            str(row["n"]): row.get("risk_adaptive") for row in report.rows
        },
        "slopes": report.slopes,
        "report": study.report_path,
        "raw": study.raw_path,
        "curves": study.curves_path,
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _cmd_rates(args):
    cfg = _load_config(args.config)
    model = _build_model(cfg, args)
    spec = _build_functional(cfg, args)
    n = check_int(_pick(cfg, "study", "n", args.n, default=10000, cast=_int), "n", 1)
    m_search = args.m_search
    if m_search is None:
        m_search = oracle.default_search_bound(model, n)
    else:
        check_int(m_search, "--m-search", 1)
    x_minimax = 1.0 / n
    x_adaptive = (1.0 + math.log(n)) / n
    m_star, r_minimax = oracle.minimax_dimension(model, spec, x_minimax, m_search)
    m_diamond, r_adaptive = oracle.minimax_dimension(model, spec, x_adaptive, m_search)
    out = {
        "n": n,
        "m_search": m_search,
        "m_star": m_star,
        "r_star_minimax": r_minimax,
        "m_diamond": m_diamond,
        "r_star_adaptive": r_adaptive,
        "side_condition_ratio": oracle.side_condition_ratio(model, spec, n, m_diamond),
        "risk_curve_minimax": [
            float(v) for v in oracle.risk_curve(model, spec, x_minimax, m_search)
        ],
    }
    for mode in ("minimax", "adaptive"):
        try:
            desc = oracle.rate_exponent(model, spec, mode)
            out[f"{mode}_order"] = {
                "n_exponent": desc.n_exponent,
                "log_exponent": desc.log_exponent,
                "label": desc.label(),
            }
        except oracle.RegimeConditionError as err:
            out[f"{mode}_order"] = {"error": str(err)}
    print(json.dumps(finite_or_null(out), indent=2))
    return EXIT_OK


def _add_model_flags(sub):
    sub.add_argument("--regime", choices=[r.value for r in sequences.Regime])
    sub.add_argument("--p", type=float)
    sub.add_argument("--a", type=float)
    sub.add_argument("--r", type=float)


def _add_functional_flag(sub):
    sub.add_argument("--functional", help=_FUNCTIONAL_USAGE)


def build_parser():
    parser = _Parser(prog="flradapt", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)

    sim = subs.add_parser("simulate", help="draw a dataset and write it as CSV")
    _add_model_flags(sim)
    sim.add_argument("--config")
    sim.add_argument("--n", type=int)
    sim.add_argument("--sigma", type=float)
    sim.add_argument("--seed", type=int)
    sim.add_argument("--theta", type=float)
    sim.add_argument("--out")
    sim.set_defaults(func=_cmd_simulate)

    est = subs.add_parser("estimate", help="run the data-driven estimator on a CSV dataset")
    _add_functional_flag(est)
    est.add_argument("--config")
    est.add_argument("--data")
    est.add_argument("--out")
    est.set_defaults(func=_cmd_estimate)

    study = subs.add_parser("mc-study", help="run a Monte Carlo risk study")
    _add_model_flags(study)
    _add_functional_flag(study)
    study.add_argument("--config")
    study.add_argument("--n-grid", dest="n_grid")
    study.add_argument("--replicates", type=int)
    study.add_argument("--base-seed", dest="base_seed", type=int)
    study.add_argument("--sigma", type=float)
    study.add_argument("--theta", type=float)
    study.add_argument("--out-dir", dest="out_dir")
    study.set_defaults(func=_cmd_mc_study)

    rates = subs.add_parser("rates", help="print the theoretical risk curve and rate orders")
    _add_model_flags(rates)
    _add_functional_flag(rates)
    rates.add_argument("--config")
    rates.add_argument("--n", type=int)
    rates.add_argument("--m-search", dest="m_search", type=int)
    rates.set_defaults(func=_cmd_rates)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        try:
            args = parser.parse_args(argv)
        except SystemExit:  # --help; a refused command line raises ValueError
            return EXIT_OK
        return args.func(args)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (
        adaptive.AdaptiveEstimationError,
        harness.StudyError,
        oracle.DivergentTailError,
        np.linalg.LinAlgError,
        ArithmeticError,
    ) as err:
        print(f"error: numeric: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as err:
        print(f"error: usage: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
