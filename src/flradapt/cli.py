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
import collections
import dataclasses
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


def _tuple_of(cast):
    """Strict cast of ``v1,v2,..`` text or a YAML sequence to a tuple."""
    return lambda value: tuple(map(cast, value.split(",") if isinstance(value, str) else value))


# a flag of a subcommand, the config ``section.key`` it overrides (None for a
# flag alone), its argparse type or choices, the strict cast of its value, its
# default, the config error when it has no value, and its help text
_Setting = collections.namedtuple("_Setting", "flag key type cast default missing help",
                                  defaults=(None,) * 6)


def _resolve(cfg, value, setting):
    """The flag ``value`` if given, else the config key, else the default;
    a key set to null counts as absent.  A value the cast refuses is a
    config error naming the key."""
    if value is None and setting.key:
        section, key = setting.key.split(".")
        value = cfg.get(section, {}).get(key)
    if value is None:
        value = setting.default
    if value is None and setting.missing:
        raise ConfigError(setting.missing)
    if value is None or setting.cast is None:
        return value
    try:
        return setting.cast(value)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"{setting.key}: {err}") from err


# functional kind -> its dataclass; the dataclass fields, in order, are the
# colon-separated values of the ``--functional`` text and the keys of the
# ``functional:`` config section, each cast by its annotation
_FUNCTIONAL_KINDS = {"point": functionals.PointEval, "deriv": functionals.DerivativeEval,
                     "avg": functionals.LocalAverage, "custom": functionals.Custom}
# keyed by annotation text: ``functionals`` postpones its annotations
_FIELD_CASTS = {"float": _float, "int": _int, "tuple": _tuple_of(_float)}
_FUNCTIONAL_USAGE = "point:t0 | deriv:t0:q | avg:b | custom:c1,c2,.."


def _functional_kind(kind, source: str):
    if not isinstance(kind, str) or kind not in _FUNCTIONAL_KINDS:
        raise ConfigError(f"unknown functional kind {kind!r} in {source} ({_FUNCTIONAL_USAGE})")
    return _FUNCTIONAL_KINDS[kind]


def _make_functional(kind, values: dict, source: str):
    cls = _functional_kind(kind, source)
    try:
        return cls(**{field.name: _FIELD_CASTS[field.type](values[field.name])
                      for field in dataclasses.fields(cls)})
    except (KeyError, TypeError, ValueError) as err:
        raise ConfigError(f"bad functional {source}: {err!r}") from err


def parse_functional(text):
    """Parse ``point:t0``, ``deriv:t0:q``, ``avg:b``, or ``custom:c1,c2,...``."""
    kind, *parts = str(text).split(":")
    cls = _FUNCTIONAL_KINDS.get(kind)
    names = [field.name for field in dataclasses.fields(cls)] if cls else []
    if len(parts) != len(names):
        raise ConfigError(f"bad functional {text!r} ({_FUNCTIONAL_USAGE})")
    return _make_functional(kind, dict(zip(names, parts)), repr(text))


def _build_functional(cfg, text):
    if text is not None:
        return parse_functional(text)
    sec = cfg.get("functional", {})
    if sec.get("kind") is None:
        raise ConfigError("functional missing (set functional.kind or --functional)")
    return _make_functional(sec["kind"], sec, "config section 'functional'")


def _build_model(args):
    try:
        return sequences.SequenceModel(args.regime, args.p, args.a, args.r)
    except ValueError as err:
        raise ConfigError(str(err)) from err


def _cmd_simulate(args):
    cov = simulate.Covariance(args.model, simulate.default_truncation(args.n), args.theta)
    slope = simulate.make_slope(args.model, cov.dim)
    data = simulate.draw_dataset(cov, slope, args.n, args.sigma, args.seed)
    simulate.save_dataset_csv(data, args.out)
    print(f"wrote {data.n} x {data.dim} dataset to {args.out}")
    return EXIT_OK


def _cmd_estimate(args):
    if not os.path.exists(args.data):
        raise ConfigError(f"dataset not found: {args.data}")
    data = simulate.load_dataset_csv(args.data)
    result = adaptive.adaptive_estimate(data, args.spec)
    text = json.dumps(result.to_record(), indent=2)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return EXIT_OK


def _cmd_mc_study(args):
    study = harness.StudyConfig(
        model=args.model, spec=args.spec, sigma=args.sigma, n_grid=args.n_grid,
        replicates=args.replicates, base_seed=args.base_seed, mixing=args.theta,
        report_path=os.path.join(args.out_dir, "study_report.json"),
        raw_path=os.path.join(args.out_dir, "study_raw.csv"),
        curves_path=os.path.join(args.out_dir, "study_curves.csv"),
    )
    os.makedirs(args.out_dir, exist_ok=True)
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
    model, spec = args.model, args.spec
    n = check_int(args.n, "n", 1)
    m_search = (oracle.default_search_bound(model, n) if args.m_search is None
                else check_int(args.m_search, "--m-search", 1))
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


# every setting of the CLI, once; a subcommand lists its settings in the
# order of its flags, and reads a functional when it lists ``--functional``
_CONFIG = _Setting("--config")
_FUNCTIONAL = _Setting("--functional", help=_FUNCTIONAL_USAGE)
_MODEL = (
    _Setting("--regime", "model.regime", [r.value for r in sequences.Regime],
             missing="model regime missing (set model.regime or --regime)"),
    _Setting("--p", "model.p", float, _float, missing="model parameters missing: p"),
    _Setting("--a", "model.a", float, _float, missing="model parameters missing: a"),
    _Setting("--r", "model.r", float, _float, 1.0),
)
_SIGMA = _Setting("--sigma", "simulate.sigma", float, _float, 1.0)
_THETA = _Setting("--theta", "simulate.theta", float, _float, 0.0)

# subcommand -> (command, help, settings)
_COMMANDS = {
    "simulate": (_cmd_simulate, "draw a dataset and write it as CSV", (
        *_MODEL, _CONFIG,
        _Setting("--n", "simulate.n", int, _int,
                 missing="sample size missing (simulate.n or --n)"),
        _SIGMA,
        _Setting("--seed", "simulate.seed", int, _int, 0),
        _THETA,
        _Setting("--out", "output.dataset", cast=os.fspath,
                 missing="output path missing (output.dataset or --out)"),
    )),
    "estimate": (_cmd_estimate, "run the data-driven estimator on a CSV dataset", (
        _FUNCTIONAL, _CONFIG,
        _Setting("--data", "output.dataset", cast=os.fspath,
                 missing="dataset path missing (--data)"),
        _Setting("--out"),
    )),
    "mc-study": (_cmd_mc_study, "run a Monte Carlo risk study", (
        *_MODEL, _FUNCTIONAL, _CONFIG,
        _Setting("--n-grid", "study.n_grid", cast=_tuple_of(_int),
                 missing="study n_grid missing (study.n_grid or --n-grid)"),
        _Setting("--replicates", "study.replicates", int, _int, 100),
        _Setting("--base-seed", "study.base_seed", int, _int, 0),
        _SIGMA, _THETA,
        _Setting("--out-dir", "output.dir", cast=os.fspath, default="."),
    )),
    "rates": (_cmd_rates, "print the theoretical risk curve and rate orders", (
        *_MODEL, _FUNCTIONAL, _CONFIG,
        _Setting("--n", "study.n", int, _int, 10000),
        _Setting("--m-search", type=int),
    )),
}

# ``section.key`` of every config key a setting reads; the ``functional``
# section takes ``kind`` plus the fields of that kind
_CONFIG_KEYS = {setting.key for _, _, settings in _COMMANDS.values()
                for setting in settings if setting.key}
_SECTIONS = {key.split(".")[0] for key in _CONFIG_KEYS} | {"functional"}


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
        if name not in _SECTIONS:
            raise ConfigError(f"unknown section {name!r}")
        if not isinstance(sec, dict):
            raise ConfigError(f"config section {name!r} must be a mapping")
        known = _CONFIG_KEYS
        if name == "functional" and sec:
            cls = _functional_kind(sec.get("kind"), "config section 'functional'")
            known = {"functional.kind", *(f"functional.{f.name}" for f in dataclasses.fields(cls))}
        for key in sec:
            if f"{name}.{key}" not in known:
                raise ConfigError(f"unknown key {name}.{key}")
    return cfg


def build_parser():
    parser = _Parser(prog="flradapt", description=__doc__)
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (command, text, settings) in _COMMANDS.items():
        sub = subs.add_parser(name, help=text)
        for setting in settings:
            kind = "choices" if isinstance(setting.type, list) else "type"
            sub.add_argument(setting.flag, help=setting.help, **{kind: setting.type})
        sub.set_defaults(func=command, settings=settings)
    return parser


def _parse_args(argv):
    """The command line with its settings resolved in flag order, and its
    model and functional built where their flags end."""
    args = build_parser().parse_args(argv)
    cfg, values = _load_config(args.config), vars(args)
    for setting in args.settings:
        dest = setting.flag[2:].replace("-", "_")
        values[dest] = _resolve(cfg, values[dest], setting)
        if setting is _MODEL[-1]:
            args.model = _build_model(args)
        elif setting is _FUNCTIONAL:
            args.spec = _build_functional(cfg, args.functional)
    return args


def main(argv=None) -> int:
    try:
        try:
            args = _parse_args(argv)
        except SystemExit:  # --help; a refused command line raises ValueError
            return EXIT_OK
        return args.func(args)
    except ConfigError as err:
        print(f"error: config: {err}", file=sys.stderr)
        return EXIT_USAGE
    except (adaptive.AdaptiveEstimationError, harness.StudyError, oracle.DivergentTailError,
            np.linalg.LinAlgError, ArithmeticError) as err:
        print(f"error: numeric: {err}", file=sys.stderr)
        return EXIT_NUMERIC
    except (ValueError, KeyError, OSError) as err:
        print(f"error: usage: {err}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
