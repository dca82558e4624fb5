import argparse
import copy
import dataclasses
import json
import math
import pathlib

import pytest
import yaml

from flradapt import cli, simulate
from flradapt.cli import main, parse_functional
from flradapt.functionals import Custom, DerivativeEval, LocalAverage, PointEval
from flradapt.harness import StudyConfig, run_study
from flradapt.sequences import Regime, SequenceModel

PP = SequenceModel(regime=Regime.PP, p=1.0, a=1.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def strict_json(text):
    """``text`` parsed as standard JSON (RFC 8259), which has no NaN,
    Infinity or -Infinity."""
    def refuse(constant):
        raise ValueError(f"non-standard JSON constant {constant}")
    return json.loads(text, parse_constant=refuse)


class TestFunctionalParsing:
    def test_point(self):
        assert parse_functional("point:0.3") == PointEval(t0=0.3)

    def test_derivative(self):
        assert parse_functional("deriv:0.5:2") == DerivativeEval(t0=0.5, q=2)

    def test_average(self):
        assert parse_functional("avg:0.25") == LocalAverage(b=0.25)

    def test_custom(self):
        assert parse_functional("custom:1,0,2.5") == Custom(coeffs=(1.0, 0.0, 2.5))

    def test_garbage_rejected(self):
        with pytest.raises(cli.ConfigError):
            parse_functional("median:0.5")
        with pytest.raises(cli.ConfigError):
            parse_functional("point:much")


class TestSimulateEstimate:
    def test_pipeline(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        code, out, err = run(
            capsys, "simulate", "--regime", "pp", "--p", "1", "--a", "1",
            "--n", "200", "--sigma", "1.0", "--seed", "5", "--out", str(data),
        )
        assert code == 0, err
        assert data.exists()

        code, out, err = run(
            capsys, "estimate", "--data", str(data), "--functional", "point:0.3",
        )
        assert code == 0, err
        record = json.loads(out)
        assert 1 <= record["selected"] <= record["m_hat_cap"]
        assert len(record["estimates"]) == record["m_hat_cap"]

    def test_simulate_idempotent(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        args = ("simulate", "--regime", "pp", "--p", "1", "--a", "1",
                "--n", "50", "--seed", "9", "--out", str(data))
        assert run(capsys, *args)[0] == 0
        first = data.read_bytes()
        assert run(capsys, *args)[0] == 0
        assert data.read_bytes() == first

    def test_missing_output_path_fails_before_drawing(self, capsys, monkeypatch):
        def draw(*args, **kwargs):
            raise RuntimeError("drew a dataset with nowhere to write it")

        monkeypatch.setattr(cli.simulate, "draw_dataset", draw)
        code, _, err = run(capsys, "simulate", "--regime", "pp", "--p", "1",
                           "--a", "1", "--n", "64")
        assert code == 1
        assert err.startswith("error: config: output path missing")

    def test_negative_seed_names_the_seed(self, tmp_path, capsys):
        data = tmp_path / "data.csv"
        code, _, err = run(capsys, "simulate", "--regime", "pp", "--p", "1",
                           "--a", "1", "--n", "64", "--seed", "-3", "--out", str(data))
        assert code == 1
        assert err == "error: usage: seed must be >= 0, got -3\n"
        assert not data.exists()

    def test_duplicated_column_prints_standard_json(self, tmp_path, capsys, narrow):
        # x3 copies x2: the singular blocks' inverse norms are infinite and
        # print as null
        data = tmp_path / "dup.csv"
        cov = simulate.Covariance(PP, simulate.default_truncation(300))
        drawn = narrow(cov, simulate.make_slope(PP, cov.dim), 300, 1.0, 0, 8)
        x = drawn.x.copy()
        x[:, 2] = x[:, 1]
        simulate.save_dataset_csv(simulate.Dataset(y=drawn.y, x=x), data)
        code, out, err = run(capsys, "estimate", "--data", str(data),
                             "--functional", "point:0.3")
        assert code == 0, err
        norms = strict_json(out)["diagnostics"]["inv_spectral_norms"]
        assert norms.count(None) == 2

    def test_missing_dataset(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "estimate", "--data", str(tmp_path / "nope.csv"),
            "--functional", "point:0.3",
        )
        assert code == 1
        assert "error:" in err

    def test_empty_dataset(self, tmp_path, capsys):
        data = tmp_path / "empty.csv"
        data.write_text("")
        code, _, err = run(
            capsys, "estimate", "--data", str(data), "--functional", "point:0.3",
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: usage:"), err
        assert str(data) in lines[0]


    def test_ragged_dataset(self, tmp_path, capsys):
        data = tmp_path / "ragged.csv"
        data.write_text("y,x1,x2\n1,2,3\n4,5\n")
        code, _, err = run(
            capsys, "estimate", "--data", str(data), "--functional", "point:0.3",
        )
        assert code == 1
        lines = err.splitlines()
        assert len(lines) == 1, err
        assert lines[0] == f"error: usage: {data}, line 3: 2 fields, the header has 3"

    def test_dataset_without_x_columns(self, tmp_path, capsys):
        data = tmp_path / "y_only.csv"
        data.write_text("y\n1.0\n2.0\n")
        code, out, err = run(
            capsys, "estimate", "--data", str(data), "--functional", "point:0.3",
        )
        assert code == 1
        assert out == ""
        assert err == f"error: usage: {data}: no x columns\n"

class TestConfigFile:
    def test_config_drives_simulation(self, tmp_path, capsys):
        cfg = tmp_path / "study.yaml"
        out = tmp_path / "data.csv"
        cfg.write_text(
            "model: {regime: pp, p: 1.0, a: 1.0}\n"
            "simulate: {n: 64, sigma: 1.0, seed: 3}\n"
            f"output: {{dataset: {out}}}\n"
        )
        code, _, err = run(capsys, "simulate", "--config", str(cfg))
        assert code == 0, err
        assert out.exists()

    def test_flag_overrides_config(self, tmp_path, capsys):
        cfg = tmp_path / "study.yaml"
        out = tmp_path / "data.csv"
        cfg.write_text(
            "model: {regime: pp, p: 1.0, a: 1.0}\n"
            "simulate: {n: 64, sigma: 1.0, seed: 3}\n"
            f"output: {{dataset: {out}}}\n"
        )
        code, _, _ = run(capsys, "simulate", "--config", str(cfg), "--n", "32")
        assert code == 0
        assert len(out.read_text().splitlines()) == 33  # header + 32 rows

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "simulate", "--config", "/does/not/exist.yaml")
        assert code == 1
        assert "config not found" in err

    def test_invalid_model_parameters(self, capsys):
        code, _, err = run(
            capsys, "rates", "--regime", "pp", "--p", "1", "--a", "0.4",
            "--functional", "point:0.3",
        )
        assert code == 1
        assert "error:" in err


@pytest.fixture
def small_dataset(tmp_path, capsys):
    data = tmp_path / "data.csv"
    code, _, err = run(capsys, "simulate", "--regime", "pp", "--p", "1", "--a", "1",
                       "--n", "64", "--seed", "5", "--out", str(data))
    assert code == 0, err
    return data


class TestConfigKeys:
    @pytest.mark.parametrize("text", [
        "study: {replicates: 3, penalty_constnat: 1.0}",    # typo key
        "functional: {kind: point, t0: 0.3, q: 1}",         # field of another kind
        "functional: {kind: [point], t0: 0.3}",             # kind not a string
        "model: {regime: pp, p: 1.0, a: 1.0, d: 1.0}",      # removed link constant
        "study: {penalty_constant: 700.0}",                 # removed penalty constant
        "simulate: {n: 64, J: 128}",                        # removed truncation
        "simualte: {n: 64}",                                # unknown section
        "output: {report: study_report.json}",              # removed file names
        "output: {raw: study_raw.csv}",
        "output: {curves: study_curves.csv}",
    ])
    def test_unknown_key_or_section_is_a_config_error(self, tmp_path, capsys, text):
        cfg = tmp_path / "bad.yaml"
        cfg.write_text(text + "\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg), "--n", "64",
                           "--regime", "pp", "--p", "1", "--a", "1",
                           "--out", str(tmp_path / "d.csv"))
        assert code == 1
        assert "error: config: unknown" in err

    @pytest.mark.parametrize("argv", [
        ("simulate", "--d", "1"),
        ("simulate", "--truncation", "128"),
        ("estimate", "--penalty-constant", "700"),
        ("mc-study", "--penalty-constant", "700"),
        ("mc-study", "--truncation", "128"),
        ("rates", "--d", "1"),
        ("simulate", "--slope-scale", "0.9"),
        ("mc-study", "--slope-scale", "0.9"),
    ])
    def test_removed_flags_are_usage_errors(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 1
        assert "unrecognized arguments" in err

    @pytest.mark.parametrize("command, out_flag", [
        ("simulate", "--out"), ("mc-study", "--out-dir"),
    ])
    def test_removed_slope_scale_key_is_one_config_error(self, tmp_path, capsys,
                                                         command, out_flag):
        # r alone sizes the slope; a config that still sets its fill is refused
        cfg = copy.deepcopy(VALUES_BASE)
        cfg["simulate"]["slope_scale"] = 0.9
        path = tmp_path / "old.yaml"
        path.write_text(yaml.safe_dump(cfg))
        target = tmp_path / "out"
        code, out, err = run(capsys, command, "--config", str(path), out_flag, str(target))
        assert code == 1
        assert out == ""
        assert err == "error: config: unknown key simulate.slope_scale\n"
        assert not target.exists()

    def test_shipped_config_runs_every_subcommand(self, tmp_path, capsys):
        shipped = str(pathlib.Path(__file__).parents[1] / "configs" / "study_pp_point.yaml")
        data = tmp_path / "data.csv"
        code, _, err = run(capsys, "simulate", "--config", shipped, "--n", "64",
                           "--out", str(data))
        assert code == 0, err
        code, _, err = run(capsys, "estimate", "--config", shipped, "--data", str(data))
        assert code == 0, err
        code, _, err = run(capsys, "rates", "--config", shipped, "--n", "1000")
        assert code == 0, err
        code, _, err = run(capsys, "mc-study", "--config", shipped, "--n-grid", "64,128,256",
                           "--replicates", "3", "--out-dir", str(tmp_path))
        assert code == 0, err


# a valid config for both ``simulate`` and ``mc-study``; sigma and r differ
# from their defaults so that a fallback shows in the outputs
VALUES_BASE = {
    "model": {"regime": "pp", "p": 1.0, "a": 1.0, "r": 2.0},
    "functional": {"kind": "point", "t0": 0.3},
    "simulate": {"n": 64, "sigma": 0.5},
    "study": {"n_grid": [64], "replicates": 2},
    "output": {},
}


class TestConfigValues:
    def run_config(self, capsys, monkeypatch, work, command, cfg):
        # a study writes into output.dir, which is "." where the key is
        # absent or null: run it in out_dir
        work.mkdir()
        path = work / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        out_dir = work / "out"
        out_dir.mkdir()
        monkeypatch.chdir(out_dir)
        out = () if command == "mc-study" else ("--out", str(work / "data.csv"))
        code, _, err = run(capsys, command, "--config", str(path), *out)
        return code, err, out_dir

    @pytest.mark.parametrize("command, section, key, value", [
        ("mc-study", "study", "replicates", 2.7),
        ("mc-study", "study", "replicates", True),
        ("mc-study", "study", "n_grid", [64, 128.9, 256]),
        ("mc-study", "study", "n_grid", 5),
        ("mc-study", "study", "base_seed", 1.5),
        ("simulate", "simulate", "n", 64.9),
        ("mc-study", "model", "p", [1]),
        ("mc-study", "model", "p", True),
        ("simulate", "model", "a", True),
        ("mc-study", "model", "r", True),
        ("mc-study", "simulate", "sigma", True),
        ("simulate", "simulate", "sigma", True),
        ("mc-study", "simulate", "theta", True),
        ("simulate", "simulate", "theta", True),
        ("mc-study", "simulate", "sigma", None),
        ("mc-study", "model", "r", None),
        ("mc-study", "output", "dir", None),
    ])
    def test_bad_value_is_a_config_error_and_null_is_absent(self, tmp_path, capsys,
                                                            monkeypatch, command, section,
                                                            key, value):
        cfg = copy.deepcopy(VALUES_BASE)
        cfg[section][key] = value
        code, err, out_dir = self.run_config(capsys, monkeypatch, tmp_path / "given",
                                             command, cfg)
        if value is not None:
            assert code == 1
            assert f"error: config: {section}.{key}: " in err
            return
        assert code == 0, err
        del cfg[section][key]
        code, err, absent_dir = self.run_config(capsys, monkeypatch, tmp_path / "absent",
                                                command, cfg)
        assert code == 0, err
        names = sorted(path.name for path in out_dir.iterdir())
        assert names == sorted(path.name for path in absent_dir.iterdir())
        for name in names:
            assert (out_dir / name).read_bytes() == (absent_dir / name).read_bytes()


class TestFunctionalConfig:
    @pytest.mark.parametrize("section, text", [
        ("{kind: point, t0: 0.3}", "point:0.3"),
        ("{kind: deriv, t0: 0.3, q: 1}", "deriv:0.3:1"),
        ("{kind: avg, b: 0.25}", "avg:0.25"),
        ("{kind: custom, coeffs: [1, 0, 2.5]}", "custom:1,0,2.5"),
    ])
    def test_section_matches_flag_text(self, tmp_path, capsys, small_dataset,
                                       section, text):
        cfg = tmp_path / "est.yaml"
        cfg.write_text(f"functional: {section}\noutput: {{dataset: {small_dataset}}}\n")
        code, from_config, err = run(capsys, "estimate", "--config", str(cfg))
        assert code == 0, err
        code, from_flag, err = run(capsys, "estimate", "--data", str(small_dataset),
                                   "--functional", text)
        assert code == 0, err
        assert json.loads(from_config) == json.loads(from_flag)

    @pytest.mark.parametrize("section", [
        "{kind: median, t0: 0.3}",  # unknown kind
        "{kind: deriv, t0: 0.3}",   # missing key q
        # a boolean where a number belongs
        "{kind: point, t0: true}",
        "{kind: deriv, t0: true, q: 1}",
        "{kind: avg, b: true}",
        "{kind: custom, coeffs: [1, true]}",
    ])
    def test_bad_section_is_a_config_error(self, tmp_path, capsys, small_dataset,
                                           section):
        cfg = tmp_path / "est.yaml"
        cfg.write_text(f"functional: {section}\noutput: {{dataset: {small_dataset}}}\n")
        code, _, err = run(capsys, "estimate", "--config", str(cfg))
        assert code == 1
        assert "error: config" in err

    def test_custom_regime_is_a_usage_error(self, tmp_path, capsys):
        code, _, err = run(capsys, "simulate", "--regime", "custom", "--p", "1",
                           "--a", "1", "--n", "64", "--out", str(tmp_path / "d.csv"))
        assert code == 1
        assert "invalid choice" in err
        cfg = tmp_path / "sim.yaml"
        cfg.write_text("model: {regime: custom, p: 1.0, a: 1.0}\nsimulate: {n: 64}\n")
        code, _, err = run(capsys, "simulate", "--config", str(cfg),
                           "--out", str(tmp_path / "d.csv"))
        assert code == 1
        assert "error: config" in err


class TestRates:
    def test_pp_point_output(self, capsys):
        code, out, err = run(
            capsys, "rates", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "point:0.3", "--n", "10000",
        )
        assert code == 0, err
        doc = json.loads(out)
        assert doc["minimax_order"]["n_exponent"] == -0.25
        assert doc["adaptive_order"]["log_exponent"] == 0.25
        assert doc["m_star"] >= 1
        assert doc["r_star_adaptive"] >= doc["r_star_minimax"]
        assert len(doc["risk_curve_minimax"]) == doc["m_search"]

    def test_infinite_risks_print_as_null(self, capsys):
        # pe's risk curve overflows to inf past some dimension
        code, out, err = run(
            capsys, "rates", "--regime", "pe", "--p", "1", "--a", "1",
            "--functional", "point:0.3", "--n", "1000", "--m-search", "60",
        )
        assert code == 0, err
        curve = strict_json(out)["risk_curve_minimax"]
        assert len(curve) == 60
        assert None in curve
        assert all(v is None or math.isfinite(v) for v in curve)

    def test_divergent_derivative_rates_fail_numeric(self, capsys):
        code, _, err = run(
            capsys, "rates", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "deriv:0.3:1", "--n", "1000",
        )
        assert code == 2
        assert "error: numeric" in err

    def test_narrow_average_has_finite_risks(self, capsys):
        # (pi b)^2 underflows to 0 at b = 1e-300
        code, out, err = run(
            capsys, "rates", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "avg:1e-300", "--n", "100",
        )
        assert code == 0, err
        doc = strict_json(out)
        assert math.isfinite(doc["r_star_minimax"]) and math.isfinite(doc["r_star_adaptive"])
        assert all(math.isfinite(v) for v in doc["risk_curve_minimax"])

    def test_subnormal_average_width_is_a_config_error(self, capsys):
        code, out, err = run(
            capsys, "rates", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "avg:5e-324", "--n", "100",
        )
        assert (code, out) == (1, "")
        assert len(err.splitlines()) == 1
        assert err.startswith("error: config: bad functional 'avg:5e-324': ")

    @pytest.mark.parametrize("flag, value", [("--m-search", "0"), ("--n", "0")])
    def test_nonpositive_sizes_are_usage_errors(self, capsys, flag, value):
        code, _, err = run(
            capsys, "rates", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "point:0.3", flag, value,
        )
        assert code == 1
        assert "error: usage" in err
        assert "must be >= 1, got 0" in err


    def test_matches_study_row(self, capsys):
        code, out, err = run(
            capsys, "rates", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "point:0.3", "--n", "256",
        )
        assert code == 0, err
        doc = json.loads(out)
        row = run_study(StudyConfig(
            model=SequenceModel(regime=Regime.PP, p=1.0, a=1.0), spec=PointEval(t0=0.3),
            sigma=1.0, n_grid=(256,), replicates=2, base_seed=0,
        )).rows[0]
        for key in ("m_star", "m_diamond", "r_star_minimax", "r_star_adaptive",
                    "side_condition_ratio"):
            assert doc[key] == row[key], key


class TestParserErrors:
    @pytest.mark.parametrize("argv, detail", [
        (("simulate", "--n", "2.5"), "flradapt simulate: argument --n: invalid int value: '2.5'"),
        (("bogus",), "argument command: invalid choice: 'bogus'"),
        (("rates", "--bogus", "1"), "unrecognized arguments: --bogus 1"),
        (("check-lemma",), "argument command: invalid choice: 'check-lemma'"),
    ])
    def test_parser_error_is_one_usage_line(self, capsys, argv, detail):
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        lines = err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: usage: "), err
        assert detail in lines[0]

    @pytest.mark.parametrize("argv", [("--help",), ("simulate", "--help")])
    def test_help_exits_zero(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 0 and out.startswith("usage: flradapt") and err == ""


class TestMcStudy:
    def test_writes_all_outputs(self, tmp_path, capsys):
        code, out, err = run(
            capsys, "mc-study", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "point:0.3", "--n-grid", "64,128,256",
            "--replicates", "4", "--base-seed", "11",
            "--out-dir", str(tmp_path),
        )
        assert code == 0, err
        for name in ("study_report.json", "study_raw.csv", "study_curves.csv"):
            assert (tmp_path / name).exists()
        summary = json.loads(out)
        assert set(summary["per_n_risk_adaptive"]) == {"64", "128", "256"}

    def test_base_seed_flag_ignores_environment(self, tmp_path, capsys, monkeypatch):
        args = ("mc-study", "--regime", "pp", "--p", "1", "--a", "1",
                "--functional", "point:0.3", "--n-grid", "64,128,256",
                "--replicates", "3", "--base-seed", "1",
                "--out-dir", str(tmp_path))
        monkeypatch.setenv("FLR_SEED", "77")
        assert run(capsys, *args)[0] == 0
        doc = json.loads((tmp_path / "study_report.json").read_text())
        assert doc["config"]["base_seed"] == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--sigma", "inf", "sigma"),
        # the flag is gone: r alone sizes the slope
        pytest.param("--slope-scale", "2", "unrecognized arguments: --slope-scale 2",
                     id="--slope-scale-2-slope_scale"),
        ("--base-seed", "-1", "base_seed"),
    ])
    def test_bad_sampling_settings_fail_before_any_work(self, tmp_path, capsys,
                                                        flag, value, message):
        out_dir = tmp_path / "study"
        code, _, err = run(
            capsys, "mc-study", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "point:0.3", "--n-grid", "64,128,256",
            "--replicates", "3", flag, value, "--out-dir", str(out_dir),
        )
        assert code == 1
        assert len(err.splitlines()) == 1
        assert message in err
        assert not out_dir.exists()


class TestMixingAngle:
    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_theta_rejected_by_simulate(self, tmp_path, capsys, value):
        data = tmp_path / "data.csv"
        code, _, err = run(
            capsys, "simulate", "--regime", "pp", "--p", "1", "--a", "1",
            "--n", "50", "--theta", value, "--out", str(data),
        )
        assert code == 1
        assert "mixing angle theta must be finite" in err
        assert not data.exists()

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_nonfinite_theta_rejected_by_mc_study(self, tmp_path, capsys, value):
        out_dir = tmp_path / "study"
        code, _, err = run(
            capsys, "mc-study", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "point:0.3", "--n-grid", "64,128,256",
            "--replicates", "3", "--theta", value, "--out-dir", str(out_dir),
        )
        assert code == 1
        assert "mixing angle theta must be finite" in err
        assert not out_dir.exists()

    def test_rotated_study_runs(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "mc-study", "--regime", "pp", "--p", "1", "--a", "1",
            "--functional", "point:0.3", "--n-grid", "64,128,256",
            "--replicates", "3", "--theta", "0.3", "--out-dir", str(tmp_path),
        )
        assert code == 0, err
        doc = json.loads((tmp_path / "study_report.json").read_text())
        assert doc["config"]["mixing"] == 0.3
        # the sandwich check needs the diagonal covariance
        assert all(row["sandwich_frequency"] is None for row in doc["per_n"])


# every flag of each subcommand, every config key of each section and every
# functional kind's fields, written out: the CLI may neither gain nor lose one
# unnoticed
SURFACE_FLAGS = {
    "simulate": "--config --regime --p --a --r --n --sigma --seed --theta --out",
    "estimate": "--config --functional --data --out",
    "mc-study": "--config --regime --p --a --r --functional --n-grid --replicates "
                "--base-seed --sigma --theta --out-dir",
    "rates": "--config --regime --p --a --r --functional --n --m-search",
}
SURFACE_KEYS = {
    "model": "regime p a r",
    "simulate": "n sigma seed theta",
    "study": "n_grid replicates base_seed n",
    "output": "dir dataset",
}
SURFACE_FIELDS = {
    "point": (PointEval, "t0"),
    "deriv": (DerivativeEval, "t0 q"),
    "avg": (LocalAverage, "b"),
    "custom": (Custom, "coeffs"),
}


def config_error(tmp_path, cfg):
    """The config error ``cli._load_config`` raises on ``cfg``, or None."""
    path = tmp_path / "surface.yaml"
    path.write_text(yaml.safe_dump(cfg))
    try:
        cli._load_config(str(path))
    except cli.ConfigError as err:
        return str(err)
    return None


class TestSurface:
    def test_flags_of_each_subcommand(self):
        subs = next(action for action in cli.build_parser()._actions
                    if isinstance(action, argparse._SubParsersAction))
        flags = {name: sorted(flag for action in sub._actions for flag in action.option_strings
                              if flag not in ("-h", "--help"))
                 for name, sub in subs.choices.items()}
        assert flags == {name: sorted(text.split()) for name, text in SURFACE_FLAGS.items()}

    def test_config_keys_of_each_section(self, tmp_path):
        candidates = {key for text in SURFACE_KEYS.values() for key in text.split()}
        candidates |= {"kind", "bogus"} | {field for _, text in SURFACE_FIELDS.values()
                                           for field in text.split()}
        for section, text in SURFACE_KEYS.items():
            for key in sorted(candidates):
                err = config_error(tmp_path, {section: {key: None}})
                if key in text.split():
                    assert err is None, (section, key)
                else:
                    assert err == f"unknown key {section}.{key}", (section, key)
        for section in ("functional", "bogus", "models"):
            err = config_error(tmp_path, {section: {}})
            assert err == (None if section == "functional" else f"unknown section {section!r}")

    @pytest.mark.parametrize("kind", sorted(SURFACE_FIELDS))
    def test_fields_of_each_functional_kind(self, tmp_path, kind):
        cls, text = SURFACE_FIELDS[kind]
        fields = text.split()
        assert [field.name for field in dataclasses.fields(cls)] == fields
        section = {"kind": kind, **dict.fromkeys(fields, 0.5)}
        assert config_error(tmp_path, {"functional": section}) is None
        others = {field for _, text in SURFACE_FIELDS.values() for field in text.split()}
        for other in sorted(others - set(fields)):
            err = config_error(tmp_path, {"functional": {**section, other: 0.5}})
            assert err == f"unknown key functional.{other}"


class Missing(str):
    """The config error of a setting that has neither a value nor a default."""


# each subcommand's settings that have a config key: the key, a config value
# and the value it resolves to, a flag text and the value it resolves to, and
# the default
MODEL_PRECEDENCE = {
    "--regime": ("model.regime", "pe", "pe", "ep", "ep",
                 Missing("model regime missing (set model.regime or --regime)")),
    "--p": ("model.p", 0.75, 0.75, "1.5", 1.5, Missing("model parameters missing: p")),
    "--a": ("model.a", 0.75, 0.75, "1.5", 1.5, Missing("model parameters missing: a")),
    "--r": ("model.r", 0.5, 0.5, "2", 2.0, 1.0),
}
SAMPLING_PRECEDENCE = {
    "--sigma": ("simulate.sigma", 0.5, 0.5, "2", 2.0, 1.0),
    "--theta": ("simulate.theta", 0.25, 0.25, "0.5", 0.5, 0.0),
}
PRECEDENCE = {
    **{(command, flag): row for command in ("simulate", "mc-study", "rates")
       for flag, row in MODEL_PRECEDENCE.items()},
    **{(command, flag): row for command in ("simulate", "mc-study")
       for flag, row in SAMPLING_PRECEDENCE.items()},
    ("simulate", "--n"): ("simulate.n", 48, 48, "32", 32,
                          Missing("sample size missing (simulate.n or --n)")),
    ("simulate", "--seed"): ("simulate.seed", 3, 3, "4", 4, 0),
    ("simulate", "--out"): ("output.dataset", "cfg.csv", "cfg.csv", "flag.csv", "flag.csv",
                            Missing("output path missing (output.dataset or --out)")),
    ("estimate", "--data"): ("output.dataset", "cfg.csv", "cfg.csv", "flag.csv", "flag.csv",
                             Missing("dataset path missing (--data)")),
    ("mc-study", "--n-grid"): ("study.n_grid", [64, 128], (64, 128), "32,64", (32, 64),
                               Missing("study n_grid missing (study.n_grid or --n-grid)")),
    ("mc-study", "--replicates"): ("study.replicates", 3, 3, "4", 4, 100),
    ("mc-study", "--base-seed"): ("study.base_seed", 5, 5, "6", 6, 0),
    ("mc-study", "--out-dir"): ("output.dir", "cfg", "cfg", "flag", "flag", "."),
    ("rates", "--n"): ("study.n", 500, 500, "600", 600, 10000),
}
# the flags each subcommand needs, with valid values
BASE_FLAGS = {
    "simulate": {"--regime": "pp", "--p": "1", "--a": "1", "--n": "64", "--out": "x.csv"},
    "estimate": {"--functional": "point:0.3", "--data": "x.csv"},
    "mc-study": {"--regime": "pp", "--p": "1", "--a": "1", "--functional": "point:0.3",
                 "--n-grid": "64"},
    "rates": {"--regime": "pp", "--p": "1", "--a": "1", "--functional": "point:0.3"},
}
TABLE = [(name, setting) for name, (_, _, settings) in cli._COMMANDS.items()
         for setting in settings if setting.key]


class TestPrecedence:
    def test_every_setting_with_a_config_key_is_checked(self):
        assert sorted((name, setting.flag) for name, setting in TABLE) == sorted(PRECEDENCE)

    @pytest.mark.parametrize("case", ["config", "flag wins", "default", "null is absent"])
    @pytest.mark.parametrize("command, setting", TABLE,
                             ids=[f"{name} {setting.flag}" for name, setting in TABLE])
    def test_flag_then_config_key_then_default(self, tmp_path, command, setting, case):
        key, cfg_value, from_cfg, flag_text, from_flag, default = PRECEDENCE[command,
                                                                            setting.flag]
        flags = {flag: value for flag, value in BASE_FLAGS[command].items()
                 if flag != setting.flag}
        if case == "flag wins":
            flags[setting.flag] = flag_text
        section, name = key.split(".")
        cfg = {"config": {section: {name: cfg_value}}, "flag wins": {section: {name: cfg_value}},
               "default": {}, "null is absent": {section: {name: None}}}[case]
        path = tmp_path / "cfg.yaml"
        path.write_text(yaml.safe_dump(cfg))
        argv = [command, "--config", str(path), *(part for pair in flags.items() for part in pair)]
        want = {"config": from_cfg, "flag wins": from_flag}.get(case, default)
        if isinstance(want, Missing):
            with pytest.raises(cli.ConfigError) as err:
                cli._parse_args(argv)
            assert str(err.value) == want
        else:
            got = getattr(cli._parse_args(argv), setting.flag[2:].replace("-", "_"))
            assert (got, type(got)) == (want, type(want))

    def test_every_key_of_the_shipped_config_has_a_flag(self):
        # as the shipped config's header says; --functional overrides the
        # whole functional section
        shipped = pathlib.Path(__file__).parents[1] / "configs" / "study_pp_point.yaml"
        cfg = yaml.safe_load(shipped.read_text())
        keys = {f"{section}.{key}" for section, sec in cfg.items() if section != "functional"
                for key in sec}
        assert keys <= {setting.key for _, setting in TABLE}

    def test_functional_flag_then_config_section(self, tmp_path):
        path = tmp_path / "cfg.yaml"
        argv = ["rates", "--config", str(path), "--regime", "pp", "--p", "1", "--a", "1"]
        path.write_text("functional: {kind: avg, b: 0.25}\n")
        assert cli._parse_args(argv).spec == LocalAverage(b=0.25)
        assert cli._parse_args([*argv, "--functional", "point:0.3"]).spec == PointEval(t0=0.3)
        path.write_text("functional: {}\n")
        with pytest.raises(cli.ConfigError) as err:
            cli._parse_args(argv)
        assert str(err.value) == "functional missing (set functional.kind or --functional)"
        # a null kind counts as absent: {kind: null} is {}, and beside a
        # field it leaves that field alone, whose kind None is unknown
        path.write_text("functional: {kind: null}\n")
        assert cli._parse_args([*argv, "--functional", "point:0.3"]).spec == PointEval(t0=0.3)
        with pytest.raises(cli.ConfigError) as err:
            cli._parse_args(argv)
        assert str(err.value) == "functional missing (set functional.kind or --functional)"
        errors = set()
        for text in ("functional: {t0: 0.3}\n", "functional: {kind: null, t0: 0.3}\n"):
            path.write_text(text)
            for flags in ([], ["--functional", "point:0.3"]):
                with pytest.raises(cli.ConfigError) as err:
                    cli._parse_args([*argv, *flags])
                errors.add(str(err.value))
        assert errors == {"unknown functional kind None in config section "
                          f"'functional' ({cli._FUNCTIONAL_USAGE})"}
