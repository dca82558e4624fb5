import copy
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
