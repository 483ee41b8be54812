import filecmp
import json
import re
from dataclasses import replace

import numpy as np
import pytest

from fmoheom.cli import main, write_csv
from fmoheom.config import (_KEYS, ConfigError, build_run_config, load_run_config,
                            parse_config_text)
from fmoheom.heom import HEOMPropagator

FAST = [
    "--set", "system.truncation_N=2",
    "--set", "system.t_end_fs=50",
    "--set", "system.dt_out_fs=5",
]

# 1e13 output intervals: the samples alone would need 73 TiB.
HUGE_GRID = [
    "--set", "system.truncation_N=0",
    "--set", "system.t_end_fs=10000",
    "--set", "system.dt_out_fs=1e-9",
    "--set", "pairs=1-2",
]

# A text other than the default for every configuration key.
NON_DEFAULT = {
    "initial.kind": "fret",
    "initial.site": "6",
    "system.truncation_N": "4",
    "system.temperature_K": "77",
    "system.lambda_cm": "100",
    "system.gamma_inv_fs": "100",
    "system.trap_rate_inv_ps": "2.5",
    "system.trap_sites": "4,3",
    "system.t_end_fs": "500",
    "system.dt_out_fs": "2",
    "integrator.abs_tol": "1e-12",
    "integrator.rel_tol": "1e-6",
    "integrator.initial_step_fs": "0.1",
    "integrator.max_step_fs": "5",
    "pairs": "5-6,2-1",
}


class TestConfig:
    def test_defaults_reproduce_paper(self):
        cfg = load_run_config()
        assert cfg.initial_kind == "localized"
        assert cfg.initial_site == 1
        assert cfg.params.truncation_N == 12
        assert cfg.params.temperature_K == 300.0
        assert cfg.params.lambda_cm == 35.0
        assert cfg.params.gamma_inv_fs == 50.0
        assert cfg.params.trap_rate_inv_ps == 1.0
        assert cfg.params.t_end_fs == 1000.0
        assert cfg.pairs == "all"
        assert len(cfg.pair_list()) == 21

    def test_file_and_overrides(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "# comment\n"
            "initial.kind = fret\n"
            "initial.site = 6\n"
            "system.truncation_N = 4\n"
            "pairs = 1-2,5-6\n"
        )
        cfg = load_run_config(cfg_file, overrides=["system.truncation_N=3"])
        assert cfg.initial_kind == "fret"
        assert cfg.initial_site == 6
        assert cfg.params.truncation_N == 3
        assert cfg.pair_list() == [(1, 2), (5, 6)]

    def test_unknown_key_rejected_with_path(self):
        with pytest.raises(ConfigError, match="system.lamda_cm"):
            load_run_config(overrides=["system.lamda_cm=35"])

    def test_bad_values(self):
        with pytest.raises(ConfigError):
            load_run_config(overrides=["initial.kind=thermal"])
        with pytest.raises(ConfigError):
            load_run_config(overrides=["pairs=1-1"])
        with pytest.raises(ConfigError):
            load_run_config(overrides=["initial.site=9"])

    @pytest.mark.parametrize("item", ["system.lambda_cm=nan",
                                      "system.temperature_K=inf",
                                      "system.trap_sites=3,3"])
    def test_rejected_before_integration(self, item):
        key = item.split("=")[0].split(".")[1]
        with pytest.raises(ConfigError, match=key):
            load_run_config(overrides=[item])

    @pytest.mark.parametrize("item", ["system.truncation_N=2.7",
                                      "system.truncation_N=inf",
                                      "initial.site=2.6",
                                      "system.trap_sites=3.5,4",
                                      "schema_version=1.5",
                                      "system.lambda_cm=abc",
                                      "system.trap_sites=a",
                                      "integrator.abs_tol=x",
                                      "schema_version=x",
                                      "integrator.abs_tol=-1",
                                      "integrator.rel_tol=0",
                                      "integrator.abs_tol=inf",
                                      "integrator.rel_tol=inf",
                                      "integrator.rel_tol=1e-20",
                                      "integrator.max_step_fs=0",
                                      "system.lambda_cm=-1",
                                      "system.trap_sites=3,9",
                                      "system.truncation_N=-1",
                                      "system.truncation_N=40",
                                      "initial.site=8",
                                      "pairs=0-3",
                                      "pairs=1-2,2-1",
                                      "pairs=1+2",
                                      "schema_version=2",
                                      "system.trap_sites=8",
                                      "system.trap_sites=3,,4"])
    def test_bad_value_names_key(self, item):
        key = item.split("=")[0]
        with pytest.raises(ConfigError, match=re.escape(key)):
            load_run_config(overrides=[item])

    @pytest.mark.parametrize("key", list(_KEYS))
    def test_file_line_and_override_agree(self, tmp_path, key):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(f"{key} = {NON_DEFAULT[key]}\n")
        from_file = load_run_config(cfg_file)
        from_set = load_run_config(overrides=[f"{key}={NON_DEFAULT[key]}"])

        def as_json(cfg):
            return json.dumps(cfg.as_flat_dict(), sort_keys=True)

        assert as_json(from_file) == as_json(from_set)
        assert as_json(from_file) != as_json(load_run_config())

    @pytest.mark.parametrize("item", ["system.truncation_N=2.7",
                                      "system.trap_sites=3.50,4",
                                      "schema_version=1.5"])
    def test_integer_refusal_quotes_the_text(self, item):
        key, text = item.split("=")
        with pytest.raises(ConfigError, match=re.escape(
                f"must be an integer, got '{text.split(',')[0]}'")):
            load_run_config(overrides=[item])

    def test_integral_site_and_all_pairs_accepted(self):
        cfg = load_run_config(overrides=["initial.site=2.0", "pairs=all"])
        assert cfg.initial_site == 2 and isinstance(cfg.initial_site, int)
        assert cfg.pairs == "all" and len(cfg.pair_list()) == 21

    def test_pair_sites_parse_as_integers(self):
        # A pair's sites parse as every other integer key does.
        cfg = load_run_config(overrides=["pairs=1.0-2,6-5.0"])
        assert cfg.pair_list() == [(1, 2), (5, 6)]
        assert all(isinstance(site, int) for pair in cfg.pairs for site in pair)
        with pytest.raises(ConfigError, match=re.escape(
                "pairs: bad pair '1.5-2', expected like 1-2")):
            load_run_config(overrides=["pairs=1.5-2"])

    def test_override_without_equals_rejected(self):
        with pytest.raises(ConfigError, match="override must look like key=value"):
            load_run_config(overrides=["pairs"])

    def test_grid_error_names_both_keys(self):
        with pytest.raises(ConfigError) as err:
            load_run_config(overrides=["system.t_end_fs=11", "system.dt_out_fs=4"])
        assert "system.t_end_fs" in str(err.value)
        assert "system.dt_out_fs" in str(err.value)

    def test_resolved_manifest(self, tmp_path):
        # Compared as JSON text, so 300 and 300.0 differ as they do in
        # run_manifest.json.
        defaults = {
            "schema_version": 1,
            "initial.kind": "localized",
            "initial.site": 1,
            "system.truncation_N": 12,
            "system.temperature_K": 300.0,
            "system.lambda_cm": 35.0,
            "system.gamma_inv_fs": 50.0,
            "system.trap_rate_inv_ps": 1.0,
            "system.trap_sites": "3,4",
            "system.t_end_fs": 1000.0,
            "system.dt_out_fs": 1.0,
            "integrator.abs_tol": 1e-10,
            "integrator.rel_tol": 1e-8,
            "integrator.initial_step_fs": 0.01,
            "integrator.max_step_fs": 10.0,
            "pairs": "all",
        }
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text(
            "initial.kind = fret\n"
            "initial.site = 6\n"
            "system.truncation_N = 4\n"
            "system.trap_sites = 4,3\n"
            "pairs = 5-6,2-1\n"
        )
        cfg = load_run_config(cfg_file, overrides=[
            "system.truncation_N=3", "system.temperature_K=77",
            "integrator.abs_tol=1e-12", "system.t_end_fs=500"])
        resolved = dict(defaults, **{
            "initial.kind": "fret",
            "initial.site": 6,
            "system.truncation_N": 3,
            "system.temperature_K": 77.0,
            "system.trap_sites": "4,3",
            "system.t_end_fs": 500.0,
            "integrator.abs_tol": 1e-12,
            "pairs": "5-6,1-2",
        })
        for got, want in [(load_run_config().as_flat_dict(), defaults),
                          (cfg.as_flat_dict(), resolved)]:
            assert (json.dumps(got, sort_keys=True)
                    == json.dumps(want, sort_keys=True))

    @pytest.mark.parametrize("trap_sites", [(3, 4), ()])
    def test_flat_dict_loads_back(self, trap_sites):
        # A run manifest is a configuration: an empty trap_sites, written as
        # "", reads back as no site.
        cfg = load_run_config()
        cfg = replace(cfg, params=replace(cfg.params, trap_sites=trap_sites))
        again = build_run_config(cfg.as_flat_dict())
        assert again.params.trap_sites == trap_sites
        assert (json.dumps(again.as_flat_dict(), sort_keys=True)
                == json.dumps(cfg.as_flat_dict(), sort_keys=True))

    def test_parse_syntax_error(self):
        with pytest.raises(ConfigError, match="line 1"):
            parse_config_text("not a key value line")

    def test_key_set_twice_in_a_file_rejected(self, tmp_path, capsys):
        # A file is not last-wins: a key on two lines fails, naming both,
        # before any output exists. --set still overrides a file key.
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("system.truncation_N = 2\n# again\n"
                            "system.truncation_N = 3\n")
        with pytest.raises(ConfigError, match="system.truncation_N is set twice, "
                                              "on lines 1 and 3"):
            load_run_config(cfg_file)
        out = tmp_path / "run"
        assert main(["simulate", "--config", str(cfg_file), "--out", str(out),
                     *FAST]) == 1
        assert "lines 1 and 3" in capsys.readouterr().err
        assert not out.exists()

    def test_key_set_twice_by_overrides_rejected(self, tmp_path, capsys):
        # Two --set of one key fail like two lines of a file, naming the key,
        # before any output exists.
        with pytest.raises(ConfigError, match="system.truncation_N is set twice by --set"):
            load_run_config(overrides=["system.truncation_N=2", "system.truncation_N=3"])
        out = tmp_path / "run"
        # FAST already sets system.truncation_N.
        assert main(["simulate", "--out", str(out), *FAST,
                     "--set", "system.truncation_N=3"]) == 1
        assert "system.truncation_N is set twice" in capsys.readouterr().err
        assert not out.exists()


class TestSimulate:
    def test_localized_run(self, tmp_path):
        out = tmp_path / "run"
        rc = main(["simulate", "--out", str(out), *FAST,
                   "--set", "pairs=1-2"])
        assert rc == 0
        pop = (out / "populations.csv").read_text().splitlines()
        header = pop[0].split(",")
        assert header == ["t_fs"] + [f"rho_{k}{k}" for k in range(1, 8)] + ["trace"]
        row0 = [float(v) for v in pop[1].split(",")]
        assert row0[0] == 0.0 and row0[1] == 1.0 and sum(row0[2:8]) == 0.0
        meas = (out / "measures_1_2.csv").read_text().splitlines()
        assert meas[0] == "t_fs,B,C,l1,mu1,mu3"
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["hierarchy_count"] == 36  # C(9,7)
        assert manifest["system.truncation_N"] == 2

    def test_fret_run_no_nonlocality(self, tmp_path):
        out = tmp_path / "fret"
        rc = main(["simulate", "--out", str(out), *FAST,
                   "--set", "initial.kind=fret", "--set", "pairs=1-2"])
        assert rc == 0
        rows = (out / "measures_1_2.csv").read_text().splitlines()[1:]
        b_col = np.array([float(r.split(",")[1]) for r in rows])
        assert np.all(b_col == 0.0)

    def test_determinism(self, tmp_path):
        outs = []
        for name in ("a", "b"):
            out = tmp_path / name
            assert main(["simulate", "--out", str(out), *FAST]) == 0
            outs.append(out)
        for fname in ["populations.csv", "measures_1_2.csv", "measures_5_6.csv",
                      "run_manifest.json"]:
            assert filecmp.cmp(outs[0] / fname, outs[1] / fname, shallow=False)

    def test_no_trap_site_keeps_the_trace(self, tmp_path):
        out = tmp_path / "out"
        rc = main(["simulate", "--out", str(out), *FAST, "--set", "pairs=1-2",
                   "--set", "system.trap_sites="])
        assert rc == 0
        rows = (out / "populations.csv").read_text().splitlines()[1:]
        trace = np.array([float(r.split(",")[-1]) for r in rows])
        assert np.all(np.abs(trace - 1.0) <= 1e-12)
        manifest = json.loads((out / "run_manifest.json").read_text())
        assert manifest["system.trap_sites"] == ""

    def test_overshooting_grid_fails_before_running(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--out", str(out), "--set", "system.truncation_N=2",
                   "--set", "system.t_end_fs=11", "--set", "system.dt_out_fs=4"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "t_end_fs" in err and "dt_out_fs" in err
        assert not out.exists()

    def test_last_sample_is_t_end(self, tmp_path):
        # 9.99999999999 / 1 is within the 1e-9 grid tolerance of 10 steps.
        out = tmp_path / "out"
        rc = main(["simulate", "--out", str(out), "--set", "system.truncation_N=1",
                   "--set", "system.t_end_fs=9.99999999999",
                   "--set", "system.dt_out_fs=1", "--set", "pairs=1-2"])
        assert rc == 0
        rows = (out / "populations.csv").read_text().splitlines()[1:]
        assert [r.split(",")[0] for r in rows] == [
            "%.11e" % t for t in [*range(10), 9.99999999999]]

    @pytest.mark.parametrize("command, args, flag", [
        ("simulate", ["--set", "system.truncation_N=40"], "system.truncation_N"),
        ("sudden-death", ["--set", "pairs=1-2,2-1"], "pairs"),
        ("converge", ["--n-max", "40"], "--n-max"),
        ("converge", ["--n-max", "26"], "--n-max"),
        ("simulate", HUGE_GRID, "error: system.t_end_fs = 10000 over system.dt_out_fs"),
        ("converge", ["--n-min", "0", "--n-max", "1", *HUGE_GRID],
         "error: system.t_end_fs = 10000 over system.dt_out_fs"),
    ])
    def test_too_deep_or_repeated_fails_before_output(self, tmp_path, capsys,
                                                      monkeypatch, command, args, flag):
        def no_propagator(*_):
            raise AssertionError("a propagator was built")

        monkeypatch.setattr(HEOMPropagator, "__init__", no_propagator)
        out = tmp_path / "out"
        assert main([command, "--out", str(out), *args]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()

    def test_pair_outside_sites_fails_before_running(self, tmp_path, capsys):
        out = tmp_path / "out"
        rc = main(["simulate", "--out", str(out), "--set", "system.truncation_N=2",
                   "--set", "system.t_end_fs=200", "--set", "pairs=1-9"])
        assert rc == 1
        assert "pairs" in capsys.readouterr().err
        assert not out.exists()

    def test_failed_integration_exit_code(self, tmp_path, capsys, monkeypatch):
        rhs = HEOMPropagator.rhs

        def nan_after_2fs(self, t, q, out=None):
            out = rhs(self, t, q, out)
            if t > 2.0:
                out[...] = np.nan
            return out

        monkeypatch.setattr(HEOMPropagator, "rhs", nan_after_2fs)
        assert main(["simulate", "--out", str(tmp_path), *FAST]) == 1
        err = capsys.readouterr().err
        assert "error: Dormand-Prince step failed at t = " in err
        assert "(the error estimate was not finite)" in err

    def test_bad_config_exit_code(self, tmp_path, capsys):
        rc = main(["simulate", "--out", str(tmp_path),
                   "--set", "bogus.key=1"])
        assert rc == 1
        assert "error:" in capsys.readouterr().err


class TestConverge:
    def test_trend_and_schema(self, tmp_path):
        out = tmp_path / "conv"
        rc = main(["converge", "--out", str(out), "--n-min", "2", "--n-max", "4",
                   "--set", "system.t_end_fs=100", "--set", "system.dt_out_fs=10"])
        assert rc == 0
        rows = (out / "convergence.csv").read_text().splitlines()
        assert rows[0] == "N,log10_D"
        vals = [tuple(map(float, r.split(","))) for r in rows[1:]]
        assert [int(n) for n, _ in vals] == [2, 3, 4]
        logd = [d for _, d in vals]
        assert all(logd[i] >= logd[i + 1] - 1e-6 for i in range(len(logd) - 1))

    def test_bad_range(self, tmp_path):
        assert main(["converge", "--out", str(tmp_path),
                     "--n-min", "4", "--n-max", "4"]) == 1

    @pytest.mark.parametrize("n_min, n_max, flag", [
        ("5", "3", "--n-min must be smaller than --n-max"),
        ("-2", "3", "--n-min must be nonnegative"),
    ])
    def test_bad_range_fails_before_output(self, tmp_path, capsys, n_min, n_max, flag):
        out = tmp_path / "conv"
        assert main(["converge", "--out", str(out),
                     "--n-min", n_min, "--n-max", n_max]) == 1
        assert flag in capsys.readouterr().err
        assert not out.exists()


class TestSuddenDeathCommand:
    def test_report_schema(self, tmp_path):
        out = tmp_path / "sd"
        rc = main(["sudden-death", "--out", str(out), *FAST,
                   "--set", "pairs=1-2,3-4"])
        assert rc == 0
        rows = (out / "sudden_death.csv").read_text().splitlines()
        assert rows[0] == ("pair_m,pair_n,death_time_fs,peak_B,"
                           "peak_time_fs,threshold")
        assert len(rows) == 3

    @pytest.mark.parametrize("threshold", ["nan", "inf", "-1"])
    def test_bad_threshold_fails_before_running(self, tmp_path, capsys, threshold):
        out = tmp_path / "sd"
        rc = main(["sudden-death", "--out", str(out), *FAST,
                   "--threshold", threshold])
        assert rc == 1
        assert "--threshold must be finite and nonnegative" in capsys.readouterr().err
        assert not out.exists()


class TestOracleCommand:
    def test_tables(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        rc = main(["oracle", "--out", str(out)])
        assert rc == 0
        rows = (out / "oracle.csv").read_text().splitlines()
        assert len(rows) == 22  # header + 21 pairs
        dom = (out / "dominant_pair.csv").read_text().splitlines()
        assert dom[1].split(",")[:3] == ["1", "1", "2"]
        assert "dominant pair for x=1: (1,2)" in capsys.readouterr().out

    def test_no_dominant_pair(self, tmp_path, capsys):
        out = tmp_path / "oracle"
        assert main(["oracle", "--out", str(out), "--set", "initial.site=4"]) == 0
        assert (out / "dominant_pair.csv").read_bytes() == b"x,pair_m,pair_n\n4,nan,nan\n"
        assert "dominant pair for x=4: none" in capsys.readouterr().out


class TestFretReportCommand:
    def test_report(self, tmp_path):
        out = tmp_path / "fr"
        rc = main(["fret-report", "--out", str(out)])
        assert rc == 0
        rows = (out / "fret_report.csv").read_text().splitlines()
        assert len(rows) == 8
        summary = (out / "fret_summary.csv").read_text().splitlines()[1].split(",")
        assert summary[0] == "1" and summary[1] == "1" and summary[2] == "2"


class TestWriteCsv:
    def test_bytes(self, tmp_path):
        # Integer columns by their first row; None and "nan" as nan.
        rows = [(1, None, -np.inf), (2, "nan", 0.5)]
        write_csv(tmp_path / "rows.csv", ["n", "a", "b"], iter(rows))
        assert (tmp_path / "rows.csv").read_bytes() == (
            b"n,a,b\n1,nan,-inf\n2,nan,5.00000000000e-01\n")
        write_csv(tmp_path / "array.csv", ["t", "x"],
                  np.array([[0.0, 1.25], [1.0, -2e-300]]))
        assert (tmp_path / "array.csv").read_bytes() == (
            b"t,x\n0.00000000000e+00,1.25000000000e+00\n"
            b"1.00000000000e+00,-2.00000000000e-300\n")
