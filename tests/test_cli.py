import contextlib
import io
import math
import os
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cpmas.cli as cli
import cpmas.core as core
import cpmas.fitting as fitting
import cpmas.oracle as oracle
from cpmas.cli import (EXIT_CONFIG, EXIT_DATA, EXIT_FIT, EXIT_OK,
                       EXIT_THRESHOLD, main)
from cpmas.core import RfScheme, SpinningParams
from cpmas.fitting import load_buildup, read_curve_csv
from cpmas.powder import DEFAULT_FIT_LEVEL, zcw_orientation_set

KHZ = 2.0 * math.pi * 1e3

REPO_DATASET = Path(__file__).resolve().parents[1] / "data" / "synthetic_buildup.csv"

BENCH_SIM = ["--d-khz", "2.5", "--mas-khz", "2", "--beta-deg", "60",
             "--gamma-deg", "36", "--tmax-us", "1000", "--dt-us", "1"]
BENCH_CMP = BENCH_SIM + ["--b1i-khz", "80", "--b1s-khz", "80"]

POWDER_ARGS = ["--d-khz", "23.33", "--mas-khz", "5", "--tmax-us", "1000",
               "--dt-us", "10", "--orient-set", "zcw:3"]
RELAX_ARGS = ["--r-inv-us", "290.8", "--r1-inv-us", "137.9", "--t1rho-ms",
              "1.867"]
# the data path is relative (a copy in the working directory), so the
# echoed value does not depend on where the tests run
FIT_ARGS = ["--data", "buildup.csv", "--distance-angstrom", "1.09",
            "--mas-khz", "5", "--r-inv-us", "400", "--r1-inv-us", "200",
            "--t1rho-ms", "2.5", "--free", "r,r1,t1rho", "--orient-set",
            "zcw:4"]

# echo block and header row of each command's CSV, byte for byte
GOLDEN_HEADS = {
    "simulate": (["simulate", *BENCH_SIM], """\
# cpmas simulate
# beta-deg = 60.0
# d-khz = 2.5
# dt-us = 1.0
# gamma-deg = 36.0
# mas-khz = 2.0
# offset-i-khz = 0.0
# offset-s-khz = 0.0
# seed = 0
# tmax-us = 1000.0
t_us,eta
"""),
    "powder": (["powder", *POWDER_ARGS], """\
# cpmas powder
# d-khz = 23.33
# dt-us = 10.0
# m0 = 1.0
# mas-khz = 5.0
# offset-i-khz = 0.0
# offset-s-khz = 0.0
# orient-set = 'zcw:3'
# seed = 0
# tmax-us = 1000.0
t_us,eta
"""),
    "powder-relaxation": (["powder", *POWDER_ARGS, *RELAX_ARGS], """\
# cpmas powder
# d-khz = 23.33
# dt-us = 10.0
# m0 = 1.0
# mas-khz = 5.0
# offset-i-khz = 0.0
# offset-s-khz = 0.0
# orient-set = 'zcw:3'
# r1-inv-us = 137.9
# r-inv-us = 290.8
# seed = 0
# t1rho-ms = 1.867
# tmax-us = 1000.0
t_us,m
"""),
    "oracle": (["oracle", *BENCH_CMP], """\
# cpmas oracle
# b1i-khz = 80.0
# b1s-khz = 80.0
# beta-deg = 60.0
# d-khz = 2.5
# dt-us = 1.0
# gamma-deg = 36.0
# mas-khz = 2.0
# offset-i-khz = 0.0
# offset-s-khz = 0.0
# seed = 0
# tmax-us = 1000.0
t_us,sy,iy,dq_y
"""),
    "compare": (["compare", *BENCH_CMP], """\
# cpmas compare
# b1i-khz = 80.0
# b1s-khz = 80.0
# beta-deg = 60.0
# d-khz = 2.5
# dt-us = 1.0
# gamma-deg = 36.0
# mas-khz = 2.0
# offset-i-khz = 0.0
# offset-s-khz = 0.0
# seed = 0
# threshold = 0.02
# tmax-us = 1000.0
t_us,eta_analytic,sy_oracle
"""),
    "fit": (["fit", *FIT_ARGS], """\
# cpmas fit
# data = 'buildup.csv'
# distance-angstrom = 1.09
# free = 'r,r1,t1rho'
# isotopes = '1H,13C'
# m0 = 1.0
# mas-khz = 5.0
# offset-i-khz = 0.0
# offset-s-khz = 0.0
# orient-set = 'zcw:4'
# r1-inv-us = 200.0
# r-inv-us = 400.0
# seed = 0
# t1rho-ms = 2.5
time_us,magnetization,model,residual
"""),
}
FIT_REPORT_KEYS = [
    "command", "data", "distance_angstrom", "free", "isotopes", "m0",
    "mas_khz", "offset_i_khz", "offset_s_khz", "orient_set", "r1_inv_us",
    "r_inv_us", "seed", "t1rho_ms", "n_points", "free_parameters",
    "converged", "iterations", "stop_reason", "rss", "d_rad_per_s", "d_khz",
    "r_per_s", "r_inv_us", "r1_per_s", "r1_inv_us", "t1rho_ms", "m0",
    "stderr_r", "stderr_r1", "stderr_t1rho"]


def run(argv):
    return main(argv)


def report_keys(text):
    return [line.partition(" = ")[0] for line in text.splitlines()]


class TestSimulate:
    def test_rotor_echo_null_in_output(self, tmp_path):
        out = tmp_path / "sim.csv"
        assert run(["simulate", *BENCH_SIM, "--out", str(out)]) == EXIT_OK
        cols = read_curve_csv(out)
        assert set(cols) == {"t_us", "eta"}
        k = int(np.argmin(np.abs(cols["t_us"] - 500.0)))
        assert cols["t_us"][k] == 500.0
        assert abs(cols["eta"][k]) < 1e-9

    def test_zero_duration_is_config_error(self, tmp_path, capsys):
        out = tmp_path / "sim.csv"
        code = run(["simulate", *BENCH_SIM[:-4], "--tmax-us", "0", "--dt-us",
                    "1", "--out", str(out)])
        assert code == EXIT_CONFIG
        assert not out.exists()
        assert "tmax-us" in capsys.readouterr().err

    def test_unmodulated_orientation_gives_zero_column(self, tmp_path):
        out = tmp_path / "sim.csv"
        args = ["simulate", "--d-khz", "2.5", "--mas-khz", "2", "--beta-deg",
                "0", "--gamma-deg", "0", "--tmax-us", "100", "--dt-us", "1",
                "--out", str(out)]
        assert run(args) == EXIT_OK
        assert np.all(read_curve_csv(out)["eta"] == 0.0)

    def test_missing_required_flag(self, tmp_path, capsys):
        code = run(["simulate", "--d-khz", "2.5", "--out",
                    str(tmp_path / "x.csv")])
        assert code == EXIT_CONFIG
        assert "--mas-khz" in capsys.readouterr().err

    def test_repeated_runs_are_bit_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        run(["simulate", *BENCH_SIM, "--seed", "7", "--out", str(a)])
        run(["simulate", *BENCH_SIM, "--seed", "7", "--out", str(b)])
        assert a.read_bytes() == b.read_bytes()


def test_python_m_cpmas_runs_the_cli(tmp_path):
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")]))}
    by_module = tmp_path / "module.csv"
    proc = subprocess.run([sys.executable, "-m", "cpmas", "simulate",
                           *BENCH_SIM, "--out", str(by_module)],
                          env=env, cwd=tmp_path, capture_output=True,
                          text=True, timeout=60)
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, "", "")
    by_main = tmp_path / "main.csv"
    assert run(["simulate", *BENCH_SIM, "--out", str(by_main)]) == EXIT_OK
    assert by_module.read_bytes() == by_main.read_bytes()


def test_parser_is_built_once():
    assert cli.build_parser() is cli.build_parser()


def test_usage_error_leaves_the_shared_parser_intact(tmp_path, capsys):
    before, after = tmp_path / "before.csv", tmp_path / "after.csv"
    assert run(["simulate", *BENCH_SIM, "--out", str(before)]) == EXIT_OK
    for bad in (["--no-such-flag", "1"], ["--d-khz", "abc"]):
        assert run(["simulate", *BENCH_SIM, *bad, "--out",
                    str(tmp_path / "x.csv")]) == EXIT_CONFIG
    assert capsys.readouterr().err.count("error:") == 2
    assert run(["simulate", *BENCH_SIM, "--out", str(after)]) == EXIT_OK
    assert after.read_bytes() == before.read_bytes()


class TestConfigFile:
    def test_flags_override_file(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d-khz = 2.5\nmas-khz = 2\nbeta-deg = 90\n"
                       "gamma-deg = 0\ntmax-us = 100\ndt-us = 1\n")
        out = tmp_path / "out.csv"
        code = run(["simulate", "--config", str(cfg), "--beta-deg", "0",
                    "--out", str(out)])
        assert code == EXIT_OK
        assert np.all(read_curve_csv(out)["eta"] == 0.0)  # beta 0 won

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("d-khz = 2.5\nnot-a-flag = 3\n")
        code = run(["simulate", "--config", str(cfg), "--out",
                    str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert "not-a-flag" in capsys.readouterr().err.replace("_", "-")

    def test_missing_file_is_config_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "absent.cfg", tmp_path / "o.csv"
        assert run(["simulate", "--config", str(cfg), "--out",
                    str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys,
                              f"error: cannot read config file {cfg}: ")
        assert not out.exists()

    def test_line_without_equals_is_config_error(self, tmp_path, capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o.csv"
        cfg.write_text("d-khz = 2.5\nmas-khz 2\n")
        assert run(["simulate", "--config", str(cfg), "--out",
                    str(out)]) == EXIT_CONFIG
        assert_one_error_line(
            capsys, f"error: {cfg}:2: expected 'key = value'\n")
        assert not out.exists()

    def test_value_that_does_not_parse_is_config_error(self, tmp_path,
                                                       capsys):
        cfg, out = tmp_path / "run.cfg", tmp_path / "o.csv"
        cfg.write_text("d-khz = abc\n")
        assert run(["simulate", *BENCH_SIM[2:], "--config", str(cfg),
                    "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(
            capsys, "error: config key d_khz: could not convert string to "
            "float: 'abc'\n")
        assert not out.exists()

    def test_blank_and_comment_lines_are_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("# the README simulate\n\nd-khz = 2.5\n   \n"
                       "  # spinning\nmas-khz = 2\nbeta-deg = 60\n"
                       "gamma-deg = 36\ntmax-us = 100\ndt-us = 1\n")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", str(cfg), "--out",
                    str(a)]) == EXIT_OK
        assert run(["simulate", *BENCH_SIM[:-4], "--tmax-us", "100",
                    "--dt-us", "1", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_non_utf8_file_is_config_error(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_bytes(b"d-khz = 2.5\nmas-khz = 2\xff\n")
        code = run(["simulate", "--config", str(cfg), "--out",
                    str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert_one_error_line(capsys,
                              f"error: config file {cfg} is not UTF-8 text")

    def test_byte_order_mark_is_skipped(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("\ufeffd-khz = 2.5\nmas-khz = 2\nbeta-deg = 60\n"
                       "gamma-deg = 36\ntmax-us = 100\ndt-us = 1\n",
                       encoding="utf-8")
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(["simulate", "--config", str(cfg), "--out",
                    str(a)]) == EXIT_OK
        assert run(["simulate", *BENCH_SIM[:-4], "--tmax-us", "100",
                    "--dt-us", "1", "--out", str(b)]) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()

    def test_units_echoed_for_round_trip(self, tmp_path):
        out = tmp_path / "sim.csv"
        run(["simulate", *BENCH_SIM, "--out", str(out)])
        echo = {}
        for line in out.read_text().splitlines():
            if line.startswith("# ") and "=" in line:
                key, _, value = line[2:].partition(" = ")
                echo[key] = value
        assert float(echo["d-khz"]) * KHZ == pytest.approx(2.5 * KHZ,
                                                           rel=1e-12)
        assert float(echo["mas-khz"]) * KHZ == pytest.approx(2.0 * KHZ,
                                                             rel=1e-12)
        assert (float(echo["beta-deg"]) * math.pi / 180.0
                == pytest.approx(math.pi / 3, rel=1e-12))


class TestCompare:
    def test_benchmark_agreement(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        code = run(["compare", *BENCH_CMP, "--out", str(out)])
        printed = capsys.readouterr().out
        assert code == EXIT_OK
        assert "max_deviation" in printed and "rms_deviation" in printed
        max_dev = float(printed.split("max_deviation = ")[1].splitlines()[0])
        assert max_dev <= 0.02
        cols = read_curve_csv(out)
        assert set(cols) == {"t_us", "eta_analytic", "sy_oracle"}

    def test_tight_threshold_exposes_approximation(self, tmp_path):
        # the closed form ignores the double-quantum wobble, so demanding
        # 1e-6 agreement must fail
        out = tmp_path / "cmp.csv"
        code = run(["compare", *BENCH_CMP, "--threshold", "1e-6", "--out",
                    str(out)])
        assert code == EXIT_THRESHOLD

    def test_zero_coupling_agrees_to_rounding(self, tmp_path, capsys):
        out = tmp_path / "cmp.csv"
        args = ["compare", "--d-khz", "0", "--mas-khz", "2", "--b1i-khz", "80",
                "--b1s-khz", "80", "--beta-deg", "60", "--gamma-deg", "36",
                "--tmax-us", "200", "--dt-us", "1", "--out", str(out)]
        assert run(args) == EXIT_OK
        max_dev = float(capsys.readouterr().out
                        .split("max_deviation = ")[1].splitlines()[0])
        assert max_dev < 1e-9

    def test_violating_step_rule_is_config_error(self, tmp_path, capsys):
        # at 80 kHz locks the CF4 rule needs 1 substep per 1 us interval,
        # and 2 per 2 us interval
        out = tmp_path / "cmp.csv"
        code = run(["compare", *BENCH_SIM[:-4], "--tmax-us", "1000",
                    "--dt-us", "2", *BENCH_CMP[-4:], "--substeps", "1",
                    "--out", str(out)])
        assert code == EXIT_CONFIG
        assert "substeps" in capsys.readouterr().err


class TestPowderCommand:
    def test_efficiency_output(self, tmp_path):
        out = tmp_path / "pow.csv"
        args = ["powder", "--d-khz", "23.33", "--mas-khz", "5", "--tmax-us",
                "1000", "--dt-us", "10", "--orient-set", "zcw:3", "--out",
                str(out)]
        assert run(args) == EXIT_OK
        cols = read_curve_csv(out)
        assert set(cols) == {"t_us", "eta"}
        assert cols["eta"].min() >= 0.0 and cols["eta"].max() <= 1.0

    def test_relaxation_switches_to_magnetization(self, tmp_path):
        out = tmp_path / "pow.csv"
        args = ["powder", "--d-khz", "23.33", "--mas-khz", "5", "--tmax-us",
                "1000", "--dt-us", "10", "--orient-set", "grid:8x8",
                "--r-inv-us", "290.8", "--r1-inv-us", "137.9", "--t1rho-ms",
                "1.867", "--out", str(out)]
        assert run(args) == EXIT_OK
        cols = read_curve_csv(out)
        assert set(cols) == {"t_us", "m"}
        assert cols["m"][0] == 0.0

    def test_t1rho_whose_decay_overflows(self, tmp_path, capsys):
        # t/T1rho overflows to inf and exp(-inf) is the exact 0; this suite
        # turns the overflow warning into an error
        out = tmp_path / "pow.csv"
        assert run(["powder", *POWDER_ARGS, *RELAX_ARGS[:-1], "1e-320",
                    "--out", str(out)]) == EXIT_OK
        assert capsys.readouterr().err == ""
        cols = read_curve_csv(out)
        assert np.array_equal(cols["m"], np.zeros(len(cols["t_us"])))

    def test_bad_orientation_set(self, tmp_path, capsys):
        code = run(["powder", "--d-khz", "1", "--mas-khz", "5", "--tmax-us",
                    "100", "--dt-us", "10", "--orient-set", "shell:9",
                    "--out", str(tmp_path / "p.csv")])
        assert code == EXIT_CONFIG


class TestOracleCommand:
    def test_trajectory_columns(self, tmp_path):
        out = tmp_path / "orc.csv"
        args = ["oracle", "--d-khz", "2.5", "--mas-khz", "2", "--b1i-khz",
                "80", "--b1s-khz", "80", "--beta-deg", "60", "--gamma-deg",
                "36", "--tmax-us", "100", "--dt-us", "1", "--out", str(out)]
        assert run(args) == EXIT_OK
        cols = read_curve_csv(out)
        assert set(cols) == {"t_us", "sy", "iy", "dq_y"}
        assert cols["iy"][0] == pytest.approx(1.0, abs=1e-12)
        assert cols["dq_y"][0] == pytest.approx(0.5, abs=1e-12)

    def test_on_resonance_run_starts_from_i_y(self, tmp_path, monkeypatch):
        # on resonance the lock axes are I_y and S_y exactly, so the columns
        # are those of the propagation from I_y bit for bit
        calls = []
        original = oracle.propagate_expectations

        def recording(rho0, observables, *args, **kwargs):
            calls.append((args, kwargs))
            return original(rho0, observables, *args, **kwargs)

        monkeypatch.setattr(oracle, "propagate_expectations", recording)
        out = tmp_path / "orc.csv"
        args = ["oracle", *BENCH_SIM[:-4], "--tmax-us", "400", "--dt-us", "1",
                "--b1i-khz", "80", "--b1s-khz", "80", "--out", str(out)]
        assert run(args) == EXIT_OK
        cols = read_curve_csv(out)
        args, kwargs = calls[0]
        assert kwargs == {}
        rows = oracle.propagate_expectations(
            oracle.IY, (oracle.SY, oracle.IY, oracle.DQ_Y), *args)
        for name, row in zip(("sy", "iy", "dq_y"), rows):
            assert np.array_equal(cols[name], row)


class TestMatchGuard:
    """The closed forms answer only at the Hartmann-Hahn match."""

    BASE = {"simulate": BENCH_SIM, "powder": POWDER_ARGS,
            "oracle": BENCH_SIM, "compare": BENCH_SIM, "fit": FIT_ARGS}

    def run_in(self, tmp_path, monkeypatch, command, locks):
        monkeypatch.chdir(tmp_path)
        shutil.copy(REPO_DATASET, "buildup.csv")
        return run([command, *self.BASE[command], *locks, "--out", "x.csv"])

    @pytest.mark.parametrize("command", ["simulate", "powder", "compare",
                                         "fit"])
    @pytest.mark.parametrize("locks,delta", [
        (["--b1i-khz", "80", "--b1s-khz", "60"], "20"),
        (["--b1i-khz", "60", "--b1s-khz", "80"], "-20"),
        # equal amplitudes, one offset: hypot(20, 80) - 80 kHz apart
        (["--b1i-khz", "80", "--b1s-khz", "80", "--offset-s-khz", "20"],
         "-2.46211"),
        # each field is finite in rad/s, but their sum overflows
        (["--b1i-khz", "2.8e304", "--b1s-khz", "1.5e304"], "1.3e+304"),
    ])
    def test_off_match_is_config_error(self, tmp_path, monkeypatch, capsys,
                                       command, locks, delta):
        assert self.run_in(tmp_path, monkeypatch, command,
                           locks) == EXIT_CONFIG
        assert_one_error_line(
            capsys, f"error: the effective lock fields are off the "
            f"Hartmann-Hahn match by w1I,e - w1S,e = {delta} kHz, more than "
            f"1e-09 of their sum")
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("command", ["simulate", "powder", "compare",
                                         "fit"])
    @pytest.mark.parametrize("b1s,code", [
        # |delta| = 0.95e-9 and 1.05e-9 of the sum, on either side of 80 kHz
        ("80.000000152", EXIT_OK), ("79.999999848", EXIT_OK),
        ("80.000000168", EXIT_CONFIG), ("79.999999832", EXIT_CONFIG)])
    def test_tolerance_edge(self, tmp_path, monkeypatch, command, b1s, code):
        assert core.MATCH_TOL == 1e-9
        assert self.run_in(tmp_path, monkeypatch, command,
                           ["--b1i-khz", "80", "--b1s-khz", b1s]) == code

    @pytest.mark.parametrize("command", ["simulate", "powder", "oracle",
                                         "compare", "fit"])
    def test_overflowing_effective_field_is_config_error(
            self, tmp_path, monkeypatch, capsys, command):
        # 45-degree locks of 1.7e308 rad/s: each field is finite, but the
        # effective field's magnitude overflows, and its tilt angle would
        # read pi/2, as on resonance
        locks = [x for flag in ("b1i", "b1s", "offset-i", "offset-s")
                 for x in (f"--{flag}-khz", "2.7e304")]
        assert self.run_in(tmp_path, monkeypatch, command,
                           locks) == EXIT_CONFIG
        assert_one_error_line(
            capsys, "error: the effective-field magnitude omega1_ie = "
            "sqrt(offset^2 + omega1^2) overflows double precision\n")
        assert not (tmp_path / "x.csv").exists()

    def test_oracle_runs_off_the_match(self, tmp_path):
        out = tmp_path / "orc.csv"
        assert run(["oracle", *BENCH_SIM[:-4], "--tmax-us", "100", "--dt-us",
                    "1", "--b1i-khz", "80", "--b1s-khz", "60", "--out",
                    str(out)]) == EXIT_OK
        assert len(read_curve_csv(out)["sy"]) == 101


class TestFitCommand:
    def test_one_isotope_is_config_error(self, tmp_path, monkeypatch,
                                         capsys):
        monkeypatch.chdir(tmp_path)
        shutil.copy(REPO_DATASET, "buildup.csv")
        assert run(["fit", *FIT_ARGS, "--isotopes", "1H", "--out",
                    "x.csv"]) == EXIT_CONFIG
        assert_one_error_line(
            capsys, "error: --isotopes must be two comma-separated names\n")
        assert not (tmp_path / "x.csv").exists()

    def test_shipped_dataset_round_trip(self, tmp_path, capsys):
        out = tmp_path / "overlay.csv"
        args = ["fit", "--data", str(REPO_DATASET), "--distance-angstrom",
                "1.09", "--mas-khz", "5", "--r-inv-us", "436.2", "--r1-inv-us",
                "206.85", "--t1rho-ms", "2.8005", "--m0", "1.5", "--out",
                str(out)]
        assert run(args) == EXIT_OK
        report = dict(line.partition(" = ")[::2]
                      for line in capsys.readouterr().out.splitlines()
                      if " = " in line)
        assert float(report["r_inv_us"]) == pytest.approx(290.8, rel=0.02)
        assert float(report["r1_inv_us"]) == pytest.approx(137.9, rel=0.02)
        assert float(report["t1rho_ms"]) == pytest.approx(1.867, rel=0.02)
        assert float(report["m0"]) == pytest.approx(1.0, rel=0.02)
        assert report["converged"] == "true"
        assert report["stop_reason"] in ("rss_tol", "step_tol")
        cols = read_curve_csv(out)
        assert set(cols) == {"time_us", "magnetization", "model", "residual"}
        np.testing.assert_allclose(cols["residual"], 0.0, atol=1e-8)

    def test_fit_started_at_its_optimum(self, tmp_path, capsys):
        # noiseless data at these very flags: projecting m0 at the guess
        # rounds the start's residual sum above the guess's own, and the
        # fit keeps the guess's sum, which a fit with nothing free reports
        data = Path(__file__).parent / "data" / "fit_at_truth.csv"
        flags = ["fit", "--data", str(data), "--mas-khz", "5", "--d-khz",
                 "22", "--r-inv-us", "436", "--r1-inv-us", "207",
                 "--t1rho-ms", "2.8", "--m0", "1.2", "--out",
                 str(tmp_path / "overlay.csv")]
        rss = []
        for free in ("r,r1,t1rho,m0", ""):
            assert run([*flags, "--free", free]) == EXIT_OK
            out, err = capsys.readouterr()
            assert err == ""
            report = dict(line.partition(" = ")[::2]
                          for line in out.splitlines())
            rss.append(float(report["rss"]))
        assert report["converged"] == "true"
        assert rss[0] <= rss[1]

    @pytest.mark.parametrize("flags, named", [
        # an absurd distance: d runs off to ~1e65 rad/s, every stderr nan
        (["--distance-angstrom", "1e-20", "--free", "d,r,r1,t1rho,m0",
          "--m0", "1.5"], "free parameter 'd' has standard error nan"),
        # an m0 guess 2000x too small: m0 and r end at their upper bounds,
        # and r comes first in the free set
        (["--distance-angstrom", "1.09", "--m0", "5e-4"],
         "free parameter 'r' ended at its upper bound"),
    ])
    def test_fit_without_usable_uncertainty_exits_4(self, tmp_path, capsys,
                                                    flags, named):
        out, report = tmp_path / "overlay.csv", tmp_path / "report.txt"
        args = ["fit", "--data", str(REPO_DATASET), "--mas-khz", "5",
                "--r-inv-us", "436", "--r1-inv-us", "207", "--t1rho-ms",
                "2.8", *flags, "--out", str(out), "--report", str(report)]
        assert run(args) == EXIT_FIT
        stdout, err = capsys.readouterr()
        assert err.startswith(f"fit error: {named}")
        assert len(err.splitlines()) == 1
        # the outputs are written, as for a fit that did not converge
        assert report.read_text() == stdout
        assert "converged = true" in stdout.splitlines()
        assert set(read_curve_csv(out)) == {"time_us", "magnetization",
                                            "model", "residual"}

    def test_fit_stopped_at_iteration_cap_exits_4(self, tmp_path, capsys,
                                                   monkeypatch):
        # the README fit cut off after 2 iterations: one stderr line, from
        # `FitResult.unusable`, which `fit_buildup` gives the library too
        monkeypatch.setattr(fitting, "MAX_ITERATIONS", 2)
        out = tmp_path / "overlay.csv"
        args = ["fit", "--data", str(REPO_DATASET), "--distance-angstrom",
                "1.09", "--mas-khz", "5", "--r-inv-us", "436", "--r1-inv-us",
                "207", "--t1rho-ms", "2.8", "--m0", "1.5", "--out", str(out)]
        assert run(args) == EXIT_FIT
        stdout, err = capsys.readouterr()
        line = ("fit error: the fit stopped at the iteration cap of 2 "
                "before converging\n")
        assert err == line
        assert "converged = false" in stdout.splitlines()
        assert set(read_curve_csv(out)) == {"time_us", "magnetization",
                                            "model", "residual"}
        spec = fitting.FitSpec(
            values={"d": fitting.coupling_from_distance(1.09, "1H", "13C"),
                    "r": 1 / 436e-6, "r1": 1 / 207e-6, "t1rho": 2.8e-3,
                    "m0": 1.5},
            free=("r", "r1", "t1rho", "m0"),
            orientations=zcw_orientation_set(DEFAULT_FIT_LEVEL),
            spin=SpinningParams(omega_r=5.0 * KHZ),
            rf=RfScheme(omega1_i=80.0 * KHZ, omega1_s=80.0 * KHZ))
        result = fitting.fit_buildup(load_buildup(REPO_DATASET), spec)
        assert not result.converged
        assert f"fit error: {result.unusable}\n" == line

    def test_overlay_reparses_and_run_is_deterministic(self, tmp_path):
        args = lambda out: ["fit", "--data", str(REPO_DATASET),
                            "--distance-angstrom", "1.09", "--mas-khz", "5",
                            "--r-inv-us", "400", "--r1-inv-us", "200",
                            "--t1rho-ms", "2.5", "--free", "r,r1,t1rho",
                            "--orient-set", "zcw:4", "--out", str(out)]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert run(args(a)) == EXIT_OK
        assert run(args(b)) == EXIT_OK
        assert a.read_bytes() == b.read_bytes()
        # the exported data columns reparse through the data loader
        cols = read_curve_csv(a)
        trimmed = tmp_path / "trim.csv"
        trimmed.write_text("time_us,magnetization\n" + "\n".join(
            f"{float(t)!r},{float(m)!r}" for t, m in
            zip(cols["time_us"], cols["magnetization"])) + "\n")
        back = load_buildup(trimmed)
        assert np.array_equal(back.magnetizations, cols["magnetization"])

    def test_missing_data_file(self, tmp_path, capsys):
        code = run(["fit", "--data", str(tmp_path / "absent.csv"),
                    "--d-khz", "23.33", "--mas-khz", "5", "--r-inv-us", "300",
                    "--r1-inv-us", "140", "--t1rho-ms", "1.9", "--out",
                    str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        assert "cannot read" in capsys.readouterr().err

    def test_non_utf8_data_file(self, tmp_path, capsys):
        data = tmp_path / "latin.csv"
        data.write_bytes(b"time_us,magnetization\n0,0\n\xff,1\n")
        code = run(["fit", "--data", str(data), "--d-khz", "23.33",
                    "--mas-khz", "5", "--r-inv-us", "300", "--r1-inv-us",
                    "140", "--t1rho-ms", "1.9", "--out",
                    str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        assert_one_error_line(capsys, f"data error: {data}: not UTF-8 text")

    def test_byte_order_mark_in_data_file(self, tmp_path, monkeypatch,
                                          capsys):
        monkeypatch.chdir(tmp_path)
        outputs = []
        for mark in (b"", b"\xef\xbb\xbf"):
            Path("buildup.csv").write_bytes(mark + REPO_DATASET.read_bytes())
            assert run(["fit", *FIT_ARGS, "--out", "o.csv"]) == EXIT_OK
            outputs.append((Path("o.csv").read_bytes(),
                            capsys.readouterr().out))
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("sigma, code, rss", [
        ("1e-300", EXIT_DATA, "inf"), ("1e-160", EXIT_DATA, "inf"),
        ("1e-155", EXIT_DATA, "inf"),
        ("1e-320", EXIT_DATA, "nan"),   # 1/sigma overflows
        ("1e-150", EXIT_OK, None)])
    def test_tiny_sigma_is_data_error(self, tmp_path, monkeypatch, capsys,
                                      recwarn, sigma, code, rss):
        # without the check these end in RuntimeWarnings and a traceback,
        # a wrong "degenerate Jacobian" diagnosis, or "non-finite Jacobian"
        monkeypatch.chdir(tmp_path)
        header, *rows = REPO_DATASET.read_text().splitlines()
        Path("buildup.csv").write_text(f"{header},sigma\n" + "".join(
            f"{row},{sigma}\n" for row in rows))
        assert run(["fit", "--data", "buildup.csv", "--distance-angstrom",
                    "1.09", "--mas-khz", "5", "--r-inv-us", "436",
                    "--r1-inv-us", "207", "--t1rho-ms", "2.8", "--m0", "1.5",
                    "--out", "o.csv"]) == code
        if rss is not None:
            assert_one_error_line(
                capsys, "data error: sigma too small: the weighted residual "
                f"sum at the initial guess is {rss}")
        assert not recwarn.list

    def test_guess_whose_residual_sum_overflows(self, tmp_path, monkeypatch,
                                                capsys, recwarn):
        # without the check: a RuntimeWarning from the Jacobian's norm, then
        # exit 4 blaming m0 as "degenerate Jacobian"
        monkeypatch.chdir(tmp_path)
        Path("data").mkdir()
        shutil.copy(REPO_DATASET, "data")
        assert run(["fit", "--data", "data/synthetic_buildup.csv",
                    "--distance-angstrom", "1.09", "--mas-khz", "5",
                    "--r-inv-us", "436", "--r1-inv-us", "207", "--t1rho-ms",
                    "2.8", "--m0", "1e200", "--out", "m.csv"]) == EXIT_CONFIG
        assert_one_error_line(capsys, "error: the residual sum at the initial "
                              "guess is inf")
        assert not recwarn.list

    def test_weighted_guess_whose_residual_sum_overflows(
            self, tmp_path, monkeypatch, capsys, recwarn):
        # sigma is sound, the guess overflows: once exit 3, "sigma too small"
        monkeypatch.chdir(tmp_path)
        header, *rows = REPO_DATASET.read_text().splitlines()
        Path("buildup.csv").write_text(f"{header},sigma\n" + "".join(
            f"{row},0.01\n" for row in rows))
        assert run(["fit", "--data", "buildup.csv", "--distance-angstrom",
                    "1.09", "--mas-khz", "5", "--r-inv-us", "436",
                    "--r1-inv-us", "207", "--t1rho-ms", "2.8", "--m0", "1e200",
                    "--out", "m.csv"]) == EXIT_CONFIG
        assert_one_error_line(capsys, "error: the residual sum at the initial "
                              "guess is inf")
        assert not recwarn.list

    def test_under_determined_fit(self, tmp_path, capsys):
        tiny = tmp_path / "tiny.csv"
        tiny.write_text("time_us,magnetization\n0,0\n100,0.5\n")
        code = run(["fit", "--data", str(tiny), "--d-khz", "23.33",
                    "--mas-khz", "5", "--r-inv-us", "300", "--r1-inv-us",
                    "140", "--t1rho-ms", "1.9", "--free", "r,r1,t1rho",
                    "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_DATA
        assert "under-determined" in capsys.readouterr().err

    def test_conflicting_coupling_flags(self, tmp_path, capsys):
        code = run(["fit", "--data", str(REPO_DATASET), "--d-khz", "23.33",
                    "--distance-angstrom", "1.09", "--mas-khz", "5",
                    "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG

    def test_non_finite_coupling_is_config_error(self, tmp_path, capsys):
        code = run(["fit", "--data", str(REPO_DATASET), "--d-khz", "inf",
                    "--mas-khz", "5", "--out", str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert capsys.readouterr().err == "error: d-khz must be finite, got inf\n"

    def test_free_parameter_without_guess(self, tmp_path, capsys):
        code = run(["fit", "--data", str(REPO_DATASET), "--d-khz", "23.33",
                    "--mas-khz", "5", "--free", "r", "--out",
                    str(tmp_path / "o.csv")])
        assert code == EXIT_CONFIG
        assert "initial guess" in capsys.readouterr().err

    @pytest.mark.parametrize("flags, name", [
        (["--free", "m0", "--m0", "1e308"], "m0"),
        (["--free", "r", "--r-inv-us", "1e-300"], "r")])
    def test_guess_whose_bounds_overflow(self, tmp_path, capsys, flags, name):
        # the search box guess/1000 to guess*1000 overflows to inf
        out = tmp_path / "o.csv"
        code = run(["fit", "--data", str(REPO_DATASET), "--d-khz", "20",
                    "--mas-khz", "5", *flags, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert_one_error_line(capsys, f"error: free parameter '{name}' ")
        assert not out.exists()

    @pytest.mark.parametrize("flags", [
        ["--d-khz", "1e300"],
        # the guess is finite, the search bound guess*1000 is not
        ["--d-khz", "1e6", "--free", "d,r,r1,t1rho"]],
        ids=["fixed-d", "free-d"])
    def test_overflowing_phase_is_config_error(self, tmp_path, capsys,
                                               flags):
        # without the guard a fixed d ends in the kernel's nan (with
        # RuntimeWarnings) and exit 4, and a free d searches a box whose
        # far end overflows
        out = tmp_path / "o.csv"
        code = run(["fit", "--data", str(REPO_DATASET), "--mas-khz",
                    "1e-300", "--r-inv-us", "300", "--r1-inv-us", "100",
                    "--t1rho-ms", "2", *flags, "--out", str(out)])
        assert code == EXIT_CONFIG
        assert_one_error_line(capsys, "error: the dipolar phase or the rotor "
                              "angle overflows double precision")
        assert not out.exists()


class TestUsageErrors:
    def test_unknown_command(self, capsys):
        assert run(["frobnicate"]) == EXIT_CONFIG

    @pytest.mark.parametrize("flag, value, command", [
        *((flag, value, command)
          for flag, value in [("tmax-us", "nan"), ("tmax-us", "inf"),
                              ("dt-us", "nan"), ("d-khz", "inf"),
                              ("d-khz", "nan"), ("mas-khz", "nan"),
                              ("mas-khz", "inf")]
          for command in ["simulate", "oracle", "compare"]),
        # a bad threshold is rejected before any propagation
        ("threshold", "nan", "compare"), ("threshold", "inf", "compare"),
        ("threshold", "-1", "compare")])
    def test_non_finite_input_is_config_error(self, tmp_path, capsys, command,
                                              flag, value):
        args = dict(zip(BENCH_CMP[::2], BENCH_CMP[1::2]))
        args[f"--{flag}"] = value
        out = tmp_path / "x.csv"
        argv = [command, *(x for kv in args.items() for x in kv)]
        assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err
        assert err.startswith(f"error: {flag} must be finite")
        assert err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command",
                             ["simulate", "powder", "oracle", "compare"])
    def test_step_that_rounds_to_zero_seconds(self, tmp_path, capsys,
                                              command):
        base = POWDER_ARGS if command == "powder" else BENCH_CMP
        args = dict(zip(base[::2], base[1::2]))
        args["--tmax-us"] = args["--dt-us"] = "1e-320"
        out = tmp_path / "x.csv"
        argv = [command, *(x for kv in args.items() for x in kv)]
        assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys, "error: dt-us=1e-320 is below the "
                              "smallest positive step in seconds")
        assert not out.exists()

    @pytest.mark.parametrize("command", ["simulate", "powder", "compare"])
    @pytest.mark.parametrize("flags", [
        {"--d-khz": "1e300", "--mas-khz": "1e-300"},
        {"--d-khz": "1e290", "--mas-khz": "0", "--tmax-us": "1e30",
         "--dt-us": "1e29"},
        {"--mas-khz": "1e300", "--tmax-us": "1e30", "--dt-us": "1e29"},
    ], ids=["spinning", "stationary", "rotor-angle"])
    def test_overflowing_phase_is_config_error(self, tmp_path, capsys,
                                               command, flags):
        # without the guard these write nan rows (with RuntimeWarnings,
        # which this suite turns into errors) and exit 0
        base = POWDER_ARGS if command == "powder" else BENCH_CMP
        args = {**dict(zip(base[::2], base[1::2])), **flags}
        if command == "powder":
            args["--orient-set"] = "zcw:1"
        out = tmp_path / "x.csv"
        argv = [command, *(x for kv in args.items() for x in kv)]
        assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys, "error: the dipolar phase or the rotor "
                              "angle overflows double precision")
        assert not out.exists()

    def test_no_command(self, capsys):
        assert run([]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["simulate", "powder", "oracle",
                                         "compare"])
    @pytest.mark.parametrize("flag", ["--offset-i-khz=1e10",
                                      "--offset-i-khz=-1e10"])
    def test_offset_that_tilts_the_lock_onto_z(self, tmp_path, capsys,
                                               command, flag):
        # against an 80 kHz lock the tilt angle rounds to 0 (or pi)
        base = POWDER_ARGS if command == "powder" else BENCH_SIM
        out = tmp_path / "x.csv"
        assert run([command, *base, "--b1i-khz", "80", "--b1s-khz", "80",
                    flag, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys, "error: an offset this large against "
                              "its lock amplitude turns the effective field")
        assert not out.exists()

    @pytest.mark.parametrize("value", ["-2.7e-05", "-1E-3", "-.5e+1", "-4."])
    def test_negative_value_in_any_float_form(self, tmp_path, value):
        out = tmp_path / "x.csv"
        assert run(["oracle", *BENCH_SIM[:-4], "--tmax-us", "10", "--dt-us",
                    "1", "--b1i-khz", "80", "--b1s-khz", "80",
                    "--offset-i-khz", value, "--offset-s-khz", value,
                    "--out", str(out)]) == EXIT_OK
        assert f"# offset-i-khz = {float(value)!r}" in out.read_text()

    @pytest.mark.parametrize("value", ["inf", "nan"])
    def test_non_finite_m0_is_config_error(self, tmp_path, capsys, value):
        out = tmp_path / "p.csv"
        assert run(["powder", *POWDER_ARGS, "--m0", value, "--r-inv-us",
                    "100", "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys,
                              f"error: m0 must be finite and > 0, got {value}")
        assert not out.exists()

    @pytest.mark.parametrize("flag", ["--r-inv-us", "--r1-inv-us"])
    @pytest.mark.parametrize("command", ["powder", "fit"])
    def test_subnormal_time_constant_is_config_error(self, tmp_path, capsys,
                                                     command, flag):
        # 1/(1e-310 us) overflows to an infinite rate, which powder would
        # write as nan and a fit with that rate fixed would end in a
        # non-finite Jacobian
        times = {"--r-inv-us": "300", "--r1-inv-us": "100", flag: "1e-310"}
        base = {"powder": POWDER_ARGS,
                "fit": ["--data", str(REPO_DATASET), "--d-khz", "20",
                        "--mas-khz", "5", "--t1rho-ms", "2", "--free",
                        "t1rho,m0"]}[command]
        out = tmp_path / "o.csv"
        assert run([command, *base, *(x for kv in times.items() for x in kv),
                    "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys, f"error: {flag[2:]}=1e-310 is too "
                              "small: its rate overflows")
        assert not out.exists()


# Every command with its required flags, on grids and orientation sets
# small enough for a property test: 11 points, zcw:1 (21 orientations).
_CRYSTAL = ["--d-khz", "2.5", "--mas-khz", "2", "--beta-deg", "60",
            "--gamma-deg", "36", "--tmax-us", "10", "--dt-us", "1"]
_LOCKS = ["--b1i-khz", "80", "--b1s-khz", "80"]
ARGV_BASES = {
    "simulate": _CRYSTAL,
    "powder": ["--d-khz", "23.33", "--mas-khz", "5", "--tmax-us", "100",
               "--dt-us", "10", "--orient-set", "zcw:1"],
    "oracle": _CRYSTAL + _LOCKS,
    "compare": _CRYSTAL + _LOCKS,
    "fit": ["--data", str(Path(__file__).resolve().parent / "data"
                          / "fit_at_truth.csv"),
            "--mas-khz", "5", "--d-khz", "22", "--r-inv-us", "436",
            "--r1-inv-us", "207", "--t1rho-ms", "2.8", "--m0", "1.2",
            "--orient-set", "zcw:1"],
}
# the exit codes the cli module docstring documents for each command
DOCUMENTED_EXITS = {"simulate": {EXIT_OK, EXIT_CONFIG},
                    "powder": {EXIT_OK, EXIT_CONFIG},
                    "oracle": {EXIT_OK, EXIT_CONFIG},
                    "compare": {EXIT_OK, EXIT_CONFIG, EXIT_THRESHOLD},
                    "fit": {EXIT_OK, EXIT_CONFIG, EXIT_DATA, EXIT_FIT}}
# flags that name files: a drawn value holds a NUL byte, which no path
# the OS takes does, so no drawn value can ever create a file
_PATH_FLAGS = {"out", "config", "data", "report"}
EXTREME_VALUES = ["0", "-0", "5e-324", "1e-310", "1e308", "inf", "-inf",
                  "nan", "-1"]
# text that no float flag parses, some of it spread over lines
MALFORMED_TEXT = ["", "1e", "0x10", "--", "1,5", "a\nb", "zcw:\n", "r,\nq"]


@st.composite
def hostile_argv(draw):
    command = draw(st.sampled_from(sorted(ARGV_BASES)))
    flags = [o.flag for o in cli.COMMAND_OPTS[command]]
    chosen = draw(st.lists(st.sampled_from(flags), min_size=1, max_size=3,
                           unique=True))
    values = st.one_of(st.sampled_from(EXTREME_VALUES),
                       st.sampled_from(MALFORMED_TEXT), st.text(max_size=6))
    paths = st.lists(st.text(max_size=3), min_size=2, max_size=2).map(
        "\0".join)
    base = ARGV_BASES[command]
    args = dict(zip(base[::2], base[1::2]))
    for flag in chosen:
        args[f"--{flag}"] = draw(paths if flag in _PATH_FLAGS else values)
    if "distance-angstrom" in chosen:  # in place of --d-khz, not beside it
        args.pop("--d-khz", None)
    # --flag=value, so that text starting with "-" stays a value
    return command, [command, *(f"{k}={v}" for k, v in args.items())]


@settings(max_examples=250, deadline=None)
@given(drawn=hostile_argv())
def test_hostile_flags_give_a_documented_exit(tmp_path_factory, drawn):
    # one to three flags of a valid command set to extreme floats or to
    # arbitrary text (a path flag to text with a NUL byte): main returns a
    # documented code, warns of nothing and says what went wrong on at
    # most one line
    command, argv = drawn
    out = tmp_path_factory.mktemp("argv") / "x.csv"
    stdout, stderr = io.StringIO(), io.StringIO()
    with warnings.catch_warnings(record=True) as caught, \
            contextlib.redirect_stdout(stdout), \
            contextlib.redirect_stderr(stderr):
        warnings.simplefilter("always")
        try:
            # --out ahead of the drawn flags, so that a drawn one wins
            code = main([command, f"--out={out}", *argv[1:]])
        except (Exception, SystemExit) as exc:
            pytest.fail(f"{argv}: {type(exc).__name__} left main: {exc}")
    assert not caught, (argv, [str(w.message) for w in caught])
    assert stderr.getvalue().count("\n") <= 1, (argv, stderr.getvalue())
    assert code in DOCUMENTED_EXITS[command], (argv, code)


class TestGoldenLines:
    """Lines that no platform's floating point can change, pinned byte for
    byte: every output path writes exactly these."""

    @pytest.mark.parametrize("name", sorted(GOLDEN_HEADS))
    def test_echo_block_and_header(self, tmp_path, monkeypatch, name):
        monkeypatch.chdir(tmp_path)
        shutil.copy(REPO_DATASET, "buildup.csv")
        argv, expected = GOLDEN_HEADS[name]
        assert run([*argv, "--out", "out.csv"]) == EXIT_OK
        lines = Path("out.csv").read_text().splitlines(keepends=True)
        n_echo = next(i for i, line in enumerate(lines)
                      if not line.startswith("#"))
        assert "".join(lines[:n_echo + 1]) == expected

    def test_report_key_orders(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        shutil.copy(REPO_DATASET, "buildup.csv")
        assert run(["compare", *BENCH_CMP, "--out", "c.csv"]) == EXIT_OK
        assert report_keys(capsys.readouterr().out) == [
            "max_deviation", "rms_deviation", "threshold"]
        assert run(["fit", *FIT_ARGS, "--out", "f.csv", "--report",
                    "r.txt"]) == EXIT_OK
        printed = capsys.readouterr().out
        assert report_keys(printed) == FIT_REPORT_KEYS
        assert Path("r.txt").read_text() == printed


def assert_one_error_line(capsys, start):
    err = capsys.readouterr().err
    assert err.startswith(start), err
    assert err.count("\n") == 1


class TestOutputErrors:
    def test_unwritable_out(self, tmp_path, capsys):
        out = tmp_path / "missing" / "x.csv"
        assert run(["simulate", *BENCH_SIM, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys, f"error: cannot write {out}: ")

    def test_unwritable_report(self, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        shutil.copy(REPO_DATASET, "buildup.csv")
        report = tmp_path / "missing" / "r.txt"
        assert run(["fit", *FIT_ARGS, "--out", "f.csv", "--report",
                    str(report)]) == EXIT_CONFIG
        captured = capsys.readouterr()
        assert captured.err.startswith(f"error: cannot write {report}: ")
        assert captured.err.count("\n") == 1
        # as every other exit-1 refusal: no CSV and no report printed
        assert captured.out == ""
        assert not Path("f.csv").exists()

    def test_unwritable_out_writes_no_report(self, tmp_path, monkeypatch,
                                             capsys):
        monkeypatch.chdir(tmp_path)
        shutil.copy(REPO_DATASET, "buildup.csv")
        out = tmp_path / "missing" / "f.csv"
        assert run(["fit", *FIT_ARGS, "--out", str(out), "--report",
                    "r.txt"]) == EXIT_CONFIG
        assert_one_error_line(capsys, f"error: cannot write {out}: ")
        assert not Path("r.txt").exists()


class TestPathsTheOsCannotTake:
    """A NUL byte or a lone surrogate in a path flag: one stderr line with
    that flag's exit code, as for any path that cannot be read or written."""

    @staticmethod
    def shown(path):
        """``path`` as the error line writes it: escaped where a line break
        or a lone surrogate would break the line or the stream."""
        return path.replace("\n", "\\n").encode(
            "utf-8", "backslashreplace").decode("utf-8")

    @pytest.mark.parametrize("path", ["a\0b.csv", "a\ud800b.csv"])
    @pytest.mark.parametrize("flag,code,start", [
        ("--out", EXIT_CONFIG, "error: cannot write"),
        ("--report", EXIT_CONFIG, "error: cannot write"),
        ("--config", EXIT_CONFIG, "error: cannot read config file"),
        ("--data", EXIT_DATA, "data error: cannot read")])
    def test_one_error_line(self, tmp_path, monkeypatch, capsys, flag, code,
                            start, path):
        monkeypatch.chdir(tmp_path)
        shutil.copy(REPO_DATASET, "buildup.csv")
        args = {**dict(zip(FIT_ARGS[::2], FIT_ARGS[1::2])), "--out": "f.csv",
                flag: path}
        assert run(["fit", *(x for kv in args.items() for x in kv)]) == code
        assert_one_error_line(capsys, f"{start} {self.shown(path)}: ")

    def test_line_break_in_a_refused_path_stays_on_one_line(self, tmp_path,
                                                            capsys):
        out = str(tmp_path / "missing\n" / "x.csv")
        assert run(["simulate", *BENCH_SIM, "--out", out]) == EXIT_CONFIG
        assert_one_error_line(capsys,
                              f"error: cannot write {self.shown(out)}: ")


class TestSizeCaps:
    @pytest.mark.parametrize("command", ["simulate", "oracle", "compare"])
    @pytest.mark.parametrize("tmax", ["1e308", "1e12"])
    def test_oversize_time_grid(self, tmp_path, capsys, command, tmax):
        args = dict(zip(BENCH_CMP[::2], BENCH_CMP[1::2]))
        args["--tmax-us"], args["--dt-us"] = tmax, "0.01"
        out = tmp_path / "x.csv"
        argv = [command, *(x for kv in args.items() for x in kv)]
        assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(
            capsys, f"error: grid must contain 2 to {cli.MAX_GRID_POINTS} "
            "points")
        assert not out.exists()

    def test_time_grid_cap_counts_points(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_GRID_POINTS", 11)
        argv = ["simulate", *BENCH_SIM[:-4], "--dt-us", "1", "--out",
                str(tmp_path / "x.csv")]
        assert run([*argv, "--tmax-us", "10"]) == EXIT_OK
        assert len(read_curve_csv(tmp_path / "x.csv")["t_us"]) == 11
        assert run([*argv, "--tmax-us", "11"]) == EXIT_CONFIG

    @pytest.mark.parametrize("grid", ["grid:100000x100000", "grid:1001x1000"])
    def test_oversize_orientation_grid(self, tmp_path, capsys, grid):
        out = tmp_path / "p.csv"
        assert run(["powder", *POWDER_ARGS, "--orient-set", grid, "--out",
                    str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys, f"error: bad orientation set '{grid}'")
        assert not out.exists()

    def test_orientation_cap_counts_orientations(self, tmp_path, monkeypatch):
        monkeypatch.setattr(cli, "MAX_ORIENTATIONS", 12)
        argv = ["powder", *POWDER_ARGS, "--out", str(tmp_path / "p.csv")]
        assert run([*argv, "--orient-set", "grid:3x4"]) == EXIT_OK
        assert run([*argv, "--orient-set", "grid:13x1"]) == EXIT_CONFIG

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    @pytest.mark.parametrize("flags,message", [
        (["--b1i-khz", "8e9", "--b1s-khz", "8e9"],
         "error: the step-size rule needs 1e+08 substeps per grid interval"),
        (["--substeps", "100000000000000000000"],
         "error: 100000000000000000000000 substeps (1000 grid intervals x "),
    ])
    def test_substep_cap(self, tmp_path, capsys, command, flags, message):
        out = tmp_path / "x.csv"
        assert run([command, *BENCH_CMP, *flags, "--out",
                    str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys, message)
        assert not out.exists()

    @pytest.mark.parametrize("command", ["oracle", "compare"])
    def test_coupling_past_the_exponential_limit(self, tmp_path, capsys,
                                                 command):
        # the step-size rule keeps every factor inside the Taylor
        # exponential's bound, so a huge coupling asks for more substeps
        # than the cap allows, and is refused before any work
        args = dict(zip(BENCH_CMP[::2], BENCH_CMP[1::2]))
        args["--d-khz"] = "1e300"
        out = tmp_path / "x.csv"
        argv = [command, *(x for kv in args.items() for x in kv)]
        assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
        assert_one_error_line(capsys, "error: the step-size rule needs ")
        assert not out.exists()

    def test_substep_cap_counts_substeps(self, tmp_path, monkeypatch):
        # 100 grid intervals x the 8 substeps the CF4 rule asks for at 8 us
        monkeypatch.setattr(oracle, "MAX_SUBSTEPS", 800)
        argv = ["oracle", *BENCH_SIM[:-4], "--tmax-us", "800", "--dt-us",
                "8", *BENCH_CMP[-4:], "--out", str(tmp_path / "x.csv")]
        assert run(argv) == EXIT_OK
        monkeypatch.setattr(oracle, "MAX_SUBSTEPS", 799)
        assert run(argv) == EXIT_CONFIG


@pytest.mark.parametrize("value", ["nan", "inf", "1e-100", "1e300"])
def test_non_finite_distance_is_config_error(tmp_path, capsys, recwarn,
                                             value):
    # r**3 rounds to 0 at 1e-100 Angstrom and overflows at 1e300
    code = run(["fit", "--data", str(REPO_DATASET), "--distance-angstrom",
                value, "--mas-khz", "5", "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_CONFIG
    r = float(value)
    assert capsys.readouterr().err == (
        f"error: distance-angstrom must be finite and > 0, got {value}\n"
        if not math.isfinite(r) else
        f"error: distance {r!r} Angstrom is out of range: its coupling is "
        f"not finite and nonzero\n")
    assert not recwarn.list


@pytest.mark.parametrize("flags, message", [
    (["--r-inv-us", "0"], "r-inv-us must be > 0, got 0.0"),
    (["--r-inv-us", "-5"], "r-inv-us must be > 0, got -5.0"),
    (["--t1rho-ms", "-1"], "t1rho-ms must be > 0, got -1.0"),
    (["--t1rho-ms", "5e-324"], "t1rho-ms=5e-324 rounds to 0 s"),
    (["--b1i-khz", "-5", "--b1s-khz", "80"],
     "b1i-khz must be finite and > 0, got -5.0"),
    (["--b1i-khz", "80", "--b1s-khz", "80", "--offset-i-khz", "inf"],
     "offset-i-khz must be finite, got inf"),
    (["--distance-angstrom", "-1"],
     "distance-angstrom must be finite and > 0, got -1.0"),
    (["--free", "q,m0"], "unknown free parameters: 'q'"),
], ids=["zero-r", "negative-r", "negative-t1rho", "t1rho-rounds-to-0",
        "negative-lock", "infinite-offset", "negative-distance",
        "unknown-free-name"])
def test_refusal_names_the_flag_and_its_value(tmp_path, capsys, flags,
                                              message):
    # one line that names the flag and the value in the units it was given
    # in, not the library's parameter in SI units
    coupling = [] if "--distance-angstrom" in flags else ["--d-khz", "20"]
    out = tmp_path / "o.csv"
    assert run(["fit", "--data", str(REPO_DATASET), "--mas-khz", "5",
                "--free", "m0", *coupling, *flags,
                "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("flag, value", [
    ("d-khz", "1e308"), ("mas-khz", "1e308"), ("b1i-khz", "1e308"),
    ("b1s-khz", "1e308"), ("offset-i-khz", "1e308"),
    ("offset-s-khz", "-1e308"),
    # out of their domain too, but the overflow is named first
    ("b1i-khz", "-1e308"), ("mas-khz", "-1e308")])
def test_finite_value_that_overflows_in_rad_per_s(tmp_path, capsys, flag,
                                                  value):
    # finite in kHz, so the refusal says what is wrong: times 2*pi*1e3 it
    # is not
    args = dict(zip(BENCH_CMP[::2], BENCH_CMP[1::2]))
    args[f"--{flag}"] = value
    out = tmp_path / "x.csv"
    argv = ["simulate", *(x for kv in args.items() for x in kv)]
    assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err == (
        f"error: {flag}={float(value)} overflows double precision in "
        f"rad/s\n")
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_free_t1rho_guess_whose_square_underflows(tmp_path, capsys):
    # t1rho = 1e-163 s squares to 0 in the Jacobian's t1rho column
    code = run(["fit", "--data", str(REPO_DATASET), "--mas-khz", "5",
                "--d-khz", "22", "--free", "t1rho", "--t1rho-ms", "1e-160",
                "--out", str(tmp_path / "o.csv")])
    assert code == EXIT_FIT
    assert capsys.readouterr().err == (
        "fit error: non-finite Jacobian at the initial guess\n")


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("free, message", [
    (None, "non-finite Jacobian at the initial guess"),
    ("d,r,r1,t1rho,m0", "non-finite Jacobian at the initial guess"),
    ("r,r1,m0", "degenerate Jacobian: parameter 'r' has no effect on the "
     "model; consider fixing it")])
def test_subnormal_t1rho_fit_warns_of_nothing(tmp_path, capsys, free,
                                              message):
    # t/t1rho overflows to inf for t1rho = 1e-313 s, and the envelope
    # decays to exactly 0 without a RuntimeWarning
    out = tmp_path / "o.csv"
    code = run(["fit", "--data", str(REPO_DATASET), "--mas-khz", "5",
                "--r-inv-us", "436", "--r1-inv-us", "207",
                "--distance-angstrom", "1.09", "--t1rho-ms", "1e-310",
                *(["--free", free] if free else []), "--out", str(out)])
    assert code == EXIT_FIT
    assert capsys.readouterr().err == f"fit error: {message}\n"


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command", ["oracle", "compare"])
def test_subnormal_coupling_propagates_as_uncoupled(tmp_path, capsys,
                                                    command):
    # 1/w overflows for the table's bound w; its degree-0 table never uses it
    columns = []
    for d_khz in ("1e-320", "0"):
        out = tmp_path / f"{d_khz}.csv"
        argv = [command, *BENCH_CMP[2:], "--d-khz", d_khz, "--tmax-us", "10",
                "--out", str(out)]
        assert run(argv) == EXIT_OK
        columns.append(read_curve_csv(out))
    assert capsys.readouterr().err == ""
    for name in columns[0]:
        assert np.array_equal(columns[0][name], columns[1][name])


@pytest.mark.parametrize("command", ["simulate", "oracle", "compare"])
@pytest.mark.parametrize("flag, value", [
    *(("beta-deg", value) for value in ["200", "-1", "nan", "inf"]),
    *(("gamma-deg", value) for value in ["nan", "inf"])])
def test_angle_refusal_names_the_flag_in_degrees(tmp_path, capsys, command,
                                                 flag, value):
    # an angle out of range is refused in the units it was given in; any
    # finite gamma wraps into [0, 360) degrees
    args = dict(zip(BENCH_CMP[::2], BENCH_CMP[1::2]))
    args[f"--{flag}"] = value
    out = tmp_path / "x.csv"
    argv = [command, *(x for kv in args.items() for x in kv)]
    assert run([*argv, "--out", str(out)]) == EXIT_CONFIG
    wanted = ("must be in [0, 180]" if flag == "beta-deg"
              else "must be finite")
    assert capsys.readouterr().err == (
        f"error: {flag} {wanted}, got {float(value)}\n")
    assert not out.exists()


@pytest.mark.parametrize("command", ["simulate", "oracle", "compare"])
@pytest.mark.parametrize("value", ["-1e-20", "-1e-14"])
def test_tiny_negative_gamma_is_gamma_zero(tmp_path, command, value):
    # the remainder of a tiny negative angle modulo 2*pi rounds up to 2*pi
    def data_rows(gamma):
        out = tmp_path / f"{gamma}.csv"
        assert run([command, *BENCH_CMP[:6], "--gamma-deg", gamma,
                    "--tmax-us", "100", "--dt-us", "1", *BENCH_CMP[-4:],
                    "--out", str(out)]) == EXIT_OK
        return [line for line in out.read_text().splitlines()
                if not line.startswith("#")]

    assert data_rows(value) == data_rows("0")


@pytest.mark.parametrize("command", ["simulate", "oracle", "compare"])
@pytest.mark.parametrize("value", ["-1e-322", "-5e-324"])
def test_tiny_negative_beta_is_beta_zero(tmp_path, command, value):
    # beta is checked in radians, where these round to -0.0
    def data_rows(beta):
        out = tmp_path / f"{beta}.csv"
        assert run([command, *BENCH_CMP[:4], "--beta-deg", beta,
                    *BENCH_CMP[6:8], "--tmax-us", "100", "--dt-us", "1",
                    *BENCH_CMP[-4:], "--out", str(out)]) == EXIT_OK
        return [line for line in out.read_text().splitlines()
                if not line.startswith("#")]

    assert data_rows(value) == data_rows("0")
