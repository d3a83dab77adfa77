# The command-line interface: exit codes, report schemas and file output.

import argparse
import contextlib
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

import altkit
import altkit.cli
from altkit import gab_content_hash, load_gab, read_life_csv
from altkit.cli import main
from altkit.datasets import GAB_CONDITION_COLUMN
from altkit.relationships import (
    GenEyringParams,
    arrhenius_af,
    blacks_af,
    box_cox_af,
    coffin_manson_af,
    eyring_af,
    inverse_power_af,
    klinger_af,
    peck_af,
    use_rate_af,
)
from altkit.units import ActivationEnergy, Temperature


def run_altkit(args, **kwargs):
    """Run a Python module or snippet in a fresh interpreter that imports
    this checkout's altkit."""
    src = str(Path(altkit.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=src + os.pathsep + path if path else src)
    return subprocess.run([sys.executable, *args], capture_output=True,
                          env=env, timeout=300, **kwargs)


@pytest.fixture()
def gab_csv(tmp_path):
    path = tmp_path / "gab.csv"
    assert main(["gab", "--output", str(path)]) == 0
    return str(path)


@pytest.fixture()
def degradation_csv(tmp_path):
    path = tmp_path / "paths.csv"
    path.write_text(
        "unit,time,response,temp_C\n"
        "a,0.0,1.0,80\n"
        "a,4.0,0.8,80\n"
        "a,8.0,0.6,80\n"
        "b,0.0,1.0,60\n"
        "b,4.0,0.9,60\n"
        "b,8.0,0.8,60\n"
    )
    return str(path)


@pytest.fixture()
def spectrum_csv(tmp_path):
    path = tmp_path / "spectrum.csv"
    lines = ["wavelength_nm,irradiance"]
    for lam in np.linspace(290.0, 320.0, 31):
        lines.append(f"{lam},1.0")
    path.write_text("\n".join(lines) + "\n")
    return str(path)


class TestDocstring:
    def test_names_every_subcommand(self):
        parser = altkit.cli._build_parser()
        (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
        listed = altkit.cli.__doc__.partition("Subcommands:")[2].partition("\n\n")[0]
        assert re.findall(r"([a-z]+) \(", listed) == list(sub.choices)


class TestStartup:
    def test_import_does_not_load_scipy_optimize(self):
        proc = run_altkit(["-c", "import sys, altkit; "
                           "print('scipy.optimize' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().strip() == "False"

    def test_import_loads_no_submodule_and_no_numpy(self):
        proc = run_altkit(["-c", "import sys, altkit; print(sorted(m for m in sys.modules "
                           "if m.startswith('altkit.') or m.split('.')[0] == 'numpy'))"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode() == "[]\n"

    @pytest.mark.parametrize("command", ["fit", "profile", "af", "quantile"])
    def test_command_loads_only_what_it_runs(self, gab_csv, command):
        # numpy.random, which the bootstrap draws from, brings hashlib in.
        unused = ["altkit.datasets", "altkit.degradation", "altkit.photodeg"]
        if command != "quantile":
            unused.append("hashlib")
        m = "lognormal: mu ~ "
        argv = {
            "fit": ["fit", "--data", gab_csv, "--model", m + "log(voltstress)",
                    "--use", "voltstress=120"],
            "profile": ["profile", "--data", gab_csv, "--model", m + "boxcox(voltstress, 1)",
                        "--use", "voltstress=120", "--grid=-1:2:0.5"],
            "af": ["af", "--rel", "arrhenius", "--use", "temp_C=50", "--test", "temp_C=120",
                   "--ea-ev", "0.5"],
            "quantile": ["quantile", "--data", gab_csv, "--model", m + "log(voltstress)",
                         "--use", "voltstress=120", "--bootstrap", "20", "--seed", "1"],
        }[command]
        proc = run_altkit([
            "-c",
            "import sys; from altkit.cli import main; code = main(sys.argv[2:])\n"
            "print(code, [m for m in sys.argv[1].split(',') if m in sys.modules], "
            "file=sys.stderr)",
            ",".join(unused), *argv])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr.decode() == "0 []\n"

    def test_af_does_not_load_scipy(self):
        # No command loads scipy; af needs no lifetime kernel at all.
        proc = run_altkit(["-c", "import sys; from altkit.cli import main; "
                           "main(['af', '--rel', 'arrhenius', '--use', 'temp_C=50', "
                           "'--test', 'temp_C=120', '--ea-ev', '0.5']); "
                           "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().splitlines() == ["temp_C,af", "120,24.4605", "[]"]

    def test_lognormal_commands_do_not_load_scipy(self, gab_csv):
        # The normal kernels come from the standard library, so a lognormal
        # fit, bootstrap and profile leave no scipy module loaded.
        proc = run_altkit([
            "-c",
            "import sys; from altkit.cli import main; d = sys.argv[1]; m = 'lognormal: mu ~ '\n"
            "codes = [main(['fit', '--data', d, '--model', m + 'log(voltstress)',"
            " '--use', 'voltstress=120', '--quantiles', '0.1,0.5']),\n"
            "main(['quantile', '--data', d, '--model', m + 'log(voltstress)', '--use',"
            " 'voltstress=120', '--p', '0.01,0.1,0.5', '--bootstrap', '20', '--seed', '1']),\n"
            "main(['profile', '--data', d, '--model', m + 'boxcox(voltstress, 1)',"
            " '--use', 'voltstress=120', '--grid=-1:2:0.5'])]\n"
            "print(codes, sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'),"
            " file=sys.stderr)",
            gab_csv])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stderr.decode() == "[0, 0, 0] []\n"

    def test_lognormal_fit_without_scipy(self, gab_csv):
        # With scipy unimportable (a None entry in sys.modules makes every
        # import of it raise ImportError), a lognormal fit still succeeds.
        proc = run_altkit([
            "-c",
            "import sys; sys.modules['scipy'] = None; from altkit.cli import main; "
            "sys.exit(main(['fit', '--data', sys.argv[1], '--model', "
            "'lognormal: mu ~ log(voltstress)']))",
            gab_csv])
        assert proc.returncode == 0, proc.stderr.decode()
        report = json.loads(proc.stdout)
        fit = altkit.fit_ml(load_gab(), altkit.parse_model("lognormal: mu ~ log(voltstress)"))
        assert report["converged"] is True
        assert_allclose(report["loglik"], fit.loglik, rtol=1e-12)

    def test_files_opened_as_utf8(self, tmp_path):
        # Every path is opened with an explicit encoding, so no command
        # depends on the locale's codec.
        proc = run_altkit([
            "-X", "warn_default_encoding", "-W", "error::EncodingWarning", "-c",
            "import sys; from altkit.cli import main; d = sys.argv[1]; print([\n"
            "main(['gab', '--output', d + '/gab.csv']),\n"
            "main(['fit', '--data', d + '/gab.csv', '--model', 'lognormal: mu ~ log(voltstress)',"
            " '--output', d + '/fit.json']),\n"
            "main(['af', '--rel', 'arrhenius', '--use', 'temp_C=50', '--test', 'temp_C=120',"
            " '--ea-ev', '0.5', '--output', d + '/af.csv'])])",
            str(tmp_path)])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode() == "[0, 0, 0]\n" and proc.stderr == b""
        assert (tmp_path / "af.csv").read_bytes() == b"temp_C,af\n120,24.4605\n"


class TestAf:
    def test_table_output(self, capsys):
        code = main(["af", "--rel", "arrhenius", "--use", "temp_C=50",
                     "--test", "temp_C=120", "--ea-ev", "0.5"])
        assert code == 0
        out = capsys.readouterr().out.splitlines()
        assert out[0] == "temp_C,af"
        assert out[1] == "120,24.4605"

    def test_multiple_test_conditions(self, capsys):
        code = main(["af", "--rel", "invpower", "--use", "voltstress=120",
                     "--test", "voltstress=170", "--test", "voltstress=220",
                     "--beta1", "-9"])
        assert code == 0
        rows = capsys.readouterr().out.splitlines()
        assert len(rows) == 3
        assert_allclose(float(rows[1].split(",")[1]),
                        (170.0 / 120.0) ** 9.0, rtol=1e-4)

    def test_test_conditions_must_share_variables(self, capsys):
        code = main(["af", "--rel", "invpower", "--use", "v=1", "--test", "v=2",
                     "--test", "w=3", "--beta1", "-9"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: every --test must assign the same variables\n"

    def test_json_report(self, capsys):
        code = main(["af", "--rel", "arrhenius", "--use", "temp_C=50",
                     "--test", "temp_C=120", "--ea-ev", "0.5", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["schema_version"] == 1
        assert report["relationship"] == "arrhenius"
        assert_allclose(report["rows"][0]["af"], 24.46050364086682, rtol=1e-12)

    def test_missing_parameter_is_config_error(self, capsys):
        code = main(["af", "--rel", "arrhenius", "--use", "temp_C=50",
                     "--test", "temp_C=120"])
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error:")
        assert len(err.splitlines()) == 1

    def test_conflicting_energy_units_rejected(self, capsys):
        code = main(["af", "--rel", "arrhenius", "--use", "temp_C=50",
                     "--test", "temp_C=120", "--ea-ev", "0.5",
                     "--ea-kj", "48.0"])
        assert code == 2

    def test_unknown_relationship_exits_2(self, capsys):
        code = main(["af", "--rel", "quadratic", "--use", "temp_C=50",
                     "--test", "temp_C=120"])
        assert code == 2

    def test_eyring_and_userate(self, capsys):
        code = main(["af", "--rel", "eyring", "--use", "temp_C=90",
                     "--test", "temp_C=160", "--ea-ev", "1.2", "--m", "1"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == "160,586.125"
        code = main(["af", "--rel", "userate", "--use", "rate=60",
                     "--test", "rate=412"])
        assert code == 0
        assert capsys.readouterr().out.splitlines()[1] == "412,6.86667"

    @pytest.mark.parametrize("argv, item", [
        (["af", "--rel", "invpower", "--use", "v=nan", "--test", "v=1", "--beta1", "2"],
         "v, got 'nan'"),
        (["af", "--rel", "arrhenius", "--use", "temp_C=40", "--test", "temp_C=nan",
          "--ea-ev", "0.7"], "temp_C, got 'nan'"),
        (["quantile", "--model", "lognormal: mu ~ log(voltstress)",
          "--use", "voltstress=NaN"], "voltstress, got 'NaN'"),
    ], ids=["af-use", "af-test", "quantile-use"])
    def test_nan_assignment_exits_2(self, capsys, gab_csv, argv, item):
        # nan passes every x <= 0 guard; it is not a number to stress at.
        if argv[0] == "quantile":
            argv = [*argv, "--data", gab_csv]
        code = main(argv)
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: expected a number for {item}\n"


_C, _K, _EV = Temperature.celsius, Temperature.kelvin, ActivationEnergy.ev
# Each relationship: `af` arguments and the library value they stand for.
AF_CASES = {
    "arrhenius": (["--use", "temp_C=50", "--test", "temp_K=400", "--ea-kj", "60"],
                  arrhenius_af(_K(400.0), _C(50.0), ActivationEnergy.kj_per_mol(60.0))),
    "eyring": (["--use", "temp_C=90", "--test", "temp_C=160", "--ea-ev", "1.2", "--m", "1"],
               eyring_af(_C(160.0), _C(90.0), _EV(1.2), 1.0)),
    "userate": (["--use", "rate=60", "--test", "rate=412", "--p", "0.7"],
                use_rate_af(412.0, 60.0, 0.7)),
    "invpower": (["--use", "v=120", "--test", "v=170", "--beta1", "-9"],
                 inverse_power_af(170.0, 120.0, -9.0)),
    "coffin-manson": (["--use", "dtemp=20", "--test", "dtemp=100", "--beta1", "2"],
                      coffin_manson_af(100.0, 20.0, 2.0)),
    "boxcox": (["--use", "v=120", "--test", "v=170", "--lambda", "0.5", "--gamma1", "-1.5"],
               box_cox_af(170.0, 120.0, 0.5, -1.5)),
    "peck": (["--use", "temp_C=30,rh=0.5", "--test", "temp_C=85,rh=0.85",
              "--ea-ev", "0.7", "--gamma2", "3"],
             peck_af(_C(85.0), 0.85, _C(30.0), 0.5, GenEyringParams(1.0, _EV(0.7), 3.0))),
    "klinger": (["--use", "temp_C=30,rh=0.5", "--test", "temp_C=85,rh=0.85",
                 "--ea-kcal", "15", "--gamma2", "1.5"],
                klinger_af(_C(85.0), 0.85, _C(30.0), 0.5,
                           GenEyringParams(1.0, ActivationEnergy.kcal_per_mol(15.0), 1.5))),
    "blacks": (["--use", "temp_C=50,current=1", "--test", "temp_C=150,current=2",
                "--ea-ev", "0.8", "--gamma2", "2"],
               blacks_af(_C(150.0), 2.0, _C(50.0), 1.0, GenEyringParams(1.0, _EV(0.8), 2.0))),
}


class TestAfRelationships:
    @pytest.mark.parametrize("rel", AF_CASES)
    def test_matches_library(self, capsys, rel):
        argv, want = AF_CASES[rel]
        assert main(["af", "--rel", rel, *argv, "--json"]) == 0
        out, err = capsys.readouterr()
        assert err == ""
        assert_allclose(json.loads(out)["rows"][0]["af"], want, rtol=1e-12)

    @pytest.mark.parametrize("rel, argv, message", [
        ("arrhenius", ["--use", "temp_C=50", "--test", "temp_C=120"], "activation energy"),
        ("eyring", ["--use", "temp_C=90", "--test", "temp_C=160", "--ea-ev", "1.2"],
         "--m is required for --rel eyring"),
        ("userate", ["--use", "rate=60", "--test", "r=412"], "exactly one stress variable"),
        ("invpower", ["--use", "v=120", "--test", "v=170"], "--beta1 is required"),
        ("coffin-manson", ["--use", "dtemp=20", "--test", "dtemp=100"], "--beta1 is required"),
        ("boxcox", ["--use", "v=120", "--test", "v=170", "--gamma1", "-1.5"],
         "--lambda is required"),
        ("peck", ["--use", "temp_C=30,rh=0.5", "--test", "temp_C=85,rh=0.85", "--ea-ev", "0.7"],
         "--gamma2 is required for --rel peck"),
        ("klinger", ["--use", "temp_C=30", "--test", "temp_C=85", "--ea-ev", "0.7",
                     "--gamma2", "1.5"], "'rh'"),
        ("blacks", ["--use", "temp_C=50,current=1", "--test", "temp_C=150,current=2",
                    "--gamma2", "2"], "activation energy"),
    ])
    def test_missing_option_exits_2(self, capsys, rel, argv, message):
        code = main(["af", "--rel", rel, *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err

    @pytest.mark.parametrize("rel, argv, flag", [
        ("arrhenius", ["--use", "temp_C=50", "--test", "temp_C=120", "--ea-ev", "nan"], "ea-ev"),
        ("arrhenius", ["--use", "temp_C=50", "--test", "temp_C=120", "--ea-kj", "nan"], "ea-kj"),
        ("eyring", ["--use", "temp_C=50", "--test", "temp_C=120", "--ea-ev", "0.5",
                    "--m", "nan"], "m"),
        ("userate", ["--use", "rate=60", "--test", "rate=412", "--p", "nan"], "p"),
        ("invpower", ["--use", "v=120", "--test", "v=170", "--beta1", "nan"], "beta1"),
        ("boxcox", ["--use", "v=120", "--test", "v=170", "--lambda", "nan",
                    "--gamma1", "-1.5"], "lambda"),
        ("peck", ["--use", "temp_C=30,rh=0.5", "--test", "temp_C=85,rh=0.85", "--ea-ev", "0.7",
                  "--gamma2", "nan"], "gamma2"),
    ])
    def test_nan_option_exits_2(self, capsys, rel, argv, flag):
        code = main(["af", "--rel", rel, *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: expected a finite number for --{flag}, got nan\n"

    @pytest.mark.parametrize("rel, argv, flag, value", [
        ("arrhenius", ["--use", "temp_C=50", "--test", "temp_C=120", "--ea-ev", "inf"],
         "ea-ev", "inf"),
        ("arrhenius", ["--use", "temp_C=50", "--test", "temp_C=120", "--ea-kj=-inf"],
         "ea-kj", "-inf"),
        ("boxcox", ["--use", "v=120", "--test", "v=170", "--lambda", "inf",
                    "--gamma1", "-1.5"], "lambda", "inf"),
    ])
    def test_infinite_option_exits_2(self, capsys, rel, argv, flag, value):
        # An infinite activation energy once printed 120,nan and exited 0.
        code = main(["af", "--rel", rel, *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: expected a finite number for --{flag}, got {value}\n"

    @pytest.mark.parametrize("rel, use, test, options", [
        ("arrhenius", "temp_K=1", "temp_K=1e9", ["--ea-ev", "100"]),
        ("eyring", "temp_K=1", "temp_K=1e9", ["--ea-ev", "100", "--m", "1"]),
        ("userate", "rate=1", "rate=1e300", ["--p", "9"]),
        ("invpower", "v=1", "v=1e300", ["--beta1", "-9"]),
        ("coffin-manson", "dtemp=1", "dtemp=1e300", ["--beta1", "9"]),
        ("boxcox", "v=1", "v=1e300", ["--lambda", "0", "--gamma1", "-9"]),
        ("peck", "temp_K=1,rh=0.5", "temp_K=1e9,rh=0.5", ["--ea-ev", "100", "--gamma2", "1"]),
        ("klinger", "temp_K=1,rh=0.5", "temp_K=1e9,rh=0.5", ["--ea-ev", "100", "--gamma2", "1"]),
        ("blacks", "temp_K=1,current=1", "temp_K=1e9,current=1",
         ["--ea-ev", "100", "--gamma2", "0"]),
    ])
    def test_overflow_is_inf(self, capsys, rel, use, test, options):
        # A factor beyond double precision prints inf in the table and
        # null in the JSON, with one warning naming its test condition.
        argv = ["af", "--rel", rel, "--use", use, "--test", use, "--test", test, *options]
        for json_flag in ([], ["--json"]):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(argv + json_flag)
            out, err = capsys.readouterr()
            assert code == 0
            assert err.startswith("warning: non-finite af for --test ") and err.count("\n") == 1
            assert err.endswith(("e+09\n", "e+300\n"))
            if json_flag:
                assert [row["af"] for row in json.loads(out)["rows"]] == [1.0, None]
            else:
                assert [row.split(",")[-1] for row in out.splitlines()[1:]] == ["1", "inf"]

    @pytest.mark.parametrize("rel, use, options", [
        ("invpower", "v", ["--beta1", "2"]),
        ("userate", "rate", ["--p", "-1"]),
        ("coffin-manson", "dtemp", ["--beta1", "-2"]),
    ])
    def test_infinite_use_stress_is_inf(self, capsys, rel, use, options):
        # The factor raises 0.0 (test/use) to a negative power: inf, not a crash.
        code = main(["af", "--rel", rel, "--use", f"{use}=inf", "--test", f"{use}=1", *options])
        out, err = capsys.readouterr()
        assert code == 0
        assert out.splitlines()[1] == "1,inf"
        assert err == f"warning: non-finite af for --test {use}=1\n"

    @pytest.mark.parametrize("argv", [
        ["--rel", "boxcox", "--use", "v=1", "--test", "v=1e200", "--lambda", "2",
         "--gamma1", "1"],
        ["--rel", "boxcox", "--use", "v=1e200", "--test", "v=1e300", "--lambda", "2",
         "--gamma1", "1"],
        ["--rel", "eyring", "--use", "temp_K=1e9", "--test", "temp_K=1", "--ea-ev", "100",
         "--m", "-1000"],
    ], ids=["boxcox", "boxcox-both", "eyring"])
    def test_overflow_part_way_is_zero(self, capsys, argv):
        # v^2 or (T/T_u)^-1000 overflows, but the factor is exp(-5e399),
        # exp((1e400 - 1e600)/2) or about exp(-1.14e6): 0, with no warning.
        assert main(["af", *argv]) == 0
        out, err = capsys.readouterr()
        assert err == "" and out.splitlines()[1].split(",")[-1] == "0"


class TestFit:
    @pytest.mark.parametrize("argv, message", [
        (["--use", "voltstress=abc"], "expected a number for voltstress, got 'abc'"),
        (["--use", "voltstress=120", "--quantiles", "0.1,x"],
         "expected comma-separated probabilities, got '0.1,x'"),
    ], ids=["use", "quantiles"])
    def test_bad_quantile_request_exits_2(self, gab_csv, capsys, argv, message):
        code = main(["fit", "--data", gab_csv, "--model", "lognormal: mu ~ log(voltstress)",
                     *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_rank_deficient_sigma_design_exits_2(self, tmp_path, capsys):
        path = tmp_path / "life.csv"
        path.write_text("time,status,v,w\n5,failed,1,2\n6,failed,2,2\n7,censored,3,2\n")
        code = main(["fit", "--data", str(path), "--model", "lognormal: mu ~ v; sigma ~ w"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: sigma design matrix is rank deficient on these data\n"

    @pytest.mark.parametrize("lam, problem", [
        ("1e300", "not finite on these data (a term overflows)"),
        ("400", "not finite on these data (a term overflows)"),
        ("-400", "rank deficient on these data"),  # underflows to a constant column
    ])
    def test_ill_posed_boxcox_design(self, gab_csv, capsys, lam, problem):
        code = main(["fit", "--data", gab_csv, "--model",
                     f"lognormal: mu ~ boxcox(voltstress, {lam})"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: mu design matrix is {problem}\n"

    def test_fit_report(self, gab_csv, tmp_path, capsys):
        out = tmp_path / "fit.json"
        code = main(["fit", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)",
                     "--output", str(out)])
        assert code == 0
        report = json.loads(out.read_text())
        assert report["schema_version"] == 1
        assert report["command"] == "fit"
        assert report["converged"] is True
        assert report["n_records"] == 75 and report["n_failed"] == 36
        assert_allclose(report["estimates"]["mu:log(voltstress)"],
                        -9.95714623201282, rtol=1e-6)
        assert_allclose(report["loglik"], -89.51922902643672, rtol=1e-9)
        cov = np.array(report["covariance"])
        assert cov.shape == (3, 3)

    def test_fit_with_use_quantiles(self, gab_csv, capsys):
        code = main(["fit", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)",
                     "--use", "voltstress=120", "--quantiles", "0.1,0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        qs = report["quantiles"]
        assert [q["p"] for q in qs] == [0.1, 0.5]
        assert all(q["extrapolated"] for q in qs)
        assert qs[0]["quantile"] < qs[1]["quantile"]

    def test_json_floats_survive_round_trip(self, gab_csv, capsys):
        main(["fit", "--data", gab_csv, "--model",
              "lognormal: mu ~ log(voltstress)"])
        report = json.loads(capsys.readouterr().out)
        from altkit import fit_ml, parse_model
        fit = fit_ml(load_gab(), parse_model("lognormal: mu ~ log(voltstress)"))
        assert report["estimates"]["mu:log(voltstress)"] == fit.estimate(
            "mu:log(voltstress)")

    def test_weibull_family(self, gab_csv, capsys):
        code = main(["fit", "--data", gab_csv, "--model",
                     "weibull: mu ~ log(voltstress)"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["family"] == "weibull"
        assert_allclose(report["estimates"]["mu:log(voltstress)"],
                        -9.675356206727805, rtol=1e-6)

    def test_missing_file_exits_2(self, capsys):
        code = main(["fit", "--data", "/nonexistent/life.csv", "--model",
                     "lognormal: mu ~ log(voltstress)"])
        assert code == 2

    @pytest.mark.parametrize("problem", ["name_too_long", "not_a_directory", "symlink_loop"])
    def test_unopenable_data_exits_2(self, tmp_path, capsys, problem):
        life = tmp_path / "life.csv"
        life.write_text("time,status,voltstress\n1,failed,1\n")
        loop = tmp_path / "loop"
        loop.symlink_to(loop)
        data = {"name_too_long": tmp_path / ("x" * 300 + ".csv"),
                "not_a_directory": life / "x", "symlink_loop": loop}[problem]
        code = main(["fit", "--data", str(data), "--model", "lognormal: mu ~ log(voltstress)"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full device")
    def test_full_device_exits_2(self, capsys):
        code = main(["gab", "--output", "/dev/full"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_formula_exits_2(self, gab_csv, capsys):
        code = main(["fit", "--data", gab_csv, "--model",
                     "lognormal: mu ~ exp(voltstress)"])
        assert code == 2

    @pytest.mark.parametrize("row", ["inf,failed,170", "2.5,failed,nan"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, row):
        path = tmp_path / "life.csv"
        path.write_text("time,status,voltstress\n1.5,failed,200\n"
                        "3.0,censored,150\n" + row + "\n")
        code = main(["fit", "--data", str(path), "--model",
                     "lognormal: mu ~ log(voltstress)"])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_non_finite_condition_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "life.csv"
        path.write_text("time,status,v,w\n1,failed,1,nan\n2,failed,nan,1\n3,failed,2,inf\n")
        code = main(["fit", "--data", str(path), "--model", "lognormal: mu ~ v"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: line 3, column v: expected a finite number, got nan\n"
        # A column the model does not use may hold nan and inf.
        path.write_text("time,status,v,w\n1,failed,1,nan\n2,failed,3,1\n3,failed,2,inf\n")
        assert main(["fit", "--data", str(path), "--model", "lognormal: mu ~ v"]) == 0

    def test_non_finite_derived_variable_names_its_line(self, tmp_path, capsys):
        path = tmp_path / "life.csv"
        path.write_text("time,status,voltage,thickness\n1,failed,1,1\n\n"
                        "2,failed,3,0\n3,failed,2,1\n")
        code = main(["fit", "--data", str(path), "--model", "lognormal: mu ~ voltstress"])
        assert code == 2
        assert capsys.readouterr().err == (
            "error: line 4: condition variable 'voltstress' has a non-finite value (inf)\n")

    @pytest.mark.parametrize("model,text,want", [
        ("lognormal: mu ~ log(v)", b"time,status,v\n1,failed,1\n2,failed,-1\n3,failed,2\n",
         "line 3: log of non-positive value in log(v)"),
        ("lognormal: mu ~ arrh(temp)", b"time,status,temp_C\n\n1,failed,-300\n",
         "line 3: temperature -26.850000000000023 K is not > 0"),
        ("lognormal: mu ~ v", b"time,status,v\n1,failed,1\n2,failed,\xff\xfe\n",
         "line 3: not UTF-8 text (invalid start byte)"),
        ("lognormal: mu ~ v", b"time,status,v\n1,bogus,1\n2,failed,\xff\n",
         "line 2: status must be one of ('failed', 'censored'), got 'bogus'"),
        ("lognormal: mu ~ v",
         b"time,status,v\n1,failed,1\n2,failed,1\n3,failed," + b"1" * 131_073 + b"\n",
         "line 4: field larger than field limit (131072)"),
    ], ids=["log", "one-row-arrh", "not-utf8", "bad-row-before-not-utf8", "long-cell"])
    def test_row_error_names_its_line(self, tmp_path, capsys, model, text, want):
        path = tmp_path / "life.csv"
        path.write_bytes(text)
        code = main(["fit", "--data", str(path), "--model", model])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {want}\n"

    @pytest.mark.parametrize("v", ["1e200,2e200", "1e308,1.5e308"])
    def test_overflowing_design_column_fits(self, tmp_path, capsys, v):
        # The column's spread overflows double precision unless it is
        # scaled first; [1, v] has rank 2, so the fit converges.
        big, bigger = v.split(",")
        path = tmp_path / "life.csv"
        path.write_text(f"time,status,v\n5,failed,{big}\n6,failed,{bigger}\n7,failed,3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", str(path), "--model", "lognormal: mu ~ v"])
        out, err = capsys.readouterr()
        report = json.loads(out)
        assert code == 0 and err == ""
        assert report["converged"] is True and report["warnings"] == []
        if big == "1e200":
            # The power-of-two scaling is exact: the fit on v * 2^-664
            # gives the same numbers, the slope scaled by 2^-664.
            scale = math.ldexp(1.0, -664)
            path.write_text("time,status,v\n" + "".join(
                f"{t},failed,{float(x) * scale!r}\n" for t, x in ((5, big), (6, bigger), (7, 3))))
            assert main(["fit", "--data", str(path), "--model", "lognormal: mu ~ v"]) == 0
            scaled = json.loads(capsys.readouterr().out)
            est, want = report["estimates"], scaled["estimates"]
            assert est["mu:(Intercept)"] == want["mu:(Intercept)"]
            assert est["logsigma:(Intercept)"] == want["logsigma:(Intercept)"]
            assert report["loglik"] == scaled["loglik"]
            assert est["mu:v"] == want["mu:v"] * scale

    @pytest.mark.parametrize("command", [["fit"], ["quantile", "--use", "v=1"]],
                             ids=["fit", "quantile"])
    def test_non_convergence_prints_one_line(self, tmp_path, capsys, command):
        path = tmp_path / "life.csv"
        path.write_text("time,status,v\n1e300,failed,1\n1e-300,failed,2\n5,censored,3\n")
        code = main([command[0], "--data", str(path), "--model", "lognormal: mu ~ log(v)",
                     *command[1:]])
        out, err = capsys.readouterr()
        assert code == 3 and json.loads(out)["converged"] is False
        assert err.startswith("error: no convergence after ") and err.count("\n") == 1
        assert "Newton steps (scaled gradient " in err

    @pytest.mark.parametrize("argv", [
        ["quantile", "--use", "v=1", "--p", "2"],
        ["fit", "--use", "v=1", "--quantiles", "2"],
        ["fit", "--use", "v"],
        ["fit", "--use", "x=1"],
        ["quantile", "--use", "v=1", "--bootstrap", "5", "--seed", "-1"],
    ], ids=["p", "quantiles", "use-syntax", "use-variable", "seed"])
    def test_exit_2_after_non_convergence_prints_one_line(self, tmp_path, capsys, argv):
        # An exit 2 raised while the report of a fit that stopped short is
        # built prints its own line only.
        path = tmp_path / "life.csv"
        path.write_text("time,status,v\n1e300,failed,1\n1e-300,failed,2\n5,censored,3\n")
        code = main([argv[0], "--data", str(path), "--model", "lognormal: mu ~ log(v)",
                     *argv[1:]])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "no convergence" not in err

    def test_unknown_variable_exits_2(self, gab_csv, capsys):
        code = main(["fit", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(current)"])
        assert code == 2


OVF_CSV = ("time,status,v\n25,censored,1\n14,failed,1\n9,censored,2\n"
           "10,failed,1\n14,failed,1\n30,censored,1\n")
LINE4_CSV = "time,status,v\n5,failed,1\n6,failed,2\n7,failed,3\n8,failed,4\n"


class TestOverflow:
    """A quantile or bound beyond double precision is null in the JSON
    report, with one stderr warning line naming p and no traceback."""

    @pytest.mark.parametrize("data, argv, p, null", [
        (OVF_CSV, ["fit", "--model", "lognormal: mu ~ log(v)", "--use", "v=1.5",
                   "--quantiles", "0.1"], "0.1", ("quantiles", "upper")),
        (OVF_CSV, ["fit", "--model", "weibull: mu ~ log(v)", "--use", "v=1.5",
                   "--quantiles", "0.1"], "0.1", ("quantiles", "upper")),
        (OVF_CSV, ["quantile", "--model", "lognormal: mu ~ log(v)", "--use", "v=1.5",
                   "--p", "0.1", "--bootstrap", "20", "--seed", "1"], "0.1",
         ("quantiles", "upper")),
        (LINE4_CSV, ["fit", "--model", "weibull: mu ~ v", "--use", "v=1e6",
                     "--quantiles", "0.5"], "0.5", ("quantiles", "quantile")),
        (LINE4_CSV, ["quantile", "--model", "lognormal: mu ~ v", "--use", "v=1e5",
                     "--p", "0.5", "--bootstrap", "20", "--seed", "1"], "0.5",
         ("bootstrap", "median")),
        (LINE4_CSV, ["quantile", "--model", "lognormal: mu ~ v", "--use", "v=-1e5",
                     "--p", "0.5", "--bootstrap", "20", "--seed", "1"], "0.5",
         ("bootstrap", "se_log")),
    ], ids=["ovf-lognormal", "ovf-weibull", "ovf-bootstrap", "line4-weibull",
            "line4-bootstrap", "line4-underflow"])
    def test_overflow_reports_null(self, tmp_path, capsys, data, argv, p, null):
        path = tmp_path / "life.csv"
        path.write_text(data)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main([argv[0], "--data", str(path), *argv[1:]])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == f"warning: non-finite quantile values for p={p} are reported as null\n"
        block, key = null
        assert json.loads(out)[block][0][key] is None

    def test_overflowing_quantile_variance_warns_once(self, gab_csv, capsys):
        # The delta-method variance overflows at voltstress=1e300; numpy once
        # added its own overflow warning and source line to stderr.
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", gab_csv, "--model", "weibull: mu ~ voltstress",
                         "--use", "voltstress=1e300"])
        out, err = capsys.readouterr()
        assert code == 0
        assert err == "warning: non-finite quantile values for p=0.01,0.05 are reported as null\n"
        assert [q["se"] for q in json.loads(out)["quantiles"]] == [None, None]

    def test_profile_prints_inf(self, tmp_path, capsys):
        path = tmp_path / "life.csv"
        path.write_text(LINE4_CSV)
        code = main(["profile", "--data", str(path), "--model",
                     "lognormal: mu ~ boxcox(v, 1)", "--use", "v=1e9",
                     "--grid=-1:2:0.5"])
        lines = capsys.readouterr().out.splitlines()
        assert code == 0 and len(lines) == 8
        assert lines[-1].split(",")[2:] == ["inf", "inf", "inf", "true"]

    def test_non_finite_information_exits_3(self, tmp_path, capsys):
        path = tmp_path / "life.csv"
        path.write_text("time,status,v\n1e300,failed,1\n1e-300,failed,2\n5,censored,3\n")
        code = main(["fit", "--data", str(path), "--model", "weibull: mu ~ log(v)",
                     "--use", "v=1", "--quantiles", "0.5"])
        report = json.loads(capsys.readouterr().out)
        assert code == 3 and report["converged"] is False
        assert report["covariance"] == [[None] * 3] * 3
        assert "observed information is not finite; covariance is undefined" in report["warnings"]


class TestQuantile:
    def test_quantile_report(self, gab_csv, capsys):
        code = main(["quantile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)",
                     "--use", "voltstress=170", "--p", "0.1,0.5"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["command"] == "quantile"
        assert len(report["quantiles"]) == 2
        q = report["quantiles"][0]
        assert q["lower"] < q["quantile"] < q["upper"]
        assert not q["extrapolated"]

    def test_no_probabilities_exits_2(self, gab_csv, capsys):
        code = main(["quantile", "--data", gab_csv, "--model", "lognormal: mu ~ log(voltstress)",
                     "--use", "voltstress=170", "--p", " , "])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: no probabilities given\n"

    def test_bootstrap_requires_seed(self, gab_csv, capsys):
        code = main(["quantile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)",
                     "--use", "voltstress=170", "--bootstrap", "20"])
        assert code == 2
        assert "seed" in capsys.readouterr().err

    def test_bootstrap_block(self, gab_csv, capsys):
        code = main(["quantile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)",
                     "--use", "voltstress=170", "--p", "0.1",
                     "--bootstrap", "20", "--seed", "7"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        block = report["bootstrap"][0]
        assert block["n_resamples"] == 20
        assert block["seed"] == 7
        assert block["se_log"] > 0.0

    @pytest.mark.parametrize("n_boot", ["0", "-3", "1"])
    def test_too_few_resamples_exit_2(self, gab_csv, capsys, n_boot):
        # Fewer than 2 resamples have no spread to report: one line on
        # stderr, no report and no numpy warning.
        code = main(["quantile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)", "--use", "voltstress=170",
                     "--p", "0.1,0.5", f"--bootstrap={n_boot}", "--seed", "7"])
        out, err = capsys.readouterr()
        assert code == 2
        assert out == ""
        assert err.count("\n") == 1 and err.startswith("error: ")
        assert "at least 2 resamples" in err

    def test_one_bootstrap_for_every_p(self, gab_csv, capsys, monkeypatch):
        # The resamples are fitted once, and each p's block matches a
        # bootstrap of that p alone.
        import altkit.cli
        from altkit import parse_model
        from altkit.fitml import bootstrap_quantile
        calls = []

        def counted(*args):
            calls.append(args[3])
            return bootstrap_quantile(*args)

        monkeypatch.setattr(altkit.cli, "bootstrap_quantile", counted)
        ps = [0.01, 0.1, 0.5]
        code = main(["quantile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)", "--use", "voltstress=170",
                     "--p", ",".join(map(str, ps)), "--bootstrap", "12", "--seed", "3"])
        assert code == 0
        assert calls == [ps]
        blocks = json.loads(capsys.readouterr().out)["bootstrap"]
        spec = parse_model("lognormal: mu ~ log(voltstress)")
        for block, p in zip(blocks, ps):
            alone = bootstrap_quantile(load_gab(), spec, {"voltstress": 170.0}, p, 12, 3)
            assert block["p"] == p and block["n_resamples"] == 12
            assert block["n_skipped"] == alone.n_skipped
            assert_allclose(block["median"], np.median(alone.quantiles), rtol=1e-12)
            assert_allclose(block["se_log"], alone.se_log, rtol=1e-12)

    def test_piped_data_matches_file(self, gab_csv, capsys):
        argv = ["quantile", "--model", "lognormal: mu ~ log(voltstress)",
                "--use", "voltstress=120", "--p", "0.1,0.5",
                "--bootstrap", "5", "--seed", "1"]
        assert main(argv + ["--data", gab_csv]) == 0
        from_file = json.loads(capsys.readouterr().out)
        proc = run_altkit(["-m", "altkit.cli", *argv, "--data", "/dev/stdin"],
                          input=Path(gab_csv).read_bytes())
        assert proc.returncode == 0, proc.stderr.decode()
        piped = json.loads(proc.stdout)
        assert len(piped["bootstrap"]) == 2
        assert piped["bootstrap"] == from_file["bootstrap"]


    def test_too_many_resamples_exits_2(self, gab_csv, capsys):
        # 10**15 resamples fail the first allocation, so nothing is allocated.
        code = main(["quantile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)", "--use", "voltstress=170",
                     "--bootstrap", str(10**15), "--seed", "1"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: --bootstrap {10**15} is too many resamples\n"


class TestProfile:
    def test_csv_sweep(self, gab_csv, capsys):
        code = main(["profile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ boxcox(voltstress, 1)",
                     "--use", "voltstress=120", "--grid=-1:2:0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "lambda,loglik,quantile,lower,upper,converged"
        assert len(lines) == 8  # 7 grid points + header
        first = lines[1].split(",")
        assert float(first[0]) == -1.0
        assert first[5] == "true"

    def test_grid_validation(self, gab_csv, capsys):
        code = main(["profile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ boxcox(voltstress, 1)",
                     "--use", "voltstress=120", "--grid", "2:-1:0.5"])
        assert code == 2

    def test_grid_needs_three_parts(self, gab_csv, capsys):
        code = main(["profile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ boxcox(voltstress, 1)",
                     "--use", "voltstress=120", "--grid", "1:2"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: expected start:stop:step, got '1:2'\n"

    # Only grids refused before anything is allocated.
    @pytest.mark.parametrize("grid", ["0:1:nan", "-inf:1:0.1", "0:1:1e-300", "-1e308:1e308:1"])
    def test_non_finite_or_huge_grid_exits_2(self, gab_csv, capsys, grid):
        code = main(["profile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ boxcox(voltstress, 1)",
                     "--use", "voltstress=120", f"--grid={grid}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("p", ["2", "nan", "0"])
    def test_p_outside_unit_interval_exits_2(self, gab_csv, capsys, p):
        code = main(["profile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ boxcox(voltstress, 1)",
                     "--use", "voltstress=120", "--p", p])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: p must lie strictly inside (0, 1)\n"

    def test_default_grid_is_the_library_sweep(self, gab_csv, capsys):
        argv = ["profile", "--data", gab_csv, "--model",
                "lognormal: mu ~ boxcox(voltstress, 1)", "--use", "voltstress=120"]
        assert main(argv) == 0
        default = capsys.readouterr().out
        assert main([*argv, "--grid=-1:2:0.1"]) == 0
        assert capsys.readouterr().out == default
        assert len(default.splitlines()) == 32  # 31 grid points + header

    def test_negative_start_needs_the_equals_form(self, gab_csv, capsys):
        # argparse reads a separate word that starts with '-' as an option;
        # --help says so.
        argv = ["profile", "--data", gab_csv, "--model", "lognormal: mu ~ boxcox(voltstress, 1)",
                "--use", "voltstress=120", "--grid", "-1:2:0.1"]
        assert main(argv) == 2
        assert "--grid: expected one argument" in capsys.readouterr().err
        assert main(["profile", "--help"]) == 0
        assert ("give a negative START as --grid=-1:2:0.1"
                in " ".join(capsys.readouterr().out.split()))

    def test_grid_step_is_rounded_to_divide_the_range(self, gab_csv, capsys):
        argv = ["profile", "--data", gab_csv, "--model", "lognormal: mu ~ boxcox(voltstress, 1)",
                "--use", "voltstress=120", "--grid=0:1:0.4"]
        assert main(argv) == 0
        rows = capsys.readouterr().out.splitlines()[1:]
        assert [float(row.split(",")[0]) for row in rows] == [0.0, 0.5, 1.0]
        assert main(["profile", "--help"]) == 0
        assert ("the step is rounded to divide STOP - START into whole steps "
                "(0:1:0.4 sweeps 0, 0.5, 1)" in " ".join(capsys.readouterr().out.split()))

    # What every grid point would raise exits 2 as `quantile` does, one line.
    @pytest.mark.parametrize("data, use, message", [
        ("time,status,v\n5,censored,1\n6,censored,2\n", "v=1",
         "all records are censored; the model parameters are inestimable"),
        ("time,status,v\n5,failed,1\n6,failed,-2\n7,failed,3\n", "v=1",
         "line 3: box_cox_transform requires x > 0"),
        ("gab", "foo=1", "condition has no variable 'v'"),
        ("gab", "v=-5", "box_cox_transform requires x > 0"),
    ], ids=["all-censored", "bad-data", "use-variable", "use-domain"])
    def test_errors_of_every_point_exit_2(self, tmp_path, capsys, monkeypatch, data, use, message):
        path = tmp_path / "life.csv"
        if data == "gab":
            assert main(["gab", "--output", str(path)]) == 0
            path.write_text(path.read_text().replace(GAB_CONDITION_COLUMN, "v"))
        else:
            path.write_text(data)
        argv = ["--data", str(path), "--model", "lognormal: mu ~ boxcox(v, 1)", "--use", use]
        for command in ("quantile", "profile"):
            assert main([command, *argv]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")
        if data == "gab":  # a bad --use fails before any fit
            def no_fit(*args):
                raise AssertionError("fit_ml was called")

            monkeypatch.setattr(altkit.fitml, "fit_ml", no_fit)
            assert main(["profile", *argv]) == 2
            assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_model_without_boxcox_exits_2(self, gab_csv, capsys):
        code = main(["profile", "--data", gab_csv, "--model",
                     "lognormal: mu ~ log(voltstress)",
                     "--use", "voltstress=120"])
        assert code == 2


class TestPseudo:
    def test_life_csv_output(self, degradation_csv, tmp_path):
        out = tmp_path / "life.csv"
        code = main(["pseudo", "--data", degradation_csv,
                     "--threshold", "0.5", "--extrapolate",
                     "--output", str(out)])
        assert code == 0
        records = read_life_csv(str(out))
        assert len(records) == 2
        # Unit a: 1 - 0.05 t crosses 0.5 at t = 10; unit b at t = 20.
        assert records[0].failed
        assert_allclose(records[0].time, 10.0, rtol=1e-10)
        assert_allclose(records[1].time, 20.0, rtol=1e-10)
        assert records[0].condition["temp_C"] == 80.0

    def test_default_horizon_censors(self, degradation_csv, capsys):
        code = main(["pseudo", "--data", degradation_csv,
                     "--threshold", "0.5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "time,status,temp_C"
        assert all(row.split(",")[1] == "censored" for row in lines[1:])

    @pytest.mark.parametrize("argv, message", [
        (["--threshold", "1e308", "--extrapolate"], "lifetime must be finite, got inf"),
        (["--threshold", "nan"], "threshold must be finite, got nan"),
        (["--threshold", "inf", "--extrapolate"], "threshold must be finite, got inf"),
        (["--threshold", "2", "--horizon", "nan"], "horizon must be > 0"),
    ])
    def test_unreachable_or_non_finite_settings_exit_2(self, tmp_path, capsys, argv, message):
        # 1 + 0.05 t reaches 1e308 only beyond double precision.
        path = tmp_path / "rising.csv"
        path.write_text("unit,time,response,temp_C\na,0,1.0,80\na,4,1.2,80\na,8,1.4,80\n")
        code = main(["pseudo", "--data", str(path), *argv])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    @pytest.mark.parametrize("rows, message", [
        (["a,0,1", "a,nan,2", "a,2,3"], "line 3, column time: expected a finite number, got nan"),
        (["a,0,1", "a,1,nan", "a,2,3"],
         "line 3, column response: expected a finite number, got nan"),
        (["a,0,1", "a,1,2", "b,inf,3"], "line 4, column time: expected a finite number, got inf"),
    ], ids=["nan-time", "nan-response", "inf-time"])
    def test_non_finite_cell_names_its_line(self, tmp_path, capsys, rows, message):
        path = tmp_path / "paths.csv"
        path.write_text("\n".join(["unit,time,response", *rows]) + "\n")
        code = main(["pseudo", "--data", str(path), "--threshold", "2.5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_negative_time_names_its_unit(self, tmp_path, capsys):
        path = tmp_path / "paths.csv"
        path.write_text("unit,time,response\na,0,1\na,1,2\nb,-1,1\nb,2,2\n")
        code = main(["pseudo", "--data", str(path), "--threshold", "1.5"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == "error: unit 'b': measurement times must be >= 0\n"

    def test_horizon_and_extrapolate_conflict(self, degradation_csv, capsys):
        code = main(["pseudo", "--data", degradation_csv,
                     "--threshold", "0.5", "--horizon", "12",
                     "--extrapolate"])
        assert code == 2


class TestDose:
    FIELDS = ["d_inst", "d_tot", "effective_exposure"]

    def test_closed_form_values(self, spectrum_csv, capsys):
        # Constant unit irradiance, total absorption, flat efficiency:
        # d_inst = 30, d_tot = duration * 30, effective = cf * d_tot.
        code = main(["dose", "--spectrum", spectrum_csv, "--duration", "2",
                     "--cf", "5"])
        assert code == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "d_inst,d_tot,effective_exposure"
        vals = [float(x) for x in lines[1].split(",")]
        assert_allclose(vals, [30.0, 60.0, 300.0], rtol=1e-10)

    def test_json_with_reciprocity_exponent(self, spectrum_csv, capsys):
        code = main(["dose", "--spectrum", spectrum_csv, "--duration", "2",
                     "--cf", "5", "--p", "0.7", "--json"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert_allclose(report["effective_exposure"],
                        5.0**0.7 * report["d_tot"], rtol=1e-12)

    @pytest.mark.parametrize("argv, fields", [
        (["--cf", "1e300", "--p", "2"], ["effective_exposure"]),
        (["--beta1", "1000"], ["d_inst", "d_tot", "effective_exposure"]),
        (["--duration", "1e308"], ["d_tot", "effective_exposure"]),
    ])
    def test_overflow_is_inf(self, spectrum_csv, capsys, argv, fields):
        # A dose beyond double precision prints inf in the table and null
        # in the JSON, with one warning naming the fields.
        for json_flag in ([], ["--json"]):
            code = main(["dose", "--spectrum", spectrum_csv, *argv, *json_flag])
            out, err = capsys.readouterr()
            assert code == 0
            assert err == f"warning: non-finite dose values for {','.join(fields)}\n"
            if json_flag:
                report = json.loads(out)
                assert [k for k in self.FIELDS if report[k] is None] == fields
            else:
                header, row = out.splitlines()
                assert header.split(",") == self.FIELDS
                assert [k for k, v in zip(self.FIELDS, row.split(",")) if v == "inf"] == fields

    @pytest.mark.parametrize("flag", ["beta0", "beta1", "cf", "p"])
    def test_nan_option_exits_2(self, spectrum_csv, capsys, flag):
        # 1.0 ** nan is 1: a nan --p would otherwise be silently ignored.
        code = main(["dose", "--spectrum", spectrum_csv, f"--{flag}", "nan"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: expected a finite number for --{flag}, got nan\n"

    @pytest.mark.parametrize("flag, value", [("p", "inf"), ("cf", "inf"), ("beta0", "-inf")])
    def test_infinite_option_exits_2(self, spectrum_csv, capsys, flag, value):
        # 1.0 ** inf is 1: an infinite --p at the default --cf once ran as --p 1.
        code = main(["dose", "--spectrum", spectrum_csv, f"--{flag}={value}"])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: expected a finite number for --{flag}, got {value}\n"

    def test_absorbance_column(self, tmp_path, capsys):
        # Absorbance ln 2 absorbs half the unit irradiance over 30 nm.
        path = tmp_path / "spectrum.csv"
        path.write_text(f"wavelength_nm,irradiance,absorbance\n290,1,{math.log(2)}\n"
                        f"320,1,{math.log(2)}\n")
        code = main(["dose", "--spectrum", str(path), "--duration", "2"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert_allclose([float(x) for x in out.splitlines()[1].split(",")], [15.0, 30.0, 30.0],
                        rtol=1e-12)

    def test_no_dose_is_no_exposure(self, spectrum_csv, capsys):
        # phi underflows, so d_tot = 0; cf**p overflows, but 0 dose gives 0.
        code = main(["dose", "--spectrum", spectrum_csv, "--cf", "1e300", "--p", "2",
                     "--beta0", "-1000"])
        out, err = capsys.readouterr()
        assert code == 0 and err == ""
        assert out.splitlines()[1] == "0,0,0"

    @pytest.mark.parametrize("duration", ["0", "-1", "inf", "nan"])
    def test_duration_must_be_finite_and_positive(self, spectrum_csv, capsys, duration):
        code = main(["dose", "--spectrum", spectrum_csv, "--duration", duration])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err.startswith("error: --duration must be finite and > 0, got ")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("rows, message", [
        (["290,1,1", "305,1,1", "305,1,1"], "line 4: wavelengths must be strictly increasing"),
        (["290,1,1", "305,-1,1", "320,1,-1"], "line 3: irradiance samples must be >= 0"),
        (["290,1,1", "305,1,-1", "300,-1,1"], "line 3: absorbance samples must be >= 0"),
        (["290,1,1", "nan,1,1", "320,1,1"],
         "line 3, column wavelength_nm: expected a finite number, got nan"),
        (["290,1,1", "305,nan,1", "320,1,1"],
         "line 3, column irradiance: expected a finite number, got nan"),
        (["290,1,1", "305,1,1", "320,1,inf"],
         "line 4, column absorbance: expected a finite number, got inf"),
    ], ids=["wavelengths", "irradiance", "absorbance", "nan-wavelength", "nan-irradiance",
            "inf-absorbance"])
    def test_bad_spectrum_names_its_line(self, tmp_path, capsys, rows, message):
        path = tmp_path / "bad.csv"
        path.write_text("\n".join(["wavelength_nm,irradiance,absorbance", *rows]) + "\n")
        code = main(["dose", "--spectrum", str(path)])
        out, err = capsys.readouterr()
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

    def test_missing_irradiance_column(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("wavelength_nm,absorbance\n290,1.0\n320,1.0\n")
        code = main(["dose", "--spectrum", str(path)])
        assert code == 2


class TestGab:
    def test_export_round_trips(self, gab_csv):
        records = read_life_csv(gab_csv)
        assert records == load_gab()
        levels = {r.condition[GAB_CONDITION_COLUMN] for r in records}
        assert levels == {170.0, 190.0, 200.0, 210.0, 220.0}

    def test_no_arguments_prints_usage(self, capsys):
        assert main([]) == 2

    def test_help_exits_zero(self, capsys):
        assert main(["--help"]) == 0


# Times log-uniform from the smallest to the largest magnitude a CSV carries,
# or near 1; levels mostly valid for every model.
_TIMES = st.one_of(st.floats(-690.0, 690.0).map(math.exp), st.floats(0.5, 50.0))
_LEVELS = st.sampled_from([1.0, 2.0, 3.5, 170.0, 1e-3, 1.0, 2.0, 3.5, 0.0, -1.0, 1e300])
_ROWS = st.lists(st.tuples(_TIMES, st.sampled_from(["failed", "censored"]), st.integers(0, 2)),
                 max_size=8)
# At most one defect per input: a time no lifetime may take, or a line that
# is not UTF-8.
_DEFECTS = st.sampled_from([None, None, None, "0", "-1", "nan", "inf", "x", b"\xff\xfe"])
_MODELS = ["lognormal: mu ~ v", "weibull: mu ~ log(v)", "lognormal: mu ~ boxcox(v, 1)",
           "weibull: mu ~ boxcox(v, 0.5)", "lognormal: mu ~ v; sigma ~ v"]
_COMMANDS = [["fit", "--use", "v=1.5"],
             ["quantile", "--use", "v=1.5", "--p", "0.1,0.5", "--bootstrap", "10", "--seed", "3"],
             ["profile", "--use", "v=1.5", "--grid=-1:2:1.5"]]


class TestExitContract:
    @settings(max_examples=200, deadline=None)
    @given(rows=_ROWS, levels=st.lists(_LEVELS, min_size=3, max_size=3), defect=_DEFECTS,
           where=st.integers(0, 8), model=st.sampled_from(_MODELS),
           command=st.sampled_from(_COMMANDS))
    # An information matrix whose diagonal is inf: the ridge search once warned.
    @example(rows=[(1.0, "failed", 1), (0.5, "censored", 0)], levels=[1.0, 2.0, 1.0],
             defect=None, where=0, model=_MODELS[-1], command=_COMMANDS[0])
    def test_every_input_exits_0_2_or_3(self, rows, levels, defect, where, model, command):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_generated_csv(Path(tmp), rows, levels, defect, where)
            code, _, err = run_main([command[0], "--data", path, "--model", model, *command[1:]])
        assert code in (0, 2, 3)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1

    # A sweep swallows no error that the fit raises.  An ill-posed design is
    # exempt: profile flags it per point, since a Box-Cox power can overflow
    # at some exponents only.
    @settings(max_examples=150, deadline=None)
    @given(rows=_ROWS, levels=st.lists(_LEVELS, min_size=3, max_size=3), defect=_DEFECTS,
           where=st.integers(0, 8), model=st.sampled_from([m for m in _MODELS if "boxcox" in m]))
    def test_profile_exits_2_where_fit_does(self, rows, levels, defect, where, model):
        with tempfile.TemporaryDirectory() as tmp:
            path = write_generated_csv(Path(tmp), rows, levels, defect, where)
            argv = ["--data", path, "--model", model, "--use", "v=1.5"]
            code, _, err = run_main(["fit", *argv])
            if code == 2 and "design matrix is" not in err:
                assert run_main(["profile", *argv, "--grid=-1:2:1.5"]) == (2, "", err)


def write_generated_csv(directory: Path, rows, levels, defect, where) -> str:
    """The life CSV of a TestExitContract input, written to `directory`."""
    lines = [b"time,status,v"] + [f"{t!r},{s},{levels[i]!r}".encode() for t, s, i in rows]
    if isinstance(defect, bytes):
        lines.insert(1 + min(where, len(rows)), defect + b",failed,1")
    elif defect is not None and rows:
        lines[1 + where % len(rows)] = f"{defect},failed,1".encode()
    path = directory / "d.csv"
    path.write_bytes(b"\n".join(lines) + b"\n")
    return str(path)


def run_main(argv) -> tuple[int, str, str]:
    """main(argv)'s exit code, stdout and stderr."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()
