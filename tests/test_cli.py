# The command-line interface: exit codes, report schemas and file output.

import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from numpy.testing import assert_allclose

import altkit
from altkit import gab_content_hash, load_gab, read_life_csv
from altkit.cli import main
from altkit.datasets import GAB_CONDITION_COLUMN


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


class TestStartup:
    def test_import_does_not_load_scipy_optimize(self):
        proc = run_altkit(["-c", "import sys, altkit; "
                           "print('scipy.optimize' in sys.modules)"])
        assert proc.returncode == 0, proc.stderr.decode()
        assert proc.stdout.decode().strip() == "False"


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


class TestFit:
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

    @pytest.mark.parametrize("v", ["1e200,2e200", "1e308,1.5e308"])
    def test_overflowing_design_column_exits_2(self, tmp_path, capsys, v):
        # The column's spread overflows double precision, so its design
        # counts as rank deficient, with no numpy warning or traceback.
        big, bigger = v.split(",")
        path = tmp_path / "life.csv"
        path.write_text(f"time,status,v\n5,failed,{big}\n6,failed,{bigger}\n7,failed,3\n")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["fit", "--data", str(path), "--model", "lognormal: mu ~ v"])
        assert code == 2
        assert capsys.readouterr().err == "error: mu design matrix is rank deficient on these data\n"

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

    def test_horizon_and_extrapolate_conflict(self, degradation_csv, capsys):
        code = main(["pseudo", "--data", degradation_csv,
                     "--threshold", "0.5", "--horizon", "12",
                     "--extrapolate"])
        assert code == 2


class TestDose:
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
