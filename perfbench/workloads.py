"""The three workloads: their inputs, one operation each, and its checks.

Every call into altkit goes through a module attribute
(``fitml.fit_ml``, ``aio.read_life_csv``, ...) so that the recorder's
wrappers see it.  A check returns ``(status, detail)`` with status
"pass", "fail", or "known" for the documented piped-input failure.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np

from altkit import datasets, fitml, formula
from altkit import io as aio

# Correctness bands against the reference recorded on the seed commit.
EST_RTOL = 1e-6  # estimates and loglik
SE_RTOL = 1e-4  # standard errors, of estimates and of quantiles
# log t_p weighs the estimates by up to |log 120| + |z_0.01| ~ 7, so a
# quantile moves by several times the estimate band.
QUANTILE_RTOL = 1e-5
TABLE_RTOL = 5e-6  # CLI CSV tables print 6 significant digits
SCORE_TOL = 1e-5  # criterion 05: max|score| at the optimum
SLOPE_BAND = (-10.5, -7.5)  # criterion 05: lognormal log(voltstress) slope

GAB_MODELS = {
    "lognormal": "lognormal: mu ~ log(voltstress)",
    "weibull": "weibull: mu ~ log(voltstress)",
}
BOXCOX_MODEL = "lognormal: mu ~ boxcox(voltstress, 1)"
GAB_USE = {"voltstress": 120.0}
GAB_PS = (0.01, 0.1, 0.5)
N_BOOT = 50
# Bootstrap seeds with recorded reference medians; --seed picks one.
BOOT_SEEDS = 16

ARR_MODEL = "lognormal: mu ~ arrh(temp)"
ARR_ROWS = 50_000
ARR_TEMPS = (120.0, 100.0, 80.0)
ARR_TRUTH = {"beta0": -10.0, "ea": 0.75, "sigma": 0.6}
ARR_CENSORED = 0.30
# The 50k draw is pinned (see README.md: eval counts of the current
# optimizer swing 750-2,400 across draws, which no run-to-run bound absorbs).
ARR_DATA_SEED = 1
ARR_USE = {"temp_C": 50.0}
ARR_P = 0.1

AF_USE_C = 50.0
AF_TEST_C = (80.0, 100.0, 120.0)
AF_EA_EV = 0.75

KNOWN_PIPE_ERROR = "error: empty CSV: no header row"


def boot_seed(seed: int) -> int:
    return seed % BOOT_SEEDS


def rel(a: float, b: float) -> float:
    return abs(a - b) / max(abs(b), 1e-300)


class Checker:
    """Collects band violations for one operation."""

    def __init__(self):
        self.problems: list[str] = []

    def close(self, what: str, got, want, rtol: float) -> None:
        got, want = np.atleast_1d(got).astype(float), np.atleast_1d(want).astype(float)
        if got.shape != want.shape:
            self.problems.append(f"{what}: shape {got.shape} != {want.shape}")
            return
        for g, w in zip(got, want):
            if not (np.isfinite(g) and rel(g, w) <= rtol) and not (np.isnan(g) and np.isnan(w)):
                self.problems.append(f"{what}: {float(g)!r} vs reference {float(w)!r} "
                                     f"(rtol {rtol:g})")
                return

    def true(self, what: str, ok: bool) -> None:
        if not ok:
            self.problems.append(what)

    def result(self) -> tuple[str, str]:
        return ("fail", "; ".join(self.problems)) if self.problems else ("pass", "")


def fit_summary(fit) -> dict:
    return {
        "estimates": [float(v) for v in fit.estimates],
        "loglik": float(fit.loglik),
        "se": [float(v) for v in fit.se],
        "converged": bool(fit.converged),
    }


def check_fit(chk: Checker, what: str, got: dict, ref: dict) -> None:
    chk.true(f"{what}: not converged", got["converged"])
    chk.close(f"{what} estimates", got["estimates"], ref["estimates"], EST_RTOL)
    chk.close(f"{what} loglik", got["loglik"], ref["loglik"], EST_RTOL)
    chk.close(f"{what} se", got["se"], ref["se"], SE_RTOL)


# ---------------------------------------------------------------- gab-analysis


def gab_bootstrap(records, spec, seed: int) -> dict:
    out = {}
    for p in GAB_PS:
        boot = fitml.bootstrap_quantile(records, spec, GAB_USE, p, N_BOOT, seed)
        out[repr(p)] = {"median": float(np.median(boot.quantiles)),
                        "n_skipped": int(boot.n_skipped)}
    return out


def gab_operation(records, seed: int) -> dict:
    """Fits, use-condition quantiles, bootstrap and Box-Cox profile."""
    out: dict = {"fits": {}, "quantiles": {}}
    fits = {}
    for family, text in GAB_MODELS.items():
        fits[family] = fitml.fit_ml(records, formula.parse_model(text))
        out["fits"][family] = fit_summary(fits[family])
    for family, fit in fits.items():
        out["quantiles"][family] = {
            repr(p): [q.quantile, q.se]
            for p in GAB_PS for q in [fitml.quantile_at_use(fit, GAB_USE, p)]
        }
    out["bootstrap"] = gab_bootstrap(records, fits["lognormal"].spec, seed)
    points = fitml.profile_lambda(records, formula.parse_model(BOXCOX_MODEL), GAB_USE)
    out["profile"] = [[pt.lam, pt.loglik, pt.quantile, pt.converged] for pt in points]
    return out


class GabAnalysis:
    name = "gab-analysis"
    kinds = ("analysis",)

    def __init__(self, seed: int, ref: dict, recorder, run_dir: Path):
        self.seed = boot_seed(seed)
        self.ref = ref["gab"]
        self.records = None

    def generate(self) -> None:
        self.records = datasets.load_gab()

    def provenance(self) -> dict:
        return {"bootstrap_seed": self.seed}

    def round(self):
        return [("analysis", lambda: gab_operation(self.records, self.seed), self.check)]

    def check(self, out: dict) -> tuple[str, str]:
        chk = Checker()
        ref = self.ref
        for family in GAB_MODELS:
            check_fit(chk, f"gab {family}", out["fits"][family], ref["fits"][family])
            for p, (q, se) in out["quantiles"][family].items():
                rq, rse = ref["quantiles"][family][p]
                chk.close(f"gab {family} q{p}", q, rq, QUANTILE_RTOL)
                chk.close(f"gab {family} q{p} se", se, rse, SE_RTOL)
        ln = out["fits"]["lognormal"]
        slope = ln["estimates"][1]
        chk.true(f"criterion 05 slope {slope} outside {SLOPE_BAND}",
                 SLOPE_BAND[0] <= slope <= SLOPE_BAND[1])
        score = fitml.likelihood_gradient(
            self.records, formula.parse_model(GAB_MODELS["lognormal"]), ln["estimates"])
        chk.true(f"criterion 05 max|score| {np.max(np.abs(score)):.2e} >= {SCORE_TOL}",
                 float(np.max(np.abs(score))) < SCORE_TOL)
        check_bootstrap(chk, out["bootstrap"], ref["bootstrap"][str(self.seed)])
        got = np.array([row[:3] for row in out["profile"]], dtype=float)
        want = np.array([row[:3] for row in ref["profile"]], dtype=float)
        chk.true("profile grid differs", got.shape == want.shape
                 and np.array_equal(got[:, 0], want[:, 0]))
        if got.shape == want.shape:
            chk.close("profile loglik", got[:, 1], want[:, 1], EST_RTOL)
            chk.close("profile quantile", got[:, 2], want[:, 2], QUANTILE_RTOL)
            chk.true("profile converged flags differ",
                     [r[3] for r in out["profile"]] == [r[3] for r in ref["profile"]])
        return chk.result()


def check_bootstrap(chk: Checker, got: dict, ref: dict) -> None:
    for p, want in ref.items():
        have = got.get(p)
        if have is None:
            chk.true(f"bootstrap p={p} missing", False)
            continue
        chk.true(f"bootstrap p={p} skipped {have['n_skipped']} != {want['n_skipped']}",
                 have["n_skipped"] == want["n_skipped"])
        chk.close(f"bootstrap p={p} median", have["median"], want["median"], QUANTILE_RTOL)


# --------------------------------------------------------------- arrhenius-50k


def arr_generator() -> datasets.SyntheticGenerator:
    """The tests' arrhenius_population design at 50,000 rows."""
    base, extra = divmod(ARR_ROWS, len(ARR_TEMPS))
    counts = [base + (1 if i < extra else 0) for i in range(len(ARR_TEMPS))]
    return datasets.SyntheticGenerator(
        seed=ARR_DATA_SEED,
        spec=formula.parse_model(ARR_MODEL),
        mu_params=(ARR_TRUTH["beta0"], ARR_TRUTH["ea"]),
        sigma=ARR_TRUTH["sigma"],
        plan=tuple(({"temp_C": t}, c) for t, c in zip(ARR_TEMPS, counts)),
        censoring=datasets.Censoring("fraction", ARR_CENSORED),
    )


def arr_operation(records) -> dict:
    """Write to an in-memory CSV, read it back, parse, fit, extrapolate."""
    buf = io.StringIO()
    aio.write_life_csv(records, buf)
    text = buf.getvalue()
    back = aio.read_life_csv(io.StringIO(text))
    fit = fitml.fit_ml(back, formula.parse_model(ARR_MODEL))
    q = fitml.quantile_at_use(fit, ARR_USE, ARR_P)
    return {"csv": text, "records": back, "fit": fit_summary(fit), "quantile": [q.quantile, q.se]}


class Arrhenius50k:
    name = "arrhenius-50k"
    kinds = ("pipeline",)

    def __init__(self, seed: int, ref: dict, recorder, run_dir: Path):
        self.ref = ref["arrhenius"]
        self.records = None
        self.csv_sha256 = None

    def generate(self) -> None:
        self.records = datasets.generate(arr_generator())

    def provenance(self) -> dict:
        return {"arrhenius_50k_csv_sha256": self.csv_sha256,
                "arrhenius_data_seed": ARR_DATA_SEED}

    def round(self):
        return [("pipeline", lambda: arr_operation(self.records), self.check)]

    def check(self, out: dict) -> tuple[str, str]:
        chk = Checker()
        sha = hashlib.sha256(out.pop("csv").encode()).hexdigest()
        self.csv_sha256 = self.csv_sha256 or sha
        back = out.pop("records")
        chk.true(f"read {len(back)} rows, wrote {len(self.records)}",
                 len(back) == len(self.records))
        chk.true("CSV round trip changed records",
                 all(a.time == b.time and a.status == b.status and a.condition == b.condition
                     for a, b in zip(back, self.records)))
        check_fit(chk, "arrhenius", out["fit"], self.ref["fit"])
        ea, se = out["fit"]["estimates"][1], out["fit"]["se"][1]
        chk.true(f"ea {ea:.5f} not within 3 SE ({se:.5f}) of {ARR_TRUTH['ea']}",
                 abs(ea - ARR_TRUTH["ea"]) <= 3.0 * se)
        chk.close("arrhenius quantile", out["quantile"][0], self.ref["quantile"][0], QUANTILE_RTOL)
        chk.close("arrhenius quantile se", out["quantile"][1], self.ref["quantile"][1], SE_RTOL)
        return chk.result()


# ----------------------------------------------------------------- cli-session

HERE = Path(__file__).resolve().parent


def subprocess_env(root: Path, traced: bool, spans_file: Path | None = None) -> dict:
    env = {k: v for k, v in os.environ.items() if k != "ALTKIT_THREADS"}
    env["PYTHONPATH"] = str(root / "src")
    env["PERFBENCH_TRACE"] = "1" if traced else "0"
    if spans_file is not None:
        env["PERFBENCH_SPANS"] = str(spans_file)
    return env


class CliSession:
    """The altkit CLI, one subprocess at a time, through cli_shim.py."""

    name = "cli-session"
    kinds = ("af", "fit", "quantile_boot", "profile", "quantile_pipe")

    def __init__(self, seed: int, ref: dict, recorder, run_dir: Path):
        self.seed = boot_seed(seed)
        self.ref = ref
        self.recorder = recorder
        self.run_dir = run_dir
        self.root = HERE.parent
        self.csv = run_dir / "gab.csv"

    def run_cli(self, argv: list[str], stdin: bytes | None = None):
        """Run one altkit command; its spans join the current operation."""
        spans_file = self.run_dir / "cli-spans.json"
        spans_file.unlink(missing_ok=True)
        proc = subprocess.run(
            [sys.executable, str(HERE / "cli_shim.py"), *argv],
            input=stdin, capture_output=True, cwd=self.root, timeout=170,
            env=subprocess_env(self.root, self.recorder.traced, spans_file),
        )
        parent = self.recorder.current()
        if parent is not None and spans_file.exists():
            self.recorder.adopt(json.loads(spans_file.read_text()), parent)
        return proc

    def generate(self) -> None:
        proc = self.run_cli(["gab", "--output", str(self.csv)])
        if proc.returncode != 0:
            raise RuntimeError(f"altkit gab failed: {proc.stderr.decode()}")

    def provenance(self) -> dict:
        return {"gab_csv_sha256": hashlib.sha256(self.csv.read_bytes()).hexdigest(),
                "bootstrap_seed": self.seed}

    def _quantile_argv(self, data: str) -> list[str]:
        return ["quantile", "--data", data, "--model", GAB_MODELS["lognormal"],
                "--use", "voltstress=120", "--p", ",".join(map(repr, GAB_PS)),
                "--bootstrap", str(N_BOOT), "--seed", str(self.seed)]

    def round(self):
        csv = str(self.csv)
        af = ["af", "--rel", "arrhenius", "--use", f"temp_C={AF_USE_C!r}",
              *(a for t in AF_TEST_C for a in ("--test", f"temp_C={t!r}")),
              "--ea-ev", repr(AF_EA_EV)]
        fit = ["fit", "--data", csv, "--model", GAB_MODELS["lognormal"],
               "--use", "voltstress=120", "--quantiles", "0.1,0.5"]
        profile = ["profile", "--data", csv, "--model", BOXCOX_MODEL,
                   "--use", "voltstress=120", "--grid=-1:2:0.1"]
        return [
            ("af", lambda: self.run_cli(af), self.check_af),
            ("fit", lambda: self.run_cli(fit), self.check_fit),
            ("quantile_boot", lambda: self.run_cli(self._quantile_argv(csv)), self.check_quantile),
            ("profile", lambda: self.run_cli(profile), self.check_profile),
            ("quantile_pipe",
             lambda: self.run_cli(self._quantile_argv("/dev/stdin"), stdin=self.csv.read_bytes()),
             self.check_pipe),
        ]

    @staticmethod
    def _exit(proc, chk: Checker) -> bool:
        ok = proc.returncode == 0
        chk.true(f"exit {proc.returncode}: {proc.stderr.decode().strip()[-300:]}", ok)
        return ok

    def check_af(self, proc) -> tuple[str, str]:
        chk = Checker()
        if self._exit(proc, chk):
            lines = proc.stdout.decode().split()
            chk.true(f"af header {lines[:1]}", lines[:1] == ["temp_C,af"])
            got = [[float(x) for x in line.split(",")] for line in lines[1:]]
            chk.close("af table", np.array(got).ravel(),
                      np.array(self.ref["af"]).ravel(), TABLE_RTOL)
        return chk.result()

    def _check_report(self, chk: Checker, report: dict, ps) -> None:
        gab = self.ref["gab"]
        est = {"estimates": list(report["estimates"].values()),
               "se": list(report["se"].values()),
               "loglik": report["loglik"], "converged": report["converged"]}
        check_fit(chk, "cli fit", est, gab["fits"]["lognormal"])
        qs = report.get("quantiles", [])
        chk.true(f"{len(qs)} quantile blocks, expected {len(ps)}", len(qs) == len(ps))
        for block in qs:
            rq, rse = gab["quantiles"]["lognormal"][repr(block["p"])]
            chk.close(f"cli q{block['p']}", block["quantile"], rq, QUANTILE_RTOL)
            chk.close(f"cli q{block['p']} se", block["se"], rse, SE_RTOL)

    def check_fit(self, proc) -> tuple[str, str]:
        chk = Checker()
        if self._exit(proc, chk):
            self._check_report(chk, json.loads(proc.stdout), (0.1, 0.5))
        return chk.result()

    def check_quantile(self, proc) -> tuple[str, str]:
        chk = Checker()
        if self._exit(proc, chk):
            report = json.loads(proc.stdout)
            self._check_report(chk, report, GAB_PS)
            got = {repr(b["p"]): {"median": b["median"], "n_skipped": b["n_skipped"]}
                   for b in report.get("bootstrap", [])}
            check_bootstrap(chk, got, self.ref["gab"]["bootstrap"][str(self.seed)])
        return chk.result()

    def check_profile(self, proc) -> tuple[str, str]:
        chk = Checker()
        if self._exit(proc, chk):
            lines = proc.stdout.decode().split()
            chk.true(f"profile header {lines[:1]}",
                     lines[:1] == ["lambda,loglik,quantile,lower,upper,converged"])
            rows = [line.split(",") for line in lines[1:]]
            ref = self.ref["gab"]["profile"]
            chk.true(f"{len(rows)} profile rows, expected {len(ref)}", len(rows) == len(ref))
            if len(rows) == len(ref):
                got = np.array([[float(x) for x in r[:3]] for r in rows])
                want = np.array([r[:3] for r in ref], dtype=float)
                chk.close("cli profile lambda", got[:, 0], want[:, 0], TABLE_RTOL)
                chk.close("cli profile loglik", got[:, 1], want[:, 1], EST_RTOL + TABLE_RTOL)
                chk.close("cli profile quantile", got[:, 2], want[:, 2],
                          QUANTILE_RTOL + TABLE_RTOL)
                chk.true("cli profile converged flags differ",
                         [r[5] == "true" for r in rows] == [r[3] for r in ref])
        return chk.result()

    def check_pipe(self, proc) -> tuple[str, str]:
        """The piped quantile reads --data twice and so fails today; once
        that is fixed it must match the file-based run."""
        stderr = proc.stderr.decode().strip()
        if proc.returncode == 2 and stderr == KNOWN_PIPE_ERROR:
            return "known", f"exit 2: {stderr}"
        return self.check_quantile(proc)


WORKLOADS = {w.name: w for w in (GabAnalysis, Arrhenius50k, CliSession)}
