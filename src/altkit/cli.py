"""Command-line front end.

Subcommands: af (acceleration-factor tables), fit (censored ML fit as a
JSON report), quantile (use-condition lifetime quantiles, optionally with
a seeded bootstrap), profile (power-transform exponent sweep as CSV),
pseudo (degradation paths to a life-data CSV), dose (effective UV dosage),
gab (the embedded insulation data as a life-data CSV).

Exit codes: 0 success; 2 argument/validation errors; 3 non-convergence
(the JSON report is still emitted with converged=false).  Exits 2 and 3
print a one-line diagnostic on stderr; an error in a CSV names its line,
and an exit-2 error found after a fit stopped short replaces its exit-3
line.  A value that overflows double precision (an af, a dose or a
quantile) is inf, printed as inf in CSV and null in JSON, with one stderr
warning.
Data go to stdout (or --output), diagnostics to stderr.  Identical
invocations produce byte-identical output; --seed is required for
anything stochastic (--bootstrap).
"""

from __future__ import annotations

import argparse
import math
import sys
from io import StringIO

import numpy as np

# The pseudo, dose and gab handlers import the datasets, degradation and
# photodeg modules they run, so that no other command loads them.
from .data import resolve_kelvin, resolve_variable
from .errors import AltkitError, ConfigError, NonConvergenceError
from .fitml import (
    FitResult,
    bootstrap_quantile,
    fit_ml,
    profile_lambda,
    quantile_at_use,
)
from .formula import parse_model
from .io import (
    TABLE_SIG_DIGITS,
    dump_json,
    format_float,
    read_life_csv,
    read_degradation_csv,
    read_spectral_csv,
    write_life_csv,
)
from .relationships import (
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
from .units import ActivationEnergy, Temperature

SCHEMA_VERSION = 1

# Each af relationship: the stress it takes, its function and the options
# it requires after the activation energy (if any).  "temp" takes a
# temperature, "single" the one variable named in --use and --test, and a
# variable name a temperature plus that variable through GenEyringParams.
_AF = {
    "arrhenius": ("temp", arrhenius_af, ()),
    "eyring": ("temp", eyring_af, ("m",)),
    "userate": ("single", use_rate_af, ("p",)),
    "invpower": ("single", inverse_power_af, ("beta1",)),
    "coffin-manson": ("single", coffin_manson_af, ("beta1",)),
    "boxcox": ("single", box_cox_af, ("lambda", "gamma1")),
    "peck": ("rh", peck_af, ("gamma2",)),
    "klinger": ("rh", klinger_af, ("gamma2",)),
    "blacks": ("current", blacks_af, ("gamma2",)),
}


def _parse_assignments(chunks) -> dict[str, float]:
    out: dict[str, float] = {}
    for chunk in chunks:
        for item in chunk.split(","):
            key, sep, val = item.partition("=")
            key = key.strip()
            if not sep or not key:
                raise ConfigError(f"expected name=value, got {item!r}")
            try:
                out[key] = float(val)
            except ValueError:
                out[key] = math.nan
            if math.isnan(out[key]):
                raise ConfigError(f"expected a number for {key}, got {val!r}")
    return out


def _temperature(cond: dict[str, float]) -> Temperature:
    return Temperature.kelvin(resolve_kelvin(cond, "temp"))


def _number(name: str, value: float) -> float:
    """The value of option --`name`; ConfigError unless it is finite."""
    if not math.isfinite(value):
        raise ConfigError(f"expected a finite number for --{name}, got {value}")
    return value


def _ea_from_args(args) -> ActivationEnergy:
    given = [
        (build, _number(name, value))
        for build, name, value in (
            (ActivationEnergy.ev, "ea-ev", args.ea_ev),
            (ActivationEnergy.kj_per_mol, "ea-kj", args.ea_kj),
            (ActivationEnergy.kcal_per_mol, "ea-kcal", args.ea_kcal),
        )
        if value is not None
    ]
    if len(given) > 1:
        raise ConfigError("give at most one of --ea-ev, --ea-kj, --ea-kcal")
    if not given:
        raise ConfigError(
            "this relationship needs an activation energy "
            "(--ea-ev, --ea-kj or --ea-kcal)"
        )
    build, value = given[0]
    return build(value)


def _require(args, name: str) -> float:
    value = getattr(args, name.replace("-", "_"))
    if value is None:
        raise ConfigError(f"--{name} is required for --rel {args.rel}")
    return _number(name, value)


def _af_one(args, use: dict[str, float], test: dict[str, float]) -> float:
    """The --rel factor at one test condition; inf where it overflows or
    where 0.0 is raised to a negative power (an infinite use stress)."""
    kind, af, names = _AF[args.rel]
    options = (_require(args, name) for name in names)
    try:
        if kind == "temp":
            return af(_temperature(test), _temperature(use), _ea_from_args(args), *options)
        if kind == "single":
            if len(test) != 1 or set(test) != set(use):
                raise ConfigError(
                    "this relationship takes exactly one stress variable, "
                    "named identically in --use and --test"
                )
            (key,) = test
            return af(test[key], use[key], *options)
        params = GenEyringParams(1.0, _ea_from_args(args), *options)
        return af(
            _temperature(test), resolve_variable(test, kind),
            _temperature(use), resolve_variable(use, kind), params,
        )
    except (OverflowError, ZeroDivisionError):
        return math.inf


def _write_output(text: str, path: str | None) -> None:
    """`text` to stdout, or to `path` as UTF-8 with its newlines as given."""
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _life_csv(records) -> str:
    out = StringIO()
    write_life_csv(records, out)
    return out.getvalue()


def _table_value(x: float) -> str:
    return format_float(x, TABLE_SIG_DIGITS)


def _write_table(header: list[str], rows, path: str | None) -> None:
    """A CSV table: string cells as given, numbers through _table_value."""
    text = ",".join(header) + "\n"
    for row in rows:
        text += ",".join(c if isinstance(c, str) else _table_value(c) for c in row) + "\n"
    _write_output(text, path)


def cmd_af(args) -> int:
    use = _parse_assignments(args.use)
    tests = [_parse_assignments([chunk]) for chunk in args.test]
    keys = sorted(tests[0])
    for t in tests[1:]:
        if sorted(t) != keys:
            raise ConfigError("every --test must assign the same variables")
    rows = [(t, _af_one(args, use, t)) for t in tests]
    bad = [t for t, af in rows if not math.isfinite(af)]
    if bad:
        conditions = " ".join(
            "--test " + ",".join(f"{k}={_table_value(t[k])}" for k in keys) for t in bad)
        print(f"warning: non-finite af for {conditions}", file=sys.stderr)
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "af",
            "relationship": args.rel,
            "use": use,
            "rows": [{"condition": t, "af": af} for t, af in rows],
        }
        _write_output(dump_json(report), args.output)
    else:
        _write_table([*keys, "af"], ([*(t[k] for k in keys), af] for t, af in rows), args.output)
    return 0


def _fit_report(fit: FitResult) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "command": "fit",
        "family": fit.spec.family,
        "model": fit.spec.text,
        "n_records": fit.n_records,
        "n_failed": fit.n_failed,
        "estimates": dict(zip(fit.param_names, fit.estimates)),
        "se": dict(zip(fit.param_names, fit.se)),
        "loglik": fit.loglik,
        "converged": fit.converged,
        "iterations": fit.iterations,
        "warnings": list(fit.warnings),
        "covariance": fit.covariance,
    }


def _quantile_blocks(fit: FitResult, use: dict[str, float], ps) -> list[dict]:
    blocks = []
    for p in ps:
        q = quantile_at_use(fit, use, p)
        blocks.append(
            {
                "p": q.p,
                "use": use,
                "quantile": q.quantile,
                "se": q.se,
                "lower": q.lower,
                "upper": q.upper,
                "extrapolated": q.extrapolated,
            }
        )
    return blocks


def _warn_non_finite(blocks: list[dict]) -> None:
    """Name on one stderr line each p whose block holds a value that the
    JSON prints as null (an overflow gives inf)."""
    ps = dict.fromkeys(b["p"] for b in blocks if not all(
        math.isfinite(v) for v in b.values() if isinstance(v, float)))
    if ps:
        print(f"warning: non-finite quantile values for p={','.join(map(str, ps))} "
              "are reported as null", file=sys.stderr)


def _parse_probabilities(text: str) -> list[float]:
    try:
        ps = [float(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ConfigError(f"expected comma-separated probabilities, got {text!r}")
    if not ps:
        raise ConfigError("no probabilities given")
    return ps


def _run_fit(args) -> tuple[list, FitResult, str | None]:
    """Read --data once (it may be a pipe) and fit --model to it; the last
    item is the exit-3 diagnostic when the fit stops short, else None."""
    records = read_life_csv(args.data)
    spec = parse_model(args.model)
    try:
        return records, fit_ml(records, spec), None
    except NonConvergenceError as err:
        return records, err.result, f"error: {err}"


def _write_report(report: dict, output: str | None, error: str | None) -> int:
    """Print the exit-3 diagnostic (only now, so that an exit 2 raised
    while the report was built prints one line) and the non-finite
    quantile warning, write the report and return the exit code."""
    if error is not None:
        print(error, file=sys.stderr)
    _warn_non_finite(report.get("quantiles", []) + report.get("bootstrap", []))
    _write_output(dump_json(report), output)
    return 0 if error is None else 3


def cmd_fit(args) -> int:
    _, fit, error = _run_fit(args)
    report = _fit_report(fit)
    if args.use:
        use = _parse_assignments(args.use)
        report["quantiles"] = _quantile_blocks(fit, use, _parse_probabilities(args.quantiles))
    return _write_report(report, args.output, error)


def cmd_quantile(args) -> int:
    if args.bootstrap is not None and args.seed is None:
        raise ConfigError("--bootstrap draws are stochastic; --seed is required")
    records, fit, error = _run_fit(args)
    use = _parse_assignments(args.use)
    ps = _parse_probabilities(args.p)
    report = _fit_report(fit)
    report["command"] = "quantile"
    report["quantiles"] = _quantile_blocks(fit, use, ps)
    if args.bootstrap is not None:
        try:
            boot = bootstrap_quantile(records, fit.spec, use, ps, args.bootstrap, args.seed)
        except MemoryError:
            raise ConfigError(f"--bootstrap {args.bootstrap} is too many resamples") from None
        blocks = []
        for j, p in enumerate(ps):
            draws = boot.quantiles[:, j]
            blocks.append(
                {
                    "p": p,
                    "n_resamples": boot.n_requested,
                    "n_skipped": boot.n_skipped,
                    "seed": args.seed,
                    "median": float(np.median(draws)) if draws.size else math.nan,
                    "se_log": float(boot.se_log[j]),
                }
            )
        report["bootstrap"] = blocks
    return _write_report(report, args.output, error)


def _parse_grid(text: str) -> np.ndarray:
    """START:STOP:STEP as grid points, equally spaced from START to STOP by
    the whole number of steps nearest (STOP - START) / STEP; ConfigError
    unless all three are finite and numpy can build the grid."""
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"expected start:stop:step, got {text!r}")
    if not all(map(math.isfinite, (start, stop, step))):
        raise ConfigError(f"grid values must be finite, got {text!r}")
    if step <= 0.0 or stop < start:
        raise ConfigError("grid needs stop >= start and step > 0")
    try:
        return np.linspace(start, stop, int(round((stop - start) / step)) + 1)
    except (OverflowError, ValueError, MemoryError):
        raise ConfigError(f"grid {text!r} has too many points") from None


def cmd_profile(args) -> int:
    records = read_life_csv(args.data)
    spec = parse_model(args.model)
    use = _parse_assignments(args.use)
    grid = None if args.grid is None else _parse_grid(args.grid)
    points = profile_lambda(records, spec, use, p=args.p, grid=grid)
    _write_table(
        ["lambda", "loglik", "quantile", "lower", "upper", "converged"],
        ([pt.lam, pt.loglik, pt.quantile, pt.lower, pt.upper, str(pt.converged).lower()]
         for pt in points),
        args.output,
    )
    return 0


def cmd_pseudo(args) -> int:
    from .degradation import pseudo_failure_times

    samples = read_degradation_csv(args.data)
    horizon = math.inf if args.extrapolate else args.horizon
    records = pseudo_failure_times(
        samples, args.threshold, time_transform=args.time_scale, horizon=horizon
    )
    _write_output(_life_csv(records), args.output)
    return 0


def cmd_dose(args) -> int:
    from .photodeg import (
        ExposureConfig,
        SpectralFunctions,
        SpectralGrid,
        effective_exposure,
        instantaneous_dosage,
        total_dosage,
    )

    wavelengths, columns = read_spectral_csv(args.spectrum)
    if "irradiance" not in columns:
        raise ConfigError("dose needs an 'irradiance' column in the spectrum CSV")
    irr = columns["irradiance"]
    absorb = columns.get("absorbance")
    grid = SpectralGrid(wavelengths)
    f = SpectralFunctions(
        e0=lambda lam, tau: np.interp(lam, wavelengths, irr),
        # No absorbance column means total absorption (factor 1).
        absorbance=(
            (lambda lam: np.interp(lam, wavelengths, absorb))
            if absorb is not None
            else (lambda lam: np.full_like(np.asarray(lam, dtype=float), np.inf))
        ),
        beta0=_number("beta0", args.beta0),
        beta1=_number("beta1", args.beta1),
    )
    if not 0.0 < args.duration < math.inf:
        raise ConfigError(f"--duration must be finite and > 0, got {args.duration:g}")
    # A value beyond double precision is inf (or nan), reported below.
    with np.errstate(over="ignore", invalid="ignore"):
        d_inst = instantaneous_dosage(0.0, grid, f)
        # The irradiance does not change with time: one trapezoid is exact.
        d_tot = total_dosage(args.duration, grid, f, [0.0, args.duration])
        effective = effective_exposure(
            d_tot, ExposureConfig(_number("cf", args.cf), _number("p", args.p)))
    values = {"d_inst": d_inst, "d_tot": d_tot, "effective_exposure": effective}
    bad = [name for name, v in values.items() if not math.isfinite(v)]
    if bad:
        print(f"warning: non-finite dose values for {','.join(bad)}", file=sys.stderr)
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "dose",
            "duration": args.duration,
            "cf": args.cf,
            "p": args.p,
            **values,
        }
        _write_output(dump_json(report), args.output)
    else:
        _write_table(list(values), [values.values()], args.output)
    return 0


def cmd_gab(args) -> int:
    from .datasets import load_gab

    _write_output(_life_csv(load_gab()), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altkit",
        description="Accelerated life testing toolkit: acceleration factors, "
        "censored ML fits, degradation and UV-dosage utilities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)
    fitting = argparse.ArgumentParser(add_help=False)
    fitting.add_argument("--data", required=True)
    fitting.add_argument("--model", required=True, metavar="FORMULA")

    p = sub.add_parser("af", help="acceleration-factor table for a relationship")
    p.add_argument("--rel", required=True, choices=_AF)
    p.add_argument("--use", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--test", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--ea-ev", type=float, default=None)
    p.add_argument("--ea-kj", type=float, default=None)
    p.add_argument("--ea-kcal", type=float, default=None)
    p.add_argument("--m", type=float, default=None, help="temperature power term")
    p.add_argument("--p", type=float, default=1.0, help="use-rate exponent")
    p.add_argument("--beta1", type=float, default=None)
    p.add_argument("--lambda", type=float, default=None)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_af)

    p = sub.add_parser("fit", parents=[fitting], help="censored ML fit; JSON report")
    p.add_argument("--use", action="append", default=None, metavar="VAR=VALUE")
    p.add_argument("--quantiles", default="0.01,0.05")
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("quantile", parents=[fitting], help="use-condition quantiles; JSON report")
    p.add_argument("--use", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--p", default="0.1", help="comma-separated probabilities")
    p.add_argument("--bootstrap", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=None)
    p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("profile", parents=[fitting], help="power-transform exponent sweep; CSV")
    p.add_argument("--use", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--grid", default=None, metavar="START:STOP:STEP",
                   help="exponent grid; the step is rounded to divide STOP - START "
                   "into whole steps (0:1:0.4 sweeps 0, 0.5, 1); give a negative START "
                   "as --grid=-1:2:0.1, since a separate word that starts with '-' is "
                   "read as an option")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("pseudo", help="degradation paths to life-data CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--time-scale", choices=("identity", "sqrt"), default="identity")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--horizon", type=float, default=None)
    group.add_argument("--extrapolate", action="store_true")
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("dose", help="effective UV dosage from a spectrum CSV")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--beta0", type=float, default=0.0)
    p.add_argument("--beta1", type=float, default=0.0)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--cf", type=float, default=1.0)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_dose)

    p = sub.add_parser("gab", help="write the embedded insulation data as CSV")
    p.set_defaults(func=cmd_gab)

    for p in sub.choices.values():
        p.add_argument("--output", default=None)
    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except AltkitError as exc:
        # MissingVariableError subclasses KeyError, whose str() adds quotes.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
