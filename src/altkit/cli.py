"""Command-line front end.

Subcommands: af (acceleration-factor tables), fit (censored ML fit as a
JSON report), quantile (use-condition lifetime quantiles, optionally with
a seeded bootstrap), profile (power-transform exponent sweep as CSV),
pseudo (degradation paths to a life-data CSV), dose (effective UV dosage).

Exit codes: 0 success; 2 argument/validation errors; 3 non-convergence
(the JSON report is still emitted with converged=false).  Exits 2 and 3
print a one-line diagnostic on stderr; an error in a CSV names its line.
Data go to stdout (or --output), diagnostics to stderr.  Identical
invocations produce byte-identical output; --seed is required for
anything stochastic (--bootstrap).
"""

from __future__ import annotations

import argparse
import math
import sys

import numpy as np

from .data import resolve_kelvin, resolve_variable
from .datasets import load_gab
from .degradation import pseudo_failure_times
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
from .photodeg import (
    ExposureConfig,
    SpectralFunctions,
    SpectralGrid,
    effective_exposure,
    instantaneous_dosage,
    total_dosage,
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

_RELATIONSHIPS = (
    "arrhenius",
    "eyring",
    "userate",
    "invpower",
    "coffin-manson",
    "boxcox",
    "peck",
    "klinger",
    "blacks",
)


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
                raise ConfigError(f"expected a number for {key}, got {val!r}")
    return out


def _temperature(cond: dict[str, float], name: str = "temp") -> Temperature:
    return Temperature.kelvin(resolve_kelvin(cond, name))


def _ea_from_args(args) -> ActivationEnergy:
    given = [
        pair
        for pair in (
            (ActivationEnergy.ev, args.ea_ev),
            (ActivationEnergy.kj_per_mol, args.ea_kj),
            (ActivationEnergy.kcal_per_mol, args.ea_kcal),
        )
        if pair[1] is not None
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
    return value


def _single_value(cond: dict[str, float], other: dict[str, float]) -> tuple[float, float]:
    """The one stress variable shared by --use and --test assignments."""
    if len(cond) != 1 or set(cond) != set(other):
        raise ConfigError(
            "this relationship takes exactly one stress variable, "
            "named identically in --use and --test"
        )
    (key,) = cond
    return cond[key], other[key]


def _af_one(args, use: dict[str, float], test: dict[str, float]) -> float:
    rel = args.rel
    if rel == "arrhenius":
        return arrhenius_af(_temperature(test), _temperature(use), _ea_from_args(args))
    if rel == "eyring":
        return eyring_af(
            _temperature(test), _temperature(use), _ea_from_args(args),
            _require(args, "m"),
        )
    if rel == "userate":
        test_v, use_v = _single_value(test, use)
        return use_rate_af(test_v, use_v, args.p)
    if rel == "invpower":
        test_v, use_v = _single_value(test, use)
        return inverse_power_af(test_v, use_v, _require(args, "beta1"))
    if rel == "coffin-manson":
        test_v, use_v = _single_value(test, use)
        return coffin_manson_af(test_v, use_v, _require(args, "beta1"))
    if rel == "boxcox":
        test_v, use_v = _single_value(test, use)
        return box_cox_af(test_v, use_v, _require(args, "lam"), _require(args, "gamma1"))
    params = GenEyringParams(1.0, _ea_from_args(args), _require(args, "gamma2"))
    if rel == "peck":
        return peck_af(
            _temperature(test), resolve_variable(test, "rh"),
            _temperature(use), resolve_variable(use, "rh"), params,
        )
    if rel == "klinger":
        return klinger_af(
            _temperature(test), resolve_variable(test, "rh"),
            _temperature(use), resolve_variable(use, "rh"), params,
        )
    if rel == "blacks":
        return blacks_af(
            _temperature(test), resolve_variable(test, "current"),
            _temperature(use), resolve_variable(use, "current"), params,
        )
    raise ConfigError(f"unknown relationship {rel!r}")


def _write_output(text: str, path: str | None) -> None:
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w") as fh:
            fh.write(text)


def _write_life_output(records, path: str | None) -> None:
    if path is None:
        write_life_csv(records, sys.stdout)
    else:
        with open(path, "w", newline="") as fh:
            write_life_csv(records, fh)


def _table_value(x: float) -> str:
    return format_float(x, TABLE_SIG_DIGITS)


def cmd_af(args) -> int:
    use = _parse_assignments(args.use)
    tests = [_parse_assignments([chunk]) for chunk in args.test]
    keys = sorted(tests[0])
    for t in tests[1:]:
        if sorted(t) != keys:
            raise ConfigError("every --test must assign the same variables")
    rows = [(t, _af_one(args, use, t)) for t in tests]
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
        lines = [",".join([*keys, "af"])]
        for t, af in rows:
            lines.append(",".join([*(_table_value(t[k]) for k in keys), _table_value(af)]))
        _write_output("\n".join(lines) + "\n", args.output)
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


def _run_fit(args) -> tuple[list, FitResult, int]:
    """Read --data once (it may be a pipe) and fit --model to it."""
    records = read_life_csv(args.data)
    spec = parse_model(args.model)
    try:
        return records, fit_ml(records, spec), 0
    except NonConvergenceError as err:
        print(f"error: {err}", file=sys.stderr)
        return records, err.result, 3


def cmd_fit(args) -> int:
    _, fit, code = _run_fit(args)
    report = _fit_report(fit)
    if args.use:
        use = _parse_assignments(args.use)
        report["quantiles"] = _quantile_blocks(fit, use, _parse_probabilities(args.quantiles))
        _warn_non_finite(report["quantiles"])
    _write_output(dump_json(report), args.output)
    return code


def cmd_quantile(args) -> int:
    if args.bootstrap is not None and args.seed is None:
        raise ConfigError("--bootstrap draws are stochastic; --seed is required")
    records, fit, code = _run_fit(args)
    use = _parse_assignments(args.use)
    ps = _parse_probabilities(args.p)
    report = _fit_report(fit)
    report["command"] = "quantile"
    report["quantiles"] = _quantile_blocks(fit, use, ps)
    if args.bootstrap is not None:
        boot = bootstrap_quantile(records, fit.spec, use, ps, args.bootstrap, args.seed)
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
    _warn_non_finite(report["quantiles"] + report.get("bootstrap", []))
    _write_output(dump_json(report), args.output)
    return code


def _parse_grid(text: str) -> np.ndarray:
    try:
        start, stop, step = (float(x) for x in text.split(":"))
    except ValueError:
        raise ConfigError(f"expected start:stop:step, got {text!r}")
    if step <= 0.0 or stop < start:
        raise ConfigError("grid needs stop >= start and step > 0")
    n = int(round((stop - start) / step)) + 1
    return np.linspace(start, stop, n)


def cmd_profile(args) -> int:
    records = read_life_csv(args.data)
    spec = parse_model(args.model)
    use = _parse_assignments(args.use)
    points = profile_lambda(records, spec, use, p=args.p, grid=_parse_grid(args.grid))
    lines = ["lambda,loglik,quantile,lower,upper,converged"]
    for pt in points:
        lines.append(
            ",".join(
                [
                    _table_value(pt.lam),
                    _table_value(pt.loglik),
                    _table_value(pt.quantile),
                    _table_value(pt.lower),
                    _table_value(pt.upper),
                    "true" if pt.converged else "false",
                ]
            )
        )
    _write_output("\n".join(lines) + "\n", args.output)
    return 0


def cmd_pseudo(args) -> int:
    samples = read_degradation_csv(args.data)
    horizon = math.inf if args.extrapolate else args.horizon
    records = pseudo_failure_times(
        samples, args.threshold, time_transform=args.time_scale, horizon=horizon
    )
    _write_life_output(records, args.output)
    return 0


def cmd_dose(args) -> int:
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
        beta0=args.beta0,
        beta1=args.beta1,
    )
    if args.duration <= 0.0:
        raise ConfigError("--duration must be > 0")
    time_grid = np.linspace(0.0, args.duration, max(2, args.time_steps))
    d_inst = instantaneous_dosage(0.0, grid, f)
    d_tot = total_dosage(args.duration, grid, f, time_grid)
    effective = effective_exposure(d_tot, ExposureConfig(args.cf, args.p))
    if args.json:
        report = {
            "schema_version": SCHEMA_VERSION,
            "command": "dose",
            "duration": args.duration,
            "cf": args.cf,
            "p": args.p,
            "d_inst": d_inst,
            "d_tot": d_tot,
            "effective_exposure": effective,
        }
        _write_output(dump_json(report), args.output)
    else:
        _write_output(
            "d_inst,d_tot,effective_exposure\n"
            + ",".join(_table_value(v) for v in (d_inst, d_tot, effective))
            + "\n",
            args.output,
        )
    return 0


def cmd_gab(args) -> int:
    _write_life_output(load_gab(), args.output)
    return 0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="altkit",
        description="Accelerated life testing toolkit: acceleration factors, "
        "censored ML fits, degradation and UV-dosage utilities.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p = sub.add_parser("af", help="acceleration-factor table for a relationship")
    p.add_argument("--rel", required=True, choices=_RELATIONSHIPS)
    p.add_argument("--use", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--test", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--ea-ev", type=float, default=None)
    p.add_argument("--ea-kj", type=float, default=None)
    p.add_argument("--ea-kcal", type=float, default=None)
    p.add_argument("--m", type=float, default=None, help="temperature power term")
    p.add_argument("--p", type=float, default=1.0, help="use-rate exponent")
    p.add_argument("--beta1", type=float, default=None)
    p.add_argument("--lambda", dest="lam", type=float, default=None)
    p.add_argument("--gamma1", type=float, default=None)
    p.add_argument("--gamma2", type=float, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_af)

    p = sub.add_parser("fit", help="censored ML fit; JSON report")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, metavar="FORMULA")
    p.add_argument("--use", action="append", default=None, metavar="VAR=VALUE")
    p.add_argument("--quantiles", default="0.01,0.05")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_fit)

    p = sub.add_parser("quantile", help="use-condition quantiles; JSON report")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, metavar="FORMULA")
    p.add_argument("--use", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--p", default="0.1", help="comma-separated probabilities")
    p.add_argument("--bootstrap", type=int, default=None, metavar="N")
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_quantile)

    p = sub.add_parser("profile", help="power-transform exponent sweep; CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--model", required=True, metavar="FORMULA")
    p.add_argument("--use", action="append", required=True, metavar="VAR=VALUE")
    p.add_argument("--p", type=float, default=0.1)
    p.add_argument("--grid", default="-1:2:0.1", metavar="START:STOP:STEP")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser("pseudo", help="degradation paths to life-data CSV")
    p.add_argument("--data", required=True)
    p.add_argument("--threshold", type=float, required=True)
    p.add_argument("--time-scale", choices=("identity", "sqrt"), default="identity")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--horizon", type=float, default=None)
    group.add_argument("--extrapolate", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_pseudo)

    p = sub.add_parser("dose", help="effective UV dosage from a spectrum CSV")
    p.add_argument("--spectrum", required=True)
    p.add_argument("--beta0", type=float, default=0.0)
    p.add_argument("--beta1", type=float, default=0.0)
    p.add_argument("--duration", type=float, default=1.0)
    p.add_argument("--time-steps", type=int, default=2)
    p.add_argument("--cf", type=float, default=1.0)
    p.add_argument("--p", type=float, default=1.0)
    p.add_argument("--json", action="store_true")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_dose)

    p = sub.add_parser("gab", help="write the embedded insulation data as CSV")
    p.add_argument("--output", default=None)
    p.set_defaults(func=cmd_gab)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except NonConvergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except AltkitError as exc:
        # MissingVariableError subclasses KeyError, whose str() adds quotes.
        message = exc.args[0] if exc.args else str(exc)
        print(f"error: {message}", file=sys.stderr)
        return 2
    except (FileNotFoundError, IsADirectoryError, PermissionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
