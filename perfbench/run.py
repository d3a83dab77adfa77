"""Layered benchmark for altkit.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all --seed N --seconds S

Run from the repository root; altkit is imported from ``src/`` of the
same checkout.  One run sets up (imports, builds the inputs, runs one
warm-up operation), then runs operations one after another for
``--seconds`` seconds, finishing the round it is in, and checks every
result against ``perfbench/reference.json``.  ``--trace 0`` prints the
end-to-end metrics; ``--trace 1`` records spans at every layer boundary
and prints the per-layer metrics and the machine-independent counts.
The last line of stdout is the JSON result; ``.bench_run/`` keeps a result
file per run (with provenance) and, for traced runs, the spans.
``--workload all`` runs every workload untraced and then traced, and
prints the tracing overhead.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import ctypes
import glob
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
RUN_DIR = ROOT / ".bench_run"
SETUP_REPEATS = 3
WORKLOAD_NAMES = ("gab-analysis", "arrhenius-50k", "cli-session")

# Names and units as in BENCHMARK.json: metrics every workload has.
END_TO_END = {"setup_s": "s", "ops_per_s": "1/s", "fit_ms.p50": "ms", "peak_rss_mb": "MB"}
PER_LAYER = {
    "cli.import_s": "s",
    "fitml.fit_ml.nll_evals": "count",
    "fitml.fit_ml.score_evals": "count",
    "fitml.fit_ml.iterations": "count",
    "fitml.fit_ml.self_ms": "ms",
    "lifetime.kernel.calls_per_fit": "count",
    "lifetime.kernel.rows_per_fit": "count",
    "lifetime.kernel.self_ms_per_fit": "ms",
    "formula.design_matrix.ms": "ms",
    "formula.parse_model.us": "us",
    "fitml.quantile_at_use.us": "us",
}
# Reported in the result file and on stdout, but only where the workload
# has them, so not in BENCHMARK.json (whose metrics every run must print).
EXTRA_UNITS = {
    "op_s.p50": "s", "fit_ms.p90": "ms", "fits_per_s": "1/s", "ops_failed_ratio": "ratio",
    "cli.af_s": "s", "cli.fit_s": "s", "cli.quantile_boot_s": "s", "cli.profile_s": "s",
    "cli.quantile_pipe_s": "s", "io.read_life_csv.ms": "ms", "io.write_life_csv.ms": "ms",
    "io.read_life_csv.rows": "count", "fitml.bootstrap_quantile.ms_per_replicate": "ms",
    "fitml.bootstrap_quantile.fits_per_replicate": "count",
    "fitml.bootstrap_quantile.skipped_ratio": "ratio",
    "fitml.profile_lambda.ms_per_point": "ms",
    "fitml.profile_lambda.nll_evals_per_point": "count",
    "fitml.profile_lambda.nonconverged": "count", "datasets.generate.ms": "ms",
}


class SetupError(Exception):
    """The checkout cannot run the benchmark; no result is printed."""


def import_altkit() -> tuple[object, float, str]:
    removed = os.environ.pop("ALTKIT_THREADS", None)
    threads_note = "unset" if removed is None else f"unset here (was {removed!r})"
    if not (SRC / "altkit" / "__init__.py").is_file():
        raise SetupError(f"no altkit sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import altkit

    elapsed = perf_counter() - t0
    if not Path(altkit.__file__).resolve().is_relative_to(SRC.resolve()):
        raise SetupError(f"imported altkit from {altkit.__file__}, not from {SRC}")
    return altkit, elapsed, threads_note


def blas_threads() -> int | None:
    import numpy

    libs = glob.glob(str(Path(numpy.__file__).parent.parent / "numpy.libs" / "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def time_import(env: dict) -> float:
    t0 = perf_counter()
    proc = subprocess.run([sys.executable, "-c", "import altkit"], env=env, cwd=ROOT,
                          capture_output=True, timeout=120)
    elapsed = perf_counter() - t0
    if proc.returncode != 0:
        raise SetupError(f"import altkit failed: {proc.stderr.decode()[-500:]}")
    return elapsed


class Outcome:
    def __init__(self, label, kind, sid, seconds, status, detail):
        self.label, self.kind, self.sid = label, kind, sid
        self.seconds, self.status, self.detail = seconds, status, detail

    def as_dict(self) -> dict:
        return {"op": self.label, "kind": self.kind, "seconds": self.seconds,
                "status": self.status, "detail": self.detail}


def run_op(rec, label, kind, run, check) -> Outcome:
    rec.op = label
    sid = rec.begin(kind)
    error = out = None
    try:
        out = run()
    except Exception as err:  # an operation that raises counts as failed
        error = err
    finally:
        seconds = rec.end(sid)
        rec.op = None
    if error is not None:
        status, detail = "fail", f"raised {error!r}"
    else:
        try:
            status, detail = check(out)
        except Exception as err:  # a malformed output fails its check
            status, detail = "fail", f"check raised {err!r}"
    return Outcome(label, kind, sid, seconds, status, detail)


def median_or_none(values):
    return statistics.median(values) if values else None


def run_workload(name: str, seed: int, seconds: int, traced: bool) -> dict:
    altkit, import_s, threads_note = import_altkit()
    import numpy
    import scipy

    import metrics
    from spans import Recorder
    from workloads import WORKLOADS, subprocess_env

    ref = json.loads((HERE / "reference.json").read_text())
    RUN_DIR.mkdir(exist_ok=True)
    rec = Recorder(traced)
    workload = WORKLOADS[name](seed, ref, rec, RUN_DIR)
    rec.install()
    try:
        # Set-up: the import in a fresh interpreter, building the inputs
        # (each repeated, medians taken) and one warm-up operation.
        env = subprocess_env(ROOT, traced)
        imports = [time_import(env) for _ in range(SETUP_REPEATS)]
        generation = []
        for _ in range(SETUP_REPEATS):
            rec.op = "setup"
            sid = rec.begin("setup.generate")
            try:
                workload.generate()
            finally:
                generation.append(rec.end(sid))
                rec.op = None
        warmup = run_op(rec, "warmup", *workload.round()[0])
        setup_s = statistics.median(imports) + statistics.median(generation) + warmup.seconds

        outcomes: list[Outcome] = []
        start = perf_counter()
        while True:
            for kind, run, check in workload.round():
                outcomes.append(run_op(rec, len(outcomes), kind, run, check))
            if perf_counter() - start >= seconds:
                break
    finally:
        rec.restore()

    ops = [(o.label, o.kind, o.sid) for o in outcomes]
    index = metrics.Spans(rec.spans, ops)
    fits = metrics.fit_timings(index)
    durations = [o.seconds for o in outcomes]
    usage = resource.RUSAGE_CHILDREN if name == "cli-session" else resource.RUSAGE_SELF
    attempted = len(outcomes)
    failed = sum(o.status != "pass" for o in outcomes)
    end_to_end = {
        "setup_s": setup_s,
        "ops_per_s": attempted / sum(durations),
        "fit_ms.p50": fits.get("fit_ms.p50"),
        "peak_rss_mb": resource.getrusage(usage).ru_maxrss / 1024.0,
    }
    extra = {
        "op_s.p50": statistics.median(durations),
        "fit_ms.p90": fits.get("fit_ms.p90"),
        "fits_per_s": fits.get("fits_per_s"),
        "ops_failed_ratio": failed / attempted,
    }
    if name == "cli-session":
        for kind in workload.kinds:
            extra[f"cli.{kind}_s"] = median_or_none(
                [o.seconds for o in outcomes if o.kind == kind])
    notes = {
        "fits": fits["fits"],
        "refits_in_bootstrap_and_profile": fits.get("refits", 0),
        "ops_failed_ratio_base": f"{failed}/{attempted}",
        "known_failures": sum(o.status == "known" for o in outcomes),
    }
    if "fit_ms.p90" not in fits:
        notes["fit_ms.p90"] = (f"omitted: {fits['fits']} fits in this run, "
                               f"fewer than {metrics.P90_MIN_FITS}")
    if "fits_per_s" not in fits:
        notes["fits_per_s"] = "omitted: no bootstrap or profile refits in this workload"

    per_layer, counts = {}, {}
    if traced:
        per_layer = metrics.layer_metrics(index)
        per_layer["cli.import_s"] = statistics.median(imports)
        generate = [s[4] - s[3] for s in rec.spans
                    if s[0] == "datasets.generate" and s[2] == "setup"]
        per_layer["datasets.generate.ms"] = (
            statistics.median(generate) * 1e3 if generate else None)
        counts = metrics.counts_block(index)

    provenance = {
        "workload": name, "seed": seed, "seconds": seconds, "traced": traced,
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "altkit": altkit.__version__,
        "nproc": len(os.sched_getaffinity(0)), "blas_threads": blas_threads(),
        "ALTKIT_THREADS": threads_note, "import_in_process_s": import_s,
        "gab_content_hash": altkit.gab_content_hash(),
        **workload.provenance(),
    }
    return {
        "provenance": provenance,
        "correct": warmup.status != "fail" and all(o.status != "fail" for o in outcomes),
        "attempted": attempted,
        "failed": failed,
        "setup": {"import_s": imports, "generate_s": generation,
                  "warmup": warmup.as_dict()},
        "end_to_end": end_to_end,
        "extra": extra,
        "notes": notes,
        "per_layer": per_layer,
        "counts": counts,
        "operations": [o.as_dict() for o in outcomes],
        "spans": rec.spans if traced else None,
    }


def fmt(value) -> str:
    return "n/a" if value is None else f"{value:.6g}"


def report(result: dict, traced: bool) -> dict:
    """Print the human-readable lines; return the last-line JSON object."""
    prov = result["provenance"]
    name, seed = prov["workload"], prov["seed"]
    spans = result.pop("spans")
    if traced:
        untraced = RUN_DIR / f"result-{name}-seed{seed}-trace0.json"
        if untraced.exists():
            base = json.loads(untraced.read_text())["extra"]["op_s.p50"]
            result["notes"]["tracing_overhead_s"] = result["extra"]["op_s.p50"] - base
    tag = f"{name}-seed{seed}-trace{int(traced)}"
    if spans is not None:
        (RUN_DIR / f"spans-{tag}.json").write_text(json.dumps(spans))
    (RUN_DIR / f"result-{tag}.json").write_text(json.dumps(result, indent=1))

    print(f"# {name} seed={seed} seconds={prov['seconds']} trace={int(traced)}")
    print("# provenance " + json.dumps(prov, sort_keys=True))
    for o in result["operations"]:
        if o["status"] != "pass":
            print(f"# op {o['op']} {o['kind']}: {o['status']}: {o['detail']}")
    if result["setup"]["warmup"]["status"] == "fail":
        print(f"# warm-up failed: {result['setup']['warmup']['detail']}")
    print("# end-to-end" + (" (traced; not the reported values)" if traced else ""))
    for key, value in result["end_to_end"].items():
        print(f"{key} = {fmt(value)} {END_TO_END[key]}")
    for key, value in result["extra"].items():
        print(f"{key} = {fmt(value)} {EXTRA_UNITS[key]}")
    print(f"ops_failed_ratio base = {result['notes']['ops_failed_ratio_base']} operations")
    for key in ("fit_ms.p90", "fits_per_s"):
        if key in result["notes"]:
            print(f"# {key} {result['notes'][key]}")
    if traced:
        if "tracing_overhead_s" in result["notes"]:
            print("tracing overhead (op_s.p50 traced - untraced) = "
                  f"{result['notes']['tracing_overhead_s']:.6g} s")
        print("# per-layer (traced)")
        for key, value in result["per_layer"].items():
            unit = PER_LAYER.get(key) or EXTRA_UNITS[key]
            print(f"{key} = {fmt(value)} {unit}"
                  + ("  (not called by this workload)" if value is None else ""))
        print("# counts (machine-independent, not timings)")
        for kind, block in result["counts"].items():
            print(f"counts {kind} " + json.dumps(block, sort_keys=True))

    declared = PER_LAYER if traced else END_TO_END
    source = result["per_layer"] if traced else result["end_to_end"]
    return {
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: {"value": source[k], "unit": u} for k, u in declared.items()},
    }


def run_all(seed: int, seconds: int) -> int:
    summary = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                 "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
            sys.stdout.write(proc.stdout)
            if proc.returncode != 0:
                print(f"# {name} trace={trace} exited {proc.returncode}")
                return proc.returncode
            summary[f"{name}/trace{trace}"] = json.loads(proc.stdout.strip().splitlines()[-1])
    (RUN_DIR / f"summary-seed{seed}.json").write_text(json.dumps(summary, indent=1))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOAD_NAMES, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if args.workload == "all":
        return run_all(args.seed, args.seconds)
    try:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    except SetupError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    line = report(result, bool(args.trace))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
