"""Check that the benchmark's counts repeat exactly and its names agree.

    python3 perfbench/counts_check.py [--seed N] [--workload NAME ...]

For each workload, runs ``run.py --trace 1 --seconds 1`` (set-up plus one
round) twice with one seed and requires identical counts blocks: likelihood
and score evaluations, iterations and kernel rows per fit, fits per
bootstrap replicate and profile point, rows parsed.  It also requires a
correct result whose metric names and units are those of BENCHMARK.json.
Exits 1 on any difference.  The file name keeps pytest from collecting it.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from run import END_TO_END, PER_LAYER, RUN_DIR, WORKLOAD_NAMES  # noqa: E402


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: run.py exited {proc.returncode}\n{proc.stderr}")
    line = json.loads(proc.stdout.strip().splitlines()[-1])
    result = json.loads((RUN_DIR / f"result-{workload}-seed{seed}-trace1.json").read_text())
    return line, result


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--workload", action="append", choices=WORKLOAD_NAMES)
    args = parser.parse_args()
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    problems = []
    for key, table in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        declared = {m["name"]: m["unit"] for m in bench[key]}
        if declared != table:
            problems.append(f"BENCHMARK.json {key} {declared} != run.py {table}")
    names = [w["name"] for w in bench["workloads"]]
    if names != list(WORKLOAD_NAMES):
        problems.append(f"BENCHMARK.json workloads {names} != {WORKLOAD_NAMES}")

    for workload in args.workload or WORKLOAD_NAMES:
        (line, first), (_, second) = traced_run(workload, args.seed), traced_run(workload, args.seed)
        if not line["correct"]:
            problems.append(f"{workload}: result not correct")
        if {k: v["unit"] for k, v in line["metrics"].items()} != PER_LAYER:
            problems.append(f"{workload}: traced metrics differ from BENCHMARK.json per_layer")
        if first["counts"] != second["counts"]:
            problems.append(f"{workload}: counts differ between two runs with seed {args.seed}")
        for kind, block in first["counts"].items():
            if not block["repeated_exactly"]:
                problems.append(f"{workload}/{kind}: counts differ between operations")
        print(f"{workload}: " + json.dumps(first["counts"], sort_keys=True))
    for problem in problems:
        print("FAIL " + problem)
    print("counts check: " + ("FAIL" if problems else "PASS"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
