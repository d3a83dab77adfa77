"""Record the reference values the benchmark's correctness checks use.

    python3 perfbench/record_reference.py

Writes perfbench/reference.json from the altkit in ``src/``.  The
committed file was recorded on the commit that added the benchmark;
re-record it only when a change of results is intended and reviewed.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

from altkit import datasets, formula  # noqa: E402
from altkit.data import resolve_kelvin  # noqa: E402
from altkit.relationships import arrhenius_af  # noqa: E402
from altkit.units import ActivationEnergy, Temperature  # noqa: E402

import workloads as w  # noqa: E402


def kelvin(temp_c: float) -> Temperature:
    return Temperature.kelvin(resolve_kelvin({"temp_C": temp_c}, "temp"))


def main() -> None:
    gab = datasets.load_gab()
    ops = w.gab_operation(gab, 0)
    spec = formula.parse_model(w.GAB_MODELS["lognormal"])
    boot = {"0": ops["bootstrap"]}
    for seed in range(1, w.BOOT_SEEDS):
        boot[str(seed)] = w.gab_bootstrap(gab, spec, seed)
        print(f"bootstrap seed {seed} done", file=sys.stderr)
    arr = w.arr_operation(datasets.generate(w.arr_generator()))
    ref = {
        "gab": {"fits": ops["fits"], "quantiles": ops["quantiles"],
                "profile": ops["profile"], "bootstrap": boot},
        "arrhenius": {"fit": arr["fit"], "quantile": arr["quantile"]},
        "af": [[t, arrhenius_af(kelvin(t), kelvin(w.AF_USE_C), ActivationEnergy.ev(w.AF_EA_EV))]
               for t in w.AF_TEST_C],
    }
    (HERE / "reference.json").write_text(json.dumps(ref, indent=1) + "\n")


if __name__ == "__main__":
    main()
