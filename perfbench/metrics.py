"""Metrics computed from a run's spans.

``ops`` lists the measured operations as ``(label, kind, span index)``;
spans whose ``op`` is not one of those labels (set-up, warm-up,
correctness checks) are left out.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

FIT = "fitml.fit_ml"
BOOT = "fitml.bootstrap_quantile"
PROFILE = "fitml.profile_lambda"
NLL_KERNEL = "lifetime.std_logsf"
SCORE_KERNEL = "lifetime.std_dlogsf"
P90_MIN_FITS = 100  # so that at least 10 samples lie beyond the 90th percentile


def _dur(span) -> float:
    return span[4] - span[3]


def _kernel(span, name: str, field: int) -> float:
    entry = span[5].get("kernels", {}).get(name)
    return entry[field] if entry else 0


def _kernel_total(span, field: int) -> float:
    return sum(entry[field] for entry in span[5].get("kernels", {}).values())


class Spans:
    """Index over the spans of measured operations."""

    def __init__(self, spans: list[list], ops: list[tuple]):
        self.spans = spans
        self.ops = ops
        labels = {label for label, _, _ in ops}
        self.children: dict[int, list[int]] = defaultdict(list)
        self.by_name: dict[str, list[int]] = defaultdict(list)
        for sid, span in enumerate(spans):
            if span[2] not in labels:
                continue
            if span[1] is not None:
                self.children[span[1]].append(sid)
            self.by_name[span[0]].append(sid)

    def named(self, name: str, op=None) -> list[list]:
        return [self.spans[s] for s in self.by_name.get(name, ())
                if op is None or self.spans[s][2] == op]

    def descendants(self, sid: int, name: str) -> list[list]:
        out, todo = [], list(self.children.get(sid, ()))
        while todo:
            s = todo.pop()
            if self.spans[s][0] == name:
                out.append(self.spans[s])
            todo.extend(self.children.get(s, ()))
        return out

    def self_seconds(self, sid: int) -> float:
        span = self.spans[sid]
        inner = sum(_dur(self.spans[c]) for c in self.children.get(sid, ()))
        return _dur(span) - inner - _kernel_total(span, 2)


def _mean(values) -> float | None:
    values = list(values)
    return sum(values) / len(values) if values else None


def fit_timings(index: Spans) -> dict:
    """fit_ms.p50/.p90 over every fit_ml call, nested ones included, and
    fits_per_s: converged refits per second inside bootstrap and profile."""
    fits = sorted(_dur(s) * 1e3 for s in index.named(FIT))
    out: dict = {"fits": len(fits)}
    if fits:
        out["fit_ms.p50"] = statistics.median(fits)
    if len(fits) >= P90_MIN_FITS:
        out["fit_ms.p90"] = statistics.quantiles(fits, n=10)[-1]
    refit_s, refits = 0.0, 0
    for name in (BOOT, PROFILE):
        for sid in index.by_name.get(name, ()):
            refit_s += _dur(index.spans[sid])
            refits += sum(1 for f in index.descendants(sid, FIT) if f[5].get("converged"))
    if refit_s > 0.0:
        out["fits_per_s"] = refits / refit_s
        out["refits"] = refits
    return out


def layer_metrics(index: Spans) -> dict[str, float | None]:
    """The per-layer table; None where the workload never calls the layer."""
    fit_ids = index.by_name.get(FIT, [])
    fits = [index.spans[s] for s in fit_ids]
    n = len(fits) or None

    def per_fit(total):
        return total / n if n else None

    def mean_ms(name, scale=1e3):
        return _mean(_dur(s) * scale for s in index.named(name))

    boots = index.named(BOOT)
    replicates = sum(s[5].get("n_requested", 0) for s in boots)
    profiles = index.named(PROFILE)
    points = sum(s[5].get("points", 0) for s in profiles)
    reads = index.named("io.read_life_csv")

    def subtree_sum(name, fn):
        return sum(fn(f) for sid in index.by_name.get(name, ())
                   for f in index.descendants(sid, FIT))

    return {
        "fitml.fit_ml.nll_evals": per_fit(sum(_kernel(f, NLL_KERNEL, 0) for f in fits)),
        "fitml.fit_ml.score_evals": per_fit(sum(_kernel(f, SCORE_KERNEL, 0) for f in fits)),
        "fitml.fit_ml.iterations": per_fit(sum(f[5].get("iterations", 0) for f in fits)),
        "fitml.fit_ml.self_ms": per_fit(sum(index.self_seconds(s) for s in fit_ids) * 1e3),
        "lifetime.kernel.calls_per_fit": per_fit(sum(_kernel_total(f, 0) for f in fits)),
        "lifetime.kernel.rows_per_fit": per_fit(sum(_kernel_total(f, 1) for f in fits)),
        "lifetime.kernel.self_ms_per_fit": per_fit(sum(_kernel_total(f, 2) for f in fits) * 1e3),
        "formula.design_matrix.ms": mean_ms("formula.design_matrix"),
        "formula.parse_model.us": mean_ms("formula.parse_model", 1e6),
        "fitml.quantile_at_use.us": mean_ms("fitml.quantile_at_use", 1e6),
        "io.read_life_csv.ms": mean_ms("io.read_life_csv"),
        "io.write_life_csv.ms": mean_ms("io.write_life_csv"),
        "io.read_life_csv.rows": _mean(s[5]["rows"] for s in reads if "rows" in s[5]),
        "fitml.bootstrap_quantile.ms_per_replicate":
            sum(_dur(s) for s in boots) * 1e3 / replicates if replicates else None,
        "fitml.bootstrap_quantile.fits_per_replicate":
            subtree_sum(BOOT, lambda f: 1) / replicates if replicates else None,
        "fitml.bootstrap_quantile.skipped_ratio":
            sum(s[5].get("n_skipped", 0) for s in boots) / replicates if replicates else None,
        "fitml.profile_lambda.ms_per_point":
            sum(_dur(s) for s in profiles) * 1e3 / points if points else None,
        "fitml.profile_lambda.nll_evals_per_point":
            subtree_sum(PROFILE, lambda f: _kernel(f, NLL_KERNEL, 0)) / points if points else None,
        "fitml.profile_lambda.nonconverged":
            _mean(s[5].get("nonconverged", 0) for s in profiles),
    }


def _fit_counts(fit) -> dict:
    return {
        "nll_evals": _kernel(fit, NLL_KERNEL, 0),
        "score_evals": _kernel(fit, SCORE_KERNEL, 0),
        "iterations": fit[5].get("iterations", 0),
        "kernel_rows": _kernel_total(fit, 1),
    }


def op_counts(index: Spans, label) -> dict:
    """Machine-independent counts of one operation."""
    fits = index.named(FIT, label)
    totals = {k: sum(_fit_counts(f)[k] for f in fits)
              for k in ("nll_evals", "score_evals", "iterations", "kernel_rows")}
    out = {"fits": len(fits), **totals}
    if fits:
        out.update({k + "_per_fit": totals[k] / len(fits) for k in totals})
    refits = {}
    for name in (BOOT, PROFILE):
        sids = [sid for sid in index.by_name.get(name, ()) if index.spans[sid][2] == label]
        refits[name] = [f for sid in sids for f in index.descendants(sid, FIT)]
    nested = {id(f) for group in refits.values() for f in group}
    # Fits the operation asked for itself, outside bootstrap and profile.
    out["direct_fits"] = [_fit_counts(f) for f in fits if id(f) not in nested]
    boots = index.named(BOOT, label)
    if boots:
        reps = sum(s[5].get("n_requested", 0) for s in boots)
        out["bootstrap"] = {"calls": len(boots), "replicates": reps,
                            "fits": len(refits[BOOT]),
                            "fits_per_replicate": len(refits[BOOT]) / reps if reps else None,
                            "skipped": sum(s[5].get("n_skipped", 0) for s in boots)}
    profiles = index.named(PROFILE, label)
    if profiles:
        pts = sum(s[5].get("points", 0) for s in profiles)
        pfits = refits[PROFILE]
        out["profile"] = {"calls": len(profiles), "points": pts, "fits": len(pfits),
                          "fits_per_point": len(pfits) / pts if pts else None,
                          "nll_evals_per_point":
                              sum(_kernel(f, NLL_KERNEL, 0) for f in pfits) / pts if pts else None,
                          "nonconverged": sum(s[5].get("nonconverged", 0) for s in profiles)}
    reads = index.named("io.read_life_csv", label)
    if reads:
        out["rows_parsed"] = sum(s[5].get("rows", 0) for s in reads)
    return out


def counts_block(index: Spans) -> dict:
    """Counts of the first measured operation of each kind, and whether
    every later operation of that kind repeated them exactly."""
    block: dict = {}
    for label, kind, _sid in index.ops:
        counts = op_counts(index, label)
        if kind not in block:
            block[kind] = {"counts": counts, "repeated_exactly": True}
        elif counts != block[kind]["counts"]:
            block[kind]["repeated_exactly"] = False
    return block
