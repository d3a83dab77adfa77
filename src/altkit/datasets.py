"""Embedded reference life data and seeded synthetic-data generation."""

from __future__ import annotations

import hashlib
import math
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .data import CENSORED, FAILED, LifeRecord
from .errors import ConfigError
from .formula import ModelSpec, design_matrix
from .lifetime import std_quantile

# Generator-armature-bar insulation life test: five voltage-stress levels,
# 15 electrodes each, lifetimes in thousand hours, test stopped at 6.480
# thousand hours (39 units still running).  Digits are embedded exactly as
# printed in the source table; the content hash below pins them.
GAB_CENSOR_TIME = 6.480
GAB_TIME_UNIT = "thousand hours"
GAB_CONDITION_COLUMN = "voltstress_V_per_mm"
GAB_USE_VOLTSTRESS = 120.0

_GAB_FAILURES: dict[int, tuple[float, ...]] = {
    170: (),
    190: (3.248, 4.052, 5.304),
    200: (1.759, 3.645, 3.706, 3.726, 3.990, 5.153, 6.368),
    210: (1.401, 2.829, 2.941, 2.991, 3.311, 3.364, 3.474, 4.902, 5.639,
          6.021, 6.456),
    220: (0.401, 1.297, 1.342, 1.999, 2.075, 2.196, 2.885, 3.019, 3.550,
          3.566, 3.610, 3.659, 3.687, 4.152, 5.572),
}
_GAB_UNITS_PER_LEVEL = 15

GAB_CONTENT_SHA256 = (
    "a6181fd7b967baeb9df4f580000b50935519013eea4b69a1c9806a64629ec29e"
)


def load_gab() -> list[LifeRecord]:
    """The 75 embedded insulation records: 36 failures, 39 censored."""
    records = []
    for level in sorted(_GAB_FAILURES):
        cond = {GAB_CONDITION_COLUMN: float(level)}
        failures = _GAB_FAILURES[level]
        for t in failures:
            records.append(LifeRecord(t, FAILED, cond))
        for _ in range(_GAB_UNITS_PER_LEVEL - len(failures)):
            records.append(LifeRecord(GAB_CENSOR_TIME, CENSORED, cond))
    return records


def gab_content_hash() -> str:
    """SHA-256 of a canonical serialization of the embedded table."""
    lines = [
        f"{r.condition[GAB_CONDITION_COLUMN]:.0f},{r.time:.3f},{r.status}"
        for r in load_gab()
    ]
    return hashlib.sha256("\n".join(lines).encode("ascii")).hexdigest()


@dataclass(frozen=True)
class Censoring:
    """Right-censoring rule: none, a fixed time, or a target fraction."""

    kind: str  # "none", "time" or "fraction"
    value: float = 0.0

    def __post_init__(self):
        if self.kind == "none":
            return
        if self.kind == "time":
            if self.value <= 0.0:
                raise ConfigError("censoring time must be > 0")
        elif self.kind == "fraction":
            if not 0.0 <= self.value < 1.0:
                raise ConfigError("censored fraction must lie in [0, 1)")
        else:
            raise ConfigError(f"unknown censoring kind {self.kind!r}")


@dataclass(frozen=True)
class SyntheticGenerator:
    """Seeded draws from a log-location-scale regression model.

    `plan` lists (condition, count) groups; `mu_params` matches the spec's
    mu design (intercept first); sigma is a single constant (sigma = 0
    collapses every log-lifetime onto mu).  The same seed and configuration
    give bit-identical data on every run and thread count: a single
    explicit stream is drawn in plan order.
    """

    seed: int
    spec: ModelSpec
    mu_params: Sequence[float]
    sigma: float
    plan: Sequence[tuple[Mapping[str, float], int]]
    censoring: Censoring = Censoring("none")

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ConfigError("sigma must be >= 0")
        if len(self.mu_params) != self.spec.n_mu:
            raise ConfigError(
                f"mu_params must have length {self.spec.n_mu} for this model"
            )
        if any(count <= 0 for _, count in self.plan):
            raise ConfigError("plan counts must be > 0")


def generate(gen: SyntheticGenerator) -> list[LifeRecord]:
    """Draw lifetimes and apply the censoring rule; reproducible by seed."""
    conditions = []
    for cond, count in gen.plan:
        conditions.extend([cond] * count)
    x_mu = design_matrix(gen.spec.mu_terms, conditions)
    mu = x_mu @ np.asarray(gen.mu_params, dtype=float)
    rng = np.random.default_rng(gen.seed)
    u = rng.uniform(size=len(conditions))
    logt = mu + gen.sigma * std_quantile(u, gen.spec.family)
    with np.errstate(over="ignore", under="ignore", invalid="ignore"):
        times = np.exp(logt)
        if gen.censoring.kind == "none":
            cutoff = math.inf
        elif gen.censoring.kind == "time":
            cutoff = gen.censoring.value
        else:  # fraction: censor at the empirical (1 - f) quantile of the draws
            frac = gen.censoring.value
            cutoff = math.inf if frac == 0.0 else float(np.quantile(times, 1.0 - frac))
    # A draw of inf is fine where it is censored at a finite time.
    if not (np.all(times > 0.0) and np.all(np.isfinite(np.minimum(times, cutoff)))):
        raise ConfigError(
            f"sigma = {gen.sigma:g} draws lifetimes of 0 or inf, beyond double "
            "precision; use a smaller sigma"
        )

    records = []
    for t, cond in zip(times, conditions):
        if t <= cutoff:
            records.append(LifeRecord(float(t), FAILED, dict(cond)))
        else:
            records.append(LifeRecord(cutoff, CENSORED, dict(cond)))
    return records
