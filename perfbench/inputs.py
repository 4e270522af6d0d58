"""Benchmark input tables, drawn from the workload seed with numpy alone.

The generator is the benchmark's own, not `boostlab.synthesize`, so that two
commits are always measured on byte-identical input files. The columns follow
the paper's PCOS-screening layout: two numeric columns, nine binary symptoms,
a three-level activity column (three levels, so CatBoost's ordered target
statistics run: the one-hot limit is 2) and the `pcos` label. The label model
is fixed; only the rows depend on the seed, so every seed draws from one
distribution. Independent tables drawn with one seed use different streams.
"""

from __future__ import annotations

import numpy as np

NUMERIC = (("age", 30.0, 6.0, 0.9), ("weight", 65.0, 12.0, 0.6))  # name, mean, sd, weight
BINARY = (
    ("sudden_weight_gain", 0.35, 0.8),  # name, P(1), weight
    ("hair_growth", 0.30, 1.1),
    ("skin_darkening", 0.30, 0.7),
    ("acne", 0.45, 0.4),
    ("hair_thinning", 0.25, 0.3),
    ("fatigue", 0.50, 0.1),
    ("mood_swings", 0.50, 0.2),
    ("irregular_cycle", 0.40, 1.2),
    ("conceived_before", 0.40, -0.5),
)
ACTIVITY_P = (0.3, 0.45, 0.25)
ACTIVITY_EFFECT = (0.4, 0.0, -0.5)
INTERCEPT = -1.6
HEADER = [c[0] for c in NUMERIC] + [c[0] for c in BINARY] + ["activity_level", "pcos"]


def table_rows(seed: int, stream: int, n_rows: int, missing_rate: float) -> list[str]:
    """CSV lines (without header) of a seeded table; numeric cells go missing at missing_rate."""
    rng = np.random.default_rng([stream, seed])
    logit = np.full(n_rows, INTERCEPT)
    cols = []
    for _, mean, sd, w in NUMERIC:
        x = rng.normal(mean, sd, n_rows)
        logit += w * (x - mean) / sd
        cells = np.char.mod("%.2f", x)
        cells[rng.random(n_rows) < missing_rate] = ""
        cols.append(cells)
    for _, p, w in BINARY:
        x = (rng.random(n_rows) < p).astype(np.int64)
        logit += w * x
        cols.append(x.astype(str))
    activity = rng.choice(len(ACTIVITY_P), size=n_rows, p=ACTIVITY_P)
    logit += np.asarray(ACTIVITY_EFFECT)[activity]
    cols.append(activity.astype(str))
    label = (rng.random(n_rows) < 1.0 / (1.0 + np.exp(-logit))).astype(np.int64)
    if label.min() == label.max():
        raise ValueError(f"seed {seed} drew a single-class table of {n_rows} rows")
    cols.append(label.astype(str))
    return [",".join(row) for row in zip(*(c.tolist() for c in cols))]


def write_csv(path, lines: list[str]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(HEADER) + "\n")
        fh.write("\n".join(lines) + "\n")
