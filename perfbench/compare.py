"""Compare two sets of benchmark results metric by metric, against the bounds in BENCHMARK.json.

    python3 perfbench/compare.py BASE_DIR NEW_DIR

Each directory holds result files written by run.py (by default into
.perfbench_results/), ideally the same workloads over the same seeds for
both. For every workload and end-to-end metric this prints both medians and
quartile spreads and a verdict: `worse` when the new median is worse by
more than the metric's bound, `unresolved` when the base runs spread wider
than the bound and the new runs do not all beat them, else `ok`. Traced
results, when both sides have them, are listed by per-layer median without
a verdict. Provenance fields that differ between the sides are printed
first, because such results are not comparable.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
COMPARABLE = ("python", "numpy", "nproc", "cpu_affinity", "cpu_model", "thread_env", "seconds")


def load(directory: str) -> dict[int, dict[str, list[dict]]]:
    """Results by trace flag, then by workload."""
    out: dict[int, dict[str, list[dict]]] = {0: defaultdict(list), 1: defaultdict(list)}
    for path in sorted(Path(directory).glob("*-trace[01].json")):
        full = json.loads(path.read_text(encoding="utf-8"))
        out[full["trace"]][full["provenance"]["workload"]].append(full)
    return out


def spread(values: list[float]) -> tuple[float, float]:
    """Median and (Q3 - Q1) / median."""
    med = statistics.median(values)
    if len(values) < 2 or med == 0:
        return med, 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return med, (q3 - q1) / med


def verdict(base: list[float], new: list[float], better: str, bound: float) -> str:
    sign = 1.0 if better == "lower" else -1.0
    b_med, b_spread = spread(base)
    n_med = statistics.median(new)
    worse_by = sign * (n_med - b_med) / b_med if b_med else 0.0
    if worse_by > bound:
        return "worse"
    all_better = all(sign * (n - b) < 0 for n in new for b in base)
    if b_spread > bound and not all_better:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if len(args) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    base, new = load(args[0]), load(args[1])

    seen = defaultdict(set)
    for side in (base, new):
        for runs in side[0].values():
            for r in runs:
                for key in COMPARABLE:
                    seen[key].add(json.dumps(r["provenance"].get(key), sort_keys=True))
    for key, values in seen.items():
        if len(values) > 1:
            print(f"provenance differs: {key}: {' vs '.join(sorted(values))}")

    status = 0
    print(f"{'workload':8s} {'metric':14s} {'base':>12s} {'spread':>7s} {'new':>12s} {'spread':>7s} {'change':>8s} {'bound':>6s}  verdict")
    for workload in sorted(set(base[0]) & set(new[0])):
        for m in spec["end_to_end"]:
            b = [r["metrics"][m["name"]] for r in base[0][workload]]
            n = [r["metrics"][m["name"]] for r in new[0][workload]]
            (b_med, b_sp), (n_med, n_sp) = spread(b), spread(n)
            v = verdict(b, n, m["better"], m["bound"])
            status |= v == "worse"
            change = (n_med - b_med) / b_med if b_med else 0.0
            print(f"{workload:8s} {m['name']:14s} {b_med:12.6g} {b_sp:7.3f} {n_med:12.6g} {n_sp:7.3f} "
                  f"{change:+8.3f} {m['bound']:6.2f}  {v}")
    for workload in sorted(set(base[1]) & set(new[1])):
        print(f"\n{workload}: per-layer medians (traced runs)")
        for m in spec["per_layer"]:
            b = statistics.median(r["metrics"][m["name"]] for r in base[1][workload])
            n = statistics.median(r["metrics"][m["name"]] for r in new[1][workload])
            print(f"  {m['name']:40s} {b:14.6g} {n:14.6g} {m['unit']}")
    return status


if __name__ == "__main__":
    sys.exit(main())
