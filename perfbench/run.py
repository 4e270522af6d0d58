"""Benchmark of the boostlab CLI: run one workload and print its metrics.

    python3 perfbench/run.py --workload paper|scale|serve|all [--seed N]
                             [--seconds S] [--trace 0|1]

Run it inside a checkout that has `src/boostlab`; nothing needs to be
installed. --seconds sets the amount of work: the number of units a run
measures (see UNITS_AT_25S). Each unit runs in a fresh worker process
(worker.py) with one BLAS/OpenMP thread that generates the inputs from
--seed and runs the workload's CLI calls once. When fewer than three units
ran, processes that only set up are added, so that set-up time is always a
median of at least three. Every other metric is taken over the run's units
(see metrics_of). With --trace 0 the end-to-end metrics are printed. With
--trace 1 one unit runs in two processes, untraced and then traced, and the
per-layer metrics are printed. The last line of standard output is one JSON
object: {"correct", "attempted", "failed", "metrics"}. A full record of the
run, with provenance, goes to .perfbench_results/ in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("paper", "scale", "serve")
THREAD_ENV = {
    name: "1"
    for name in (
        "OMP_NUM_THREADS",
        "OPENBLAS_NUM_THREADS",
        "MKL_NUM_THREADS",
        "NUMEXPR_NUM_THREADS",
        "VECLIB_MAXIMUM_THREADS",
    )
}
SETUP_SAMPLES = 3
# Units a run measures at --seconds 25, chosen for the spread of the run's
# metrics across seeds on a 2-vCPU Intel Xeon VM: the paper units differ in
# input, the scale and serve units repeat theirs. --seconds scales the count,
# so one seed always gives the same units: the same work on every commit and
# machine. A traced run measures one unit; it runs each unit twice and its
# per-layer metrics carry no bound.
UNITS_AT_25S = {"paper": 6, "scale": 2, "serve": 1}
RUN_TIMEOUT_S = 170.0
# No unit starts when the run would then likely pass this, so that even a
# slow commit ends inside the 180 s a run may take.
MEASURE_CAP_S = 120.0

# Reported times are at reference speed: the speed at which worker.py's
# reference kernel, which runs no boostlab code, takes this long. Each
# process times the kernel around its work and its times are scaled by this
# over the kernel's median, which cancels the drift of a shared machine's
# speed over minutes. Raw times are kept in the run's record.
REFERENCE_S = 0.1

END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB", "output_bytes": "B"}

_TIMED = (
    "tree.fit_oblivious_tree",
    "tree.fit_regression_tree",
    "tree.fit_stump",
    "tree.regression.predict",
    "tree.oblivious.predict",
    "tree.stump.predict",
    "boost.ordered_target_stats",
    "boost.predict_scores",
    "boost.save_model",
    "boost.load_model",
    "dataset.load_csv",
    "dataset.load_features_csv",
    "dataset.infer_schema",
    "dataset.synthesize",
    "dataset.split",
    "metrics.confusion",
    "metrics.roc_curve",
    "metrics.pr_curve",
    "bench.run_benchmark",
    "bench.write_report_files",
    "fileio.atomic_write_text",
)
_SELF = ("boost.fit.adaboost", "boost.fit.gbm", "boost.fit.xgboost", "boost.fit.catboost", "bench.run_benchmark")
_CALLS = ("tree.fit_oblivious_tree", "tree.fit_regression_tree", "tree.fit_stump")
_CLI = ("train", "predict", "eval", "compare")
_COUNTS = (
    "boost.save_model.bytes",
    "boost.load_model.bytes",
    "boost.predict_scores.rows",
    "fileio.atomic_write_text.bytes",
    "dataset.rows_parsed",
    "dataset.bytes_read",
    "tree.oblivious.leaves",
    "tree.oblivious.leaf_slots",
    "tree.regression.leaves",
)


def _unit(name: str) -> str:
    if name.endswith(".rows_per_s"):
        return "1/s"
    if name.endswith(".bytes") or name == "dataset.bytes_read":
        return "B"
    if name.endswith("_s") or name.endswith(".s"):
        return "s"
    if name in ("tree.oblivious.leaf_fill", "trace.overhead"):
        return "ratio"
    return "count"


def per_layer_names() -> list[str]:
    names = [f"{n}.s" for n in _TIMED] + [f"{n}.self_s" for n in _SELF] + [f"{n}.calls" for n in _CALLS]
    names += [f"cli.{c}.{k}" for c in _CLI for k in ("s", "self_s")] + ["cli.predict.rows_per_s"]
    names += list(_COUNTS) + ["dataset.load_csv.rows_per_s", "dataset.load_features_csv.rows_per_s"]
    names += ["tree.oblivious.leaf_fill", "trace.wall_s", "trace.overhead", "trace.residual_s", "trace.spans"]
    return names


PER_LAYER = {name: _unit(name) for name in per_layer_names()}


def _rate(count: float, seconds: float) -> float:
    return count / seconds if seconds > 0 else 0.0


def speed(part: dict) -> float:
    """Factor that scales the times of one worker process to reference speed."""
    return REFERENCE_S / statistics.median(part["reference_s"])


def layer_metrics(untraced: dict, traced: dict) -> dict[str, float]:
    """Per-layer metrics of one unit from its traced record and the untraced record.

    Layer times are raw: they split one traced run, whose speed is one factor.
    """
    summary, counts = traced["trace"]["summary"], traced["trace"]["counts"]

    def get(name, key):
        return summary.get(name, {}).get(key, 0.0)

    m = {f"{n}.s": get(n, "s") for n in _TIMED}
    m.update({f"{n}.self_s": get(n, "self_s") for n in _SELF})
    m.update({f"{n}.calls": get(n, "calls") for n in _CALLS})
    for c in _CLI:
        m[f"cli.{c}.s"] = get(f"cli.{c}", "s")
        m[f"cli.{c}.self_s"] = get(f"cli.{c}", "self_s")
    m["cli.predict.rows_per_s"] = _rate(traced["rows_scored"], m["cli.predict.s"])
    m.update({n: counts.get(n, 0.0) for n in _COUNTS})
    for n in ("dataset.load_csv", "dataset.load_features_csv"):
        m[f"{n}.rows_per_s"] = _rate(counts.get(f"{n}.rows", 0.0), m[f"{n}.s"])
    m["tree.oblivious.leaf_fill"] = _rate(counts.get("tree.oblivious.leaves", 0.0), counts.get("tree.oblivious.leaf_slots", 0.0))
    m["trace.wall_s"] = traced["wall_s"]
    m["trace.overhead"] = _rate(traced["wall_s"] * traced["speed"], untraced["wall_s"] * untraced["speed"])
    m["trace.residual_s"] = traced["wall_s"] - sum(v["self_s"] for v in summary.values())
    m["trace.spans"] = sum(v["calls"] for v in summary.values())
    return m


def metrics_of(units: list[dict], setups: list[float], trace: bool) -> dict[str, float]:
    """Each declared metric over the run's unit processes (and set-up samples).

    Times carry machine noise, so they are medians, at reference speed.
    Memory and bytes are fixed by each unit's input, and the paper units
    differ in input, so they are means: the expected cost per input.
    """
    if trace:
        per_unit = [layer_metrics(u["record"], u["traced"]) for u in units]
        return {n: statistics.median(m[n] for m in per_unit) for n in PER_LAYER}
    return {
        "wall_s": statistics.median(u["record"]["wall_s"] * u["record"]["speed"] for u in units),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": statistics.fmean(u["peak_rss_mb"] for u in units),
        "output_bytes": statistics.fmean(u["record"]["output_bytes"] for u in units),
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "boostlab").rglob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload: str, seed: int, seconds: float, numpy_version: str) -> dict:
    try:
        affinity = len(os.sched_getaffinity(0))
    except AttributeError:
        affinity = None
    return {
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "nproc": os.cpu_count(),
        "cpu_affinity": affinity,
        "cpu_model": _cpu_model(),
        "platform": platform.platform(),
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "thread_env": THREAD_ENV,
    }


class RunError(Exception):
    pass


def _spawn(argv: list[str], workdir: Path, deadline: float) -> dict:
    """Run worker.py in a fresh work directory and return the record it wrote."""
    env = dict(os.environ, **THREAD_ENV)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    env["PYTHONHASHSEED"] = "0"
    workdir.mkdir(parents=True)
    out = workdir.with_suffix(".json")
    spawned_at = time.monotonic()
    proc = subprocess.Popen(
        [sys.executable, str(HERE / "worker.py"), *argv, "--workdir", str(workdir), "--result", str(out),
         "--spawned-at", repr(spawned_at)],
        cwd=ROOT,
        env=env,
        stdout=sys.stderr,
    )
    try:
        rc = proc.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        raise RunError("a worker ran out of time") from None
    finally:
        if proc.poll() is None:  # timed out or interrupted: stop the worker before returning
            proc.kill()
            proc.wait()
        shutil.rmtree(workdir, ignore_errors=True)
    if rc != 0:
        raise RunError(f"a worker exited with code {rc}")
    return json.loads(out.read_text(encoding="utf-8"))


def run_workload(workload: str, seed: int, seconds: float, trace: bool, results_dir: Path) -> dict:
    """Run the workload's units for `seconds`, each unit in a fresh worker process."""
    n_units = 1 if trace else max(1, int(UNITS_AT_25S[workload] * seconds / 25.0 + 0.5))
    start = time.monotonic()
    deadline = start + RUN_TIMEOUT_S
    scratch = ROOT / ".perfbench_work" / f"{workload}-{seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{workload}-seed{seed}-trace{int(trace)}"
    base = ["--workload", workload, "--seed", str(seed)]
    units: list[dict] = []
    setups: list[dict] = []  # every process: raw set-up seconds and speed factor
    traces = []

    def spawn(argv, name):
        part = _spawn(argv, scratch / name, deadline)
        setups.append({"setup_s": part["setup_s"], "speed": speed(part)})
        if "record" in part:
            part["record"].update(speed=speed(part), reference_s=part["reference_s"])
        return part

    try:
        for i in itertools.count():
            measuring = len(units) < n_units and _within_cap(start, len(units))
            if not measuring and len(setups) >= SETUP_SAMPLES:
                break
            argv = base + ["--unit", str(len(units))]
            if not measuring:
                spawn(argv + ["--trace", "0", "--setup-only"], f"p{i}")
                continue
            unit = spawn(argv + ["--trace", "0"], f"p{i}")
            if trace:
                spans_path = scratch / f"p{i}.spans.json"
                unit["traced"] = spawn(argv + ["--trace", "1", "--spans", str(spans_path)], f"p{i}t")["record"]
                traces.append(json.loads(spans_path.read_text(encoding="utf-8")))
            units.append(unit)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    src = (ROOT / "src").resolve()
    for u in units:
        if not Path(u["boostlab_file"]).resolve().is_relative_to(src):
            raise RunError(f"boostlab was imported from {u['boostlab_file']}, not from {src}")
    records = [r for u in units for r in ([u["record"], u["traced"]] if trace else [u["record"]])]
    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    aucs = {algo: statistics.median(r["auc"][algo] for r in records if algo in r["auc"])
            for algo in sorted({a for r in records for a in r["auc"]})}
    full = {
        "provenance": provenance(workload, seed, seconds, units[0]["numpy"]),
        "trace": int(trace),
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "error_rate": failed / attempted,
        "auc_median": aucs,
        "setup_samples": setups,
        "raw_s": {
            "wall_s": statistics.median(u["record"]["wall_s"] for u in units),
            "setup_s": statistics.median(p["setup_s"] for p in setups),
        },
        "metrics": metrics_of(units, [p["setup_s"] * p["speed"] for p in setups], trace),
        "units": [dict(u["record"], peak_rss_mb=u["peak_rss_mb"], traced=u.get("traced")) for u in units],
    }
    (results_dir / f"{stem}.json").write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    if trace:
        (results_dir / f"{stem}.spans.json").write_text(json.dumps(traces) + "\n", encoding="utf-8")
    return full


def _within_cap(start: float, n_units: int) -> bool:
    """False once another unit would likely take the run past MEASURE_CAP_S."""
    elapsed = time.monotonic() - start
    return n_units == 0 or elapsed * (n_units + 1) / n_units < MEASURE_CAP_S


def summary_line(full: dict) -> str:
    units = PER_LAYER if full["trace"] else END_TO_END
    return json.dumps(
        {
            "correct": full["correct"],
            "attempted": full["attempted"],
            "failed": full["failed"],
            "metrics": {n: {"value": full["metrics"][n], "unit": units[n]} for n in units},
        }
    )


def print_report(workload: str, full: dict) -> None:
    units = PER_LAYER if full["trace"] else END_TO_END
    print(f"== {workload}  seed {full['provenance']['seed']}  units {len(full['units'])}")
    for name, unit in units.items():
        print(f"  {name:40s} {full['metrics'][name]:>16.6g} {unit}")
    for name, value in full["raw_s"].items():
        print(f"  {name + ' (raw)':40s} {value:>16.6g} s")
    print(f"  {'error_rate':40s} {full['error_rate']:>16.6g} ({full['failed']}/{full['attempted']} calls)")
    for algo, auc in full["auc_median"].items():
        print(f"  {'auc.' + algo:40s} {auc:>16.6g}")
    for u in full["units"]:
        for r in [u] + ([u["traced"]] if u["traced"] else []):
            for f in r["failures"]:
                print(f"  FAILED unit {u['unit']} {f['cmd']}: {'; '.join(f['problems'])}")


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("--workload", required=True, choices=WORKLOADS + ("all",))
    p.add_argument("--seed", type=int, default=42)
    p.add_argument("--seconds", type=float, default=25.0, help="amount of work; see UNITS_AT_25S")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--results-dir", default=str(ROOT / ".perfbench_results"))
    args = p.parse_args(argv)
    if args.seed < 0:
        p.error("--seed must be non-negative")
    if not (ROOT / "src" / "boostlab" / "__init__.py").is_file():
        print(f"run.py: no boostlab source under {ROOT / 'src'}", file=sys.stderr)
        return 2

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    lines, ok = [], True
    for workload in workloads:
        try:
            full = run_workload(workload, args.seed, args.seconds, bool(args.trace), Path(args.results_dir))
        except (RunError, OSError, ValueError, KeyError) as exc:
            print(f"run.py: {workload}: {exc}", file=sys.stderr)
            return 2
        print_report(workload, full)
        lines.append(summary_line(full))
        ok = ok and full["correct"]
    print("\n".join(lines))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
