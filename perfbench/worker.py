"""One unit of a benchmark run, in a fresh process: set up, run the unit, record it.

Started by run.py with the library's source directory on PYTHONPATH and the
BLAS/OpenMP thread counts pinned to 1. Set-up is interpreter start,
`import boostlab` and input generation. A fixed reference kernel is timed
after set-up and again after the unit, so run.py can scale this process's
times to reference speed. A unit is one pass of the workload's CLI calls,
each one `boostlab.cli.main` in this process and timed on its own; with
--trace 1 the calls run traced. The raw record goes to a JSON file that
run.py turns into metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import shutil
import sys
import time
from pathlib import Path

import numpy as np

import boostlab
from boostlab import cli

import checks
import inputs
import spans

DEFAULT_SEED = 42
SCALE_ROWS = 5_000
SERVE_TRAIN_ROWS = 250
SERVE_SCORE_ROWS = 50_000
MISSING_RATE = 0.1
SERVE_ALGOS = ("xgboost", "catboost")
STREAM_SCALE, STREAM_TRAIN, STREAM_SCORE = 0, 1, 2
REFERENCE_SAMPLES = 3

_REF_RNG = np.random.default_rng(0)
_REF_VALUES = _REF_RNG.random(50_000)
_REF_MATRIX = _REF_RNG.random((300, 200))
_REF_CELLS = [f"{v:.6f}" for v in _REF_VALUES[:40_000]]


def _reference_kernel() -> None:
    counts: dict[int, int] = {}
    for cell in _REF_CELLS:  # parsing and dict updates, as in CSV loading
        key = int(float(cell) * 64)
        counts[key] = counts.get(key, 0) + 1
    for _ in range(16):  # sorting, prefix sums and bincounts, as in split search
        order = np.argsort(_REF_VALUES, kind="stable")
        np.cumsum(_REF_MATRIX, axis=0)
        np.bincount(order & 63, weights=_REF_VALUES, minlength=64)
    json.dumps(_REF_CELLS)  # serialisation, as in model saving


def reference_seconds() -> list[float]:
    """Timings of a fixed kernel that runs no boostlab code: the machine's current speed."""
    out = []
    for _ in range(REFERENCE_SAMPLES):
        t = time.perf_counter()
        _reference_kernel()
        out.append(time.perf_counter() - t)
    return out


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Write the workload's input files; `paper` has none.

    The served model is trained on the same 250 rows in every run: drawn
    from the seed, its size (and so the save/load time) moved by about
    ±4 % between seeds. The seed draws the 50 000 scored rows.
    """
    if workload == "scale":
        inputs.write_csv(workdir / "scale.csv", inputs.table_rows(seed, STREAM_SCALE, SCALE_ROWS, MISSING_RATE))
    elif workload == "serve":
        train = inputs.table_rows(DEFAULT_SEED, STREAM_TRAIN, SERVE_TRAIN_ROWS, MISSING_RATE)
        inputs.write_csv(workdir / "train.csv", train)
        inputs.write_csv(workdir / "score.csv", inputs.table_rows(seed, STREAM_SCORE, SERVE_SCORE_ROWS, MISSING_RATE))


def paper_seed(seed: int, unit: int) -> int:
    """The library seed of a paper unit: unit 0 uses the workload seed itself."""
    return seed + 7919 * unit


def unit_ops(workload: str, seed: int, unit: int, workdir: Path, out: Path, golden: dict):
    """The unit's CLI calls as (argv, check) pairs; check() gives (problems, {algo: auc})."""
    if workload in ("paper", "scale"):
        if workload == "paper":
            lib_seed = paper_seed(seed, unit)
            argv = ["compare", "--synthetic", "--preset", "paper", "--seed", str(lib_seed), "--out", str(out)]
            expected = golden.get("paper", {}) if lib_seed == DEFAULT_SEED else {}
        else:
            argv = ["compare", "--data", str(workdir / "scale.csv"), "--seed", str(seed), "--out", str(out)]
            expected = {}

        def check_compare():
            problems, aucs = checks.check_compare(out)
            return problems + checks.golden_mismatches(out, expected), aucs

        return [(argv, check_compare)]

    expected = golden.get("serve", {}) if seed == DEFAULT_SEED else {}
    ops = []
    for algo in SERVE_ALGOS:
        d = out / algo
        d.mkdir(parents=True)
        model, scores = d / "model.json", d / "scores.csv"

        def check_train(model=model):
            ok = model.is_file() and model.stat().st_size > 0
            return ([] if ok else [f"{model.name}: missing or empty"]), {}

        def check_predict(rel=f"{algo}/scores.csv", scores=scores):
            problems = checks.check_scores(scores, SERVE_SCORE_ROWS)
            return problems + checks.golden_mismatches(out, _only(expected, rel)), {}

        def check_eval(rel=f"{algo}/eval/metrics.json", algo=algo, d=d):
            problems, auc = checks.check_eval(d / "eval", SERVE_SCORE_ROWS)
            problems += checks.golden_mismatches(out, _only(expected, rel))
            return problems, ({} if auc is None else {algo: auc})

        ops += [
            (
                ["train", "--algo", algo, "--preset", "paper", "--data", str(workdir / "train.csv"),
                 "--model-out", str(model)],
                check_train,
            ),
            (
                ["predict", "--model", str(model), "--data", str(workdir / "score.csv"),
                 "--scores-out", str(scores)],
                check_predict,
            ),
            (
                ["eval", "--scores", str(scores), "--data", str(workdir / "score.csv"),
                 "--out", str(d / "eval")],
                check_eval,
            ),
        ]
    return ops


def _only(expected: dict, rel: str) -> dict:
    return {rel: expected[rel]} if rel in expected else {}


def run_unit(workload, seed, unit, workdir, golden, recorder=None) -> dict:
    """Run one unit's CLI calls, check their outputs, and delete them."""
    out = workdir / "out"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir()
    ops = unit_ops(workload, seed, unit, workdir, out, golden)
    record = {"unit": unit, "calls": [], "failures": [], "auc": {}}
    patches = missing = None
    if recorder is not None:
        patches, missing = spans.install(recorder)
    try:
        for argv, check in ops:
            sink = io.StringIO()
            gc.collect()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                t = time.perf_counter()
                rc = cli.main(argv)
                dt = time.perf_counter() - t
            if rc != 0:
                problems = [f"exit code {rc}: {sink.getvalue().strip()[-300:]}"]
            else:
                problems, aucs = check()
                record["auc"].update(aucs)
            if problems:
                record["failures"].append({"cmd": argv[0], "problems": problems})
            record["calls"].append({"cmd": argv[0], "s": dt, "rc": rc})
    finally:
        if patches is not None:
            patches.restore()
    record["wall_s"] = sum(c["s"] for c in record["calls"])
    record["attempted"] = len(record["calls"])
    record["failed"] = len(record["failures"])
    record["output_bytes"] = sum(p.stat().st_size for p in out.rglob("*") if p.is_file())
    record["rows_scored"] = SERVE_SCORE_ROWS * sum(c["cmd"] == "predict" and c["rc"] == 0 for c in record["calls"])
    if recorder is not None:
        record["trace"] = {
            "summary": spans.summarize(recorder.to_dict()["spans"]),
            "counts": dict(recorder.counts),
            "missing_targets": missing,
        }
    shutil.rmtree(out)
    return record


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__)
    p.add_argument("--workload", required=True, choices=("paper", "scale", "serve"))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--unit", type=int, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), required=True)
    p.add_argument("--workdir", required=True)
    p.add_argument("--result", required=True)
    p.add_argument("--spans", default=None, help="where a traced unit writes its spans")
    p.add_argument("--spawned-at", type=float, required=True, help="time.monotonic() at spawn")
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args(argv)

    workdir = Path(args.workdir)
    prepare(args.workload, args.seed, workdir)
    result = {
        "setup_s": time.monotonic() - args.spawned_at,
        "reference_s": reference_seconds(),
        "numpy": np.__version__,
        "boostlab_file": boostlab.__file__,
    }
    if not args.setup_only:
        recorder = spans.Recorder(f"{args.workload}-seed{args.seed}-unit{args.unit}") if args.trace else None
        result["record"] = run_unit(args.workload, args.seed, args.unit, workdir, checks.load_golden(), recorder)
        if recorder is not None:
            Path(args.spans).write_text(json.dumps(recorder.to_dict()), encoding="utf-8")
        result["reference_s"] += reference_seconds()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
