"""Benchmark harness: train all four boosters on one shared split and report.

Each algorithm's result is its training accuracy and the metrics.evaluate
Evaluation of its test scores at its params.threshold, the same evaluation
that eval writes from a scores file. Outputs per run: report.json, table.txt,
table.csv, and a ROC + PR curve CSV per algorithm (8 curve files).
Everything except the report timestamp is byte-deterministic for a fixed
config.

run_benchmark fits the four boosters on two CPUs where it can: the calling
process fits CatBoost, the longest fit, while one forked child fits
AdaBoost, GBM and XGBoost in ALGORITHMS order and sends back their models,
or the first exception it hit, pickled over a pipe. The caller fits all
four itself, in ALGORITHMS order, when os.fork or os.sched_getaffinity is
missing, when the process may run on one CPU only, or when it runs more
than one thread, since forking a threaded process is unsafe. Scoring,
metrics and report files then run in the caller in ALGORITHMS order, and
the first algorithm whose fit or scoring failed raises its error, so the
error is the one a serial loop would raise, whichever process hit it first.
The child is reaped before run_benchmark returns or raises; on
KeyboardInterrupt or SystemExit it is killed first.
"""

from __future__ import annotations

import json
import os
import pickle
import signal
import threading
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path
from typing import NoReturn

from ._fileio import atomic_write_text
from .boost import ALGORITHMS, BoostParams, default_params, fit, paper_preset, predict_labels, predict_scores
from .dataset import (
    Dataset,
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    load_csv,
    pcos_default_schema,
    split,
    synthesize,
)
from .metrics import Evaluation, evaluate, pr_to_csv, roc_to_csv

ALGO_LABELS = {
    "adaboost": "AdaBoost",
    "gbm": "Gradient Boosting",
    "xgboost": "XGBoost",
    "catboost": "CatBoost",
}

PAPER_PRESET_N = 250
PAPER_PRESET_TEST_ROWS = 48
PAPER_PRESET_SIGNAL = 2.0

# CatBoost, the longest fit, stays in the caller; a forked child fits the rest.
CALLER_ALGORITHMS = ("catboost",)
CHILD_ALGORITHMS = tuple(a for a in ALGORITHMS if a not in CALLER_ALGORITHMS)


@dataclass(frozen=True)
class BenchmarkConfig:
    """Exactly one of csv_path / synthetic must be set."""

    csv_path: str | None = None
    synthetic: SyntheticSpec | None = None
    schema: FeatureSchema | None = None
    label_column: str = "pcos"
    test_fraction: float = 0.2
    seed: int = 42
    params: dict[str, BoostParams] = field(default_factory=dict)

    def __post_init__(self):
        if (self.csv_path is None) == (self.synthetic is None):
            raise ValueError("exactly one data source (csv_path or synthetic) must be set")
        for algo in self.params:
            if algo not in ALGORITHMS:
                raise ValueError(f"unknown algorithm {algo!r} in params")


def paper_preset_config(seed: int = 42) -> BenchmarkConfig:
    """Synthetic benchmark preset: n=250 with a 48-row stratified test split."""
    return BenchmarkConfig(
        synthetic=SyntheticSpec(n=PAPER_PRESET_N, signal_strength=PAPER_PRESET_SIGNAL),
        test_fraction=PAPER_PRESET_TEST_ROWS / PAPER_PRESET_N,
        seed=seed,
        params={algo: paper_preset(algo) for algo in ALGORITHMS},
    )


@dataclass
class AlgoResult:
    train_accuracy: float
    test: Evaluation


@dataclass
class BenchmarkReport:
    results: dict[str, AlgoResult]
    seed: int
    n_train: int
    n_test: int
    timestamp: str

    def to_dict(self) -> dict:
        meta = {"seed": self.seed, "n_train": self.n_train, "n_test": self.n_test}
        return {
            "metadata": {**meta, "timestamp": self.timestamp},
            "algorithms": {
                algo: {"train_accuracy": r.train_accuracy, "test_accuracy": r.test.scores.accuracy, **r.test.to_dict()}
                for algo, r in self.results.items()
            },
        }


def _load_source(config: BenchmarkConfig) -> Dataset:
    if config.csv_path is not None:
        return load_csv(config.csv_path, config.schema, config.label_column)
    schema = config.schema if config.schema is not None else pcos_default_schema()
    spec = config.synthetic
    return synthesize(schema, spec.n, config.seed, spec.signal_strength, spec.missing_rate)


def _fit_in_order(algorithms, train: Dataset, params: dict[str, BoostParams]) -> dict:
    """Each algorithm's model, fitted in order, up to the first whose fit
    raised, which maps to its exception."""
    outcomes = {}
    for algo in algorithms:
        try:
            outcomes[algo] = fit(algo, train, params[algo])
        except Exception as exc:  # raised by run_benchmark, in ALGORITHMS order
            outcomes[algo] = exc
            break
    return outcomes


def _fit_in_child(write_fd: int, train: Dataset, params: dict[str, BoostParams]) -> NoReturn:
    """The forked child's whole life: fit CHILD_ALGORITHMS, pickle the
    outcomes to write_fd, and leave by os._exit, which returns into none of
    the caller's code and runs no exit handler. The exit code is 0 only once
    everything is sent. A pickled exception keeps its type and message, not
    its traceback; a run on one CPU shows that."""
    code = 1
    try:
        outcomes = _fit_in_order(CHILD_ALGORITHMS, train, params)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcomes, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _can_fork() -> bool:
    """Whether a forked child can fit beside the caller: fork exists, the
    process may run on two CPUs or more, and it runs no other thread."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _fit_all(train: Dataset, params: dict[str, BoostParams]) -> dict:
    """The outcomes of _fit_in_order for every algorithm, the child's and the
    caller's fitted at once when _can_fork(), else all in the caller."""
    if not _can_fork():
        return _fit_in_order(ALGORITHMS, train, params)
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        _fit_in_child(write_fd, train, params)
    os.close(write_fd)
    with os.fdopen(read_fd, "rb") as pipe:
        try:
            outcomes = _fit_in_order(CALLER_ALGORITHMS, train, params)
            payload = pipe.read()
        except BaseException:  # an interrupt, an exit or a failed read: the child's fits are not wanted
            os.kill(pid, signal.SIGKILL)
            raise
        finally:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        raise ChildProcessError(f"the {', '.join(CHILD_ALGORITHMS)} fit process exited with code {code}")
    return {**pickle.loads(payload), **outcomes}


def run_benchmark(config: BenchmarkConfig, out_dir=None) -> BenchmarkReport:
    """Train the four boosters on one split; optionally write all report files.

    The fits run as the module docstring says: CatBoost in this process and
    the other three in one forked child, or all four here. The models are
    then scored in ALGORITHMS order, and the first algorithm whose fit or
    scoring failed raises its error. The test set is scored once per model
    and evaluated by metrics.evaluate at the model's threshold."""
    data = _load_source(config)
    train, test = split(data, SplitSpec(config.test_fraction, config.seed))
    params = {algo: config.params.get(algo, default_params(algo)) for algo in ALGORITHMS}
    models = _fit_all(train, params)
    results: dict[str, AlgoResult] = {}
    for algo in ALGORITHMS:
        model = models[algo]
        if isinstance(model, Exception):
            raise model
        train_pred = predict_labels(model, train)
        results[algo] = AlgoResult(
            train_accuracy=float((train_pred == train.labels).mean()),
            test=evaluate(predict_scores(model, test), test.labels, params[algo].threshold),
        )

    report = BenchmarkReport(
        results=results,
        seed=config.seed,
        n_train=train.n_rows,
        n_test=test.n_rows,
        timestamp=datetime.now(timezone.utc).isoformat(),
    )
    if out_dir is not None:
        write_report_files(report, out_dir)
    return report


def write_report_files(report: BenchmarkReport, out_dir) -> None:
    out = Path(out_dir)
    out.mkdir(parents=True, exist_ok=True)
    atomic_write_text(out / "report.json", json.dumps(report.to_dict(), indent=2, allow_nan=False) + "\n")
    atomic_write_text(out / "table.txt", render_table(report))
    atomic_write_text(out / "table.csv", render_table_csv(report))
    for algo, r in report.results.items():
        atomic_write_text(out / f"roc_{algo}.csv", roc_to_csv(r.test.roc))
        atomic_write_text(out / f"pr_{algo}.csv", pr_to_csv(r.test.pr))


def _fmt(value: float | None, digits: int = 4) -> str:
    return "NA" if value is None else f"{value:.{digits}f}"


def _table_rows(report: BenchmarkReport) -> list[list[str]]:
    header = ["Algorithm", "Train%", "Test%", "FN", "FP", "Precision", "Recall", "F-Score", "AUC"]
    rows = [header]
    for algo, r in report.results.items():
        t = r.test
        rows.append(
            [
                ALGO_LABELS[algo],
                f"{100.0 * r.train_accuracy:.2f}",
                f"{100.0 * t.scores.accuracy:.2f}",
                str(t.confusion.fn),
                str(t.confusion.fp),
                _fmt(t.scores.precision),
                _fmt(t.scores.recall),
                _fmt(t.scores.f_score),
                _fmt(t.roc.auc),
            ]
        )
    return rows


def render_table(report: BenchmarkReport) -> str:
    """Aligned plain-text table with one row per algorithm."""
    rows = _table_rows(report)
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    lines = []
    for row in rows:
        cells = [row[0].ljust(widths[0])] + [c.rjust(w) for c, w in zip(row[1:], widths[1:])]
        lines.append("  ".join(cells).rstrip())
    lines.insert(1, "-" * max(len(line) for line in lines))
    return "\n".join(lines) + "\n"


def render_table_csv(report: BenchmarkReport) -> str:
    return "\n".join(",".join(row) for row in _table_rows(report)) + "\n"
