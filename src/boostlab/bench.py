"""Benchmark harness: train all four boosters on one shared split and report.

Each algorithm's result is its training accuracy and the metrics.evaluate
Evaluation of its test scores at its params.threshold, the same evaluation
that eval writes from a scores file. Outputs per run: report.json, table.txt,
table.csv, and a ROC + PR curve CSV per algorithm (8 curve files).
Everything except the report timestamp is byte-deterministic for a fixed
config.

run_benchmark runs four jobs, one per algorithm: the algorithm's fit, its
training accuracy and its test scores. Where it can, two processes share
them through a claim queue: one byte per job in a pipe, read one at a time,
so each job goes to exactly one process. The jobs are claimed in JOB_ORDER,
longest fit first (greedy longest-processing-time list scheduling). The
calling process keeps the first job, CatBoost, and one forked child starts
on the queue at once; each process claims its next job when it is done with
the last, until the queue is empty, and keeps claiming after a failed job.
The child sends back each of its jobs' training accuracy and test scores,
or the exception the job raised, pickled over a second pipe; no model
crosses it. The caller drains the queue alone when os.fork or
os.sched_getaffinity is missing, when the process may run on one CPU only,
when it runs more than one thread, since forking a threaded process is
unsafe, or when os.fork fails (EAGAIN or ENOMEM). Metrics and report files
then run in the caller in ALGORITHMS order, and the first algorithm whose
job failed raises its error, so the error is the one a serial loop would
raise, whichever process ran it. The child is reaped before run_benchmark
returns or raises; on KeyboardInterrupt or SystemExit it is killed first.
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
    split,
)
from .errors import SingleClassDataset
from .metrics import Evaluation, evaluate, pr_to_csv, roc_to_csv

ALGO_LABELS = {
    "adaboost": "AdaBoost",
    "gbm": "Gradient Boosting",
    "xgboost": "XGBoost",
    "catboost": "CatBoost",
}

PAPER_PRESET_N = 250
PAPER_PRESET_TEST_ROWS = 48

# The order jobs are claimed in, longest fit first on the paper preset and on
# default parameters; the caller keeps the first.
JOB_ORDER = ("catboost", "xgboost", "gbm", "adaboost")


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
        synthetic=SyntheticSpec(n=PAPER_PRESET_N),
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
    return config.synthetic.draw(config.seed, config.schema)


def _claimed(claims: int, kept=()):
    """The algorithms of the kept jobs, then of each job claimed from the
    claims pipe, one byte (a JOB_ORDER index) at a time, until the pipe is
    empty and its write end closed. A job is claimed only when the one
    before it is done."""
    yield from kept
    while claim := os.read(claims, 1):
        yield JOB_ORDER[claim[0]]


def _run_jobs(algorithms, train: Dataset, test: Dataset, params: dict[str, BoostParams]) -> dict:
    """Each algorithm's job outcome: the training accuracy and the test
    scores of its fitted model, or the exception its fit or scoring raised.
    A failed job does not stop the loop, so every job runs."""
    outcomes = {}
    for algo in algorithms:
        try:
            model = fit(algo, train, params[algo])
            train_accuracy = float((predict_labels(model, train) == train.labels).mean())
            outcomes[algo] = train_accuracy, predict_scores(model, test)
        except Exception as exc:  # raised by run_benchmark, in ALGORITHMS order
            outcomes[algo] = exc
    return outcomes


def _run_in_child(
    claims: int, write_fd: int, train: Dataset, test: Dataset, params: dict[str, BoostParams]
) -> NoReturn:
    """The forked child's whole life: claim jobs until the queue is empty,
    pickle their outcomes to write_fd, and leave by os._exit, which returns
    into none of the caller's code and runs no exit handler. The exit code
    is 0 only once everything is sent. A pickled exception keeps its type
    and message, not its traceback; a run on one CPU shows that."""
    code = 1
    try:
        outcomes = _run_jobs(_claimed(claims), train, test, params)
        with os.fdopen(write_fd, "wb") as pipe:
            pickle.dump(outcomes, pipe, pickle.HIGHEST_PROTOCOL)
        code = 0
    finally:
        os._exit(code)


def _can_fork() -> bool:
    """Whether a forked child can run jobs beside the caller: fork exists,
    the process may run on two CPUs or more, and it runs no other thread."""
    return (
        hasattr(os, "fork")
        and hasattr(os, "sched_getaffinity")
        and len(os.sched_getaffinity(0)) > 1
        and threading.active_count() == 1
    )


def _run_all(train: Dataset, test: Dataset, params: dict[str, BoostParams]) -> dict:
    """Every job's outcome, as _run_jobs gives it. The caller keeps the
    first job of JOB_ORDER and then claims from the queue, which holds the
    rest, beside a forked child when _can_fork() and os.fork succeeds, else
    alone. The queue's write end is closed before the fork: were the child
    to keep a copy, its last read would never see the end of the pipe."""
    claims, queue = os.pipe()
    try:
        os.write(queue, bytes(range(1, len(JOB_ORDER))))
    finally:
        os.close(queue)
    caller_jobs = _claimed(claims, JOB_ORDER[:1])
    try:
        if not _can_fork():
            return _run_jobs(caller_jobs, train, test, params)
        read_fd, write_fd = os.pipe()
        try:
            pid = os.fork()
        except OSError:  # EAGAIN or ENOMEM: no child, so the caller runs every job
            os.close(read_fd)
            os.close(write_fd)
            return _run_jobs(caller_jobs, train, test, params)
        if pid == 0:
            _run_in_child(claims, write_fd, train, test, params)
        os.close(write_fd)
        with os.fdopen(read_fd, "rb") as pipe:
            try:
                outcomes = _run_jobs(caller_jobs, train, test, params)
                payload = pipe.read()
            except BaseException:  # an interrupt, an exit or a failed read: the child's jobs are not wanted
                os.kill(pid, signal.SIGKILL)
                raise
            finally:
                code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    finally:
        os.close(claims)
    if code != 0:
        missing = ", ".join(a for a in ALGORITHMS if a not in outcomes)
        raise ChildProcessError(f"the {missing} fit process exited with code {code}")
    return {**pickle.loads(payload), **outcomes}


def run_benchmark(config: BenchmarkConfig, out_dir=None) -> BenchmarkReport:
    """Train the four boosters on one split; optionally write all report files.

    The four jobs (each a fit, its training accuracy and its test scores)
    run as the module docstring says: shared by this process and one forked
    child through a claim queue, or all here. The test scores are then
    evaluated by metrics.evaluate at each model's threshold in ALGORITHMS
    order, and the first algorithm whose job failed raises its error. A
    split of one class is SingleClassDataset, before any fit."""
    data = _load_source(config)
    train, test = split(data, SplitSpec(config.test_fraction, config.seed))
    for name, rows in (("train", train), ("test", test)):
        if (positives := int(rows.labels.sum())) in (0, rows.n_rows):  # no fit: no score could be evaluated
            counts = f"{rows.n_rows - positives} of class 0 and {positives} of class 1"
            raise SingleClassDataset(f"the {name} split of {rows.n_rows} rows holds one class: {counts}")
    params = {algo: config.params.get(algo, default_params(algo)) for algo in ALGORITHMS}
    outcomes = _run_all(train, test, params)
    results: dict[str, AlgoResult] = {}
    for algo in ALGORITHMS:
        outcome = outcomes[algo]
        if isinstance(outcome, Exception):
            raise outcome
        train_accuracy, test_scores = outcome
        results[algo] = AlgoResult(train_accuracy, evaluate(test_scores, test.labels, params[algo].threshold))

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
