"""Benchmark harness: train all four boosters on one shared split and report.

Outputs per run: report.json, table.txt, table.csv, and a ROC + PR curve CSV
per algorithm (8 curve files). Everything except the report timestamp is
byte-deterministic for a fixed config.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from ._fileio import atomic_write_text
from .boost import ALGORITHMS, BoostParams, default_params, fit, paper_preset, predict_labels, predict_scores
from .dataset import (
    Dataset,
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    infer_schema,
    load_csv,
    pcos_default_schema,
    split,
    synthesize,
)
from .metrics import ConfusionMatrix, CurveSeries, MetricScores, confusion, pr_curve, pr_to_csv, roc_curve, roc_to_csv

ALGO_LABELS = {
    "adaboost": "AdaBoost",
    "gbm": "Gradient Boosting",
    "xgboost": "XGBoost",
    "catboost": "CatBoost",
}

PAPER_PRESET_N = 250
PAPER_PRESET_TEST_ROWS = 48
PAPER_PRESET_SIGNAL = 2.0


@dataclass(frozen=True)
class BenchmarkConfig:
    """Exactly one of csv_path / synthetic must be set."""

    csv_path: str | None = None
    synthetic: SyntheticSpec | None = None
    schema: FeatureSchema | None = None
    label_column: str = "pcos"
    test_fraction: float = 0.2
    seed: int = 42
    threshold: float = 0.5
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
    test_accuracy: float
    confusion: ConfusionMatrix
    scores: MetricScores
    auc: float
    roc: CurveSeries
    pr: CurveSeries


@dataclass
class BenchmarkReport:
    results: dict[str, AlgoResult]
    seed: int
    n_train: int
    n_test: int
    timestamp: str

    def to_dict(self, include_timestamp: bool = True) -> dict:
        meta = {"seed": self.seed, "n_train": self.n_train, "n_test": self.n_test}
        if include_timestamp:
            meta["timestamp"] = self.timestamp
        return {
            "metadata": meta,
            "algorithms": {
                algo: {
                    "train_accuracy": r.train_accuracy,
                    "test_accuracy": r.test_accuracy,
                    "confusion": r.confusion.to_dict(),
                    "metrics": r.scores.to_dict(),
                    "auc": r.auc,
                }
                for algo, r in self.results.items()
            },
        }


def _load_source(config: BenchmarkConfig) -> Dataset:
    if config.csv_path is not None:
        schema = config.schema
        if schema is None:
            schema = infer_schema(config.csv_path, config.label_column)
        return load_csv(config.csv_path, schema)
    schema = config.schema if config.schema is not None else pcos_default_schema()
    spec = config.synthetic
    return synthesize(schema, spec.n, config.seed, spec.signal_strength, spec.missing_rate)


def run_benchmark(config: BenchmarkConfig, out_dir=None) -> BenchmarkReport:
    """Train the four boosters on one split; optionally write all report files."""
    data = _load_source(config)
    train, test = split(data, SplitSpec(config.test_fraction, config.seed))

    results: dict[str, AlgoResult] = {}
    for algo in ALGORITHMS:
        params = config.params.get(algo, default_params(algo))
        model = fit(algo, train, params)
        train_pred = predict_labels(model, train, config.threshold)
        test_pred = predict_labels(model, test, config.threshold)
        test_scores = predict_scores(model, test)
        cm = confusion(test_pred, test.labels)
        roc = roc_curve(test_scores, test.labels)
        results[algo] = AlgoResult(
            train_accuracy=float((train_pred == train.labels).mean()),
            test_accuracy=float((test_pred == test.labels).mean()),
            confusion=cm,
            scores=MetricScores.from_confusion(cm),
            auc=roc.auc,
            roc=roc,
            pr=pr_curve(test_scores, test.labels),
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
    atomic_write_text(out / "report.json", json.dumps(report.to_dict(), indent=2) + "\n")
    atomic_write_text(out / "table.txt", render_table(report))
    atomic_write_text(out / "table.csv", render_table_csv(report))
    for algo, r in report.results.items():
        atomic_write_text(out / f"roc_{algo}.csv", roc_to_csv(r.roc))
        atomic_write_text(out / f"pr_{algo}.csv", pr_to_csv(r.pr))


def _fmt(value: float | None, digits: int = 4) -> str:
    return "NA" if value is None else f"{value:.{digits}f}"


def _table_rows(report: BenchmarkReport) -> list[list[str]]:
    header = ["Algorithm", "Train%", "Test%", "FN", "FP", "Precision", "Recall", "F-Score", "AUC"]
    rows = [header]
    for algo, r in report.results.items():
        rows.append(
            [
                ALGO_LABELS[algo],
                f"{100.0 * r.train_accuracy:.2f}",
                f"{100.0 * r.test_accuracy:.2f}",
                str(r.confusion.fn),
                str(r.confusion.fp),
                _fmt(r.scores.precision),
                _fmt(r.scores.recall),
                _fmt(r.scores.f_score),
                _fmt(r.auc),
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
