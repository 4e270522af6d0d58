"""bench.py called directly: the paper preset, config validation, the result
tables and an in-memory run. The CLI tests cover compare end to end."""

import json
import os
import threading
import time
from dataclasses import replace

import pytest

from boostlab import bench
from boostlab.bench import (
    ALGO_LABELS,
    BenchmarkConfig,
    paper_preset_config,
    render_table,
    render_table_csv,
    run_benchmark,
)
from boostlab.boost import ALGORITHMS, BoostParams, default_params, paper_preset
from boostlab.dataset import SplitSpec, SyntheticSpec, pcos_default_schema, split, synthesize


@pytest.fixture(scope="module")
def report():
    config = BenchmarkConfig(
        synthetic=SyntheticSpec(n=60),
        params={a: replace(default_params(a), n_rounds=2) for a in ALGORITHMS},
    )
    return run_benchmark(config)


def test_paper_preset_config_is_250_rows_with_48_test_rows():
    config = paper_preset_config(seed=7)
    assert config.synthetic.n == 250
    assert config.seed == 7
    assert config.params == {a: paper_preset(a) for a in ALGORITHMS}
    spec = config.synthetic
    data = synthesize(pcos_default_schema(), spec.n, config.seed, spec.signal_strength)
    _, test = split(data, SplitSpec(config.test_fraction, config.seed))
    assert test.n_rows == 48


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({}, "exactly one data source"),
        ({"csv_path": "data.csv", "synthetic": SyntheticSpec(n=60)}, "exactly one data source"),
        ({"synthetic": SyntheticSpec(n=60), "params": {"lightgbm": BoostParams()}}, "unknown algorithm"),
    ],
)
def test_config_rejects(kwargs, message):
    with pytest.raises(ValueError, match=message):
        BenchmarkConfig(**kwargs)


def test_tables_print_na_for_an_undefined_score(report):
    gbm = report.results["gbm"]
    gbm = replace(gbm, scores=replace(gbm.scores, precision=None))
    report = replace(report, results={**report.results, "gbm": gbm})
    labels = [ALGO_LABELS[a] for a in ALGORITHMS]
    text_rows = render_table(report).splitlines()[2:]  # below the header and its rule
    csv_rows = [row.split(",") for row in render_table_csv(report).splitlines()[1:]]
    assert [row.split("  ")[0] for row in text_rows] == labels
    assert [row[0] for row in csv_rows] == labels
    gbm_row = ALGORITHMS.index("gbm")
    assert csv_rows[gbm_row][5] == "NA"  # the Precision column
    assert text_rows[gbm_row].split()[-4] == "NA"  # Precision, Recall, F-Score, AUC


def test_run_without_out_dir_writes_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    config = BenchmarkConfig(
        synthetic=SyntheticSpec(n=40),
        params={a: replace(default_params(a), n_rounds=1) for a in ALGORITHMS},
    )
    report = run_benchmark(config)
    assert list(report.results) == list(ALGORITHMS)
    assert list(tmp_path.iterdir()) == []


def small_config():
    return BenchmarkConfig(
        synthetic=SyntheticSpec(n=60),
        params={a: replace(default_params(a), n_rounds=2) for a in ALGORITHMS},
    )


def report_files(out_dir):
    """The text of each report file, the report's timestamp taken out."""
    files = {p.name: p.read_text() for p in out_dir.iterdir()}
    report = json.loads(files["report.json"])
    del report["metadata"]["timestamp"]
    files["report.json"] = report
    return files


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture
def forks(monkeypatch):
    """Two CPUs whatever the host has, and the calls to os.fork counted."""
    calls = []
    fork = os.fork

    def counted_fork():
        calls.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
    monkeypatch.setattr(os, "fork", counted_fork)
    return calls


bench_fit = bench.fit


def fit_failing(*failing):
    """bench.fit, but each algorithm in failing raises ValueError(algorithm)."""

    def fit(algo, train, params):
        if algo in failing:
            raise ValueError(algo)
        return bench_fit(algo, train, params)

    return fit


@pytest.mark.parametrize("serial", ["one CPU", "no sched_getaffinity", "no fork", "another thread"])
def test_serial_runs_write_what_the_forked_run_writes(tmp_path, monkeypatch, forks, serial):
    run_benchmark(small_config(), tmp_path / "forked")
    assert len(forks) == 1
    assert_no_child_left()
    if serial == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif serial == "no sched_getaffinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    elif serial == "no fork":
        monkeypatch.delattr(os, "fork")
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait) if serial == "another thread" else None
    if thread is not None:
        thread.start()
    try:
        run_benchmark(small_config(), tmp_path / "serial")
    finally:
        stop.set()
        if thread is not None:
            thread.join(timeout=10)
    assert thread is None or not thread.is_alive()
    assert len(forks) == 1
    assert report_files(tmp_path / "serial") == report_files(tmp_path / "forked")
    assert list(report_files(tmp_path / "forked")["report.json"]["algorithms"]) == list(ALGORITHMS)


@pytest.mark.parametrize("forked", [True, False])
@pytest.mark.parametrize(
    "failing, raised",
    [
        (("gbm", "catboost"), "gbm"),
        (("catboost",), "catboost"),
        (("adaboost", "xgboost"), "adaboost"),
        (("xgboost", "catboost"), "xgboost"),
    ],
)
def test_the_earliest_failing_algorithm_raises(monkeypatch, forks, forked, failing, raised):
    # as a serial loop would, whichever process hit its error first
    if not forked:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(bench, "fit", fit_failing(*failing))
    with pytest.raises(ValueError) as excinfo:
        run_benchmark(small_config())
    assert str(excinfo.value) == raised
    assert len(forks) == int(forked)
    assert_no_child_left()


def test_no_child_is_left_after_a_run_or_a_failed_fit(monkeypatch, forks):
    run_benchmark(small_config())
    assert_no_child_left()
    monkeypatch.setattr(bench, "fit", fit_failing("gbm"))
    with pytest.raises(ValueError, match="gbm"):
        run_benchmark(small_config())
    assert len(forks) == 2
    assert_no_child_left()


def test_a_child_that_ends_without_its_models_is_an_error(monkeypatch, forks):
    def fit(algo, train, params):
        if algo == "gbm":
            os._exit(3)
        return bench_fit(algo, train, params)

    monkeypatch.setattr(bench, "fit", fit)
    with pytest.raises(ChildProcessError, match="adaboost, gbm, xgboost fit process exited with code 3"):
        run_benchmark(small_config())
    assert_no_child_left()


@pytest.mark.parametrize("exc", [KeyboardInterrupt, SystemExit])
def test_an_interrupt_kills_the_child_before_reaping_it(monkeypatch, forks, exc):
    def fit(algo, train, params):
        if algo == "catboost":
            raise exc(algo)
        time.sleep(30)  # the child would take this long, if it were waited for

    monkeypatch.setattr(bench, "fit", fit)
    started = time.monotonic()
    with pytest.raises(exc):
        run_benchmark(small_config())
    assert time.monotonic() - started < 20
    assert_no_child_left()
