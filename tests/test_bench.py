"""bench.py called directly: the params-key check, the result tables and an
in-memory run. The CLI tests cover compare end to end, the paper preset too."""

import errno
import json
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from boostlab import bench
from boostlab.bench import ALGO_LABELS, render_table, render_table_csv, run_benchmark
from boostlab.boost import ALGORITHMS, BoostParams, default_params, fit, predict_scores
from boostlab.dataset import SplitSpec, SyntheticSpec, split
from boostlab.metrics import evaluate


@pytest.fixture(scope="module")
def report():
    return run_benchmark(*small_config())


def must_not_fit(*args, **kwargs):
    raise AssertionError("a booster was fitted")


@pytest.mark.parametrize("edit", ["unknown-key", "missing-key"])
def test_params_must_have_exactly_the_algorithms_as_keys(monkeypatch, edit):
    data, spec, params = small_config()
    if edit == "unknown-key":
        params["lightgbm"] = BoostParams()
    else:
        del params["gbm"]
    monkeypatch.setattr(bench, "fit", must_not_fit)
    with pytest.raises(ValueError, match="^params must have exactly the keys"):
        run_benchmark(data, spec, params)


def test_tables_print_na_for_an_undefined_score(report):
    gbm = report.results["gbm"]
    gbm = replace(gbm, test=replace(gbm.test, scores=replace(gbm.test.scores, precision=None)))
    report = replace(report, results={**report.results, "gbm": gbm})
    labels = [ALGO_LABELS[a] for a in ALGORITHMS]
    text_rows = render_table(report).splitlines()[2:]  # below the header and its rule
    csv_rows = [row.split(",") for row in render_table_csv(report).splitlines()[1:]]
    assert [row.split("  ")[0] for row in text_rows] == labels
    assert [row[0] for row in csv_rows] == labels
    gbm_row = ALGORITHMS.index("gbm")
    assert csv_rows[gbm_row][5] == "NA"  # the Precision column
    assert text_rows[gbm_row].split()[-4] == "NA"  # Precision, Recall, F-Score, AUC


def test_each_result_is_the_evaluation_of_its_test_scores(report):
    data, spec, all_params = small_config()
    train, test = split(data, spec)
    written = report.to_dict()["algorithms"]
    for algo, r in report.results.items():
        params = all_params[algo]
        expected = evaluate(predict_scores(fit(algo, train, params), test), test.labels, params.threshold)
        assert r.test.to_dict() == expected.to_dict()
        assert r.test.roc.points == expected.roc.points and r.test.pr.points == expected.pr.points
        entry = written[algo]
        assert list(entry) == ["train_accuracy", "test_accuracy", "confusion", "metrics", "auc"]
        assert entry["test_accuracy"] == entry["metrics"]["accuracy"]
        x, y = r.test.roc.x, r.test.roc.y
        assert entry["auc"] == pytest.approx(float(np.sum(np.diff(x) * (y[1:] + y[:-1]) / 2)), abs=1e-15)


def test_run_without_out_dir_writes_no_files(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    params = {a: replace(default_params(a), n_rounds=1) for a in ALGORITHMS}
    report = run_benchmark(SyntheticSpec(n=40).draw(42), SplitSpec(0.2, 42), params)
    assert list(report.results) == list(ALGORITHMS)
    assert list(tmp_path.iterdir()) == []


def small_config():
    """The rows, the split and the params of a small run."""
    params = {a: replace(default_params(a), n_rounds=2) for a in ALGORITHMS}
    return SyntheticSpec(n=60).draw(42), SplitSpec(0.2, 42), params


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


def fork_fails():
    raise BlockingIOError(errno.EAGAIN, os.strerror(errno.EAGAIN))


@pytest.mark.parametrize("serial", ["one CPU", "no sched_getaffinity", "no fork", "another thread", "fork fails"])
def test_serial_runs_write_what_the_forked_run_writes(tmp_path, monkeypatch, forks, serial):
    run_benchmark(*small_config(), tmp_path / "forked")
    assert len(forks) == 1
    assert_no_child_left()
    if serial == "one CPU":
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif serial == "no sched_getaffinity":
        monkeypatch.delattr(os, "sched_getaffinity")
    elif serial == "no fork":
        monkeypatch.delattr(os, "fork")
    elif serial == "fork fails":
        monkeypatch.setattr(os, "fork", fork_fails)
    pipe_fds = []
    pipe = os.pipe

    def recorded_pipe():
        fds = pipe()
        pipe_fds.extend(fds)
        return fds

    monkeypatch.setattr(os, "pipe", recorded_pipe)
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait) if serial == "another thread" else None
    if thread is not None:
        thread.start()
    try:
        run_benchmark(*small_config(), tmp_path / "serial")
    finally:
        stop.set()
        if thread is not None:
            thread.join(timeout=10)
    assert thread is None or not thread.is_alive()
    assert len(forks) == 1
    for fd in pipe_fds:  # the serial run leaks no end of its pipes
        with pytest.raises(OSError, match="Bad file descriptor"):
            os.fstat(fd)
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
        (("adaboost", "xgboost", "catboost"), "adaboost"),  # the last job claimed: each process claims past its error
    ],
)
def test_the_earliest_failing_algorithm_raises(monkeypatch, forks, forked, failing, raised):
    # as a serial loop would, whichever process hit its error first
    if not forked:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    monkeypatch.setattr(bench, "fit", fit_failing(*failing))
    with pytest.raises(ValueError) as excinfo:
        run_benchmark(*small_config())
    assert str(excinfo.value) == raised
    assert len(forks) == int(forked)
    assert_no_child_left()


def test_no_child_is_left_after_a_run_or_a_failed_fit(monkeypatch, forks):
    run_benchmark(*small_config())
    assert_no_child_left()
    monkeypatch.setattr(bench, "fit", fit_failing("gbm"))
    with pytest.raises(ValueError, match="gbm"):
        run_benchmark(*small_config())
    assert len(forks) == 2
    assert_no_child_left()


class JobLog:
    """The (algorithm, pid) of each fit, in the order the fits started, in a
    file both processes append to by one O_APPEND write per fit."""

    def __init__(self, path):
        self.path = path
        path.touch()

    def record(self, algo):
        fd = os.open(self.path, os.O_WRONLY | os.O_APPEND)
        try:
            os.write(fd, f"{algo} {os.getpid()}\n".encode())
        finally:
            os.close(fd)

    def entries(self):
        return [(algo, int(pid)) for algo, pid in map(str.split, self.path.read_text().splitlines())]

    def wait_for(self, done, timeout=20.0):
        """Return once done(entries) holds; raise TimeoutError after timeout seconds."""
        deadline = time.monotonic() + timeout
        while not done(self.entries()):
            if time.monotonic() > deadline:
                raise TimeoutError(f"job log: {self.entries()}")
            time.sleep(0.005)


def logged_fit(log, before=lambda algo, in_caller: None):
    """bench.fit, but each call is first logged, then runs before(algo, in_caller)."""
    caller = os.getpid()

    def fit(algo, train, params):
        log.record(algo)
        before(algo, os.getpid() == caller)
        return bench_fit(algo, train, params)

    return fit


def jobs_by_process(log):
    """The caller's algorithms and the other processes', each in the order they ran."""
    mine = [algo for algo, pid in log.entries() if pid == os.getpid()]
    theirs = [(algo, pid) for algo, pid in log.entries() if pid != os.getpid()]
    assert len({pid for _, pid in theirs}) <= 1
    return mine, [algo for algo, _ in theirs]


@pytest.mark.parametrize("start", ["forked", "the child claims first", "one CPU"])
def test_each_job_runs_once_and_the_caller_runs_catboost(tmp_path, monkeypatch, forks, start):
    forked = start != "one CPU"
    log = JobLog(tmp_path / "jobs")
    if not forked:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})
    elif start == "the child claims first":
        fork = os.fork

        def fork_then_wait():  # the caller goes on once the child's first job has started
            pid = fork()
            if pid:
                log.wait_for(lambda entries: len(entries) > 0)
            return pid

        monkeypatch.setattr(os, "fork", fork_then_wait)
    monkeypatch.setattr(bench, "fit", logged_fit(log))
    report = run_benchmark(*small_config())
    assert list(report.results) == list(ALGORITHMS)
    assert sorted(bench.JOB_ORDER) == sorted(ALGORITHMS)
    assert sorted(algo for algo, _ in log.entries()) == sorted(ALGORITHMS)
    caller, child = jobs_by_process(log)
    assert caller[0] == "catboost"
    assert [a for a in bench.JOB_ORDER if a in child] == child  # each process claims in JOB_ORDER
    assert [a for a in bench.JOB_ORDER if a in caller] == caller
    if not forked:
        assert caller == list(bench.JOB_ORDER)
    assert len(forks) == int(forked)
    assert_no_child_left()


def test_the_child_runs_the_other_jobs_while_the_callers_catboost_fit_is_slow(tmp_path, monkeypatch, forks):
    log = JobLog(tmp_path / "jobs")

    def before(algo, in_caller):
        if in_caller:  # catboost, until the child has claimed every other job
            log.wait_for(lambda entries: sum(pid != os.getpid() for _, pid in entries) == 3)

    monkeypatch.setattr(bench, "fit", logged_fit(log, before))
    run_benchmark(*small_config())
    assert jobs_by_process(log) == (["catboost"], ["xgboost", "gbm", "adaboost"])
    assert_no_child_left()


def test_the_caller_runs_the_remaining_jobs_while_the_childs_fits_are_slow(tmp_path, monkeypatch, forks):
    log = JobLog(tmp_path / "jobs")

    def before(algo, in_caller):
        if not in_caller:  # until every job is claimed
            log.wait_for(lambda entries: len(entries) == len(ALGORITHMS))
        elif algo == "catboost":  # until the child has claimed its first job
            log.wait_for(lambda entries: any(pid != os.getpid() for _, pid in entries))

    monkeypatch.setattr(bench, "fit", logged_fit(log, before))
    run_benchmark(*small_config())
    assert jobs_by_process(log) == (["catboost", "gbm", "adaboost"], ["xgboost"])
    assert_no_child_left()


def test_a_child_that_ends_without_its_results_is_an_error(tmp_path, monkeypatch, forks):
    log = JobLog(tmp_path / "jobs")

    def before(algo, in_caller):
        if not in_caller:  # at the child's first claim
            os._exit(3)
        if algo == "catboost":  # until the child has claimed its first job
            log.wait_for(lambda entries: any(pid != os.getpid() for _, pid in entries))

    monkeypatch.setattr(bench, "fit", logged_fit(log, before))
    with pytest.raises(ChildProcessError, match="^the xgboost fit process exited with code 3$"):
        run_benchmark(*small_config())
    assert jobs_by_process(log) == (["catboost", "gbm", "adaboost"], ["xgboost"])
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
        run_benchmark(*small_config())
    assert time.monotonic() - started < 20
    assert_no_child_left()
