"""bench.py called directly: the paper preset, config validation, the result
tables and an in-memory run. The CLI tests cover compare end to end."""

from dataclasses import replace

import pytest

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
