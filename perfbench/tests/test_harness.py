"""Tests of the benchmark harness itself: span arithmetic, golden checks, metric names, patching.

    python3 -m pytest perfbench/tests -q
"""

import contextlib
import importlib
import io
import json
import sys

import pytest

import checks
import inputs
import run
import spans

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _span(sid, parent, name, start, end):
    return {"id": sid, "parent": parent, "name": name, "start": start, "end": end}


def test_self_time_subtracts_merged_child_coverage():
    tree = [
        _span(0, None, "cli.compare", 0.0, 10.0),
        _span(1, 0, "boost.fit.gbm", 1.0, 3.0),
        _span(2, 0, "boost.fit.gbm", 2.0, 4.0),  # overlaps span 1: covered once
        _span(3, 0, "metrics.roc_curve", 5.0, 6.0),
        _span(4, 1, "tree.fit_regression_tree", 1.5, 2.5),
        _span(5, 0, "dataset.split", 9.5, 11.0),  # only the part inside the parent counts
    ]
    selfs = spans.self_times(tree)
    assert selfs[0] == pytest.approx(10.0 - 3.0 - 1.0 - 0.5)
    assert selfs[1] == pytest.approx(1.0)
    assert selfs[2] == pytest.approx(2.0)
    assert selfs[4] == pytest.approx(1.0)
    summary = spans.summarize(tree)
    assert summary["boost.fit.gbm"] == {"s": pytest.approx(4.0), "self_s": pytest.approx(3.0), "calls": 2}


def test_recorder_nests_spans_and_rejects_out_of_order_close():
    rec = spans.Recorder("r")
    outer = rec.open("a")
    inner = rec.open("b")
    rec.close(inner)
    rec.close(outer)
    d = rec.to_dict()
    assert [(s["name"], s["parent"]) for s in d["spans"]] == [("a", None), ("b", 0)]
    assert d["run_id"] == "r"
    first = rec.open("c")
    rec.open("d")
    with pytest.raises(RuntimeError):
        rec.close(first)


def test_golden_check_flags_a_one_byte_change(tmp_path):
    (tmp_path / "report.json").write_text('{\n  "seed": 42,\n  "timestamp": "t0"\n}\n')
    (tmp_path / "table.txt").write_text("AUC 0.9000\n")
    expected = {name: checks.digest(tmp_path / name) for name in ("report.json", "table.txt")}
    assert checks.golden_mismatches(tmp_path, expected) == []

    (tmp_path / "report.json").write_text('{\n  "seed": 42,\n  "timestamp": "t1"\n}\n')
    assert checks.golden_mismatches(tmp_path, expected) == [], "the timestamp line is ignored"

    data = bytearray((tmp_path / "table.txt").read_bytes())
    data[-2] ^= 1
    (tmp_path / "table.txt").write_bytes(bytes(data))
    assert checks.golden_mismatches(tmp_path, expected) == ["table.txt: differs from the golden output"]
    (tmp_path / "report.json").unlink()
    assert "report.json: missing" in checks.golden_mismatches(tmp_path, expected)


def test_golden_file_covers_paper_and_serve():
    golden = checks.load_golden()
    assert set(golden["paper"]) == set(checks.COMPARE_FILES)
    assert set(golden["serve"]) == {
        f"{a}/{f}" for a in ("xgboost", "catboost") for f in ("scores.csv", "eval/metrics.json")
    }


def test_inputs_depend_only_on_seed_and_stream():
    rows = inputs.table_rows(5, 0, 300, 0.1)
    assert rows == inputs.table_rows(5, 0, 300, 0.1)
    assert rows != inputs.table_rows(6, 0, 300, 0.1)
    assert rows != inputs.table_rows(5, 1, 300, 0.1)
    cells = [r.split(",") for r in rows]
    assert all(len(c) == len(inputs.HEADER) for c in cells)
    assert {c[-2] for c in cells} == {"0", "1", "2"}, "every activity level occurs"
    assert {c[-1] for c in cells} == {"0", "1"}
    missing = {j for c in cells for j, v in enumerate(c) if v == ""}
    assert missing == {0, 1}, "only the numeric columns have missing cells"


def _fake_unit(wall):
    return {"wall_s": wall, "speed": 1.0, "output_bytes": 100, "rows_scored": 10, "attempted": 1, "failed": 0, "auc": {}}


def test_emitted_metric_names_are_declared_in_benchmark_json():
    declared_e2e = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    declared_layer = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert run.END_TO_END == declared_e2e
    assert run.PER_LAYER == declared_layer

    tree = [_span(0, None, "cli.predict", 0.0, 2.0), _span(1, 0, "tree.fit_oblivious_tree", 0.5, 1.0)]
    traced = dict(_fake_unit(2.5), trace={"summary": spans.summarize(tree), "counts": {}})
    units = [{"peak_rss_mb": 50.0, "record": _fake_unit(2.0), "traced": traced}]
    e2e = run.metrics_of(units, [0.1, 0.2, 0.3], trace=False)
    layer = run.metrics_of(units, [0.1], trace=True)
    assert set(e2e) == set(declared_e2e)
    assert set(layer) == set(declared_layer)
    assert layer["trace.overhead"] == pytest.approx(1.25)
    assert layer["trace.residual_s"] == pytest.approx(0.5)
    for line in (run.summary_line({**_full(e2e), "trace": 0}), run.summary_line({**_full(layer), "trace": 1})):
        emitted = json.loads(line)
        assert set(emitted) == {"correct", "attempted", "failed", "metrics"}
        assert set(emitted["metrics"]) <= set(declared_e2e) | set(declared_layer)


def _full(metrics):
    return {"correct": True, "attempted": 1, "failed": 0, "metrics": metrics}


def _bindings():
    """Every module attribute, class method and CLI table entry the tracer may replace."""
    import boostlab.cli  # noqa: F401  (loads every boostlab module)

    out = {}
    for name, module in sys.modules.items():
        if name == "boostlab" or name.startswith("boostlab."):
            for attr, value in vars(module).items():
                if callable(value):
                    out[(name, attr)] = value
    tree = sys.modules["boostlab.tree"]
    for cls in ("RegressionTree", "ObliviousTree"):
        out[("boostlab.tree", cls + ".predict")] = vars(getattr(tree, cls))["predict"]
    out.update({("cli._COMMANDS", k): v for k, v in sys.modules["boostlab.cli"]._COMMANDS.items()})
    return out


def test_span_wrappers_restore_the_original_functions():
    before = _bindings()
    rec = spans.Recorder("r")
    patches, missing = spans.install(rec)
    try:
        assert missing == []
        during = _bindings()
        changed = {k for k in before if during[k] is not before[k]}
        assert ("boostlab.boost", "fit_oblivious_tree") in changed
        assert ("boostlab.cli", "load_model") in changed
        assert ("boostlab.tree", "ObliviousTree.predict") in changed
        assert ("cli._COMMANDS", "compare") in changed
    finally:
        patches.restore()
    after = _bindings()
    assert all(after[k] is before[k] for k in before)


def test_traced_compare_records_nested_layer_spans(tmp_path):
    cli = importlib.import_module("boostlab.cli")
    rec = spans.Recorder("r")
    patches, _ = spans.install(rec)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            rc = cli.main(["compare", "--synthetic", "--n", "60", "--rounds", "2", "--out", str(tmp_path)])
    finally:
        patches.restore()
    assert rc == 0
    summary = spans.summarize(rec.to_dict()["spans"])
    assert summary["cli.compare"]["calls"] == 1
    for name in ("bench.run_benchmark", "boost.fit.catboost", "tree.fit_oblivious_tree", "metrics.roc_curve"):
        assert summary[name]["calls"] >= 1, name
    assert summary["tree.fit_oblivious_tree"]["calls"] == 2
    total_self = sum(v["self_s"] for v in summary.values())
    assert total_self == pytest.approx(summary["cli.compare"]["s"], rel=1e-9)
    assert 0 < rec.counts["tree.oblivious.leaves"] <= rec.counts["tree.oblivious.leaf_slots"]
    assert rec.counts["fileio.atomic_write_text.bytes"] > 0
