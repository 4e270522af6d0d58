"""The command line through cli.main: every subcommand and the exit-code contract.

0 is success (and --help), 1 a usage error with a usage line, 2 a data or
model error reported on exactly one stderr line.
"""

import builtins
import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import csv_reader_oracle
import pytest

import boostlab
from boostlab import bench, cli, dataset
from boostlab.boost import load_model, predict_scores
from boostlab.cli import SCORES_SCHEMA, TRUTH_SCHEMA
from boostlab.dataset import infer_schema, load_csv, load_features_csv, load_labels_csv, pcos_default_schema
from boostlab.errors import BoostlabError
from boostlab.metrics import evaluate, pr_to_csv, roc_to_csv

ALGOS = ("adaboost", "gbm", "xgboost", "catboost")


@pytest.fixture(autouse=True)
def _no_env_seed(monkeypatch):
    monkeypatch.delenv("BOOSTLAB_SEED", raising=False)


def run(capsys, *argv):
    code = cli.main([str(a) for a in argv])
    out, err = capsys.readouterr()
    return code, out, err


def train(capsys, algo, data, model, *extra):
    return run(capsys, "train", "--algo", algo, "--data", data, "--model-out", model, *extra)


@pytest.fixture
def data_csv(tmp_path, capsys):
    path = tmp_path / "data.csv"
    assert run(capsys, "synth", "--n", 80, "--seed", 3, "--out", path)[0] == 0
    return path


@pytest.fixture
def model_file(tmp_path, capsys, data_csv):
    path = tmp_path / "model.json"
    assert train(capsys, "xgboost", data_csv, path, "--rounds", 3)[0] == 0
    return path


@pytest.fixture
def scores_csv(tmp_path, capsys, data_csv, model_file):
    path = tmp_path / "scores.csv"
    code, _, _ = run(
        capsys, "predict", "--model", model_file, "--data", data_csv, "--scores-out", path
    )
    assert code == 0
    return path


def read_column(path):
    lines = path.read_text().splitlines()
    return lines[0], lines[1:]


class TestSuccess:
    def test_help_exits_zero(self, capsys):
        code, out, _ = run(capsys, "--help")
        assert code == 0 and "train" in out
        code, out, _ = run(capsys, "compare", "--help")
        assert code == 0 and "--test-fraction" in out

    def test_synth_writes_rows(self, data_csv):
        header, rows = read_column(data_csv)
        assert header.endswith(",pcos") and len(rows) == 80

    def test_output_mode_follows_umask(self, tmp_path, capsys):
        path = tmp_path / "s.csv"
        old = os.umask(0o022)
        try:
            assert run(capsys, "synth", "--n", 20, "--out", path)[0] == 0
        finally:
            os.umask(old)
        assert stat.S_IMODE(path.stat().st_mode) == 0o644
        assert [p.name for p in tmp_path.iterdir()] == ["s.csv"]

    @pytest.mark.parametrize("algo", ALGOS)
    def test_train_writes_model(self, tmp_path, capsys, data_csv, algo):
        path = tmp_path / f"{algo}.json"
        code, out, _ = train(capsys, algo, data_csv, path, "--rounds", 2)
        assert code == 0 and "trained" in out
        saved = json.loads(path.read_text())
        assert saved["algorithm"] == algo and saved["params"]["n_rounds"] == 2

    def test_predict_writes_one_score_per_row(self, scores_csv):
        header, rows = read_column(scores_csv)
        assert header == "score" and len(rows) == 80
        assert all(0.0 <= float(s) <= 1.0 for s in rows)

    @pytest.mark.parametrize("algo", ALGOS)
    def test_predict_writes_each_score_as_percent_6f(self, tmp_path, capsys, data_csv, algo):
        model, rows, out = tmp_path / "m.json", tmp_path / "rows.csv", tmp_path / "s.csv"
        assert train(capsys, algo, data_csv, model, "--rounds", 3)[0] == 0
        assert run(capsys, "synth", "--n", 1500, "--seed", 5, "--missing-rate", 0.1, "--out", rows)[0] == 0
        assert run(capsys, "predict", "--model", model, "--data", rows, "--scores-out", out)[0] == 0
        fitted = load_model(model)
        scores = predict_scores(fitted, load_csv(rows, fitted.schema))
        assert out.read_text() == "score\n" + "".join("%.6f\n" % s for s in scores.tolist())

    def test_eval_with_data_and_with_truth_agree(self, tmp_path, capsys, data_csv, scores_csv):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code, _, _ = run(capsys, "eval", "--scores", scores_csv, "--data", data_csv, "--out", out_a)
        assert code == 0
        truth = tmp_path / "truth.csv"
        labels = [line.rsplit(",", 1)[1] for line in data_csv.read_text().splitlines()[1:]]
        truth.write_text("label\n" + "\n".join(labels) + "\n")
        code, _, _ = run(capsys, "eval", "--scores", scores_csv, "--truth", truth, "--out", out_b)
        assert code == 0
        for name in ("metrics.json", "roc.csv", "pr.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        metrics = json.loads((out_a / "metrics.json").read_text())
        assert metrics["n"] == 80 and 0.0 <= metrics["auc"] <= 1.0

    def test_eval_writes_the_evaluation_of_its_scores(self, tmp_path, capsys, data_csv, scores_csv):
        out = tmp_path / "ev"
        argv = ("eval", "--scores", scores_csv, "--data", data_csv, "--threshold", 0.3, "--out", out)
        assert run(capsys, *argv)[0] == 0
        result = evaluate(load_features_csv(scores_csv, SCORES_SCHEMA)[:, 0], load_csv(data_csv).labels, 0.3)
        assert json.loads((out / "metrics.json").read_text()) == {"n": 80, "threshold": 0.3, **result.to_dict()}
        assert (out / "roc.csv").read_text() == roc_to_csv(result.roc)
        assert (out / "pr.csv").read_text() == pr_to_csv(result.pr)

    def test_a_byte_order_mark_is_not_part_of_the_first_header_cell(self, tmp_path, capsys, data_csv, scores_csv, model_file):
        # a UTF-8 byte-order mark, as some editors write one, sends a file to
        # csv.reader, which reads it as the file without the mark
        truth = tmp_path / "truth.csv"
        truth.write_text("label\n" + "".join(f"{label}\n" for label in load_csv(data_csv).labels.tolist()))
        copies = {}
        for path in (data_csv, scores_csv, truth):
            copies[path] = tmp_path / f"bom-{path.name}"
            copies[path].write_bytes(b"\xef\xbb\xbf" + path.read_bytes())
        plain, bom = load_csv(data_csv), load_csv(copies[data_csv])
        assert bom.schema == plain.schema == infer_schema(copies[data_csv], "pcos") == infer_schema(data_csv, "pcos")
        assert bom.values.tobytes() == plain.values.tobytes() and bom.labels.tolist() == plain.labels.tolist()
        for algo in ("gbm", "catboost"):
            models = [tmp_path / f"{algo}-{i}.json" for i in (0, 1)]
            for data, model in zip((data_csv, copies[data_csv]), models):
                assert train(capsys, algo, data, model, "--rounds", 2)[0] == 0
            assert models[0].read_bytes() == models[1].read_bytes()
        scores = tmp_path / "bom-scores-out.csv"
        assert run(capsys, "predict", "--model", model_file, "--data", copies[data_csv], "--scores-out", scores)[0] == 0
        assert scores.read_bytes() == scores_csv.read_bytes()
        outputs = []
        for given in ((scores_csv, "--data", data_csv), (scores_csv, "--truth", truth), *(
            (copies[scores_csv], flag, copies[path]) for flag, path in (("--data", data_csv), ("--truth", truth))
        )):
            out = tmp_path / f"ev{len(outputs)}"
            assert run(capsys, "eval", "--scores", given[0], *given[1:], "--out", out)[0] == 0
            outputs.append([(out / f).read_bytes() for f in ("metrics.json", "roc.csv", "pr.csv")])
        assert outputs[1:] == outputs[:1] * 3

    def test_compare_writes_every_report_file(self, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code, out, _ = run(
            capsys, "compare", "--synthetic", "--n", 80, "--rounds", 2, "--out", out_dir
        )
        assert code == 0 and "catboost" in out
        curves = {f"{kind}_{algo}.csv" for kind in ("roc", "pr") for algo in ALGOS}
        expected = {"report.json", "table.txt", "table.csv"} | curves
        assert {p.name for p in out_dir.iterdir()} == expected

    def test_paper_preset_is_250_rows_with_48_test_rows(self, tmp_path, capsys):
        out = tmp_path / "cmp"
        assert run(capsys, "compare", "--synthetic", "--preset", "paper", "--rounds", 1, "--seed", 7, "--out", out)[0] == 0
        meta = json.loads((out / "report.json").read_text())["metadata"]
        assert (meta["n_train"], meta["n_test"], meta["seed"]) == (202, 48, 7)

    @pytest.mark.parametrize("seed", [42, 7])
    def test_compare_data_and_synthetic_agree(self, tmp_path, capsys, seed):
        # the synthetic rows written by synth, read back by compare --data
        data = tmp_path / "paper.csv"
        assert run(capsys, "synth", "--n", 250, "--seed", seed, "--out", data)[0] == 0
        files = []
        for source in (("--data", data), ("--synthetic",)):
            out = tmp_path / source[0].lstrip("-")
            assert run(capsys, "compare", *source, "--preset", "paper", "--seed", seed, "--out", out)[0] == 0
            texts = {p.name: p.read_bytes() for p in out.iterdir()}
            report = texts["report.json"].splitlines()
            texts["report.json"] = [line for line in report if not line.lstrip().startswith(b'"timestamp"')]
            assert len(texts["report.json"]) == len(report) - 1
            files.append(texts)
        assert len(files[0]) == 11 and files[0] == files[1]

    def test_each_data_csv_is_opened_once(self, tmp_path, capsys, data_csv, scores_csv, monkeypatch):
        # csv.reader tokenizes the CRLF copy; the file itself is tokenized from
        # its bytes, and its repr floats, as synth writes them, parsed as texts
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(data_csv.read_bytes().replace(b"\n", b"\r\n"))
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        for data in (data_csv, crlf):
            commands = {
                "train": ["train", "--algo", "gbm", "--data", data, "--rounds", 2,
                          "--model-out", tmp_path / "m.json"],
                "predict": ["predict", "--model", tmp_path / "m.json", "--data", data,
                            "--scores-out", tmp_path / "s.csv"],
                "eval": ["eval", "--scores", scores_csv, "--data", data, "--out", tmp_path / "ev"],
                "compare": ["compare", "--data", data, "--rounds", 2, "--out", tmp_path / "cmp"],
            }
            for name, argv in commands.items():
                opened.clear()
                assert run(capsys, *argv)[0] == 0, (name, data)
                assert opened.count(str(data)) == 1, (name, data)

    def test_integer_valued_decimals_train(self, tmp_path, capsys):
        path = tmp_path / "d.csv"
        path.write_text("a,pcos\n0.0,1\n1.0,0\n")
        assert train(capsys, "gbm", path, tmp_path / "m.json", "--rounds", 2)[0] == 0

    def test_huge_values_split_between_them(self, tmp_path, capsys):
        # their midpoint, computed as (lo + hi) / 2, overflowed to inf and
        # sent every row left, which AdaBoost took for a zero-error stump
        data, model, scores = tmp_path / "d.csv", tmp_path / "m.json", tmp_path / "s.csv"
        data.write_text("a,pcos\n" + "1e308,0\n1.7e308,1\n" * 3)
        assert train(capsys, "adaboost", data, model)[0] == 0
        code, _, _ = run(capsys, "predict", "--model", model, "--data", data, "--scores-out", scores)
        assert code == 0
        by_row = [float(s) for s in read_column(scores)[1]]
        assert max(by_row[0::2]) < 0.5 < min(by_row[1::2])

    def test_catboost_depth_past_the_cap_trains(self, tmp_path, capsys):
        # the first tree of this fit would grow 37 levels, 2**37 leaves
        data = tmp_path / "d.csv"
        assert run(capsys, "synth", "--n", 2000, "--seed", 5, "--missing-rate", 0.1, "--out", data)[0] == 0
        model = tmp_path / "m.json"
        assert train(capsys, "catboost", data, model, "--depth", 40, "--rounds", 2)[0] == 0
        assert max(len(t["levels"]) for t in json.loads(model.read_text())["trees"]) == 16

    def test_env_seed_is_the_default_seed(self, tmp_path, capsys, monkeypatch):
        run(capsys, "synth", "--n", 30, "--seed", 9, "--out", tmp_path / "flag.csv")
        monkeypatch.setenv("BOOSTLAB_SEED", "9")
        run(capsys, "synth", "--n", 30, "--out", tmp_path / "env.csv")
        assert (tmp_path / "flag.csv").read_bytes() == (tmp_path / "env.csv").read_bytes()


def assert_usage_error(code, err, message):
    assert code == 1
    assert "usage:" in err and message in err
    assert "Traceback" not in err


class TestUsageErrors:
    def test_unknown_flag(self, capsys):
        code, _, err = run(capsys, "synth", "--n", 5, "--out", "x.csv", "--bogus")
        assert_usage_error(code, err, "unrecognized arguments")

    def test_missing_required_flag(self, capsys):
        code, _, err = run(capsys, "train", "--algo", "gbm")
        assert_usage_error(code, err, "--data")

    def test_negative_seed(self, tmp_path, capsys, data_csv):
        code, _, err = train(capsys, "gbm", data_csv, tmp_path / "m.json", "--seed", -1)
        assert_usage_error(code, err, "seed must be non-negative")

    def test_negative_rounds(self, tmp_path, capsys, data_csv):
        code, _, err = train(capsys, "gbm", data_csv, tmp_path / "m.json", "--rounds", -1)
        assert_usage_error(code, err, "n_rounds must be >= 0")

    def test_test_fraction_outside_unit_interval(self, tmp_path, capsys):
        code, _, err = run(
            capsys, "compare", "--synthetic", "--test-fraction", 2, "--out", tmp_path
        )
        assert_usage_error(code, err, "test_fraction must lie in (0, 1)")

    def test_eval_threshold_outside_unit_interval(self, tmp_path, capsys, data_csv, scores_csv):
        code, _, err = run(
            capsys, "eval", "--scores", scores_csv, "--data", data_csv, "--out", tmp_path,
            "--threshold", 7,
        )
        assert_usage_error(code, err, "threshold must lie in (0, 1)")

    @pytest.mark.parametrize(
        "argv, message",
        [
            pytest.param(("synth", "--n", 1), "n must be >= 2", id="synth-n-1"),
            pytest.param(("synth", "--n", 0), "n must be >= 2", id="synth-n-0"),
            pytest.param(
                ("synth", "--n", 30, "--signal-strength", -1),
                "signal_strength must be >= 0",
                id="synth-signal-strength--1",
            ),
            pytest.param(
                ("synth", "--n", 30, "--signal-strength", "nan"),
                "signal_strength must be >= 0",
                id="synth-signal-strength-nan",
            ),
            pytest.param(
                ("synth", "--n", 30, "--missing-rate", 2),
                "missing_rate must lie in [0, 1)",
                id="synth-missing-rate-2",
            ),
            pytest.param(("compare", "--synthetic", "--n", 1), "n must be >= 2", id="compare-n-1"),
            pytest.param(
                ("compare", "--synthetic", "--missing-rate", 2),
                "missing_rate must lie in [0, 1)",
                id="compare-missing-rate-2",
            ),
            pytest.param(
                ("compare", "--data", "d.csv", "--n", 5, "--missing-rate", 0.5),
                "--n, --signal-strength and --missing-rate need --synthetic",
                id="compare-synthetic-flags-with-data",
            ),
        ],
    )
    def test_synthetic_value_out_of_range(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--out", out)
        assert_usage_error(code, err, message)
        assert not out.exists()

    @pytest.mark.parametrize("source", [("--synthetic", "--data", "d.csv"), ()], ids=["both", "neither"])
    def test_compare_takes_exactly_one_data_source(self, tmp_path, capsys, monkeypatch, source):
        monkeypatch.setattr(cli, "run_benchmark", _must_not_run)
        out = tmp_path / "out"
        code, _, err = run(capsys, "compare", *source, "--out", out)
        assert_usage_error(code, err, "--synthetic")
        assert not out.exists()

    def test_env_seed_not_an_integer(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BOOSTLAB_SEED", "abc")
        code, _, err = run(capsys, "synth", "--n", 30, "--out", tmp_path / "d.csv")
        assert_usage_error(code, err, "BOOSTLAB_SEED: invalid int value: 'abc'")
        assert not (tmp_path / "d.csv").exists()

    def test_env_seed_negative(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setenv("BOOSTLAB_SEED", "-1")
        code, _, err = run(capsys, "compare", "--synthetic", "--out", tmp_path)
        assert_usage_error(code, err, "seed must be non-negative")


# eval's scores and truth files, with good cells a and b: the plain one is
# read from its bytes, every other one by csv text
COLUMN_FILES = {
    "plain": "{name}\n{a}\n{b}\n{a}\n",
    "blank-line": "{name}\n{a}\n\n{b}\n",
    "padded-cell": "{name}\n {a}\n{b}\n",
    "quoted-empty-cell": '{name}\n{a}\n""\n',
    "NA": "{name}\n{a}\nNA\n",
    "exponent": "{name}\n1e-3\n{b}\n",
    "two-cells": "{name}\n{a},{b}\n{a}\n",
    "bad-header": "{name}s\n{a}\n{b}\n",
    "no-final-newline": "{name}\n{a}\n{b}",
}
# ASCII, LF endings, no quote, blank line or row of another width
PLAIN_COLUMN_FILES = {"plain", "padded-cell", "NA", "exponent", "bad-header"}


def _not_tokenized_from_bytes(*args, **kwargs):
    raise AssertionError("a plain file was tokenized by csv.reader")


def assert_data_error(code, err):
    assert code == 2
    assert len(err.strip().splitlines()) == 1, err


def as_stumps(model: dict, index: int) -> dict:
    """The AdaBoost model with its rounds replaced by one stump on column
    index, listed under stumps as older files listed them."""
    stump = {"kind": "stump", "feature_index": index, "threshold": 0.5, "left_class": -1, "right_class": 1}
    rest = {k: v for k, v in model.items() if k != "trees"}
    return {**rest, "stumps": [{"stump": stump, "alpha": 0.5}]}


def split_on_column(model: dict, index: int) -> dict:
    """The model with its first split node redirected to column index."""
    node = next(n for n in model["trees"][0]["nodes"] if "feature_index" in n)
    node["feature_index"] = index
    return model


class TestDataErrors:
    def test_missing_data_file(self, tmp_path, capsys):
        code, _, err = train(capsys, "gbm", tmp_path / "nope.csv", tmp_path / "m.json")
        assert_data_error(code, err)
        assert "nope.csv" in err

    def test_malformed_csv(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_text("age,pcos\n25,1\n30\n")
        code, _, err = train(capsys, "gbm", path, tmp_path / "m.json")
        assert_data_error(code, err)

    @pytest.mark.parametrize("cell", ["inf", "nan"])
    def test_non_finite_cell_with_inferred_schema(self, tmp_path, capsys, cell):
        path = tmp_path / "bad.csv"
        path.write_text(f"age,pcos\n25,1\n{cell},0\n")
        code, _, err = train(capsys, "gbm", path, tmp_path / "m.json")
        assert_data_error(code, err)
        assert "row 3: non-finite value in column 'age'" in err

    @pytest.mark.parametrize(
        "data",
        [b"a,pcos\n1,1\n\xff\xfe,0\n", b"a,pcos\n1,1\n" + b"2" * 200_000 + b",0\n"],
        ids=["not-utf-8", "field-too-long"],
    )
    def test_unreadable_data_file(self, tmp_path, capsys, data):
        path = tmp_path / "bad.csv"
        path.write_bytes(data)
        code, _, err = train(capsys, "gbm", path, tmp_path / "m.json")
        assert_data_error(code, err)
        assert "bad.csv" in err

    @pytest.mark.parametrize(
        "text",
        [
            "{",
            json.dumps({"label_column": "pcos"}),
            json.dumps({"columns": [{"name": "age", "kind": "bogus"}], "label_column": "pcos"}),
            json.dumps(
                {"columns": [{"name": "act", "kind": "categorical", "cardinality": 2.5}], "label_column": "pcos"}
            ),
            # the CSV lacks the column "nope", so a header check would compare 5 with it
            json.dumps(
                {"columns": [{"name": 5, "kind": "numeric"}, {"name": "nope", "kind": "numeric"}], "label_column": "pcos"}
            ),
            json.dumps({"columns": [{"name": "nope", "kind": "numeric"}], "label_column": 1}),
        ],
        ids=["bad-json", "no-columns-key", "kind-bogus", "cardinality-2.5", "name-5", "label-column-1"],
    )
    def test_malformed_schema_file(self, tmp_path, capsys, data_csv, text):
        schema = tmp_path / "schema.json"
        schema.write_text(text)
        code, _, err = train(capsys, "gbm", data_csv, tmp_path / "m.json", "--schema", schema)
        assert_data_error(code, err)
        assert "schema.json" in err
        assert not (tmp_path / "m.json").exists()

    @pytest.mark.parametrize("given", [False, True], ids=["inferred-schema", "given-schema"])
    def test_eval_checks_the_feature_cells(self, tmp_path, capsys, data_csv, scores_csv, given):
        # eval builds only the labels, but rejects what train rejects
        header, *rows = data_csv.read_text().splitlines()
        rows[5] = "x" + rows[5][rows[5].index(",") :]  # the age cell of row 7
        bad, schema = tmp_path / "bad.csv", tmp_path / "schema.json"
        bad.write_text("\n".join([header, *rows]) + "\n")
        schema.write_text(json.dumps(pcos_default_schema().to_dict()))
        flags = ["--schema", schema] if given else []
        why = f"{bad}: row 7: cannot parse 'x' in column 'age'\n"
        code, _, err = run(capsys, "eval", "--scores", scores_csv, "--data", bad, "--out", tmp_path / "ev", *flags)
        assert (code, err) == (2, "eval: " + why)
        assert train(capsys, "gbm", bad, tmp_path / "m.json", *flags) == (2, "", "train: " + why)

    def test_eval_length_mismatch(self, tmp_path, capsys, data_csv):
        scores = tmp_path / "s.csv"
        scores.write_text("score\n0.5\n")
        code, _, err = run(
            capsys, "eval", "--scores", scores, "--data", data_csv, "--out", tmp_path
        )
        assert_data_error(code, err)

    @pytest.mark.parametrize(
        "name, text",
        [
            ("score", "scores\n0.5\n"),
            ("score", "score\nabc\n"),
            ("score", "score\nnan\n"),
            ("score", "score\n\n"),
            ("label", "label\n2\n"),
        ],
    )
    def test_eval_bad_column_file(self, tmp_path, capsys, name, text):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_text(text)
        good.write_text("score\n0.5\n" if name == "label" else "label\n1\n")
        scores, truth = (good, bad) if name == "label" else (bad, good)
        code, _, err = run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", tmp_path)
        assert_data_error(code, err)

    @pytest.mark.parametrize(
        "name, data",
        [
            ("score", b"score\n\xff\xfe\n"),
            ("label", b"\xff\xfe\n1\n"),
            ("score", b"score\n" + b"1" * 200_000 + b"\n"),
        ],
        ids=["score-not-utf-8", "label-not-utf-8", "field-too-long"],
    )
    def test_eval_unreadable_column_file(self, tmp_path, capsys, name, data):
        bad, good = tmp_path / "bad.csv", tmp_path / "good.csv"
        bad.write_bytes(data)
        good.write_text("score\n0.5\n" if name == "label" else "label\n1\n")
        scores, truth = (good, bad) if name == "label" else (bad, good)
        code, _, err = run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", tmp_path)
        assert_data_error(code, err)
        assert "bad.csv" in err

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: {"algorithm": "gbm"}, id="missing-keys"),
            pytest.param(lambda d: {**d, "format_version": 99}, id="format-version-99"),
            pytest.param(lambda d: split_on_column(d, 999), id="feature-index-999"),
            pytest.param(lambda d: {**d, "base_score": "high"}, id="wrong-type"),
        ],
    )
    def test_malformed_model_file(self, tmp_path, capsys, data_csv, edit):
        model = tmp_path / "gbm.json"
        assert train(capsys, "gbm", data_csv, model, "--rounds", 2)[0] == 0
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))
        scores = tmp_path / "s.csv"
        code, _, err = run(
            capsys, "predict", "--model", model, "--data", data_csv, "--scores-out", scores
        )
        assert_data_error(code, err)
        assert not scores.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda d: {**d, "format_version": 1}, id="format-1"),
            # AdaBoost files once listed their rounds as stumps; column 11 of
            # the default schema is the categorical activity_level
            pytest.param(lambda d: as_stumps(d, 0), id="stumps"),
            pytest.param(lambda d: as_stumps(d, 11), id="stumps-on-a-categorical-column"),
        ],
    )
    def test_an_older_model_format_is_malformed(self, tmp_path, capsys, data_csv, edit):
        model = tmp_path / "adaboost.json"
        assert train(capsys, "adaboost", data_csv, model, "--rounds", 2)[0] == 0
        model.write_text(json.dumps(edit(json.loads(model.read_text()))))
        scores = tmp_path / "s.csv"
        code, _, err = run(capsys, "predict", "--model", model, "--data", data_csv, "--scores-out", scores)
        assert_data_error(code, err)
        assert str(model) in err
        assert not scores.exists()

    @pytest.mark.parametrize(
        "edit",
        [
            pytest.param(lambda schema: schema["columns"][0].update(name=5), id="column-name-5"),
            pytest.param(lambda schema: schema.update(label_column=7), id="label-column-7"),
        ],
    )
    def test_non_string_name_in_model_file(self, tmp_path, capsys, data_csv, edit):
        model = tmp_path / "gbm.json"
        assert train(capsys, "gbm", data_csv, model, "--rounds", 2)[0] == 0
        saved = json.loads(model.read_text())
        edit(saved["schema"])
        model.write_text(json.dumps(saved))
        # without the weight column, a header check would compare 5 with "weight"
        rows = [line.split(",") for line in data_csv.read_text().splitlines()]
        drop = rows[0].index("weight")
        short = tmp_path / "short.csv"
        short.write_text("".join(",".join(r[:drop] + r[drop + 1 :]) + "\n" for r in rows))
        code, _, err = run(capsys, "predict", "--model", model, "--data", short)
        assert_data_error(code, err)
        assert "gbm.json" in err

    def test_oblivious_tree_past_max_depth(self, tmp_path, capsys, data_csv):
        model = tmp_path / "catboost.json"
        assert train(capsys, "catboost", data_csv, model, "--rounds", 2)[0] == 0
        saved = json.loads(model.read_text())
        tree = saved["trees"][0]
        tree["levels"] = tree["levels"][:1] * 17  # one level past the 16-level cap
        model.write_text(json.dumps(saved))
        code, _, err = run(capsys, "predict", "--model", model, "--data", data_csv)
        assert_data_error(code, err)
        assert "catboost.json" in err and "17 levels" in err

    def test_tree_of_another_kind(self, tmp_path, capsys, data_csv):
        # a catboost file whose first tree is a gbm regression tree
        gbm, catboost = tmp_path / "gbm.json", tmp_path / "catboost.json"
        assert train(capsys, "gbm", data_csv, gbm, "--rounds", 2)[0] == 0
        assert train(capsys, "catboost", data_csv, catboost, "--rounds", 2)[0] == 0
        saved = json.loads(catboost.read_text())
        saved["trees"][0] = json.loads(gbm.read_text())["trees"][0]
        catboost.write_text(json.dumps(saved))
        code, _, err = run(capsys, "predict", "--model", catboost, "--data", data_csv)
        assert_data_error(code, err)
        assert "catboost.json" in err and "ObliviousTree" in err

    # A numpy RuntimeWarning would be raised as an error here (the pytest
    # settings turn warnings into errors), and main() would not map it to 2.
    @pytest.mark.parametrize("algo", ["xgboost", "catboost"])
    def test_learning_rate_that_overflows_the_fit(self, tmp_path, capsys, algo):
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        assert run(capsys, "synth", "--n", 250, "--out", data)[0] == 0
        code, _, err = train(capsys, algo, data, model, "--learning-rate", "1e308")
        assert_data_error(code, err)
        assert f"{algo}: training raw scores are not finite after round 1" in err
        assert not model.exists()

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_compare_reports_the_earliest_failing_fit(self, tmp_path, capsys, monkeypatch, cpus):
        # XGBoost, fitted by whichever process claims it on two CPUs, and
        # CatBoost, fitted in the caller, both overflow; the first in
        # ALGORITHMS order is reported
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        argv = ("compare", "--synthetic", "--n", 60, "--rounds", 3, "--learning-rate", "1e308")
        code, _, err = run(capsys, *argv, "--out", tmp_path / "out")
        message = "xgboost: training raw scores are not finite after round 2 at learning_rate 1e+308"
        assert (code, err) == (2, f"compare: {message}\n")
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)

    def test_compare_rejects_a_split_of_one_class_before_any_fit(self, tmp_path, capsys, monkeypatch):
        # one positive row in 40: the stratified 8-row test split holds none
        data = tmp_path / "d.csv"
        assert run(capsys, "synth", "--n", 40, "--seed", 3, "--out", data)[0] == 0
        header, *rows = data.read_text().splitlines()
        rows = [row[: row.rindex(",") + 1] + ("1" if i == 0 else "0") for i, row in enumerate(rows)]
        data.write_text("\n".join([header, *rows]) + "\n")
        monkeypatch.setattr(bench, "fit", _must_not_run)
        code, _, err = run(capsys, "compare", "--data", data, "--out", tmp_path / "out")
        message = "the test split of 8 rows holds one class: 8 of class 0 and 0 of class 1"
        assert (code, err) == (2, f"compare: {message}\n")
        # the header and one row: one row is one class
        one_row = tmp_path / "one.csv"
        one_row.write_text("\n".join([header, rows[0]]) + "\n")
        code, _, err = run(capsys, "compare", "--data", one_row, "--out", tmp_path / "out-one")
        assert (code, err) == (2, "compare: stratified split needs both classes\n")

    def test_catboost_level_gain_that_overflows(self, tmp_path, capsys):
        # zero hessians after round 1 and a subnormal lambda overflow a level's gain
        data, model = tmp_path / "d.csv", tmp_path / "m.json"
        assert run(capsys, "synth", "--n", 40, "--seed", 3, "--missing-rate", 0.2, "--out", data)[0] == 0
        extra = ("--learning-rate", "1e132", "--lambda", "5e-324", "--rounds", 2, "--depth", 3)
        code, _, err = train(capsys, "catboost", data, model, *extra)
        assert_data_error(code, err)
        assert "catboost: training raw scores are not finite after round 2" in err
        assert not model.exists()

    def test_model_whose_raw_scores_overflow(self, tmp_path, capsys, data_csv):
        # finite leaves, but a learning rate that takes their sums past the float range
        model, scores = tmp_path / "catboost.json", tmp_path / "s.csv"
        assert train(capsys, "catboost", data_csv, model, "--rounds", 5)[0] == 0
        saved = json.loads(model.read_text())
        saved["params"]["learning_rate"] = 1e308
        model.write_text(json.dumps(saved))
        code, _, err = run(capsys, "predict", "--model", model, "--data", data_csv, "--scores-out", scores)
        assert_data_error(code, err)
        assert "catboost model gives non-finite raw scores" in err
        assert not scores.exists()

    def test_model_file_not_json(self, tmp_path, capsys, data_csv):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "predict", "--model", path, "--data", data_csv)
        assert_data_error(code, err)
        assert "broken.json" in err

    @pytest.mark.parametrize("command", ["predict", "compare"])
    def test_json_nested_past_the_parser_limit(self, tmp_path, capsys, data_csv, command):
        deep = tmp_path / "deep.json"
        deep.write_text("[" * 100_000)
        if command == "predict":
            code, _, err = run(capsys, "predict", "--model", deep, "--data", data_csv)
        else:
            code, _, err = run(capsys, "compare", "--synthetic", "--schema", deep, "--out", tmp_path / "out")
        assert_data_error(code, err)
        assert "deep.json" in err

    def test_eval_score_outside_the_unit_interval(self, tmp_path, capsys):
        # predict writes scores in [0, 1], and --threshold lies in (0, 1)
        scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
        scores.write_text("score\n2\n0.1\n-3\n0.5\n")
        truth.write_text("label\n1\n0\n0\n1\n")
        code, _, err = run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", tmp_path / "ev")
        assert_data_error(code, err)
        assert err == f"eval: {scores}: score cells must lie in [0, 1]\n"
        scores.write_text("score\n1\n0.1\n0\n0.5\n")  # the ends are scores
        assert run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", tmp_path / "ev")[0] == 0


    @pytest.mark.parametrize("cell", ["NA", '""', ""], ids=["NA", "quoted-empty", "empty-beside-a-label"])
    def test_eval_missing_score_cell(self, tmp_path, capsys, cell):
        # a missing cell is NaN, which lies outside [0, 1]
        scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
        scores.write_text(f"score,label\n0.1,1\n{cell},0\n" if cell == "" else f"score\n0.1\n{cell}\n")
        truth.write_text("label\n1\n0\n")
        code, _, err = run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", tmp_path / "ev")
        assert (code, err) == (2, f"eval: {scores}: score cells must lie in [0, 1]\n")
        assert not (tmp_path / "ev").exists()

    def test_eval_reads_the_scores_of_a_scores_file_with_a_label_column(self, tmp_path, capsys):
        # as predict --data reads a data file with its label column
        truth = tmp_path / "t.csv"
        truth.write_text("label\n1\n0\n0\n1\n")
        outputs = []
        for name, text in (("s", "score\n0.9\n0.2\n0.4\n0.7\n"), ("ls", "label,score\n1,0.9\n0,0.2\n0,0.4\n1,0.7\n")):
            scores, out = tmp_path / f"{name}.csv", tmp_path / f"{name}-ev"
            scores.write_text(text)
            assert run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", out)[0] == 0
            outputs.append([(out / f).read_bytes() for f in ("metrics.json", "roc.csv", "pr.csv")])
        assert outputs[0] == outputs[1]
        assert json.loads(outputs[0][0])["auc"] == 1.0

    @pytest.mark.parametrize("name", ["score", "label"])
    def test_eval_row_of_several_cells(self, tmp_path, capsys, name):
        # every cell of a row would be a score or a label, and only the first was read
        scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
        scores.write_text("score\n0.1,0.9\n0.8,junk\n0.4\n0.7\n" if name == "score" else "score\n0.1\n0.8\n0.4\n0.7\n")
        truth.write_text("label\n1\n1,1\n0\n1\n" if name == "label" else "label\n1\n0\n0\n1\n")
        code, _, err = run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", tmp_path / "ev")
        bad = scores if name == "score" else truth
        assert (code, err) == (2, f"eval: {bad}: row {2 if name == 'score' else 3} has 2 cells, expected 1\n")
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("name", ["score", "label"])
    def test_eval_names_the_file_of_a_bad_cell(self, tmp_path, capsys, name):
        # the scores and the truth file are read alike, so an error names which one
        scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
        scores.write_text("score\n0.1\nabc\n0.4\n0.7\n" if name == "score" else "score\n0.1\n0.8\n0.4\n0.7\n")
        truth.write_text("label\n1\n0\nabc\n1\n" if name == "label" else "label\n1\n0\n0\n1\n")
        code, _, err = run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", tmp_path / "ev")
        why = {
            "score": f"{scores}: row 3: cannot parse 'abc' in column 'score'",
            "label": f"{truth}: row 4 label 'abc' is not 0/1",
        }
        assert (code, err) == (2, f"eval: {why[name]}\n")
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("blank", ["", "\n"], ids=["no-blank-line", "blank-lines"])
    def test_eval_reads_a_crlf_copy_alike(self, tmp_path, capsys, blank):
        # the byte path reads an LF file with no blank line and no wide row;
        # csv.reader reads the rest. A blank line is a row of no cells.
        texts = {
            "score": f"score\n0.1\n{blank}0.8\n0.4\n{blank}0.7\n",
            "label": f"label\n1\n{blank}0\n0\n1\n{blank}",
            "wide": "score\n0.1\n0.8,0.2\n0.4\n0.7\n",
        }
        good_scores = tmp_path / "good.csv"
        good_scores.write_text("score\n0.1\n0.8\n0.4\n0.7\n")
        outputs = []
        for ending in ("\n", "\r\n"):
            paths = {}
            for name, text in texts.items():
                paths[name] = tmp_path / f"{name}{len(ending)}.csv"
                paths[name].write_bytes(text.replace("\n", ending).encode())
            out = tmp_path / f"ev{len(ending)}"
            if blank:  # row 3 of each file; eval reads --scores first
                for scores, bad in ((paths["score"], paths["score"]), (good_scores, paths["label"])):
                    code, _, err = run(capsys, "eval", "--scores", scores, "--truth", paths["label"], "--out", out)
                    assert (code, err) == (2, f"eval: {bad}: row 3 has 0 cells, expected 1\n")
                    assert not out.exists()
                continue
            assert load_features_csv(paths["score"], SCORES_SCHEMA)[:, 0].tolist() == [0.1, 0.8, 0.4, 0.7]
            assert load_labels_csv(paths["label"], TRUTH_SCHEMA).tolist() == [1, 0, 0, 1]
            assert run(capsys, "eval", "--scores", paths["score"], "--truth", paths["label"], "--out", out)[0] == 0
            outputs.append([(out / f).read_bytes() for f in ("metrics.json", "roc.csv", "pr.csv")])
            code, _, err = run(capsys, "eval", "--scores", paths["wide"], "--truth", paths["label"], "--out", out)
            assert (code, err) == (2, f"eval: {paths['wide']}: row 3 has 2 cells, expected 1\n")
        assert len(outputs) == (0 if blank else 2) and outputs[:1] == outputs[1:]

    @pytest.mark.parametrize("case", COLUMN_FILES)
    @pytest.mark.parametrize("name", ["score", "label"])
    def test_eval_column_files_agree_with_a_row_by_row_oracle(self, tmp_path, capsys, monkeypatch, case, name):
        # eval reads the scores file as feature column "score" and the truth
        # file as label column "label", both checked as every data file is
        read, reference, cells, flags = {
            "score": (
                lambda path: load_features_csv(path, SCORES_SCHEMA)[:, 0],
                lambda path: csv_reader_oracle.read(path, SCORES_SCHEMA, with_labels=False)[1][:, 0],
                ("0.25", "0.5"),
                ("--scores", "--truth"),
            ),
            "label": (
                lambda path: load_labels_csv(path, TRUTH_SCHEMA),
                lambda path: csv_reader_oracle.read(path, TRUTH_SCHEMA)[2],
                ("1", "0"),
                ("--truth", "--scores"),
            ),
        }[name]
        path, other = tmp_path / "column.csv", tmp_path / "other.csv"
        path.write_text(COLUMN_FILES[case].format(name=name, a=cells[0], b=cells[1]))

        def outcome(read):
            try:
                column = read(path)
            except BoostlabError as exc:
                return type(exc), str(exc)
            return column.dtype, repr(column.tolist())  # NaN != NaN, so compared as a repr

        want = outcome(reference)
        if case in PLAIN_COLUMN_FILES:  # tokenized from the bytes, whatever its cells
            monkeypatch.setattr(dataset, "read_csv_table", _not_tokenized_from_bytes)
        assert outcome(read) == want

        if isinstance(want[0], type):  # an error
            expected = (2, f"eval: {want[1]}\n")
        elif "nan" in want[1]:
            expected = (2, f"eval: {path}: score cells must lie in [0, 1]\n")
        else:
            expected = (0, "")
        n = 2 if expected[0] else reference(path).size  # the other file's rows, of both classes
        other.write_text("label\n" + "".join(f"{i % 2}\n" for i in range(n)) if name == "score" else "score\n" + "0.5\n" * n)
        code, _, err = run(capsys, "eval", flags[0], path, flags[1], other, "--out", tmp_path / "ev")
        assert (code, err) == expected


def _must_not_run(*args, **kwargs):
    raise AssertionError("the output was not checked before the work")


@pytest.mark.parametrize(
    "command, where",
    [
        pytest.param(command, where, id=where if command == "train" else f"{command}-{where}")
        for command in ("train", "predict")
        for where in ("missing-parent", "parent-is-a-file", "directory")
    ],
)
def test_train_checks_model_out_before_the_fit(tmp_path, capsys, data_csv, model_file, monkeypatch, command, where):
    # and predict checks --scores-out after reading its inputs, before scoring them
    if where == "missing-parent":
        target, reason = tmp_path / "missing" / "out.json", "No such file or directory"
    elif where == "parent-is-a-file":
        target, reason = data_csv / "out.json", "Not a directory"
    else:
        target, reason = tmp_path / "out-dir", "Is a directory"
        target.mkdir()
    if command == "train":
        monkeypatch.setattr(cli, "fit", _must_not_run)
        code, _, err = train(capsys, "catboost", data_csv, target, "--preset", "paper")
    else:
        monkeypatch.setattr(cli, "predict_scores", _must_not_run)
        code, _, err = run(capsys, "predict", "--model", model_file, "--data", data_csv, "--scores-out", target)
    assert (code, err) == (2, f"{command}: {target}: {reason}\n")


def test_compare_creates_out_before_the_fits(tmp_path, capsys, monkeypatch):
    # and before it reads its data: the missing --data file is never opened
    target = tmp_path / "out"
    target.write_text("a file\n")
    monkeypatch.setattr(cli, "run_benchmark", _must_not_run)
    for source in (("--synthetic",), ("--data", tmp_path / "missing.csv")):
        code, _, err = run(capsys, "compare", *source, "--preset", "paper", "--out", target)
        assert (code, err) == (2, f"compare: {target}: File exists\n")
        assert target.read_text() == "a file\n"


@pytest.mark.parametrize("where", ["missing-parent", "directory", "."])
@pytest.mark.parametrize("flag", ["--model-out", "--scores-out", "synth --out"])
def test_a_failed_output_write_names_the_given_path(
    tmp_path, capsys, monkeypatch, data_csv, model_file, flag, where
):
    # the message names the path given, not the temp file written beside it;
    # "." is a directory with no final name to put a temp file beside
    if where == "missing-parent":
        target, parent = tmp_path / "missing" / "out.json", tmp_path / "missing"
    elif where == ".":
        monkeypatch.chdir(tmp_path)
        target, parent = ".", tmp_path
    else:
        target, parent = tmp_path / "out-dir", tmp_path
        target.mkdir()
    before = set(os.listdir(tmp_path))
    if flag == "--model-out":
        code, _, err = train(capsys, "gbm", data_csv, target, "--rounds", 2)
        command = "train"
    elif flag == "--scores-out":
        code, _, err = run(capsys, "predict", "--model", model_file, "--data", data_csv, "--scores-out", target)
        command = "predict"
    else:
        code, _, err = run(capsys, "synth", "--n", 20, "--out", target)
        command = "synth"
    reason = "No such file or directory" if where == "missing-parent" else "Is a directory"
    assert (code, err) == (2, f"{command}: {target}: {reason}\n")
    assert set(os.listdir(tmp_path)) == before
    assert not parent.is_dir() or not [f for f in os.listdir(parent) if f.endswith(".tmp")]


FITS_IN_A_FRESH_PROCESS = """
import sys
from boostlab import cli

data = sys.argv[1]
assert cli.main(["compare", "--data", data, "--rounds", "3", "--out", data + "-cmp"]) == 0
for algo in ("xgboost", "adaboost", "gbm", "catboost"):
    assert cli.main(["train", "--algo", algo, "--data", data, "--rounds", "3", "--model-out", data + algo]) == 0
print("numpy.ma" in sys.modules)
"""


def test_fitting_imports_no_numpy_ma(tmp_path, capsys, data_csv):
    # np.unique's first call imports numpy.ma (about 16 ms and 1.3 MB), so no
    # fit or schema inference may call it; data_csv has a categorical column
    assert "activity_level" in data_csv.read_text().splitlines()[0].split(",")
    src = Path(boostlab.__file__).resolve().parents[1]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(src), os.environ.get("PYTHONPATH", "")])}
    argv = [sys.executable, "-c", FITS_IN_A_FRESH_PROCESS, str(data_csv)]
    done = subprocess.run(argv, capture_output=True, text=True, timeout=120, env=env)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[-1] == "False"
