"""The command line through cli.main: every subcommand and the exit-code contract.

0 is success (and --help), 1 a usage error with a usage line, 2 a data or
model error reported on exactly one stderr line.
"""

import builtins
import json
import os
import stat

import csv_reader_oracle
import pytest

from boostlab import cli, dataset
from boostlab.boost import load_model, predict_scores
from boostlab.dataset import BINARY, NUMERIC, load_column_csv, load_csv, parse_label, pcos_default_schema
from boostlab.errors import MalformedCsv

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

    def test_compare_writes_every_report_file(self, tmp_path, capsys):
        out_dir = tmp_path / "cmp"
        code, out, _ = run(
            capsys, "compare", "--synthetic", "--n", 80, "--rounds", 2, "--out", out_dir
        )
        assert code == 0 and "catboost" in out
        curves = {f"{kind}_{algo}.csv" for kind in ("roc", "pr") for algo in ALGOS}
        expected = {"report.json", "table.txt", "table.csv"} | curves
        assert {p.name for p in out_dir.iterdir()} == expected

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
        ],
    )
    def test_synthetic_value_out_of_range(self, tmp_path, capsys, argv, message):
        out = tmp_path / "out"
        code, _, err = run(capsys, *argv, "--out", out)
        assert_usage_error(code, err, message)
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
        why = "row 7: cannot parse 'x' in column 'age'\n"
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
        # XGBoost, fitted in the forked child on two CPUs, and CatBoost, fitted
        # in the caller, both overflow; the first in ALGORITHMS order is reported
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        argv = ("compare", "--synthetic", "--n", 60, "--rounds", 3, "--learning-rate", "1e308")
        code, _, err = run(capsys, *argv, "--out", tmp_path / "out")
        message = "xgboost: training raw scores are not finite after round 2 at learning_rate 1e+308"
        assert (code, err) == (2, f"compare: {message}\n")
        with pytest.raises(ChildProcessError):  # no child is left
            os.waitpid(-1, os.WNOHANG)

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


    @pytest.mark.parametrize("name", ["score", "label"])
    def test_eval_row_of_several_cells(self, tmp_path, capsys, name):
        # every cell of a row would be a score or a label, and only the first was read
        scores, truth = tmp_path / "s.csv", tmp_path / "t.csv"
        scores.write_text("score\n0.1,0.9\n0.8,junk\n0.4\n0.7\n" if name == "score" else "score\n0.1\n0.8\n0.4\n0.7\n")
        truth.write_text("label\n1\n1,1\n0\n1\n" if name == "label" else "label\n1\n0\n0\n1\n")
        code, _, err = run(capsys, "eval", "--scores", scores, "--truth", truth, "--out", tmp_path / "ev")
        assert_data_error(code, err)
        bad = scores if name == "score" else truth
        assert err == f"eval: {bad}: line {2 if name == 'score' else 3} has more than one cell\n"
        assert not (tmp_path / "ev").exists()

    @pytest.mark.parametrize("blank", ["", "\n"], ids=["no-blank-line", "blank-lines"])
    def test_eval_reads_a_crlf_copy_alike(self, tmp_path, capsys, blank):
        # the byte path reads an LF file with no blank line and no wide row;
        # csv.reader reads the rest
        texts = {
            "score": f"score\n0.1\n{blank}0.8\n0.4\n{blank}0.7\n",
            "label": f"label\n1\n{blank}0\n0\n1\n{blank}",
            "wide": f"score\n0.1\n{blank}0.8,0.2\n0.4\n0.7\n",
        }
        outputs = []
        for ending in ("\n", "\r\n"):
            paths = {}
            for name, text in texts.items():
                paths[name] = tmp_path / f"{name}{len(ending)}.csv"
                paths[name].write_bytes(text.replace("\n", ending).encode())
            assert load_column_csv(paths["score"], "score", NUMERIC).tolist() == [0.1, 0.8, 0.4, 0.7]
            assert load_column_csv(paths["label"], "label", BINARY).tolist() == [1, 0, 0, 1]
            out = tmp_path / f"ev{len(ending)}"
            assert run(capsys, "eval", "--scores", paths["score"], "--truth", paths["label"], "--out", out)[0] == 0
            outputs.append([(out / f).read_bytes() for f in ("metrics.json", "roc.csv", "pr.csv")])
            code, _, err = run(capsys, "eval", "--scores", paths["wide"], "--truth", paths["label"], "--out", out)
            assert_data_error(code, err)
            assert err == f"eval: {paths['wide']}: line {4 if blank else 3} has more than one cell\n"
        assert outputs[0] == outputs[1]

    @pytest.mark.parametrize("case", COLUMN_FILES)
    @pytest.mark.parametrize("name", ["score", "label"])
    def test_eval_column_files_agree_with_a_row_by_row_oracle(self, tmp_path, capsys, monkeypatch, case, name):
        parse, kind, cells, other = {
            "score": (float, NUMERIC, ("0.25", "0.5"), ("--truth", "label\n1\n0\n")),
            "label": (parse_label, BINARY, ("1", "0"), ("--scores", "score\n0.25\n0.5\n")),
        }[name]
        path, other_path = tmp_path / "column.csv", tmp_path / "other.csv"
        path.write_text(COLUMN_FILES[case].format(name=name, a=cells[0], b=cells[1]))
        other_path.write_text(other[1])

        def outcome(read):
            try:
                column = read()
            except MalformedCsv as exc:
                return str(exc)
            return column.dtype, column.tolist()

        want = outcome(lambda: csv_reader_oracle.read_column(path, name, parse))
        if case in PLAIN_COLUMN_FILES:  # tokenized from the bytes, whatever its cells
            monkeypatch.setattr(dataset, "read_csv_table", _not_tokenized_from_bytes)
        assert outcome(lambda: load_column_csv(path, name, kind)) == want
        if isinstance(want, str):
            flag = "--scores" if name == "score" else "--truth"
            code, _, err = run(capsys, "eval", flag, path, other[0], other_path, "--out", tmp_path / "ev")
            assert (code, err) == (2, f"eval: {want}\n")


def _must_not_run(*args, **kwargs):
    raise AssertionError("the output was not checked before the work")


@pytest.mark.parametrize("where", ["missing-parent", "parent-is-a-file", "directory"])
def test_train_checks_model_out_before_the_fit(tmp_path, capsys, data_csv, monkeypatch, where):
    if where == "missing-parent":
        target, reason = tmp_path / "missing" / "m.json", "No such file or directory"
    elif where == "parent-is-a-file":
        target, reason = data_csv / "m.json", "Not a directory"
    else:
        target, reason = tmp_path / "m-dir", "Is a directory"
        target.mkdir()
    monkeypatch.setattr(cli, "fit", _must_not_run)
    code, _, err = train(capsys, "catboost", data_csv, target, "--preset", "paper")
    assert (code, err) == (2, f"train: {target}: {reason}\n")


def test_compare_creates_out_before_the_fits(tmp_path, capsys, monkeypatch):
    target = tmp_path / "out"
    target.write_text("a file\n")
    monkeypatch.setattr(cli, "run_benchmark", _must_not_run)
    code, _, err = run(capsys, "compare", "--synthetic", "--preset", "paper", "--out", target)
    assert (code, err) == (2, f"compare: {target}: File exists\n")
    assert target.read_text() == "a file\n"


@pytest.mark.parametrize("where", ["missing-parent", "directory"])
@pytest.mark.parametrize("flag", ["--model-out", "--scores-out", "synth --out"])
def test_a_failed_output_write_names_the_given_path(tmp_path, capsys, data_csv, model_file, flag, where):
    # the message names the path given, not the temp file written beside it
    if where == "missing-parent":
        target, parent = tmp_path / "missing" / "out.json", tmp_path / "missing"
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
