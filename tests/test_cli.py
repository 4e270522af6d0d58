"""The command line through cli.main: every subcommand and the exit-code contract.

0 is success (and --help), 1 a usage error with a usage line, 2 a data or
model error reported on exactly one stderr line.
"""

import builtins
import json
import os
import stat

import pytest

from boostlab import cli

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
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(os.fspath(file) if isinstance(file, (str, os.PathLike)) else file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        commands = {
            "train": ["train", "--algo", "gbm", "--data", data_csv, "--rounds", 2,
                      "--model-out", tmp_path / "m.json"],
            "eval": ["eval", "--scores", scores_csv, "--data", data_csv, "--out", tmp_path / "ev"],
            "compare": ["compare", "--data", data_csv, "--rounds", 2, "--out", tmp_path / "cmp"],
        }
        for name, argv in commands.items():
            opened.clear()
            assert run(capsys, *argv)[0] == 0, name
            assert opened.count(str(data_csv)) == 1, name

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

    def test_model_file_not_json(self, tmp_path, capsys, data_csv):
        path = tmp_path / "broken.json"
        path.write_text("{")
        code, _, err = run(capsys, "predict", "--model", path, "--data", data_csv)
        assert_data_error(code, err)
        assert "broken.json" in err
