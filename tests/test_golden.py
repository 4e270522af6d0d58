"""Byte-identity gates: the paper comparison and the model file formats.

The paper digests are the benchmark's own (perfbench/golden.json, seed 42),
hashed the way perfbench/checks.py hashes them: report.json without its
timestamp line. The model digests were recorded when each file form was
pinned: MODEL_SHA256 for the compact files that train writes today,
INDENTED_SHA256 for the same content rendered with indent=2 (the form train
wrote before model files became compact, so the content is unchanged since),
LEGACY_SHA256 for the older files of the same fits kept in tests/data: the
GBM and XGBoost files written before regression leaves dropped their
gradient and hessian sums, which the reader ignores. ONE_HOT_CATBOOST_SHA256
is the CatBoost file of the same table with its categorical column one-hot,
a fit that uses no target encoding. A change to any of them is a change of
output and must be deliberate.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from boostlab import cli
from boostlab.boost import load_model, save_model
from boostlab.dataset import pcos_default_schema, synthesize, write_csv

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"
LEGACY_MODELS = Path(__file__).resolve().parent / "data"

MODEL_SHA256 = {
    # AdaBoost's rounds as one-level oblivious trees under "trees", each alpha
    # from the weight its stump misclassifies
    "adaboost": "97009b8bf67163fe04b84d98df4d8b930e1cf707636c68cd0bc8359c268ddba6",
    "gbm": "6354643ac3ca79a8149fb3fae5091be194cef8dbb57defdd1184752c8c64b0f1",
    "xgboost": "bcc780be569dc57dd7d58d951d6e985eb2cb55d34d464e9b1b08afb6adc52201",
    "catboost": "cc81ff48bb1ddea7bb68bc34ae15651377dfab2c76b6843dfe04fbf3eac6469b",
}

INDENTED_SHA256 = {
    "adaboost": "4d598c117159f80e582a020a2109f927359537aa5330ca507af815a73a4f94c6",
    "gbm": "7bd80d9afbd3c84bf1f66784f7ec6ea6c38f7df797c30ef417be02981fb2a24c",
    "xgboost": "b7a889422b8cc57c6c3f94855530405a88a938e6e23fe11202f504b5c1f906d8",
    "catboost": "8de1747b3217991f0c1d99abdbcf9bf02b30b4c60c0b7231c336263db670304f",
}

# train --algo catboost --cat-one-hot-max 3: the 3-level column is one-hot
ONE_HOT_CATBOOST_SHA256 = "1efb73cfc559c74fc18a2713ca0756547c80581a36a0fbe369bb9a3134caf477"

LEGACY_SHA256 = {
    # format 2 with leaf sums
    "model_v2_gbm.json": "4af4068fb50575353c105b00b78d1652ba2081e7dec8bf399e028ea1d7df1928",
    "model_v2_xgboost.json": "53d6401d13f1f2c91c4adb7b36fa005895310a1d8cd08a12914fde13da816a57",
}


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        data = b"".join(
            line for line in data.splitlines(keepends=True) if b'"timestamp":' not in line
        )
    return hashlib.sha256(data).hexdigest()


def quiet_main(argv) -> int:
    with contextlib.redirect_stdout(io.StringIO()):
        return cli.main([str(a) for a in argv])


def test_compare_paper_preset_matches_golden(tmp_path):
    expected = json.loads(GOLDEN.read_text())["paper"]
    code = quiet_main(
        ["compare", "--synthetic", "--preset", "paper", "--seed", 42, "--out", tmp_path]
    )
    assert code == 0
    assert {name: digest(tmp_path / name) for name in expected} == expected


def train(tmp_path, algo, *options):
    """The training table and the 5-round model file that train writes from it."""
    # 120 rows with 10% missing numeric cells and a 3-level categorical, so
    # XGBoost learns missing directions and CatBoost uses target statistics.
    data = synthesize(pcos_default_schema(), 120, 7, 1.5, missing_rate=0.1)
    write_csv(tmp_path / "train.csv", data)
    (tmp_path / "schema.json").write_text(json.dumps(data.schema.to_dict()))
    model = tmp_path / f"{algo}.json"
    code = quiet_main(
        [
            "train", "--algo", algo, "--data", tmp_path / "train.csv",
            "--schema", tmp_path / "schema.json",
            "--rounds", 5, "--seed", 42, "--model-out", model, *options,
        ]
    )
    assert code == 0
    return data, model


@pytest.mark.parametrize("algo", sorted(MODEL_SHA256))
def test_train_model_file_is_pinned(tmp_path, algo):
    _, model = train(tmp_path, algo)
    raw = model.read_bytes()
    assert hashlib.sha256(raw).hexdigest() == MODEL_SHA256[algo]
    indented = json.dumps(json.loads(raw), indent=2, allow_nan=False) + "\n"
    assert hashlib.sha256(indented.encode()).hexdigest() == INDENTED_SHA256[algo]


def test_one_hot_catboost_model_file_is_pinned(tmp_path):
    _, model = train(tmp_path, "catboost", "--cat-one-hot-max", 3)
    assert json.loads(model.read_text())["cat_encoding_state"][0]["mode"] == "onehot"
    assert hashlib.sha256(model.read_bytes()).hexdigest() == ONE_HOT_CATBOOST_SHA256


def test_every_legacy_model_file_is_pinned():
    assert sorted(p.name for p in LEGACY_MODELS.glob("*.json")) == sorted(LEGACY_SHA256)


@pytest.mark.parametrize("name", sorted(LEGACY_SHA256))
def test_legacy_model_file_saves_as_train_writes(tmp_path, name):
    legacy = LEGACY_MODELS / name
    assert hashlib.sha256(legacy.read_bytes()).hexdigest() == LEGACY_SHA256[name]
    _, model = train(tmp_path, json.loads(legacy.read_text())["algorithm"])
    save_model(load_model(legacy), tmp_path / "again.json")
    assert (tmp_path / "again.json").read_bytes() == model.read_bytes()
