"""Byte-identity gates: the paper comparison and the v1 model file format.

The paper digests are the benchmark's own (perfbench/golden.json, seed 42),
hashed the way perfbench/checks.py hashes them: report.json without its
timestamp line. The model digests were recorded when the format was pinned;
a change to either is a change of output and must be deliberate.
"""

import contextlib
import hashlib
import io
import json
from pathlib import Path

import pytest

from boostlab import cli
from boostlab.dataset import pcos_default_schema, synthesize, write_csv

GOLDEN = Path(__file__).resolve().parents[1] / "perfbench" / "golden.json"

MODEL_SHA256 = {
    "adaboost": "2b80d7774c4939756c5cdf29fd222224f13520cae68a465d3aa4e2cec70ce59c",
    "gbm": "c6898cf48e9564d56500032f948f97b0633e5a4c1f82b6aba52d09b9e72fdb40",
    "xgboost": "c79eaabe6302850d126986606e3b287702d1709b4a484f9e66659d1e5d582a44",
    "catboost": "879fb1a2c07ac2c9235c7228c36c7484e3407542fdbdd7d51748f95cbfb45a55",
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


@pytest.mark.parametrize("algo", sorted(MODEL_SHA256))
def test_train_model_file_is_pinned(tmp_path, algo):
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
            "--rounds", 5, "--seed", 42, "--model-out", model,
        ]
    )
    assert code == 0
    assert hashlib.sha256(model.read_bytes()).hexdigest() == MODEL_SHA256[algo]
