"""Output checks. Each returns a list of problems; an empty list means the output is correct.

Byte identity is checked by SHA-256 against `golden.json`, which holds the
digests of the outputs of the commit the benchmark was defined on, at the
default workload seed. The report timestamp is the one non-deterministic
line and is dropped before hashing.
"""

from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

ALGORITHMS = ("adaboost", "gbm", "xgboost", "catboost")
COMPARE_FILES = ("report.json", "table.txt", "table.csv") + tuple(
    f"{kind}_{algo}.csv" for algo in ALGORITHMS for kind in ("roc", "pr")
)
GOLDEN_PATH = Path(__file__).with_name("golden.json")


def digest(path: Path) -> str:
    data = path.read_bytes()
    if path.name == "report.json":
        data = b"".join(
            line for line in data.splitlines(keepends=True) if b'"timestamp":' not in line
        )
    return hashlib.sha256(data).hexdigest()


def golden_mismatches(out_dir: Path, expected: dict[str, str]) -> list[str]:
    """Files under out_dir whose digest differs from the expected one."""
    problems = []
    for rel, want in sorted(expected.items()):
        path = out_dir / rel
        if not path.is_file():
            problems.append(f"{rel}: missing")
        elif digest(path) != want:
            problems.append(f"{rel}: differs from the golden output")
    return problems


def load_golden() -> dict[str, dict[str, str]]:
    with open(GOLDEN_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def _valid_auc(auc) -> bool:
    return isinstance(auc, (int, float)) and math.isfinite(auc) and 0.0 <= auc <= 1.0


def _read_json(path: Path, problems: list[str]):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, ValueError) as exc:
        problems.append(f"{path.name}: {exc}")
        return None


def check_compare(out_dir: Path) -> tuple[list[str], dict[str, float]]:
    """Every compare output exists and report.json gives a valid AUC per algorithm."""
    problems = [f"{name}: missing" for name in COMPARE_FILES if not (out_dir / name).is_file()]
    aucs: dict[str, float] = {}
    report = _read_json(out_dir / "report.json", problems)
    if report is not None:
        for algo in ALGORITHMS:
            auc = report.get("algorithms", {}).get(algo, {}).get("auc")
            if _valid_auc(auc):
                aucs[algo] = float(auc)
            else:
                problems.append(f"report.json {algo}: AUC {auc!r} is not a finite number in [0, 1]")
    return problems, aucs


def check_scores(path: Path, n_rows: int) -> list[str]:
    """A 'score' header and n_rows scores, each a finite number in [0, 1]."""
    try:
        lines = path.read_text(encoding="utf-8").splitlines()
    except OSError as exc:
        return [f"{path.name}: {exc}"]
    if not lines or lines[0] != "score":
        return [f"{path.name}: header is not 'score'"]
    if len(lines) - 1 != n_rows:
        return [f"{path.name}: {len(lines) - 1} scores, expected {n_rows}"]
    try:
        values = [float(v) for v in lines[1:]]
    except ValueError:
        return [f"{path.name}: unparsable score"]
    if not all(0.0 <= v <= 1.0 for v in values):
        return [f"{path.name}: score outside [0, 1]"]
    return []


def check_eval(out_dir: Path, n_rows: int) -> tuple[list[str], float | None]:
    """metrics.json covers n_rows with a valid AUC, and both curve files exist."""
    problems = [f"{name}: missing" for name in ("roc.csv", "pr.csv") if not (out_dir / name).is_file()]
    payload = _read_json(out_dir / "metrics.json", problems)
    if payload is None:
        return problems, None
    if payload.get("n") != n_rows:
        problems.append(f"metrics.json: n is {payload.get('n')!r}, expected {n_rows}")
    auc = payload.get("auc")
    if not _valid_auc(auc):
        return problems + [f"metrics.json: AUC {auc!r} is not a finite number in [0, 1]"], None
    return problems, float(auc)
