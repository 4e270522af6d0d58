"""Rewrite golden.json from the outputs of the checked-out commit at the default seed.

    PYTHONPATH=src python3 perfbench/make_golden.py

Golden outputs define correctness for every later commit, so run this only
on the commit whose outputs are the reference, never to make a failing check
pass.
"""

from __future__ import annotations

import contextlib
import io
import json
import shutil
from pathlib import Path

from boostlab import cli

import checks
import worker

GOLDEN_FILES = {
    "paper": checks.COMPARE_FILES,
    "serve": tuple(f"{algo}/{name}" for algo in worker.SERVE_ALGOS for name in ("scores.csv", "eval/metrics.json")),
}


def golden_digests(workload: str, workdir: Path) -> dict[str, str]:
    workdir.mkdir(parents=True)
    worker.prepare(workload, worker.DEFAULT_SEED, workdir)
    out = workdir / "out"
    out.mkdir()
    for argv, _ in worker.unit_ops(workload, worker.DEFAULT_SEED, 0, workdir, out, {}):
        with contextlib.redirect_stdout(io.StringIO()):
            if cli.main(argv) != 0:
                raise SystemExit(f"{workload}: {' '.join(argv)} failed")
    return {rel: checks.digest(out / rel) for rel in GOLDEN_FILES[workload]}


def main() -> None:
    scratch = Path(__file__).resolve().parent.parent / ".perfbench_work" / "golden"
    shutil.rmtree(scratch, ignore_errors=True)
    try:
        golden = {w: golden_digests(w, scratch / w) for w in GOLDEN_FILES}
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    checks.GOLDEN_PATH.write_text(json.dumps(golden, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(f"wrote {checks.GOLDEN_PATH}")


if __name__ == "__main__":
    main()
