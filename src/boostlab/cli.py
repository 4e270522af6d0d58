"""Command-line entry point: train / predict / eval / compare / synth.

eval --data reads only the labels of the data CSV, but checks every cell of
it as train would, so a file train rejects is rejected by eval too. --scores
and --truth are data files of SCORES_SCHEMA and TRUTH_SCHEMA, read as every
CSV is (see dataset's module docstring), so their errors are load_csv's and
name the file and the row; a "label" column in --scores is not read. A score outside
[0, 1], as predict writes them, or missing ("" or "NA") is a malformed
scores file (exit 2).
predict writes each score, and eval each curve coordinate, as "%.6f"
would, byte for byte, from the whole array at once (metrics.format_6f).

compare reads its rows from --data, or with --synthetic draws them by
SyntheticSpec at the seed (500 rows unless --n is given), and hands them,
one SplitSpec and the four algorithms' params to bench.run_benchmark.
--preset paper sets the paper's experiment: 250 synthetic rows, a 48-row
stratified test split (--test-fraction 48/250) and each algorithm's
boost.paper_preset params; --n, --test-fraction and the param flags
override it. compare runs its four fit-and-score jobs as run_benchmark does:
this process and one forked child share them through a claim queue,
longest fit first, with CatBoost in this process; or this process runs all
four when os.fork or os.sched_getaffinity is missing, the process may run
on one CPU only, another thread runs, or os.fork fails. The report files
are the same either way. When jobs fail, the error reported is that of the
earliest failing algorithm in ALGORITHMS order, whichever process ran it,
and no child outlives the command.

Exit codes: 0 success (and --help); 1 usage error, with a usage line: an
unknown or missing flag, a value BoostParams, SplitSpec or SyntheticSpec
rejects, such as --seed -1, --rounds -1, --test-fraction 2, --threshold 7 or
--n 1, or compare's --n, --signal-strength or --missing-rate without
--synthetic; 2 data or model error, on one stderr line: a missing file or a
malformed CSV, --schema or model file, a compare split of one class (a
test split without a positive row fails before any fit), or a fit or model
whose raw scores are not finite (such as --learning-rate 1e308). Output files are written
atomically (temp file + rename), so a failing run never leaves a
half-written file behind; train checks --model-out, and compare creates
--out, before any fit, and predict checks --scores-out before it scores.
The BOOSTLAB_SEED environment variable sets the seed wherever --seed is not
given, and is checked as --seed is: BOOSTLAB_SEED=abc or -1 exits 1.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import fields, replace
from pathlib import Path

import numpy as np

from ._fileio import atomic_write_text, check_destination
from .bench import run_benchmark
from .boost import (
    ALGORITHMS,
    BoostParams,
    default_params,
    fit,
    load_model,
    paper_preset,
    predict_scores,
    save_model,
)
from .dataset import (
    NUMERIC,
    Dataset,
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    load_csv,
    load_features_csv,
    load_labels_csv,
    write_csv,
)
from .errors import BoostlabError, LengthMismatch, MalformedCsv, MalformedSchema
from .metrics import evaluate, format_6f, pr_to_csv, roc_to_csv
from .tree import MAX_OBLIVIOUS_DEPTH

DEFAULT_SEED = 42
PAPER_PRESET_N = 250
PAPER_PRESET_TEST_ROWS = 48
SCORES_SCHEMA = FeatureSchema((("score", NUMERIC),), "label")
TRUTH_SCHEMA = FeatureSchema((), "label")


class _UsageError(Exception):
    def __init__(self, parser: argparse.ArgumentParser, message: str):
        super().__init__(message)
        self.parser = parser


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(self, message)


def _add_param_flags(p: argparse.ArgumentParser):
    # Each dest is the BoostParams field the flag overrides (see _overrides).
    p.add_argument("--rounds", dest="n_rounds", type=int, default=None, help="boosting rounds")
    p.add_argument("--learning-rate", type=float, default=None, help="each tree's weight (shrinkage); adaboost ignores it")
    depth_help = f"tree depth; adaboost ignores it (stumps), catboost trees stop at {MAX_OBLIVIOUS_DEPTH} levels"
    p.add_argument("--depth", dest="max_depth", type=int, default=None, help=depth_help)
    p.add_argument("--lambda", dest="reg_lambda", type=float, default=None, help="L2 leaf penalty")
    p.add_argument("--gamma", type=float, default=None, help="minimum split gain")
    p.add_argument("--min-child-weight", type=float, default=None)
    p.add_argument("--cat-one-hot-max", type=int, default=None)
    p.add_argument("--cat-prior", type=float, default=None)
    p.add_argument("--seed", type=int, default=None, help="default 42, or BOOSTLAB_SEED")
    p.add_argument("--threshold", type=float, default=None, help="label threshold, default 0.5")
    p.add_argument("--preset", choices=["paper"], default=None)


def _given(args, cls) -> dict:
    """The flags given on the command line whose dest is a field of dataclass cls."""
    given = {f.name: getattr(args, f.name, None) for f in fields(cls)}
    return {name: value for name, value in given.items() if value is not None}


def _overrides(args) -> dict:
    """The BoostParams fields the command line sets, checked at the boundary.

    The seed, for commands that take one, is --seed, else BOOSTLAB_SEED, else
    42. Every value must pass BoostParams' own checks, --test-fraction
    SplitSpec's, and --n, --signal-strength and --missing-rate SyntheticSpec's;
    a value that fails is a usage error (exit 1).
    """
    overrides = _given(args, BoostParams)
    if hasattr(args, "seed") and args.seed is None:
        env = os.environ.get("BOOSTLAB_SEED", str(DEFAULT_SEED))
        try:
            overrides["seed"] = int(env)
        except ValueError:
            args.parser.error(f"BOOSTLAB_SEED: invalid int value: {env!r}")
    try:
        BoostParams(**overrides)
        if getattr(args, "test_fraction", None) is not None:
            SplitSpec(args.test_fraction, 0)
        # the given synthetic fields, over a valid row count when --n is not given
        SyntheticSpec(**{"n": 2, **_given(args, SyntheticSpec)})
    except ValueError as exc:
        args.parser.error(str(exc))
    return overrides


def _add_data_flags(p: argparse.ArgumentParser):
    p.add_argument("--schema", default=None, help="schema JSON file; inferred when omitted")
    p.add_argument("--label", default="pcos", help="label column name for schema inference")


def _load_schema_arg(args) -> FeatureSchema | None:
    """The --schema file's schema, None without --schema; a bad file is MalformedSchema."""
    if args.schema is None:
        return None
    with open(args.schema, encoding="utf-8") as fh:
        try:
            return FeatureSchema.from_dict(json.load(fh))
        # ValueError: bad JSON or UTF-8 too; RecursionError: JSON nested past the parser's limit
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise MalformedSchema(f"{args.schema}: not a schema: {exc!r}") from None


def _cmd_train(args) -> int:
    overrides = _overrides(args)
    data = load_csv(args.data, _load_schema_arg(args), args.label)
    base = paper_preset(args.algo) if args.preset == "paper" else default_params(args.algo)
    check_destination(args.model_out)  # before the fit, which the write would come after
    model = fit(args.algo, data, replace(base, **overrides))
    save_model(model, args.model_out)
    print(f"trained {args.algo} on {data.n_rows} rows -> {args.model_out}")
    return 0


def _cmd_predict(args) -> int:
    model = load_model(args.model)
    values = load_features_csv(args.data, model.schema)
    data = Dataset(model.schema, values, np.zeros(values.shape[0], dtype=np.int64))
    del values  # the dataset holds its own copy
    check_destination(args.scores_out)  # before the scoring, which the write would come after
    scores = predict_scores(model, data)
    atomic_write_text(args.scores_out, "score\n" + format_6f(scores))
    print(f"wrote {scores.size} scores -> {args.scores_out}")
    return 0


def _cmd_eval(args) -> int:
    _overrides(args)  # checks --threshold
    scores = load_features_csv(args.scores, SCORES_SCHEMA)[:, 0]
    if not ((scores >= 0) & (scores <= 1)).all():  # NaN, a missing cell, too
        raise MalformedCsv(f"{args.scores}: score cells must lie in [0, 1]")
    if args.truth is not None:
        truth = load_labels_csv(args.truth, TRUTH_SCHEMA)
    else:
        truth = load_labels_csv(args.data, _load_schema_arg(args), args.label)
    if scores.shape != truth.shape:
        raise LengthMismatch(f"length mismatch: {scores.size} scores vs {truth.size} labels")
    result = evaluate(scores, truth, args.threshold)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    payload = {"n": int(truth.size), "threshold": args.threshold, **result.to_dict()}
    atomic_write_text(out / "metrics.json", json.dumps(payload, indent=2, allow_nan=False) + "\n")
    atomic_write_text(out / "roc.csv", roc_to_csv(result.roc))
    atomic_write_text(out / "pr.csv", pr_to_csv(result.pr))
    print(f"wrote metrics.json, roc.csv, pr.csv -> {out}")
    return 0


def _cmd_compare(args) -> int:
    overrides = _overrides(args)
    if _given(args, SyntheticSpec) and not args.synthetic:
        args.parser.error("--n, --signal-strength and --missing-rate need --synthetic")
    schema = _load_schema_arg(args)
    Path(args.out).mkdir(parents=True, exist_ok=True)  # a file there ends the run before the data and the fits
    paper, seed = args.preset == "paper", overrides["seed"]
    if args.synthetic:
        n = PAPER_PRESET_N if paper else 500
        data = SyntheticSpec(**{"n": n, **_given(args, SyntheticSpec)}).draw(seed, schema)
    else:
        data = load_csv(args.data, schema, args.label)
    test_fraction = PAPER_PRESET_TEST_ROWS / PAPER_PRESET_N if paper else 0.2
    spec = SplitSpec(test_fraction if args.test_fraction is None else args.test_fraction, seed)
    base = paper_preset if paper else default_params
    report = run_benchmark(data, spec, {algo: replace(base(algo), **overrides) for algo in ALGORITHMS}, args.out)
    print(f"benchmark complete: report.json, table.txt, table.csv, 8 curve CSVs -> {args.out}")
    for algo, r in report.results.items():
        print(f"  {algo}: test_acc={r.test.scores.accuracy:.4f} auc={r.test.roc.auc:.4f}")
    return 0


def _cmd_synth(args) -> int:
    seed = _overrides(args)["seed"]
    schema = _load_schema_arg(args)
    data = SyntheticSpec(**_given(args, SyntheticSpec)).draw(seed, schema)
    write_csv(args.out, data)
    print(f"wrote {data.n_rows} rows -> {args.out}")
    return 0


def build_parser() -> _Parser:
    parser = _Parser(prog="boostlab", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="fit one booster on a CSV and save the model")
    p_train.add_argument("--algo", required=True, choices=ALGORITHMS)
    p_train.add_argument("--data", required=True, help="training CSV")
    p_train.add_argument("--model-out", default="model.json")
    _add_data_flags(p_train)
    _add_param_flags(p_train)

    p_pred = sub.add_parser("predict", help="score rows with a saved model")
    p_pred.add_argument("--model", required=True, help="model JSON file")
    p_pred.add_argument("--data", required=True, help="CSV to score (label column optional)")
    p_pred.add_argument("--scores-out", default="scores.csv")

    p_eval = sub.add_parser("eval", help="metrics and curves from a scores file")
    p_eval.add_argument("--scores", required=True, help="CSV with header 'score'")
    group = p_eval.add_mutually_exclusive_group(required=True)
    group.add_argument("--truth", default=None, help="CSV with header 'label'")
    group.add_argument("--data", default=None, help="labeled dataset CSV")
    p_eval.add_argument("--out", required=True, help="output directory")
    p_eval.add_argument("--threshold", type=float, default=0.5)
    _add_data_flags(p_eval)

    p_cmp = sub.add_parser("compare", help="benchmark all four boosters on one split")
    src = p_cmp.add_mutually_exclusive_group(required=True)
    src.add_argument("--synthetic", action="store_true", help="use the synthetic generator")
    src.add_argument("--data", default=None, help="dataset CSV")
    p_cmp.add_argument("--n", type=int, default=None, help="synthetic row count")
    p_cmp.add_argument("--signal-strength", type=float, default=None)
    p_cmp.add_argument("--missing-rate", type=float, default=None)
    p_cmp.add_argument("--test-fraction", type=float, default=None)
    p_cmp.add_argument("--out", required=True, help="output directory")
    _add_data_flags(p_cmp)
    _add_param_flags(p_cmp)

    p_synth = sub.add_parser("synth", help="write a synthetic dataset CSV")
    p_synth.add_argument("--n", type=int, required=True)
    p_synth.add_argument("--seed", type=int, default=None)
    p_synth.add_argument("--signal-strength", type=float, default=None)
    p_synth.add_argument("--missing-rate", type=float, default=None)
    p_synth.add_argument("--schema", default=None, help="schema JSON file")
    p_synth.add_argument("--out", required=True, help="output CSV path")

    for p in sub.choices.values():
        p.set_defaults(parser=p)  # for usage errors found after parsing
    return parser


_COMMANDS = {
    "train": _cmd_train,
    "predict": _cmd_predict,
    "eval": _cmd_eval,
    "compare": _cmd_compare,
    "synth": _cmd_synth,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except _UsageError as exc:
        exc.parser.print_usage(sys.stderr)
        print(f"{exc.parser.prog}: error: {exc}", file=sys.stderr)
        return 1
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except BoostlabError as exc:
        print(f"{args.command}: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        name = exc.filename if exc.filename else ""
        reason = exc.strerror if exc.strerror else str(exc)
        print(f"{args.command}: {name}: {reason}".replace(": :", ":"), file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
