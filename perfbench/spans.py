"""In-memory span tracing around boostlab's public functions.

Spans are recorded from outside the library: `install` replaces each target
function under every name that refers to it inside the `boostlab` package
(the defining module and each module that imported it), and `restore` puts
the originals back. Each span is (id, parent id, name, start, end); all spans
of one recorder share its run id. Counters are recorded at the same
boundaries, so that ratios such as rows per second are measured where the
work happens.
"""

from __future__ import annotations

import functools
import os
import sys
import time
from collections import defaultdict

import numpy as np


class Recorder:
    """Spans and counters of one traced run, kept in memory until written out."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[list] = []  # [id, parent, name, start, end]
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []

    def open(self, name: str) -> int:
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append([sid, parent, name, time.perf_counter(), None])
        self._stack.append(sid)
        return sid

    def close(self, sid: int) -> None:
        self.spans[sid][4] = time.perf_counter()
        popped = self._stack.pop()
        if popped != sid:
            raise RuntimeError(f"span {sid} closed out of order (innermost is {popped})")

    def add(self, counter: str, value: float) -> None:
        self.counts[counter] += value

    def to_dict(self) -> dict:
        return {
            "run_id": self.run_id,
            "spans": [
                {"id": s[0], "parent": s[1], "name": s[2], "start": s[3], "end": s[4]}
                for s in self.spans
            ],
            "counts": dict(self.counts),
        }


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of its interval its children cover.

    `spans` are dicts with id, parent, start and end. Overlapping children are
    merged before subtraction, so a child interval is never counted twice.
    """
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        lo, hi = s["start"], s["end"]
        covered = 0.0
        cur_start = cur_end = None
        for a, b in sorted(children[s["id"]]):
            a, b = max(a, lo), min(b, hi)
            if b <= a:
                continue
            if cur_end is None or a > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = a, b
            else:
                cur_end = max(cur_end, b)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s["id"]] = (hi - lo) - covered
    return out


def summarize(spans) -> dict[str, dict[str, float]]:
    """Per span name: total seconds, self seconds and call count."""
    selfs = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"s": 0.0, "self_s": 0.0, "calls": 0})
    for s in spans:
        agg = out[s["name"]]
        agg["s"] += s["end"] - s["start"]
        agg["self_s"] += selfs[s["id"]]
        agg["calls"] += 1
    return dict(out)


# --- counters read at the span boundary ---------------------------------------


def _file_size(args, kwargs, position: int, keyword: str) -> int:
    path = args[position] if len(args) > position else kwargs[keyword]
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _count_rows(counter):
    def count(rec, args, kwargs, result):
        n = result.shape[0] if hasattr(result, "shape") else result.n_rows
        rec.add(counter, n)
        rec.add("dataset.rows_parsed", n)
        rec.add("dataset.bytes_read", _file_size(args, kwargs, 0, "path"))

    return count


def _count_infer(rec, args, kwargs, result):
    rec.add("dataset.bytes_read", _file_size(args, kwargs, 0, "path"))


def _count_written(rec, args, kwargs, result):
    rec.add("fileio.atomic_write_text.bytes", _file_size(args, kwargs, 0, "path"))


def _count_saved(rec, args, kwargs, result):
    rec.add("boost.save_model.bytes", _file_size(args, kwargs, 1, "path"))


def _count_loaded(rec, args, kwargs, result):
    rec.add("boost.load_model.bytes", _file_size(args, kwargs, 0, "path"))


def _count_scored(rec, args, kwargs, result):
    rec.add("boost.predict_scores.rows", len(result))


def _count_regression_tree(rec, args, kwargs, result):
    rec.add("tree.regression.leaves", len(result.leaves()))


def _count_oblivious_tree(rec, args, kwargs, result):
    # A leaf is occupied when at least one training row reaches it.
    X = args[0] if args else kwargs["X"]
    rec.add("tree.oblivious.leaves", np.unique(result.leaf_index(X)).size)
    rec.add("tree.oblivious.leaf_slots", np.size(result.leaf_values))


# (defining module, attribute, span name, counter). A dotted attribute names a
# method on a class of that module.
TARGETS = (
    ("boostlab.bench", "run_benchmark", "bench.run_benchmark", None),
    ("boostlab.bench", "write_report_files", "bench.write_report_files", None),
    ("boostlab.boost", "fit_adaboost", "boost.fit.adaboost", None),
    ("boostlab.boost", "fit_gbm", "boost.fit.gbm", None),
    ("boostlab.boost", "fit_xgb", "boost.fit.xgboost", None),
    ("boostlab.boost", "fit_catboost", "boost.fit.catboost", None),
    ("boostlab.boost", "ordered_target_stats", "boost.ordered_target_stats", None),
    ("boostlab.boost", "predict_scores", "boost.predict_scores", _count_scored),
    ("boostlab.boost", "save_model", "boost.save_model", _count_saved),
    ("boostlab.boost", "load_model", "boost.load_model", _count_loaded),
    ("boostlab.tree", "fit_stump", "tree.fit_stump", None),
    ("boostlab.tree", "fit_regression_tree", "tree.fit_regression_tree", _count_regression_tree),
    ("boostlab.tree", "fit_oblivious_tree", "tree.fit_oblivious_tree", _count_oblivious_tree),
    ("boostlab.tree", "predict_stump", "tree.stump.predict", None),
    ("boostlab.tree", "RegressionTree.predict", "tree.regression.predict", None),
    ("boostlab.tree", "ObliviousTree.predict", "tree.oblivious.predict", None),
    ("boostlab.dataset", "load_csv", "dataset.load_csv", _count_rows("dataset.load_csv.rows")),
    (
        "boostlab.dataset",
        "load_features_csv",
        "dataset.load_features_csv",
        _count_rows("dataset.load_features_csv.rows"),
    ),
    ("boostlab.dataset", "infer_schema", "dataset.infer_schema", _count_infer),
    ("boostlab.dataset", "synthesize", "dataset.synthesize", None),
    ("boostlab.dataset", "split", "dataset.split", None),
    ("boostlab.metrics", "confusion", "metrics.confusion", None),
    ("boostlab.metrics", "roc_curve", "metrics.roc_curve", None),
    ("boostlab.metrics", "pr_curve", "metrics.pr_curve", None),
    ("boostlab._fileio", "atomic_write_text", "fileio.atomic_write_text", _count_written),
)

# The CLI dispatches through its _COMMANDS table, so the commands are wrapped
# there rather than under their function names.
CLI_COMMANDS = ("train", "predict", "eval", "compare")


def _wrap(fn, name: str, rec: Recorder, count):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        sid = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            rec.close(sid)
        if count is not None:
            try:
                count(rec, args, kwargs, result)
            except AttributeError:
                rec.add("trace.uncounted", 1)  # the returned object's shape changed
        return result

    return wrapper


class Patches:
    """Installed wrappers and how to undo them, in installation order."""

    def __init__(self):
        self._undo: list[tuple] = []

    def set_attr(self, owner, attr: str, value) -> None:
        self._undo.append((owner, attr, getattr(owner, attr), False))
        setattr(owner, attr, value)

    def set_item(self, mapping, key, value) -> None:
        self._undo.append((mapping, key, mapping[key], True))
        mapping[key] = value

    def restore(self) -> None:
        while self._undo:
            owner, key, original, is_item = self._undo.pop()
            if is_item:
                owner[key] = original
            else:
                setattr(owner, key, original)


def install(rec: Recorder) -> tuple[Patches, list[str]]:
    """Wrap every target under each name bound to it in the boostlab package.

    Returns the patches and the span names whose target does not exist in
    this version of the library; those layers then report zero.
    """
    patches = Patches()
    missing = []
    modules = [m for n, m in sorted(sys.modules.items()) if n == "boostlab" or n.startswith("boostlab.")]
    for module_name, attr, span_name, count in TARGETS:
        owner = sys.modules.get(module_name)
        *cls_path, name = attr.split(".")
        for part in cls_path:
            owner = getattr(owner, part, None)
        original = None if owner is None else vars(owner).get(name)
        if original is None:
            missing.append(span_name)
            continue
        wrapper = _wrap(original, span_name, rec, count)
        if cls_path:
            patches.set_attr(owner, name, wrapper)
            continue
        for module in modules:
            if vars(module).get(name) is original:
                patches.set_attr(module, name, wrapper)
    commands = getattr(sys.modules.get("boostlab.cli"), "_COMMANDS", {})
    for cmd in CLI_COMMANDS:
        if cmd in commands:
            patches.set_item(commands, cmd, _wrap(commands[cmd], f"cli.{cmd}", rec, None))
        else:
            missing.append(f"cli.{cmd}")
    return patches, missing
