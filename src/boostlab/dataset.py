"""Tabular binary-classification data: schemas, CSV I/O, synthesis, stratified splits.

Feature tables are stored as float64 matrices in schema column order, with NaN
standing for a missing cell. Missing cells are only legal in numeric columns.
"""

from __future__ import annotations

import csv
import io
import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    DegenerateSchema,
    EmptyDataset,
    LabelNotBinary,
    MalformedCsv,
    SingleClassDataset,
    UnknownColumn,
)

MISSING_TOKENS = ("", "NA")

_LABEL_RESAMPLE_TRIES = 100


@dataclass(frozen=True)
class FeatureKind:
    """How a column's cells are interpreted: "numeric", "binary" or "categorical"."""

    kind: str
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in ("numeric", "binary", "categorical"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "categorical":
            if self.cardinality is None or self.cardinality < 2:
                raise ValueError("categorical cardinality must be >= 2")
        elif self.cardinality is not None:
            raise ValueError(f"{self.kind} columns take no cardinality")

    @property
    def is_categorical(self) -> bool:
        return self.kind == "categorical"


NUMERIC = FeatureKind("numeric")
BINARY = FeatureKind("binary")


def categorical(cardinality: int) -> FeatureKind:
    return FeatureKind("categorical", cardinality)


@dataclass(frozen=True)
class FeatureSchema:
    """Ordered feature columns plus the name of the label column."""

    columns: tuple[tuple[str, FeatureKind], ...]
    label_column: str

    def __post_init__(self):
        object.__setattr__(self, "columns", tuple((n, k) for n, k in self.columns))
        names = self.feature_names
        if len(set(names)) != len(names):
            raise ValueError("duplicate feature column names")
        if self.label_column in names:
            raise ValueError("label column must not be a feature column")

    @property
    def feature_names(self) -> tuple[str, ...]:
        return tuple(n for n, _ in self.columns)

    @property
    def kinds(self) -> tuple[FeatureKind, ...]:
        return tuple(k for _, k in self.columns)

    @property
    def n_features(self) -> int:
        return len(self.columns)

    def to_dict(self) -> dict:
        cols = []
        for name, kind in self.columns:
            entry = {"name": name, "kind": kind.kind}
            if kind.is_categorical:
                entry["cardinality"] = kind.cardinality
            cols.append(entry)
        return {"columns": cols, "label_column": self.label_column}

    @classmethod
    def from_dict(cls, d: dict) -> "FeatureSchema":
        cols = []
        for entry in d["columns"]:
            kind = FeatureKind(entry["kind"], entry.get("cardinality"))
            cols.append((entry["name"], kind))
        return cls(tuple(cols), d["label_column"])


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus 0/1 labels, validated against a schema."""

    schema: FeatureSchema
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        values = np.ascontiguousarray(np.asarray(self.values, dtype=np.float64))
        labels = np.asarray(self.labels, dtype=np.int64)
        if values.ndim != 2:
            raise ValueError("values must be 2-D")
        n, d = values.shape
        if n < 1:
            raise EmptyDataset("dataset must have at least one row")
        if d != self.schema.n_features:
            raise ValueError(f"expected {self.schema.n_features} feature columns, got {d}")
        if labels.shape != (n,):
            raise ValueError("labels length must equal row count")
        if not np.isin(labels, (0, 1)).all():
            raise ValueError("labels must be 0 or 1")
        for j, (name, kind) in enumerate(self.schema.columns):
            col = values[:, j]
            missing = np.isnan(col)
            if kind.kind == "numeric":
                if not np.isfinite(col[~missing]).all():
                    raise ValueError(f"column {name!r} has non-finite cells")
                continue
            if missing.any():
                raise ValueError(f"missing cells are only allowed in numeric columns ({name!r})")
            if kind.kind == "binary":
                if not np.isin(col, (0.0, 1.0)).all():
                    raise ValueError(f"binary column {name!r} has cells outside {{0, 1}}")
            else:
                if not ((col == np.floor(col)) & (col >= 0) & (col < kind.cardinality)).all():
                    raise ValueError(f"categorical column {name!r} has out-of-range level indices")
        values.flags.writeable = False
        labels.flags.writeable = False
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.values.shape[0]

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def signed_labels(self) -> np.ndarray:
        """Labels remapped to {-1, +1}."""
        return 2 * self.labels - 1

    def subset(self, indices) -> "Dataset":
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, self.values[idx].copy(), self.labels[idx].copy())


@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/test split parameters."""

    test_fraction: float
    seed: int

    def __post_init__(self):
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic dataset parameters (see synthesize)."""

    n: int
    signal_strength: float = 2.0
    missing_rate: float = 0.0

    def __post_init__(self):
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.signal_strength >= 0:  # NaN too
            raise ValueError("signal_strength must be >= 0")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")


def pcos_default_schema() -> FeatureSchema:
    """Default 12-feature PCOS-screening-style schema (2 numeric, 9 binary, 1 categorical)."""
    cols = (
        ("age", NUMERIC),
        ("weight", NUMERIC),
        ("sudden_weight_gain", BINARY),
        ("hair_growth", BINARY),
        ("skin_darkening", BINARY),
        ("acne", BINARY),
        ("hair_thinning", BINARY),
        ("fatigue", BINARY),
        ("mood_swings", BINARY),
        ("irregular_cycle", BINARY),
        ("conceived_before", BINARY),
        ("activity_level", categorical(3)),
    )
    return FeatureSchema(cols, "pcos")


def _parse_cell(text: str, kind: FeatureKind, column: str, row_no: int) -> float:
    text = text.strip()
    if text in MISSING_TOKENS:
        if kind.kind != "numeric":
            raise MalformedCsv(
                f"row {row_no}: missing cell in non-numeric column {column!r}"
            )
        return math.nan
    if kind.kind == "numeric":
        try:
            value = float(text)
        except ValueError:
            raise MalformedCsv(f"row {row_no}: cannot parse {text!r} in column {column!r}") from None
        if not math.isfinite(value):
            raise MalformedCsv(f"row {row_no}: non-finite value in column {column!r}")
        return value
    try:
        value = int(text)
    except ValueError:
        raise MalformedCsv(f"row {row_no}: cannot parse {text!r} in column {column!r}") from None
    if kind.kind == "binary":
        if value not in (0, 1):
            raise MalformedCsv(f"row {row_no}: binary column {column!r} has value {text!r}")
    else:
        if not 0 <= value < kind.cardinality:
            raise MalformedCsv(
                f"row {row_no}: categorical column {column!r} has out-of-range level {text!r}"
            )
    return float(value)


def _read_header(reader, path) -> list[str]:
    """The stripped header cells of a CSV; empty files and repeated names are errors."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise EmptyDataset(f"{path}: file is empty") from None
    if len(set(header)) != len(header):
        raise MalformedCsv(f"{path}: duplicate header columns")
    return header


def _read_table(path, schema: FeatureSchema, *, label_required: bool):
    """Feature matrix and 0/1 labels of a CSV with the schema's columns in any order.

    Without label_required the label column may be absent, its cells are not
    read, and the labels come back as None.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        expected = set(schema.feature_names) | {schema.label_column}
        got = set(header) if label_required else set(header) | {schema.label_column}
        if got != expected:
            missing = sorted(expected - got)
            extra = sorted(got - expected)
            parts = []
            if missing:
                parts.append(f"missing {missing}")
            if extra:
                parts.append(f"unexpected {extra}")
            raise UnknownColumn(f"{path}: header mismatch: " + ", ".join(parts))
        columns = [(header.index(name), kind, name) for name, kind in schema.columns]
        label_pos = header.index(schema.label_column) if label_required else None

        rows = []
        labels = []
        for row_no, raw in enumerate(reader, start=2):
            if len(raw) != len(header):
                raise MalformedCsv(
                    f"{path}: row {row_no} has {len(raw)} cells, expected {len(header)}"
                )
            if label_pos is not None:
                label_text = raw[label_pos].strip()
                if label_text not in ("0", "1"):
                    raise LabelNotBinary(f"{path}: row {row_no} label {label_text!r} is not 0/1")
                labels.append(int(label_text))
            rows.append([_parse_cell(raw[pos], kind, name, row_no) for pos, kind, name in columns])
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    return np.array(rows, dtype=np.float64), np.array(labels) if label_required else None


def load_csv(path, schema: FeatureSchema) -> Dataset:
    """Load a UTF-8 comma-separated file whose header matches the schema (any order).

    Empty cells and the literal token "NA" become missing values; the label
    column must contain exactly "0" or "1".
    """
    values, labels = _read_table(path, schema, label_required=True)
    return Dataset(schema, values, labels)


def dataset_to_csv_text(data: Dataset) -> str:
    """Render a dataset as CSV text: schema column order, label last, missing empty."""
    schema = data.schema
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(schema.feature_names) + [schema.label_column])
    for i in range(data.n_rows):
        cells = []
        for j, (_, kind) in enumerate(schema.columns):
            v = data.values[i, j]
            if math.isnan(v):
                cells.append("")
            elif kind.kind == "numeric":
                cells.append(repr(float(v)))
            else:
                cells.append(str(int(v)))
        cells.append(str(int(data.labels[i])))
        writer.writerow(cells)
    return buf.getvalue()


def write_csv(path, data: Dataset) -> None:
    from ._fileio import atomic_write_text

    atomic_write_text(path, dataset_to_csv_text(data))


def load_features_csv(path, schema: FeatureSchema) -> np.ndarray:
    """Parse only the feature columns of a CSV; the label column may be absent."""
    return _read_table(path, schema, label_required=False)[0]


def infer_schema(path, label_column: str) -> FeatureSchema:
    """Guess a schema from a CSV file.

    Columns whose non-missing cells are all 0/1 become binary; integer columns
    with every value in 0..9 become categorical (cardinality = max + 1);
    anything else, and any column containing missing cells, is numeric.
    """
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = _read_header(reader, path)
        if label_column not in header:
            raise UnknownColumn(f"{path}: no column named {label_column!r}")
        texts = {name: [] for name in header if name != label_column}
        for raw in reader:
            if len(raw) != len(header):
                continue  # load_csv reports the precise error later
            for name, cell in zip(header, raw):
                if name != label_column:
                    texts[name].append(cell.strip())

    def kind_of(cells: list[str]) -> FeatureKind:
        seen_missing = False
        ints: list[int] = []
        for c in cells:
            if c in MISSING_TOKENS:
                seen_missing = True
                continue
            try:
                f = float(c)
            except ValueError:
                return NUMERIC  # load_csv will reject it with a precise message
            if f != int(f):
                return NUMERIC
            ints.append(int(f))
        if seen_missing or not ints:
            return NUMERIC
        if all(v in (0, 1) for v in ints):
            return BINARY
        if all(0 <= v <= 9 for v in ints):
            return categorical(max(ints) + 1)
        return NUMERIC

    columns = tuple((name, kind_of(texts[name])) for name in header if name != label_column)
    return FeatureSchema(columns, label_column)


# Logit gain and per-feature weight decay: earlier schema columns carry most of
# the signal, so shallow trees can rank well at moderate signal_strength while
# signal_strength = 0 still means label/feature independence.
_SIGNAL_GAIN = 2.0
_WEIGHT_DECAY = 0.65


def synthesize(
    schema: FeatureSchema,
    n: int,
    seed: int,
    signal_strength: float,
    missing_rate: float = 0.0,
) -> Dataset:
    """Draw a deterministic synthetic dataset with labels from a logistic model.

    Per-feature weights are drawn once from the seeded generator and damped
    geometrically along the schema order; the label logit is signal_strength
    times the standardized weighted feature sum, so signal_strength = 0 makes
    labels independent of the features. Missing values (NaN) are injected into
    numeric columns at missing_rate.
    """
    from .boost import sigmoid

    if schema.n_features == 0:
        raise DegenerateSchema("schema has no feature columns")
    SyntheticSpec(n, signal_strength, missing_rate)  # checks the ranges
    rng = np.random.default_rng(seed)
    d = schema.n_features
    cols = []
    contrib = np.zeros((n, d))
    for j, (_, kind) in enumerate(schema.columns):
        if kind.kind == "numeric":
            mu = rng.uniform(20.0, 80.0)
            sigma = rng.uniform(2.0, 15.0)
            x = rng.normal(mu, sigma, size=n)
            w = rng.normal()
            contrib[:, j] = w * (x - mu) / sigma
        elif kind.kind == "binary":
            p = rng.uniform(0.25, 0.75)
            x = (rng.random(n) < p).astype(np.float64)
            w = rng.normal()
            contrib[:, j] = w * (x - p) / math.sqrt(p * (1.0 - p))
        else:
            probs = rng.dirichlet(np.ones(kind.cardinality))
            x = rng.choice(kind.cardinality, size=n, p=probs).astype(np.float64)
            effects = rng.normal(size=kind.cardinality)
            effects = effects - probs @ effects
            contrib[:, j] = effects[x.astype(np.int64)]
        cols.append(x)
    scale = _WEIGHT_DECAY ** np.arange(d)
    norm = math.sqrt(float((scale * scale).sum()))
    logits = _SIGNAL_GAIN * signal_strength * (contrib * scale).sum(axis=1) / norm
    p1 = sigmoid(logits)
    for _ in range(_LABEL_RESAMPLE_TRIES):
        labels = (rng.random(n) < p1).astype(np.int64)
        if labels.any() and not labels.all():
            break
    else:
        raise SingleClassDataset("could not draw both classes; signal too extreme")
    values = np.column_stack(cols)
    if missing_rate > 0.0:
        for j, (_, kind) in enumerate(schema.columns):
            if kind.kind == "numeric":
                mask = rng.random(n) < missing_rate
                values[mask, j] = np.nan
    return Dataset(schema, values, labels)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic stratified partition into (train, test).

    Test size is round(n * test_fraction) clamped to [1, n - 1]; per-class
    counts follow largest-remainder allocation, so each class's test share is
    within one row of the requested fraction.
    """
    n = data.n_rows
    if n < 2:
        raise ValueError("cannot split fewer than 2 rows")
    labels = data.labels
    if labels.min() == labels.max():
        raise SingleClassDataset("stratified split needs both classes")
    k_total = int(math.floor(n * spec.test_fraction + 0.5))
    k_total = min(max(k_total, 1), n - 1)

    class_indices = [np.flatnonzero(labels == c) for c in (0, 1)]
    ideal = [k_total * len(ci) / n for ci in class_indices]
    counts = [int(math.floor(x)) for x in ideal]
    remainders = sorted(
        range(2), key=lambda c: (-(ideal[c] - counts[c]), c)
    )
    short = k_total - sum(counts)
    for c in remainders[:short]:
        counts[c] += 1
    for c in (0, 1):
        counts[c] = min(counts[c], len(class_indices[c]))

    rng = np.random.default_rng(spec.seed)
    test_idx = []
    for c in (0, 1):
        perm = rng.permutation(class_indices[c])
        test_idx.append(perm[: counts[c]])
    test_mask = np.zeros(n, dtype=bool)
    test_mask[np.concatenate(test_idx)] = True
    test_rows = np.flatnonzero(test_mask)
    train_rows = np.flatnonzero(~test_mask)
    return data.subset(train_rows), data.subset(test_rows)
