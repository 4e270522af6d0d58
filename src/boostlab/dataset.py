"""Tabular binary-classification data: schemas, CSV I/O, synthesis, stratified splits.

Feature tables are stored as column-major float64 matrices in schema column
order, with NaN standing for a missing cell: every reader and Dataset give
that one layout. Missing cells are only legal in numeric columns.

Every CSV file is read in one flow: opened once, tokenized once, then
parsed column by column; a blank line is a row of no cells. A plain text (ASCII, ending in a newline, with no
'"', CR or NUL, no blank line, no line longer than csv.field_size_limit(),
a data row and every row as wide as the header) is tokenized from its
bytes: one numpy pass finds its delimiters, whose offsets give exactly the
cells csv.reader gives. Any other text is tokenized by read_csv_table,
which decodes the whole file (less a UTF-8 byte-order mark) and reads it
with csv.reader before any check: so a file that is not UTF-8 text is
MalformedCsv ("not UTF-8 text") whatever else is wrong with it, a wrong
header too, and so is a row the csv module cannot read.

Each column the caller reads is then parsed on its own. A column of a plain
text whose cells fit the byte grammar is parsed from its bytes with no
Python string per cell: a binary, categorical or label cell must be one
digit, and a numeric cell "", "NA" or an optional "-" then 1 to 15 digits
with at most one "." (read exactly, see _decimals). Any other column, such
as the repr floats of 16 or 17 digits that boostlab synth writes, a padded
or bad cell, or every column csv.reader tokenized, is parsed from its cell
texts: its kind is inferred from its distinct stripped texts, each of
them is parsed once, and the values are gathered per cell in C. A
column is parsed from its bytes only when every one of its texts would
parse, so every value, error, message and row number is the text parse's.

Either way every cell is checked, but values are built only for the
columns the caller reads: load_labels_csv and infer_schema build no
feature matrix.
"""

from __future__ import annotations

import csv
import functools
import io
import itertools
import math
from dataclasses import dataclass, fields
from numbers import Integral, Real

import numpy as np

from ._fileio import atomic_write_text
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


def typed_fields(value) -> None:
    """Check each field of the frozen dataclass value, every one annotated int
    or float, and store it as that type: an int field takes an integer, a
    numpy integer too, and a float field any real number; a bool is neither.
    Any other value, and an int beyond the float range for a float field, is
    a ValueError naming the field."""
    for f in fields(value):
        given, is_int = getattr(value, f.name), f.type == "int"
        if isinstance(given, bool) or not isinstance(given, Integral if is_int else Real):
            raise ValueError(f"{f.name} must be {'an int' if is_int else 'a real number'}, not {given!r}")
        try:
            object.__setattr__(value, f.name, int(given) if is_int else float(given))
        except OverflowError:
            raise ValueError(f"{f.name} {given!r} is beyond the float range") from None


@dataclass(frozen=True)
class FeatureKind:
    """How a column's cells are interpreted: "numeric", "binary" or "categorical"."""

    kind: str
    cardinality: int | None = None

    def __post_init__(self):
        if self.kind not in ("numeric", "binary", "categorical"):
            raise ValueError(f"unknown feature kind {self.kind!r}")
        if self.kind == "categorical":
            if type(self.cardinality) is not int or self.cardinality < 2:  # not a bool or float
                raise ValueError("categorical cardinality must be an int >= 2")
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
        if not all(isinstance(name, str) for name in (*names, self.label_column)):
            raise ValueError("column names and the label column must be strings")
        if not all(isinstance(kind, FeatureKind) for kind in self.kinds):
            raise ValueError("columns must pair each name with a FeatureKind")
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
        cols = ((e["name"], FeatureKind(e["kind"], e.get("cardinality"))) for e in d["columns"])
        return cls(tuple(cols), d["label_column"])


@dataclass(frozen=True)
class Dataset:
    """Immutable feature matrix plus 0/1 labels, validated against a schema.
    The dataset always copies both arrays it is given, the matrix into
    column-major float64 (each feature's cells contiguous, as the fitters
    and the scorer read it by column) and the labels into int64. It holds
    read-only views of the copies, on which numpy refuses to set writeable
    back, so neither the caller's arrays nor a user of the dataset can
    write its cells. A copy or an unpickled dataset is rebuilt through the
    constructor (__reduce__), so it is checked and frozen too."""

    schema: FeatureSchema
    values: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        values = np.array(self.values, dtype=np.float64, order="F")
        labels = np.asarray(self.labels)
        if values.ndim != 2:
            raise ValueError("values must be 2-D")
        n, d = values.shape
        if n < 1:
            raise EmptyDataset("dataset must have at least one row")
        if d != self.schema.n_features:
            raise ValueError(f"expected {self.schema.n_features} feature columns, got {d}")
        if labels.shape != (n,):
            raise ValueError("labels length must equal row count")
        if not np.isin(labels, (0, 1)).all():  # before the cast, which would truncate 0.5 and 1.7
            raise ValueError("labels must be 0 or 1")
        labels = labels.astype(np.int64)  # a copy
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
        object.__setattr__(self, "values", values.view())
        object.__setattr__(self, "labels", labels.view())

    def __reduce__(self):
        return Dataset, (self.schema, self.values, self.labels)

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
        """The rows at indices, in that order, as a new Dataset."""
        idx = np.asarray(indices, dtype=np.int64)
        return Dataset(self.schema, self.values[idx], self.labels[idx])


@dataclass(frozen=True)
class SplitSpec:
    """Stratified train/test split parameters: test_fraction a real number,
    seed an int (see typed_fields)."""

    test_fraction: float
    seed: int

    def __post_init__(self):
        typed_fields(self)
        if not 0.0 < self.test_fraction < 1.0:
            raise ValueError("test_fraction must lie in (0, 1)")
        if self.seed < 0:
            raise ValueError("seed must be non-negative")


@dataclass(frozen=True)
class SyntheticSpec:
    """Synthetic dataset parameters (see synthesize): n an int, the others
    real numbers (see typed_fields)."""

    n: int
    signal_strength: float = 2.0
    missing_rate: float = 0.0

    def __post_init__(self):
        typed_fields(self)
        if self.n < 2:
            raise ValueError("n must be >= 2")
        if not self.signal_strength >= 0:  # NaN too
            raise ValueError("signal_strength must be >= 0")
        if not 0.0 <= self.missing_rate < 1.0:
            raise ValueError("missing_rate must lie in [0, 1)")

    def draw(self, seed: int, schema: FeatureSchema | None = None) -> Dataset:
        """synthesize's draw of these parameters at seed, of schema or, for
        None, pcos_default_schema()."""
        schema = pcos_default_schema() if schema is None else schema
        return synthesize(schema, self.n, seed, self.signal_strength, self.missing_rate)


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


def _parse_cell(text: str, kind: FeatureKind, column: str) -> float:
    """The value of one stripped cell; a ValueError gives the reason it has none."""
    if text in MISSING_TOKENS:
        if kind.kind != "numeric":
            raise ValueError(f"missing cell in non-numeric column {column!r}")
        return math.nan
    try:
        value = float(text) if kind.kind == "numeric" else int(text)
    except ValueError:
        raise ValueError(f"cannot parse {text!r} in column {column!r}") from None
    if kind.kind == "numeric" and not math.isfinite(value):
        raise ValueError(f"non-finite value in column {column!r}")
    if kind.kind == "binary" and value not in (0, 1):
        raise ValueError(f"binary column {column!r} has value {text!r}")
    if kind.is_categorical and not 0 <= value < kind.cardinality:
        raise ValueError(f"categorical column {column!r} has out-of-range level {text!r}")
    return float(value)


def parse_label(text: str) -> int:
    """A label cell's class: the cell must be "0" or "1" once stripped."""
    text = text.strip()
    if text not in ("0", "1"):
        raise ValueError(f"label {text!r} is not 0/1")
    return int(text)


def _kind_of(texts) -> FeatureKind:
    """The kind of a column, from the set of its distinct stripped texts (see
    infer_schema). Integers are read by int(), as _parse_cell reads binary and
    categorical cells, so every inferred schema parses its own file."""
    ints = set()
    for text in texts:
        try:
            ints.add(int(text))
        except ValueError:
            return NUMERIC  # a missing token, "0.0", or text the parser rejects precisely
    if not ints or min(ints) < 0 or max(ints) > 9:
        return NUMERIC
    return BINARY if ints <= {0, 1} else categorical(max(ints) + 1)


def _read_bytes(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


def _plain_table(raw: bytes):
    """(header, buf, ends) of a plain text (see the module docstring), None
    for any other: buf is raw as uint8, and ends[i, j] is the offset of the
    comma or newline that ends cell j of line i."""
    if not raw.isascii() or not raw.endswith(b"\n") or b'"' in raw or b"\r" in raw or b"\0" in raw:
        return None
    buf = np.frombuffer(raw, np.uint8)
    ends = buf == ord("\n")  # the cell ends as a mask, OR-ed in place, then as offsets
    n_lines, width = np.count_nonzero(ends), raw.count(b",", 0, raw.index(b"\n")) + 1
    ends |= buf == ord(",")
    ends = np.flatnonzero(ends)
    if n_lines < 2 or ends.size != n_lines * width:
        return None
    ends = ends.reshape(n_lines, width)
    line_ends = ends[:, -1]
    lengths = np.diff(line_ends, prepend=-1) - 1
    # the n_lines newlines all end a line of width cells, and none a blank line
    if not (buf[line_ends] == ord("\n")).all() or lengths.min() < 1 or lengths.max() > csv.field_size_limit():
        return None
    return raw[: line_ends[0]].decode("ascii").split(","), buf, ends


# 10**k is exact as a double for k <= 22; built from ints, not by pow
_POW10 = np.array([float(10**k) for k in range(16)])


def _decimals(buf, start, end):
    """(values, whole) of the cells buf[start:end], or None if one is outside
    the byte grammar for numbers: "" or "NA" (NaN), or an optional "-" then
    1 to 15 digits with at most one "." among them. whole is whether every
    cell is an integer (no missing cell, no ".").

    The digits are read by Horner's rule into an int64 m < 2**53, one pass
    per character position, and the value is m / 10**k for the k digits
    after the dot, negated after the division (so "-0.00" is -0.0). Both
    operands are exact, so the one rounding is the division's and the value
    is float(text) (Clinger's fast path).
    """
    length = end - start
    if length.max() > 17:  # a sign, 15 digits and a dot
        return None
    first = buf[start]  # the delimiter, for a cell of no bytes
    m = np.zeros(start.size, np.int64)
    n_digits, n_dots, n_after = (np.zeros(start.size, np.uint8) for _ in range(3))
    for p in range(int(length.max())):
        byte = buf[start + np.minimum(length, p)]  # past a cell's end, its delimiter
        digit = byte - np.uint8(ord("0"))
        is_digit = digit < 10
        m = np.where(is_digit, m * 10 + digit, m)
        n_digits += is_digit
        n_after += is_digit & (n_dots > 0)
        n_dots += byte == ord(".")
    negative = first == ord("-")
    missing = (length == 0) | ((length == 2) & (first == ord("N")) & (buf[end - 1] == ord("A")))
    # every byte of a number is a digit, its one dot or a leading "-"
    bad = (n_digits + n_dots + negative != length) | (n_dots > 1) | (n_digits == 0) | (n_digits > 15)
    if (bad & ~missing).any():
        return None
    values = m / _POW10[n_after]
    np.negative(values, out=values, where=negative)
    values[missing] = np.nan
    return values, not (missing.any() or n_dots.any())


def _plain_column(buf, start, end, kind):
    """(kind, values) of a column of the cells buf[start:end], its kind
    inferred by _kind_of when None; None if a cell is outside the byte
    grammar or fails the kind's check. A binary or categorical cell
    is one digit, a numeric one is read by _decimals."""
    digits = buf[start] - np.uint8(ord("0"))
    if (end - start == 1).all() and (digits < 10).all():
        if kind is None:  # the column's distinct texts are its digits
            kind = _kind_of(map(str, np.flatnonzero(np.bincount(digits, minlength=10)).tolist()))
        limit = kind.cardinality or (2 if kind == BINARY else 10)
        return (kind, digits.astype(np.float64)) if digits.max() < limit else None
    parsed = _decimals(buf, start, end) if kind in (None, NUMERIC) else None
    if parsed is None:
        return None
    values, whole = parsed
    # A missing or dotted cell is a text int() rejects, so _kind_of reads the
    # column as numeric; a column of integers it reads by their values.
    if kind is None and whole and _kind_of(map(str, set(values.astype(np.int64).tolist()))) != NUMERIC:
        return None  # digits 0-9 written in more than one byte, such as "00"
    return NUMERIC, values


def read_csv_table(path, *, raw: bytes):
    """(header, columns, n_rows, bad) of the CSV file at path whose bytes are
    raw, decoded whole as "utf-8-sig" and read by csv.reader: MalformedCsv
    naming the file if it is not UTF-8 text or the csv module cannot read a
    row (such as an over-long field). The file is not opened: _tokens reads
    its bytes once, to try the byte tokenizer first.

    header is the first row's cells, None for a file of no rows. columns[j]
    holds cell j of each later row of the header's width, n_rows of them in
    file order; n_rows is returned because a blank first line is a header of
    no cells, whose rows (the later blank lines) have no column to count
    them by. bad is None, or (row number, cell count) of the first later
    row of another width, a blank line too; the header is row 1.
    """
    try:
        text = raw.decode("utf-8-sig")
    except UnicodeDecodeError:
        raise MalformedCsv(f"{path}: not UTF-8 text") from None
    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise MalformedCsv(f"{path}: {exc}") from None
    if not rows:
        return None, [], 0, None
    width = len(rows[0])
    bad = next(((i + 1, n) for i, n in enumerate(map(len, rows)) if n != width), None)
    header, body = rows[0], [row for row in rows[1:] if len(row) == width]
    del rows  # freed before the columns are cut, to keep the peak memory down
    flat, n_rows = list(itertools.chain.from_iterable(body)), len(body)
    del body
    return header, [flat[j::width] for j in range(width)], n_rows, bad


def _check_header(path, header, schema, label_column, with_labels):
    """(header, label_column, names) once the header cells are stripped and
    checked: names are the feature columns to read, in schema order."""
    header = [h.strip() for h in header]
    if len(set(header)) != len(header):
        raise MalformedCsv(f"{path}: duplicate header columns")
    if schema is None:
        if label_column not in header:
            raise UnknownColumn(f"{path}: no column named {label_column!r}")
        return header, label_column, tuple(name for name in header if name != label_column)
    label_column, names = schema.label_column, schema.feature_names
    expected = set(names) | {label_column}
    got = set(header) if with_labels else set(header) | {label_column}
    missing, extra = sorted(expected - got), sorted(got - expected)
    if missing or extra:
        parts = [f"missing {missing}"] if missing else []
        parts += [f"unexpected {extra}"] if extra else []
        raise UnknownColumn(f"{path}: header mismatch: " + ", ".join(parts))
    return header, label_column, names


def _tokens(path):
    """(header, n_rows, bad, column) of a CSV file, opened once and
    tokenized once: from its bytes when _plain_table accepts it, else by
    read_csv_table (see it for header, n_rows and bad).

    column(j, kind) is (kind, values) when _plain_column parses column j
    from the bytes, its kind inferred when None; else (kind, texts), the
    list of its cells' texts as csv.reader gives them, for the caller to
    parse. A plain text has no quote, CR or blank line and every row is as
    wide as the header, so its delimiter offsets give exactly those cells.
    """
    raw = _read_bytes(path)
    plain = _plain_table(raw)
    if plain is None:
        header, texts, n_rows, bad = read_csv_table(path, raw=raw)
        return header, n_rows, bad, lambda j, kind: (kind, texts[j])
    header, buf, ends = plain

    def column(j, kind):
        # cell j of each data row lies after the delimiter before it
        start, end = (ends[1:, j - 1] if j else ends[:-1, -1]) + 1, ends[1:, j]
        parsed = _plain_column(buf, start, end, kind)
        if parsed is not None:
            return parsed
        text = raw.decode("ascii")
        return kind, list(map(text.__getitem__, map(slice, start.tolist(), end.tolist())))

    return header, len(ends) - 1, None, column


def _read_csv(path, schema, label_column, *, with_labels, features=True):
    """(schema, values, labels) of a CSV read once and checked as load_csv says.
    Without a schema one is inferred with label_column as the label; labels is
    None unless with_labels, values is None unless features (every feature
    cell is checked either way). values is column-major, as a Dataset holds it."""
    header, n_rows, bad, column = _tokens(path)
    if header is None:
        raise EmptyDataset(f"{path}: file is empty")
    header, label_column, names = _check_header(path, header, schema, label_column, with_labels)
    place = {name: j for j, name in enumerate(header)}

    # A row of the wrong width is left out, and its error loses to any error
    # of an earlier row; the rows before it are numbered from 2 without gaps.
    failures = []  # (row number, place in the row's order of checks, error)
    if bad is not None:
        row_no, n_cells = bad
        message = f"{path}: row {row_no} has {n_cells} cells, expected {len(header)}"
        failures.append((row_no, -1, MalformedCsv(message)))

    read = {}  # the columns read for inference: values, or cell texts
    if schema is None:
        kinds = []
        for name in names:
            kind, read[name] = column(place[name], None)
            kinds.append(kind or _kind_of({text.strip() for text in set(read[name])}))
        schema = FeatureSchema(tuple(zip(names, kinds)), label_column)

    values = np.empty((n_rows, schema.n_features), order="F") if features else None
    labels = np.empty(n_rows, dtype=np.int64) if with_labels else None
    checks = []  # (column, kind, parser of one text, error type, message, output), in a row's order
    if with_labels:
        checks.append((label_column, BINARY, parse_label, LabelNotBinary, "{path}: row {row} {why}", labels))
    for j, (name, kind) in enumerate(schema.columns):
        parse = functools.partial(_parse_cell, kind=kind, column=name)
        checks.append((name, kind, parse, MalformedCsv, "{path}: row {row}: {why}", values[:, j] if features else None))
    for order, (name, kind, parse, error, message, out) in enumerate(checks):
        cells = read.pop(name) if name in read else column(place[name], kind)[1]
        if isinstance(cells, np.ndarray):  # parsed from the bytes, every cell valid
            if out is not None:
                out[:] = cells
            continue
        # The cells' distinct raw texts, in first-seen order: each is stripped
        # and parsed once, and the column's values are gathered from them in C.
        distinct, parsed = dict.fromkeys(cells), {}  # parsed: value by stripped text
        try:
            for text in distinct:
                key = text.strip()
                if key not in parsed:
                    parsed[key] = parse(key)
                distinct[text] = parsed[key]
        except ValueError as exc:
            row_no = cells.index(text) + 2  # the text's first row, the column's earliest failing one
            failures.append((row_no, order, error(message.format(path=path, row=row_no, why=exc))))
            continue
        if out is not None:
            out[:] = np.fromiter(map(distinct.__getitem__, cells), out.dtype, count=n_rows)
    if failures:
        raise min(failures, key=lambda f: f[:2])[2]
    if not n_rows:
        raise EmptyDataset(f"{path}: no data rows")
    return schema, values, labels


def load_csv(path, schema: FeatureSchema | None = None, label_column: str = "pcos") -> Dataset:
    """Load a UTF-8 comma-separated file, reading it once.

    The header must hold the schema's columns in any order. Without a schema
    one is inferred as infer_schema does, with label_column as the label.
    Empty cells and "NA" become missing values; labels must be exactly "0" or
    "1". The file is tokenized from its bytes if it is plain, else by
    csv.reader, and each column is parsed from its bytes if its cells fit
    the byte grammar, else from its texts (see the module docstring); every
    route gives the same result. A file csv.reader tokenizes is decoded
    first: one that is not UTF-8 text, or a row the csv module cannot read,
    is MalformedCsv before any other check. The header is checked next (an
    empty file, repeated names, the label or the schema's columns), then
    each row's cell count, then that there is a data row. Of the rows'
    defects the earliest row's is raised: within a row the cell count, then
    the label, then the feature columns in schema order. Every error names
    the file. The columns fill one column-major matrix, the layout of every
    Dataset.
    """
    schema, values, labels = _read_csv(path, schema, label_column, with_labels=True)
    return Dataset(schema, values, labels)


def dataset_to_csv_text(data: Dataset) -> str:
    """Render a dataset as CSV text: schema column order, label last, missing empty."""
    schema = data.schema
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(schema.feature_names) + [schema.label_column])
    formats = [repr if k.kind == "numeric" else (lambda v: str(int(v))) for k in schema.kinds]
    for row, label in zip(data.values.tolist(), data.labels.tolist()):
        writer.writerow(["" if math.isnan(v) else f(v) for v, f in zip(row, formats)] + [str(label)])
    return buf.getvalue()


def write_csv(path, data: Dataset) -> None:
    atomic_write_text(path, dataset_to_csv_text(data))


def load_features_csv(path, schema: FeatureSchema) -> np.ndarray:
    """Parse only the feature columns of a CSV; the label column may be
    absent, and is not read when present. The matrix is column-major float64, as load_csv's, and the caller's to
    write: a Dataset made from it holds its own copy."""
    return _read_csv(path, schema, schema.label_column, with_labels=False)[1]


def load_labels_csv(path, schema: FeatureSchema | None = None, label_column: str = "pcos") -> np.ndarray:
    """The 0/1 labels of a CSV that load_csv would load, as an int64 array.

    Every cell is parsed and checked as load_csv checks it, so a file
    load_csv rejects is rejected here with the same error type and message;
    only the feature matrix is not built. A schema of no feature columns
    reads a file of the label column alone.
    """
    return _read_csv(path, schema, label_column, with_labels=True, features=False)[2]


def infer_schema(path, label_column: str) -> FeatureSchema:
    """Guess a schema from a CSV file.

    Columns whose non-missing cells are all 0/1 become binary; integer columns
    with every value in 0..9 become categorical (cardinality = max + 1);
    anything else, and any column containing missing cells, is numeric. A
    cell counts as an integer only when written as one: a column of "0.0" and
    "1.0" is numeric. A column's kind depends only on its set of distinct
    stripped cells. Every cell is checked, so whatever load_csv would raise
    on the file is raised here; only the feature matrix is not built.
    """
    return _read_csv(path, None, label_column, with_labels=True, features=False)[0]


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
    if missing_rate > 0.0:
        for x, (_, kind) in zip(cols, schema.columns):
            if kind.kind == "numeric":
                x[rng.random(n) < missing_rate] = np.nan
    return Dataset(schema, np.array(cols).T, labels)


def split(data: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """Deterministic stratified partition into (train, test).

    Test size is round(n * test_fraction) clamped to [1, n - 1]; per-class
    counts follow largest-remainder allocation, so each class's test share is
    within one row of the requested fraction. Data of one class, such as one
    row, is SingleClassDataset.
    """
    n = data.n_rows
    labels = data.labels
    if labels.min() == labels.max():
        raise SingleClassDataset("stratified split needs both classes")
    k_total = int(math.floor(n * spec.test_fraction + 0.5))
    k_total = min(max(k_total, 1), n - 1)

    class_indices = [np.flatnonzero(labels == c) for c in (0, 1)]
    ideal = [k_total * len(ci) / n for ci in class_indices]
    counts = [math.floor(x) for x in ideal]
    if sum(counts) < k_total:  # short by one row: to the larger remainder, class 0 on a tie
        counts[ideal[1] - counts[1] > ideal[0] - counts[0]] += 1

    rng = np.random.default_rng(spec.seed)
    test = np.zeros(n, dtype=bool)
    for ci, k in zip(class_indices, counts):
        test[rng.permutation(ci)[:k]] = True
    return data.subset(np.flatnonzero(~test)), data.subset(np.flatnonzero(test))
