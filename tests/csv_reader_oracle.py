"""A row-by-row reader of the CSV contract that dataset.load_csv documents,
kept as an oracle for the column-wise reader: it tokenizes a plain text
(ASCII, LF endings, no quote, no blank line, no short row) from its bytes
and any other by csv.reader, then parses a column in numpy when its cells
fit the byte grammar (one-digit kind and label cells, numbers of at most 15
digits) and from its texts otherwise, such as the repr floats boostlab synth
writes. Every cell
is parsed here on its own by csv.reader, _parse_cell and parse_label, row by
row, and the first defect met is raised. Within a row that is the cell
count, then the label, then the feature columns in schema order. A schema is
inferred, as infer_schema says, from the distinct stripped cells of the rows
that have the header's width. A leading UTF-8 byte-order mark is not part
of the header."""

import csv

import numpy as np

from boostlab.dataset import FeatureSchema, _kind_of, _parse_cell, parse_label
from boostlab.errors import EmptyDataset, LabelNotBinary, MalformedCsv, UnknownColumn


def _header_and_rows(path):
    with open(path, newline="", encoding="utf-8-sig") as fh:
        lines = list(csv.reader(fh))
    if not lines:
        raise EmptyDataset(f"{path}: file is empty")
    header = [h.strip() for h in lines[0]]
    if len(set(header)) != len(header):
        raise MalformedCsv(f"{path}: duplicate header columns")
    return header, lines[1:]


def _inferred(path, header, rows, label_column) -> FeatureSchema:
    if label_column not in header:
        raise UnknownColumn(f"{path}: no column named {label_column!r}")
    whole = [dict(zip(header, row)) for row in rows if len(row) == len(header)]
    names = [name for name in header if name != label_column]
    kinds = [_kind_of({row[name].strip() for row in whole}) for name in names]
    return FeatureSchema(tuple(zip(names, kinds)), label_column)


def _check_header(path, header, schema, with_labels):
    expected = set(schema.feature_names) | {schema.label_column}
    got = set(header) if with_labels else set(header) | {schema.label_column}
    missing, extra = sorted(expected - got), sorted(got - expected)
    if missing or extra:
        parts = [f"missing {missing}"] if missing else []
        parts += [f"unexpected {extra}"] if extra else []
        raise UnknownColumn(f"{path}: header mismatch: " + ", ".join(parts))


def read(path, schema=None, label_column="pcos", *, with_labels=True):
    """(schema, values, labels) as load_csv reads them, labels None unless
    with_labels (load_features_csv reads a file without them)."""
    header, rows = _header_and_rows(path)
    if schema is None:
        schema = _inferred(path, header, rows, label_column)
    else:
        _check_header(path, header, schema, with_labels)
    values, labels = [], []
    for number, row in enumerate(rows, start=2):
        if len(row) != len(header):
            raise MalformedCsv(f"{path}: row {number} has {len(row)} cells, expected {len(header)}")
        cells = dict(zip(header, row))
        if with_labels:
            try:
                labels.append(parse_label(cells[schema.label_column]))
            except ValueError as exc:
                raise LabelNotBinary(f"{path}: row {number} {exc}") from None
        try:
            values.append([_parse_cell(cells[name].strip(), kind, name) for name, kind in schema.columns])
        except ValueError as exc:
            raise MalformedCsv(f"{path}: row {number}: {exc}") from None
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    values = np.array(values, dtype=np.float64).reshape(len(rows), schema.n_features)
    return schema, values, np.array(labels, dtype=np.int64) if with_labels else None
