import copy
import math
import pickle
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from boostlab import dataset
from boostlab.cli import SCORES_SCHEMA, TRUTH_SCHEMA
from boostlab.dataset import (
    BINARY,
    NUMERIC,
    Dataset,
    FeatureKind,
    FeatureSchema,
    SplitSpec,
    SyntheticSpec,
    _kind_of,
    categorical,
    dataset_to_csv_text,
    infer_schema,
    load_csv,
    load_features_csv,
    load_labels_csv,
    pcos_default_schema,
    split,
    synthesize,
    write_csv,
)
from boostlab.errors import (
    DegenerateSchema,
    EmptyDataset,
    LabelNotBinary,
    MalformedCsv,
    SingleClassDataset,
    UnknownColumn,
)


def tiny_schema():
    return FeatureSchema((("age", NUMERIC), ("weight_gain", BINARY)), "pcos")


class TestSchema:
    def test_duplicate_names_rejected(self):
        with pytest.raises(ValueError):
            FeatureSchema((("a", NUMERIC), ("a", BINARY)), "y")

    @pytest.mark.parametrize("columns, label", [(((5, NUMERIC),), "y"), ((("a", NUMERIC),), 5)])
    def test_names_must_be_strings(self, columns, label):
        with pytest.raises(ValueError, match="strings"):
            FeatureSchema(columns, label)

    def test_label_must_not_be_feature(self):
        with pytest.raises(ValueError):
            FeatureSchema((("a", NUMERIC),), "a")

    def test_categorical_cardinality(self):
        with pytest.raises(ValueError):
            categorical(1)

    @pytest.mark.parametrize("cardinality", [2.5, 3.0, True, "3", None])
    def test_cardinality_must_be_an_int(self, cardinality):
        with pytest.raises(ValueError, match="cardinality"):
            FeatureKind("categorical", cardinality)

    def test_round_trip_dict(self):
        schema = pcos_default_schema()
        assert FeatureSchema.from_dict(schema.to_dict()) == schema

    def test_default_schema_shape(self):
        schema = pcos_default_schema()
        kinds = [k.kind for k in schema.kinds]
        assert len(schema.columns) == 12
        assert kinds.count("numeric") == 2
        assert kinds.count("binary") == 9
        assert kinds.count("categorical") == 1


CAT_SCHEMA = FeatureSchema((("age", NUMERIC), ("level", categorical(3))), "pcos")
ONE_ROW = Dataset(tiny_schema(), np.array([[30.0, 1.0]]), np.array([1]))


@pytest.mark.parametrize(
    "call, error, message",
    [
        pytest.param(lambda: Dataset(tiny_schema(), np.ones(2), [1]), ValueError, "2-D", id="values-1-D"),
        pytest.param(lambda: Dataset(tiny_schema(), np.ones((0, 2)), []), EmptyDataset, "row", id="no-rows"),
        pytest.param(lambda: Dataset(tiny_schema(), np.ones((2, 3)), [0, 1]), ValueError, "3", id="wrong-width"),
        pytest.param(lambda: Dataset(tiny_schema(), np.ones((2, 2)), [0]), ValueError, "length", id="labels-length"),
        pytest.param(lambda: Dataset(tiny_schema(), np.ones((2, 2)), [0, 2]), ValueError, "0 or 1", id="labels-0/1"),
        # a label is checked before the int64 cast, which would truncate it
        pytest.param(lambda: Dataset(tiny_schema(), np.ones((2, 2)), [0.5, 1]), ValueError, "0 or 1", id="label-0.5"),
        pytest.param(lambda: Dataset(tiny_schema(), np.ones((2, 2)), [0, 1.7]), ValueError, "0 or 1", id="label-1.7"),
        pytest.param(
            lambda: Dataset(tiny_schema(), np.ones((2, 2)), [np.nan, 1]), ValueError, "0 or 1", id="label-nan"
        ),
        pytest.param(
            lambda: Dataset(tiny_schema(), np.array([[np.inf, 1.0]]), [1]), ValueError, "non-finite", id="inf-cell"
        ),
        pytest.param(lambda: Dataset(CAT_SCHEMA, np.array([[1.0, 3.0]]), [1]), ValueError, "range", id="level-3-of-3"),
        pytest.param(lambda: FeatureKind("numeric", 3), ValueError, "no cardinality", id="numeric-cardinality"),
        pytest.param(lambda: SplitSpec(0.2, -1), ValueError, "seed", id="negative-seed"),
        # a value of the wrong type is rejected when built, naming its field
        pytest.param(lambda: SplitSpec(0.2, 1.5), ValueError, "seed", id="float-seed"),
        pytest.param(lambda: SplitSpec(0.2, True), ValueError, "seed", id="bool-seed"),
        pytest.param(lambda: SplitSpec("0.2", 1), ValueError, "test_fraction", id="str-test_fraction"),
        pytest.param(lambda: SyntheticSpec(n=2.5), ValueError, "n must be an int", id="float-n"),
        pytest.param(lambda: SyntheticSpec(n=30, missing_rate=None), ValueError, "missing_rate", id="none-missing_rate"),
        pytest.param(
            lambda: FeatureSchema((("a", "numeric"),), "y"), ValueError, "columns", id="kind-not-a-FeatureKind"
        ),
        pytest.param(  # one row is one class
            lambda: split(ONE_ROW, SplitSpec(0.2, 0)), SingleClassDataset, "needs both classes", id="split-one-row"
        ),
    ],
)
def test_documented_checks(call, error, message):
    with pytest.raises(error, match=message):
        call()


class TestDatasetValidation:
    def test_binary_cells_checked(self):
        with pytest.raises(ValueError):
            Dataset(tiny_schema(), np.array([[30.0, 2.0]]), np.array([1]))

    def test_missing_only_in_numeric(self):
        with pytest.raises(ValueError):
            Dataset(tiny_schema(), np.array([[30.0, np.nan]]), np.array([1]))
        ds = Dataset(tiny_schema(), np.array([[np.nan, 1.0]]), np.array([1]))
        assert math.isnan(ds.values[0, 0])

    @pytest.mark.parametrize("labels", [[0, 1], [False, True], [0.0, 1.0], np.array([0, 1], dtype=np.uint8)])
    def test_labels_of_0_and_1_of_any_type_are_kept(self, labels):
        ds = Dataset(tiny_schema(), np.ones((2, 2)), labels)
        assert ds.labels.dtype == np.int64 and ds.labels.tolist() == [0, 1]

    def test_numpy_numbers_are_stored_as_python_numbers(self):
        spec = SplitSpec(np.float32(0.25), np.int64(3))
        synthetic = SyntheticSpec(np.int32(30), 1, np.float64(0.5))
        assert (spec, synthetic) == (SplitSpec(0.25, 3), SyntheticSpec(30, 1.0, 0.5))
        types = [type(v) for v in (spec.test_fraction, spec.seed, synthetic.n, synthetic.signal_strength)]
        assert types == [float, int, int, float]

    def test_immutable(self):
        ds = Dataset(tiny_schema(), np.array([[30.0, 1.0]]), np.array([1]))
        with pytest.raises(ValueError):
            ds.values[0, 0] = 5.0

    def test_every_dataset_is_column_major_and_read_only(self, tmp_path):
        rows = np.array([[30.0, 1.0], [41.0, 0.0], [np.nan, 1.0]])
        ds = Dataset(tiny_schema(), rows, np.array([1, 0, 1]))
        synthetic = synthesize(pcos_default_schema(), 40, 1, 1.0, missing_rate=0.1)
        path = tmp_path / "d.csv"
        write_csv(path, synthetic)
        loaded = load_csv(path)
        copies = (copy.copy(ds), copy.deepcopy(ds), pickle.loads(pickle.dumps(ds)), copy.deepcopy(loaded))
        for data in (ds, ds.subset([2, 0]), synthetic, synthetic.subset(np.arange(0, 40, 3)), loaded, *copies):
            assert data.values.flags.f_contiguous and not data.values.flags.writeable
            for array in (data.values, data.labels):
                with pytest.raises(ValueError):
                    array.flags.writeable = True
        assert np.array_equal(ds.values, rows, equal_nan=True)
        assert np.array_equal(ds.subset([2, 0]).values.view(np.int64), rows[[2, 0]].view(np.int64))
        assert np.array_equal(loaded.values.view(np.int64), synthetic.values.view(np.int64))
        for data in copies[:3]:
            assert data.schema == ds.schema and np.array_equal(data.labels, ds.labels)
            assert np.array_equal(data.values.view(np.int64), ds.values.view(np.int64))

    def test_the_callers_arrays_stay_writeable(self):
        # already float64 and column-major, int64
        values, labels = np.asfortranarray(np.ones((3, 2))), np.array([0, 1, 0], dtype=np.int64)
        ds = Dataset(tiny_schema(), values, labels)
        assert values.flags.writeable and labels.flags.writeable
        assert not ds.values.flags.writeable and not ds.labels.flags.writeable
        values[0, 0] = 2.0
        labels[0] = 1

    @pytest.mark.parametrize("given", ["writeable", "read-only-view", "read-only-owner"])
    def test_a_write_into_the_callers_array_does_not_reach_the_dataset(self, given):
        # float64, column-major and int64 arrays, or read-only views of them,
        # or the arrays themselves made read-only until the dataset is built
        values, labels = np.asfortranarray(np.ones((3, 2))), np.array([0, 1, 0], dtype=np.int64)
        given_values, given_labels = values, labels
        if given == "read-only-view":
            given_values, given_labels = values.view(), labels.view()
        if given != "writeable":
            given_values.flags.writeable = given_labels.flags.writeable = False
        ds = Dataset(tiny_schema(), given_values, given_labels)
        values.flags.writeable = labels.flags.writeable = True
        assert not np.shares_memory(ds.values, values) and not np.shares_memory(ds.labels, labels)
        values[0, 1] = 5.0  # a binary column
        labels[0] = 7
        assert ds.values[0, 1] == 1.0 and ds.labels[0] == 0


class TestLoadCsv:
    def test_three_row_file(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,weight_gain,pcos\n25,1,1\n30,0,0\n41,1,1\n")
        ds = load_csv(path, tiny_schema())
        assert ds.n_rows == 3 and ds.n_features == 2
        assert list(ds.labels) == [1, 0, 1]

    def test_header_any_order(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("pcos,weight_gain,age\n1,0,33\n0,1,22\n")
        ds = load_csv(path, tiny_schema())
        assert ds.values[0, 0] == 33.0 and ds.values[0, 1] == 0.0

    def test_label_not_binary(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,weight_gain,pcos\n25,1,2\n")
        with pytest.raises(LabelNotBinary):
            load_csv(path, tiny_schema())

    def test_empty_numeric_cell_becomes_missing(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,weight_gain,pcos\n,1,1\nNA,0,0\n30,1,1\n")
        ds = load_csv(path, tiny_schema())
        assert math.isnan(ds.values[0, 0]) and math.isnan(ds.values[1, 0])
        assert ds.values[2, 0] == 30.0

    def test_missing_in_binary_rejected(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,weight_gain,pcos\n25,,1\n")
        with pytest.raises(MalformedCsv):
            load_csv(path, tiny_schema())

    def test_unknown_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,bmi,pcos\n25,20,1\n")
        with pytest.raises(UnknownColumn):
            load_csv(path, tiny_schema())

    def test_bad_arity(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,weight_gain,pcos\n25,1\n")
        with pytest.raises(MalformedCsv):
            load_csv(path, tiny_schema())

    def test_unparsable_cell(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,weight_gain,pcos\nabc,1,1\n")
        with pytest.raises(MalformedCsv):
            load_csv(path, tiny_schema())

    def test_no_data_rows(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,weight_gain,pcos\n")
        with pytest.raises(EmptyDataset):
            load_csv(path, tiny_schema())

    def test_round_trip_identity(self, tmp_path):
        schema = pcos_default_schema()
        ds = synthesize(schema, 60, 11, 1.5, missing_rate=0.2)
        path = tmp_path / "round.csv"
        write_csv(path, ds)
        back = load_csv(path, schema)
        assert np.array_equal(back.values, ds.values, equal_nan=True)
        assert np.array_equal(back.labels, ds.labels)
        # and the text itself is reproducible
        assert dataset_to_csv_text(back) == dataset_to_csv_text(ds)

    def test_load_features_without_label(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("age,weight_gain\n25,1\n30,0\n")
        X = load_features_csv(path, tiny_schema())
        assert X.shape == (2, 2)

    def test_blank_lines_under_a_header_of_no_cells(self, tmp_path):
        # a blank first line heads no column, so its rows are counted as rows
        path = tmp_path / "d.csv"
        path.write_text("\n\n\n")
        assert load_features_csv(path, FeatureSchema((), "pcos")).shape == (2, 0)

    @pytest.mark.parametrize("header", ['"age",pcos', "age\r,pcos"], ids=["quoted", "carriage-return"])
    def test_header_cells_are_read_as_the_csv_module_reads_them(self, tmp_path, header):
        # csv.reader unquotes a cell, and ends a line at a lone CR
        path = tmp_path / "d.csv"
        path.write_bytes(header.encode() + b"\n25,1\n30,0\n")
        if header.startswith('"'):
            assert load_csv(path).schema.feature_names == ("age",)
        else:
            with pytest.raises(UnknownColumn, match="no column named 'pcos'"):
                load_csv(path)

    def test_a_blank_line_under_a_header_of_one_cell(self, tmp_path):
        # the blank line is a row of no cells, not an empty numeric cell
        path = tmp_path / "d.csv"
        path.write_text("age\n25.5\n\n30\n")
        with pytest.raises(MalformedCsv, match="row 3 has 0 cells, expected 1"):
            load_features_csv(path, FeatureSchema((("age", NUMERIC),), "pcos"))

    def test_plain_files_are_read_from_their_bytes(self, tmp_path, monkeypatch):
        # a silent decline to the text path would pass every other test, only slower
        rng = np.random.default_rng(5)
        lines = ["age,weight,acne,activity,pcos"]
        for _ in range(300):
            numbers = ["" if rng.random() < 0.1 else f"{rng.normal(30, 20):.2f}" for _ in range(2)]
            lines.append(",".join(numbers + [str(rng.integers(k)) for k in (2, 3, 2)]))
        scores = "score\n" + "".join(f"{s:.6f}\n" for s in rng.random(300))
        files = {}
        for name, text in (("data", "\n".join(lines) + "\n"), ("scores", scores)):
            files[name] = tmp_path / f"{name}.csv", tmp_path / f"{name}-crlf.csv"
            files[name][0].write_text(text)
            files[name][1].write_bytes(text.replace("\n", "\r\n").encode())  # read by csv.reader
        schema = FeatureSchema(
            (("age", NUMERIC), ("weight", NUMERIC), ("acne", BINARY), ("activity", categorical(3))), "pcos"
        )
        reads = {
            "load_features_csv": ("data", lambda path: load_features_csv(path, schema)),
            "load_labels_csv, inferred": ("data", lambda path: load_labels_csv(path)),
            "load_csv, inferred": ("data", lambda path: load_csv(path)),
            "infer_schema": ("data", lambda path: infer_schema(path, "pcos")),
            "eval's scores": ("scores", lambda path: load_features_csv(path, SCORES_SCHEMA)[:, 0]),
        }
        want = {name: _bits(read(files[kind][1])) for name, (kind, read) in reads.items()}
        assert want["load_csv, inferred"][:2] == (schema, True) and want["load_features_csv"][1]
        assert np.isnan(load_features_csv(files["data"][1], schema)).mean() > 0.05

        monkeypatch.setattr(dataset, "read_csv_table", _not_tokenized_from_bytes)
        monkeypatch.setattr(dataset, "_plain_column", _parsed_from_bytes(dataset._plain_column, parsed := []))
        for name, (kind, read) in reads.items():
            assert _bits(read(files[kind][0])) == want[name], name
        assert parsed and all(parsed)  # every column was parsed from its bytes

    @pytest.mark.parametrize("variant", ["repr-floats", "padded-cells", "bad-cells"])
    def test_plain_files_outside_the_byte_grammar_are_tokenized_from_their_bytes(self, tmp_path, monkeypatch, variant):
        # a column outside the byte grammar is parsed from its cell texts, cut
        # from the bytes: no whole-file decline to csv.reader
        data = synthesize(pcos_default_schema(), 200, 3, 2.0, missing_rate=0.1)
        texts = {
            "data": dataset_to_csv_text(data),  # repr floats of up to 17 digits, as boostlab synth writes
            "scores": "score\n" + "".join(f"{s!r}\n" for s in np.random.default_rng(3).random(200).tolist()),
            "truth": "label\n" + "".join(f"{label}\n" for label in data.labels.tolist()),
        }
        if variant == "padded-cells":
            texts = {name: text.replace(",", " , ").replace("\n", " \n") for name, text in texts.items()}
        elif variant == "bad-cells":  # in the byte grammar but for the bad cells, one in each file
            texts = {name: re.sub(r"\d+\.\d+", lambda m: f"{float(m.group()):.2f}", t) for name, t in texts.items()}
            lines = {name: text.split("\n") for name, text in texts.items()}
            lines["data"][51] = re.sub(r",[01],", ",x,", lines["data"][51], count=1)  # a binary cell of row 52
            lines["data"][120] = lines["data"][120][:-1] + "2"  # a later label
            lines["scores"][30], lines["truth"][40] = "x", "2"
            texts = {name: "\n".join(lines[name]) for name in texts}
        files = {}
        for name, text in texts.items():
            files[name] = tmp_path / f"{name}.csv", tmp_path / f"{name}-crlf.csv"
            files[name][0].write_text(text)
            files[name][1].write_bytes(text.replace("\n", "\r\n").encode())  # tokenized by csv.reader
        schema = pcos_default_schema()
        reads = {
            "load_csv": ("data", lambda path: load_csv(path, schema)),
            "load_csv, inferred": ("data", lambda path: load_csv(path)),
            "load_features_csv": ("data", lambda path: load_features_csv(path, schema)),
            "load_labels_csv, inferred": ("data", lambda path: load_labels_csv(path)),
            "infer_schema": ("data", lambda path: infer_schema(path, "pcos")),
            "eval's scores": ("scores", lambda path: load_features_csv(path, SCORES_SCHEMA)[:, 0]),
            "eval's truth": ("truth", lambda path: load_labels_csv(path, TRUTH_SCHEMA)),
        }

        def outcome(name, copy):
            kind, read = reads[name]
            path = files[kind][copy]
            try:
                return "read", _bits(read(path))
            except (MalformedCsv, LabelNotBinary) as exc:
                return "raised", type(exc), str(exc).replace(str(path), "{path}")

        want = {name: outcome(name, 1) for name in reads}
        raised = {name for name, got in want.items() if got[0] == "raised"}
        assert raised == (set(reads) if variant == "bad-cells" else set()), want
        if variant == "bad-cells":
            message = "{path}: row 52: cannot parse 'x' in column 'sudden_weight_gain'"
            assert want["load_csv"] == want["infer_schema"] == ("raised", MalformedCsv, message)
            assert want["eval's scores"] == ("raised", MalformedCsv, "{path}: row 31: cannot parse 'x' in column 'score'")
        monkeypatch.setattr(dataset, "read_csv_table", _not_tokenized_from_bytes)
        for name in reads:
            assert outcome(name, 0) == want[name], name


def _bits(result):
    """A read's result, compared bit for bit (NaN != NaN, and -0.0 == 0.0);
    a matrix is column-major either way."""
    if isinstance(result, Dataset):
        values = result.values
        return result.schema, values.flags.f_contiguous, values.view(np.int64).tolist(), result.labels.tolist()
    if isinstance(result, FeatureSchema):
        return result
    return result.dtype, result.flags.f_contiguous, result.view(np.int64).tolist()


def _not_tokenized_from_bytes(*args, **kwargs):
    raise AssertionError("a plain file was tokenized by csv.reader")


def _parsed_from_bytes(plain_column, parsed):
    """plain_column, recording in parsed whether each call parsed its cells."""

    def spy(*args):
        got = plain_column(*args)
        parsed.append(got is not None)
        return got

    return spy


class TestInferSchema:
    def test_kinds(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text(
            "age,act,flag,score,pcos\n25,0,1,0.5,1\n31,2,0,1.25,0\n28,1,1,,1\n"
        )
        schema = infer_schema(path, "pcos")
        kinds = dict(zip(schema.feature_names, schema.kinds))
        assert kinds["age"].kind == "numeric"  # values exceed 0..9
        assert kinds["act"] == categorical(3)
        assert kinds["flag"].kind == "binary"
        assert kinds["score"].kind == "numeric"  # has a missing cell

    def test_missing_label_column(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("a,b\n1,2\n")
        with pytest.raises(UnknownColumn):
            infer_schema(path, "pcos")

    @pytest.mark.parametrize("cell", ["inf", "-inf", "nan", "1e400"])
    def test_non_finite_text_is_numeric(self, tmp_path, cell):
        # a numeric cell, which the numeric parse then rejects (int() cannot read it)
        assert _kind_of({"1", cell}) == NUMERIC
        path = tmp_path / "d.csv"
        path.write_text(f"x,pcos\n1,1\n{cell},0\n")
        with pytest.raises(MalformedCsv, match=f"^{re.escape(str(path))}: row 3: non-finite value in column 'x'$"):
            infer_schema(path, "pcos")

    def test_short_row_raises_as_in_load_csv(self, tmp_path):
        path = tmp_path / "d.csv"
        path.write_text("x,pcos\n1,1\n0\n")
        with pytest.raises(MalformedCsv, match=r"row 3 has 1 cells, expected 2"):
            infer_schema(path, "pcos")

    def test_integer_valued_decimals_are_numeric(self, tmp_path):
        # int() reads binary and categorical cells, and cannot read "0.0"
        path = tmp_path / "d.csv"
        path.write_text("a,pcos\n0.0,1\n1.0,0\n")
        assert infer_schema(path, "pcos").kinds == (NUMERIC,)
        assert load_csv(path, label_column="pcos").values.tolist() == [[0.0], [1.0]]

    def test_integers_written_in_more_than_one_byte(self, tmp_path):
        # int() reads "00", "01" and "-0", so their column is binary, and
        # "10" and "-1" make a numeric one
        path = tmp_path / "d.csv"
        path.write_text("a,b,pcos\n00,10,1\n01,-1,0\n-0,3,1\n")
        assert infer_schema(path, "pcos").kinds == (BINARY, NUMERIC)
        assert load_csv(path, label_column="pcos").values.tolist() == [[0.0, 10.0], [1.0, -1.0], [0.0, 3.0]]

    def test_cells_are_checked_as_load_csv_checks_them(self, tmp_path):
        # the column infers as binary, and the label cells are checked too
        assert _kind_of({"1", "0"}) == BINARY
        path = tmp_path / "d.csv"
        path.write_text("x,pcos\n1,2\n0,yes\n")
        for read in (lambda: infer_schema(path, "pcos"), lambda: load_csv(path, label_column="pcos")):
            with pytest.raises(LabelNotBinary, match="row 2 label '2' is not 0/1"):
                read()


HEADER = "age,weight_gain,act,pcos\n"
# defect -> (file text, the error's type and message with a given schema, and
# with an inferred one; None where the inferred schema admits the file)
SINGLE_DEFECTS = {
    "short-row": (
        HEADER + "25,1,2,1\n30,0,0\n41,1,1,1\n",
        (MalformedCsv, "{path}: row 3 has 3 cells, expected 4"),
        (MalformedCsv, "{path}: row 3 has 3 cells, expected 4"),
    ),
    "widths-that-even-out": (  # as many delimiters as rows of the header's width
        HEADER + "2,1\n0,0,1,0,1,1\n",
        (MalformedCsv, "{path}: row 2 has 2 cells, expected 4"),
        (MalformedCsv, "{path}: row 2 has 2 cells, expected 4"),
    ),
    # a repeated text before the defect: the row is not the text's rank
    "label-2": (
        HEADER + "25,1,2,1\n30,0,0,1\n41,0,1,2\n",
        (LabelNotBinary, "{path}: row 4 label '2' is not 0/1"),
        (LabelNotBinary, "{path}: row 4 label '2' is not 0/1"),
    ),
    "empty-binary-cell": (
        HEADER + "25,1,2,1\n30, ,0,0\n",
        (MalformedCsv, "{path}: row 3: missing cell in non-numeric column 'weight_gain'"),
        None,  # weight_gain infers as numeric
    ),
    "unparsable-number": (
        HEADER + "25,1,2,1\n25,0,0,0\n3o,0,1,0\n",
        (MalformedCsv, "{path}: row 4: cannot parse '3o' in column 'age'"),
        (MalformedCsv, "{path}: row 4: cannot parse '3o' in column 'age'"),
    ),
    "inf": (
        HEADER + "25,1,2,1\ninf,0,0,0\n",
        (MalformedCsv, "{path}: row 3: non-finite value in column 'age'"),
        (MalformedCsv, "{path}: row 3: non-finite value in column 'age'"),
    ),
    "level-out-of-range": (
        HEADER + "25,1,2,1\n30,0,3,0\n",
        (MalformedCsv, "{path}: row 3: categorical column 'act' has out-of-range level '3'"),
        None,  # act infers as categorical(4)
    ),
    "repeated-header": (
        "age,age,act,pcos\n25,1,2,1\n",
        (MalformedCsv, "{path}: duplicate header columns"),
        (MalformedCsv, "{path}: duplicate header columns"),
    ),
    "unknown-column": (
        "age,bmi,act,pcos\n25,1,2,1\n",
        (UnknownColumn, "{path}: header mismatch: missing ['weight_gain'], unexpected ['bmi']"),
        None,  # bmi is one more feature
    ),
    "no-label-column": (
        "age,weight_gain,act\n25,1,2\n",
        (UnknownColumn, "{path}: header mismatch: missing ['pcos']"),
        (UnknownColumn, "{path}: no column named 'pcos'"),
    ),
    "empty-file": ("", (EmptyDataset, "{path}: file is empty"), (EmptyDataset, "{path}: file is empty")),
    "header-only": (
        HEADER,
        (EmptyDataset, "{path}: no data rows"),
        (EmptyDataset, "{path}: no data rows"),
    ),
}


def read_schema():
    return FeatureSchema((("age", NUMERIC), ("weight_gain", BINARY), ("act", categorical(3))), "pcos")


def load_as(path, mode):
    return load_csv(path, read_schema()) if mode == "given" else load_csv(path, label_column="pcos")


class TestReaderErrors:
    @pytest.mark.parametrize("mode", ["given", "inferred"])
    @pytest.mark.parametrize("defect", sorted(SINGLE_DEFECTS))
    def test_single_defect(self, tmp_path, defect, mode):
        text, given, inferred = SINGLE_DEFECTS[defect]
        path = tmp_path / "d.csv"
        path.write_text(text)
        expected = given if mode == "given" else inferred
        if expected is None:
            assert load_as(path, mode).n_rows == text.count("\n") - 1
            return
        error, message = expected
        with pytest.raises(error) as info:
            load_as(path, mode)
        assert type(info.value) is error
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("mode", ["given", "inferred"])
    @pytest.mark.parametrize(
        "text, error, message",
        [
            # the short row is found first but is not the earliest defect
            (HEADER + "25,1,2,1\n3o,0,0,0\n30,0\n", MalformedCsv, "{path}: row 3: cannot parse '3o' in column 'age'"),
            # within one row the label comes before the feature columns
            (HEADER + "3o,1,2,2\n30,0\n", LabelNotBinary, "{path}: row 2 label '2' is not 0/1"),
        ],
        ids=["cell-before-short-row", "label-before-cell"],
    )
    def test_earliest_row_wins(self, tmp_path, mode, text, error, message):
        path = tmp_path / "d.csv"
        path.write_text(text)
        with pytest.raises(error) as info:
            load_as(path, mode)
        assert str(info.value) == message.format(path=path)

    def test_rows_after_a_short_row_still_infer(self, tmp_path):
        # "1" alone would infer binary and then "2.5" would fail to parse as
        # one; the "2.5" after the short row keeps the column numeric
        path = tmp_path / "d.csv"
        path.write_text("x,pcos\n1,1\n0\n2.5,0\n")
        with pytest.raises(MalformedCsv, match="row 3 has 1 cells"):
            load_csv(path, label_column="pcos")

    @pytest.mark.parametrize("mode", ["given", "inferred"])
    @pytest.mark.parametrize(
        "data, message",
        [
            (b"age,weight_gain,act,pcos\n25,1,2,1\n\xff\xfe,0,1,0\n", "{path}: not UTF-8 text"),
            (
                b"age,weight_gain,act,pcos\n25,1,2,1\n" + b"1" * 200_000 + b",0,1,0\n",
                "{path}: field larger than field limit (131072)",
            ),
            (
                b"age,weight_gain,act,pcos," + b"x" * 200_000 + b"\n25,1,2,1,0\n",
                "{path}: field larger than field limit (131072)",
            ),
        ],
        ids=["not-utf-8", "field-too-long", "header-field-too-long"],
    )
    def test_unreadable_file(self, tmp_path, mode, data, message):
        path = tmp_path / "d.csv"
        path.write_bytes(data)
        with pytest.raises(MalformedCsv) as info:
            load_as(path, mode)
        assert str(info.value) == message.format(path=path)

    @pytest.mark.parametrize("rows_before", [2, 2000])
    def test_not_utf_8_wins_over_a_wrong_header(self, tmp_path, rows_before):
        # the whole file is decoded before the header is checked, so the bad
        # byte is found wherever it lies, within the first 8 KB or past them
        path = tmp_path / "d.csv"
        path.write_bytes(b"age,weight_gain,act,label\n" + b"25,1,2,1\n" * rows_before + b"\xff,0,1,0\n")
        for read in (
            lambda: load_csv(path, read_schema()),
            lambda: load_csv(path, label_column="pcos"),
            lambda: load_features_csv(path, read_schema()),
            lambda: load_labels_csv(path),
            lambda: infer_schema(path, "pcos"),
        ):
            with pytest.raises(MalformedCsv) as info:
                read()
            assert str(info.value) == f"{path}: not UTF-8 text"


class TestSynthesize:
    def test_basic_postconditions(self):
        ds = synthesize(pcos_default_schema(), 200, 7, 2.0)
        assert ds.n_rows == 200
        assert set(np.unique(ds.labels)) == {0, 1}

    def test_deterministic(self):
        a = synthesize(pcos_default_schema(), 150, 3, 1.0)
        b = synthesize(pcos_default_schema(), 150, 3, 1.0)
        assert a.values.tobytes() == b.values.tobytes()
        assert a.labels.tobytes() == b.labels.tobytes()

    def test_seed_changes_data(self):
        a = synthesize(pcos_default_schema(), 150, 3, 1.0)
        b = synthesize(pcos_default_schema(), 150, 4, 1.0)
        assert a.values.tobytes() != b.values.tobytes()

    def test_degenerate_schema(self):
        with pytest.raises(DegenerateSchema):
            synthesize(FeatureSchema((), "y"), 10, 0, 1.0)

    def test_no_draw_of_both_classes_raises(self):
        # at seed 0 both rows lie on one side of the column's mean, so at this
        # signal both label probabilities are the same 0.0 or 1.0
        with pytest.raises(SingleClassDataset, match="could not draw both classes"):
            synthesize(FeatureSchema((("x", NUMERIC),), "y"), 2, 0, 1e6)

    def test_missing_rate_hits_numeric_only(self):
        ds = synthesize(pcos_default_schema(), 400, 5, 1.0, missing_rate=0.3)
        nan_per_col = np.isnan(ds.values).sum(axis=0)
        kinds = ds.schema.kinds
        for j, kind in enumerate(kinds):
            if kind.kind == "numeric":
                assert nan_per_col[j] > 0
            else:
                assert nan_per_col[j] == 0

    def test_zero_signal_is_chance_level(self):
        # train a booster on label-independent features: test AUC about 0.5
        from boostlab.boost import default_params, fit, raw_scores
        from boostlab.metrics import roc_curve

        ds = synthesize(pcos_default_schema(), 5000, 7, 0.0)
        train, test = split(ds, SplitSpec(0.5, 3))
        params = replace(default_params("xgboost"), n_rounds=30)
        model = fit("xgboost", train, params)
        auc = roc_curve(raw_scores(model, test), test.labels).auc
        assert abs(auc - 0.5) < 0.05


class TestSplit:
    def make(self, labels):
        labels = np.asarray(labels)
        n = len(labels)
        values = np.column_stack([np.arange(n, dtype=float), np.zeros(n)])
        return Dataset(tiny_schema(), values, labels)

    def test_balanced_ten_rows(self):
        ds = self.make([0, 1] * 5)
        train, test = split(ds, SplitSpec(0.2, 1))
        assert test.n_rows == 2
        assert set(test.labels) == {0, 1}

    def test_forty_eight_of_hundred(self):
        ds = self.make([0] * 60 + [1] * 40)
        train, test = split(ds, SplitSpec(0.48, 2))
        assert test.n_rows == 48
        assert train.n_rows == 52

    def test_partition_property(self):
        rng = np.random.default_rng(9)
        for seed in range(6):
            labels = rng.integers(0, 2, 37)
            if labels.min() == labels.max():
                continue
            ds = self.make(labels)
            train, test = split(ds, SplitSpec(0.3, seed))
            keys = np.concatenate([train.values[:, 0], test.values[:, 0]])
            assert sorted(keys) == list(range(37))
            # re-sorting by the key column reconstructs the original rows
            order = np.argsort(keys)
            merged_labels = np.concatenate([train.labels, test.labels])[order]
            assert np.array_equal(merged_labels, ds.labels)

    def test_stratification_within_one_row(self):
        rng = np.random.default_rng(10)
        for _ in range(10):
            n = int(rng.integers(10, 120))
            labels = rng.integers(0, 2, n)
            if labels.min() == labels.max():
                continue
            frac = float(rng.uniform(0.1, 0.6))
            ds = self.make(labels)
            _, test = split(ds, SplitSpec(frac, 0))
            for c in (0, 1):
                ideal = frac * (labels == c).sum()
                got = (test.labels == c).sum()
                assert abs(got - ideal) <= 1.0 + 1e-9

    @staticmethod
    def largest_remainder_split(labels, test_fraction, seed):
        """The train and test rows as split allocated them with a sort of the
        classes by remainder, a clamp of each count to its class and a mask
        of the test rows from a concatenation."""
        n = labels.size
        k_total = int(math.floor(n * test_fraction + 0.5))
        k_total = min(max(k_total, 1), n - 1)
        classes = (0, 1)
        class_indices = [np.flatnonzero(labels == c) for c in classes]
        ideal = [k_total * len(ci) / n for ci in class_indices]
        counts = [int(math.floor(x)) for x in ideal]
        for c in sorted(classes, key=lambda c: (-(ideal[c] - counts[c]), c))[: k_total - sum(counts)]:
            counts[c] += 1
        counts = [min(k, len(ci)) for k, ci in zip(counts, class_indices)]
        rng = np.random.default_rng(seed)
        test_mask = np.zeros(n, dtype=bool)
        test_mask[np.concatenate([rng.permutation(ci)[:k] for ci, k in zip(class_indices, counts)])] = True
        return np.flatnonzero(~test_mask), np.flatnonzero(test_mask)

    @settings(max_examples=200, deadline=None)
    @given(
        sizes=st.tuples(st.integers(1, 150), st.integers(1, 150)),
        order_seed=st.integers(0, 2**32 - 1),
        test_fraction=st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_split_keeps_the_rows_of_largest_remainder_allocation(self, sizes, order_seed, test_fraction, seed):
        labels = np.repeat([0, 1], sizes)
        np.random.default_rng(order_seed).shuffle(labels)
        train, test = split(self.make(labels), SplitSpec(test_fraction, seed))
        want_train, want_test = self.largest_remainder_split(labels, test_fraction, seed)
        assert train.values[:, 0].tolist() == want_train.tolist()
        assert test.values[:, 0].tolist() == want_test.tolist()

    def test_deterministic(self):
        ds = self.make([0, 1] * 20)
        a = split(ds, SplitSpec(0.25, 5))
        b = split(ds, SplitSpec(0.25, 5))
        assert np.array_equal(a[1].values, b[1].values)

    def test_single_class_raises(self):
        ds = self.make([1] * 8)
        with pytest.raises(SingleClassDataset):
            split(ds, SplitSpec(0.25, 0))
