import csv
import dataclasses
import hashlib
import random
import tracemalloc
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from privforget import mlp
from privforget.data import (
    AttributeSchema,
    CsvFormatError,
    DataError,
    EncodedMatrix,
    EncodingError,
    ForgetRequest,
    Provenance,
    SchemaError,
    TabularDataset,
    attribute_columns,
    encode,
    load_csv,
    parse_schema_file,
    split_forget,
    write_csv,
)
from privforget.data import _check_numeric_column
from privforget.unlearn import load_state, save_state, sisa_train

from conftest import decode

SCHEMA = (
    AttributeSchema("age", "numeric", "quasi_identifier", declared_range=(0.0, 100.0)),
    AttributeSchema("color", "categorical", "quasi_identifier", categories=("a", "b", "c")),
    AttributeSchema("label", "categorical", "class", categories=("no", "yes")),
)


def write(tmp_path, text, name="data.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# ---------------------------------------------------------------------------
# schema

def test_schema_requires_exactly_one_class():
    with pytest.raises(SchemaError, match="exactly one class"):
        TabularDataset((SCHEMA[0], SCHEMA[1]), np.empty((0, 2)), Provenance.raw())
    second = AttributeSchema("label2", "categorical", "class", categories=("x", "y"))
    with pytest.raises(SchemaError, match="exactly one class"):
        TabularDataset(SCHEMA + (second,), np.empty((0, 4)), Provenance.raw())


def test_schema_rejects_bad_kind_role_range():
    with pytest.raises(SchemaError):
        AttributeSchema("x", "float", "class")
    with pytest.raises(SchemaError):
        AttributeSchema("x", "numeric", "target")
    with pytest.raises(SchemaError):
        AttributeSchema("x", "numeric", "other", declared_range=(5.0, 1.0))
    with pytest.raises(SchemaError):
        AttributeSchema("x", "categorical", "other", categories=("a", "a"))


def test_schema_file_round_trip(tmp_path):
    p = write(
        tmp_path,
        "# attributes\n"
        "age,numeric,quasi_identifier,0,100\n"
        "\n"
        "color,categorical,quasi_identifier\n"
        "label,categorical,class\n",
        "schema.txt",
    )
    schema = parse_schema_file(p)
    assert [a.name for a in schema] == ["age", "color", "label"]
    assert schema[0].declared_range == (0.0, 100.0)
    assert schema[1].categories == ()


def test_schema_file_bad_line(tmp_path):
    p = write(tmp_path, "age,numeric\n", "schema.txt")
    with pytest.raises(SchemaError, match="line 1"):
        parse_schema_file(p)
    p = write(tmp_path, "color,categorical,other,0,1\n", "schema.txt")
    with pytest.raises(SchemaError, match="non-numeric"):
        parse_schema_file(p)


def test_schema_dict_round_trip(tmp_path):
    """A saved state's manifest gives back its schema: category order and
    declared and observed ranges."""
    schema = (
        AttributeSchema("age", "numeric", "quasi_identifier", declared_range=(0.0, 100.0)),
        AttributeSchema("hours", "numeric", "quasi_identifier", observed_range=(-1.5, 0.1)),
        AttributeSchema("color", "categorical", "quasi_identifier", categories=("c", "a", "b")),
        AttributeSchema("label", "categorical", "class", categories=("yes", "no")),
    )
    rows = np.array([[30.0, -1.5, 2.0, 0.0], [60.0, 0.1, 0.0, 1.0]])
    ds = TabularDataset(schema, rows, Provenance.raw())
    save_state(sisa_train(ds, 1, 1, mlp.TrainConfig(epochs=1), hidden_units=2), tmp_path)
    assert load_state(tmp_path).schema == schema


# ---------------------------------------------------------------------------
# CSV loading

def test_load_basic(tmp_path):
    p = write(tmp_path, "age,color,label\n30,a,yes\n40,b,no\n")
    ds = load_csv(p, SCHEMA)
    assert ds.n_rows == 2
    assert ds.rows[0].tolist() == [30.0, 0.0, 1.0]
    assert ds.rows[1].tolist() == [40.0, 1.0, 0.0]
    assert ds.provenance.kind == "raw"
    # observed range filled for numerics
    assert ds.schema[0].observed_range == (30.0, 40.0)
    # a table loaded under that schema keeps it, as a test table must
    q = write(tmp_path, "age,color,label\n90,c,no\n", name="test.csv")
    assert load_csv(q, ds.schema).schema == ds.schema


def test_load_header_only(tmp_path):
    p = write(tmp_path, "age,color,label\n")
    ds = load_csv(p, SCHEMA)
    assert ds.n_rows == 0


def test_load_bad_numeric_names_row_and_column(tmp_path):
    p = write(tmp_path, "age,color,label\n30,a,yes\nabc,b,no\n")
    with pytest.raises(CsvFormatError, match=r"row 2, column 'age'"):
        load_csv(p, SCHEMA)


OPEN_AGE = AttributeSchema("age", "numeric", "quasi_identifier")


@pytest.mark.parametrize(
    "age, cell, problem",
    [
        (OPEN_AGE, "nan", "value nan is not a finite number"),
        (OPEN_AGE, "inf", "value inf is not a finite number"),
        (OPEN_AGE, "-Infinity", "value -inf is not a finite number"),
        (SCHEMA[0], "nan", "value nan is not a finite number"),
        (SCHEMA[0], "100.5", "value 100.5 lies outside declared range [0.0, 100.0]"),
        (SCHEMA[0], "-1e-9", "value -1e-09 lies outside declared range [0.0, 100.0]"),
    ],
    ids=["nan", "inf", "minus_inf", "declared_nan", "above_declared", "below_declared"],
)
@pytest.mark.parametrize("table", ["train", "test"])
def test_load_bad_numeric_value_names_file_row_and_column(tmp_path, age, cell, problem, table):
    """A numeric cell that parses but is not finite, or lies outside its
    declared range, is a CsvFormatError naming the file, the row and the
    column: in a training table, and in a test table loaded under the
    training table's schema, which carries an observed range."""
    schema = (age,) + SCHEMA[1:]
    if table == "test":
        schema = load_csv(write(tmp_path, "age,color,label\n30,a,yes\n", "train.csv"), schema).schema
    p = write(tmp_path, f"age,color,label\n30,a,yes\n40,b,no\n{cell},c,no\n")
    with pytest.raises(CsvFormatError) as err:
        load_csv(p, schema)
    assert str(err.value) == f"{p}: row 3, column 'age': {problem}"


def test_load_non_utf8_names_file(tmp_path):
    p = tmp_path / "data.csv"
    p.write_bytes(b"age,color,label\n30,a,yes\n40,\xff,no\n")
    with pytest.raises(CsvFormatError) as err:
        load_csv(p, SCHEMA)
    assert str(err.value).startswith(f"{p}: not UTF-8 text: 'utf-8' codec can't decode byte 0xff")


def test_load_missing_value(tmp_path):
    p = write(tmp_path, "age,color,label\n30,,yes\n")
    with pytest.raises(CsvFormatError, match=r"row 1, column 'color'.*missing"):
        load_csv(p, SCHEMA)


def test_load_field_over_csv_limit_names_file_and_row(tmp_path):
    """A cell over the csv module's field size limit (131,072 characters)
    is a CsvFormatError naming the file and the row, the header's too."""
    big = "x" * 200_000
    for text, row in ((f"age,color,label\n30,a,yes\n40,{big},no\n", 2), (f"age,{big},label\n", 0)):
        p = write(tmp_path, text)
        with pytest.raises(CsvFormatError) as err:
            load_csv(p, SCHEMA)
        assert str(err.value).startswith(f"{p}: row {row}: field larger than field limit"), err.value


def test_load_header_mismatch(tmp_path):
    p = write(tmp_path, "age,colour,label\n")
    with pytest.raises(CsvFormatError, match="header"):
        load_csv(p, SCHEMA)


def test_load_unknown_category_closed_schema(tmp_path):
    p = write(tmp_path, "age,color,label\n30,z,yes\n")
    with pytest.raises(CsvFormatError, match=r"row 1, column 'color'.*'z'"):
        load_csv(p, SCHEMA)


def test_load_open_schema_learns_categories_in_order(tmp_path):
    open_schema = (
        SCHEMA[0],
        AttributeSchema("color", "categorical", "quasi_identifier"),
        AttributeSchema("label", "categorical", "class"),
    )
    p = write(tmp_path, "age,color,label\n1,x,no\n2,y,no\n3,x,yes\n")
    ds = load_csv(p, open_schema)
    assert ds.schema[1].categories == ("x", "y")
    assert ds.schema[2].categories == ("no", "yes")
    assert ds.rows[:, 1].tolist() == [0.0, 1.0, 0.0]


def test_load_quoted_categorical(tmp_path):
    open_schema = (
        SCHEMA[0],
        AttributeSchema("color", "categorical", "quasi_identifier"),
        AttributeSchema("label", "categorical", "class"),
    )
    p = write(tmp_path, 'age,color,label\n1,"light, blue",no\n2,red,yes\n')
    ds = load_csv(p, open_schema)
    assert ds.schema[1].categories == ("light, blue", "red")


def test_write_load_round_trip(tmp_path):
    rows = np.array([[30.25, 0.0, 1.0], [40.125, 2.0, 0.0], [7.1, 1.0, 1.0]])
    ds = TabularDataset(SCHEMA, rows, Provenance.raw())
    p = tmp_path / "out.csv"
    write_csv(ds, p)
    back = load_csv(p, SCHEMA)
    assert np.array_equal(back.rows, rows)



def test_load_padded_cells_as_unpadded(tmp_path):
    """Cells padded after each comma, as in the UCI Adult files
    ("39, State-gov, ..."), load to the same rows and categories as unpadded
    ones, over several row blocks and under open and closed lists."""
    rng = random.Random(5)
    lines = ["age,color,label"]
    lines += [f"{rng.randint(0, 100)},{rng.choice('abc')},{rng.choice(['no', 'yes'])}" for _ in range(700)]
    plain = write(tmp_path, "\n".join(lines) + "\n", "plain.csv")
    padded = write(tmp_path, "\n".join(lines).replace(",", ", ") + "\n", "padded.csv")
    open_schema = tuple(dataclasses.replace(a, categories=()) for a in SCHEMA)
    for schema in (SCHEMA, open_schema):
        want, got = load_csv(plain, schema), load_csv(padded, schema)
        assert got.rows.tobytes() == want.rows.tobytes()
        assert got.schema == want.schema


def test_load_csv_peak_memory_near_its_rows(tmp_path):
    """load_csv converts rows as it reads them: its peak is the float64 cells
    and the dataset's copy of them, about 2.1x the rows, not the strings of
    every record held until the end of the file (about 9x)."""
    from conftest import make_dataset

    ds = make_dataset(20_000, seed=3)
    p = tmp_path / "big.csv"
    write_csv(ds, p)
    tracemalloc.start()
    try:
        back = load_csv(p, ds.schema)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert back.rows.tobytes() == ds.rows.tobytes()
    assert peak < 2.5 * back.rows.nbytes


# ---------------------------------------------------------------------------
# CSV loading: parity with a per-cell reference parser

def reference_load_csv(path, schema) -> TabularDataset:
    """The rows load_csv gives, parsed one cell at a time: strip it, test
    its kind, then float() or a category lookup.  load_csv converts whole
    columns of row blocks instead and must give the same rows, schema and
    first error."""
    rownum = -1
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader, None)
            if header is None:
                raise CsvFormatError(f"{path}: empty file, expected a header row")
            rownum = 0
            expected = [a.name for a in schema]
            if [h.strip() for h in header] != expected:
                raise CsvFormatError(
                    f"{path}: header {header!r} does not match schema attributes {expected!r}"
                )
            codes = [{c: float(i) for i, c in enumerate(a.categories)} for a in schema]
            cells = array("d")
            for rownum, record in enumerate(reader, start=1):
                if len(record) != len(schema):
                    raise CsvFormatError(
                        f"{path}: row {rownum}: expected {len(schema)} fields, got {len(record)}"
                    )
                for attr, col_codes, field in zip(schema, codes, record):
                    value = field.strip()
                    where = f"{path}: row {rownum}, column {attr.name!r}"
                    if value == "":
                        raise CsvFormatError(f"{where}: missing value")
                    if attr.kind == "numeric":
                        try:
                            cells.append(float(value))
                        except ValueError:
                            raise CsvFormatError(f"{where}: cannot parse {value!r} as a number") from None
                        continue
                    code = col_codes.get(value)
                    if code is None:
                        if attr.categories:
                            raise CsvFormatError(f"{where}: unknown category {value!r}")
                        code = col_codes[value] = float(len(col_codes))
                    cells.append(code)
        except csv.Error as exc:
            raise CsvFormatError(f"{path}: row {rownum + 1}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise CsvFormatError(f"{path}: not UTF-8 text: {exc}") from None
    rows = np.frombuffer(cells, dtype=np.float64).reshape(-1, len(schema))
    final_schema = []
    for j, attr in enumerate(schema):
        if attr.kind == "categorical":
            final_schema.append(dataclasses.replace(attr, categories=tuple(codes[j])))
            continue
        _check_numeric_column(path, attr, rows[:, j])
        if attr.observed_range is None:
            observed = (float(rows[:, j].min()), float(rows[:, j].max())) if len(rows) else (0.0, 1.0)
            attr = dataclasses.replace(attr, observed_range=observed)
        final_schema.append(attr)
    return TabularDataset(tuple(final_schema), rows, Provenance.raw())


def load_outcome(load, path, schema):
    """(rows bytes, schema) that load(path, schema) gives, or the message of
    the CsvFormatError it raises."""
    try:
        ds = load(path, schema)
    except CsvFormatError as exc:
        return str(exc)
    return ds.rows.tobytes(), ds.schema


NUMERIC_CELLS = ("42", "-2.5", "1_000", "1e3", "7", "+3", ".5", "-0")
LABELS = ("a", "b", "c", "light, blue", 'say "hi"')
PADS = ("", "", "", " ", "  ", "\t", "\x1c")  # float() keeps the \x1c that str.strip() drops
BAD_CELLS = {
    "missing": "",
    "blank": "  ",
    "word": "abc",
    "nan": "nan",
    "huge": "1e999",
    "above": "1e4",
    "label": "zz",
    "non_utf8": "\udcff",  # written as the byte 0xff
    "over_limit": "x" * 200_000,  # over the csv module's field size limit
}
BAD_ROWS = ("short", "long", "blank_line")


def parity_csv(tmp_path, n_numeric, closed, n_rows, seed, bad):
    """A CSV of n_rows data rows and its schema: n_numeric numeric columns
    (every other one with a declared range), one categorical column per
    entry of closed (a closed or an open list) and a class; cells drawn
    from seed, padded and quoted at random.  bad lists (row, column, kind)
    faults: a BAD_CELLS kind replaces the cell, a BAD_ROWS kind the row."""
    schema = [
        AttributeSchema(f"num{j}", "numeric", "quasi_identifier",
                        declared_range=(-10.0, 1000.0) if j % 2 else None)
        for j in range(n_numeric)
    ]
    schema += [
        AttributeSchema(f"cat{j}", "categorical", "quasi_identifier", categories=LABELS if c else ())
        for j, c in enumerate(closed)
    ]
    schema.append(AttributeSchema("label", "categorical", "class"))
    rng = random.Random(seed)
    rows = []
    for _ in range(n_rows):
        cells = [rng.choice(NUMERIC_CELLS) for _ in range(n_numeric)]
        cells += [rng.choice(LABELS) for _ in closed]
        cells.append(rng.choice(("no", "yes")))
        rows.append([rng.choice(PADS) + c + rng.choice(PADS) for c in cells])
    for row, col, kind in bad:
        if kind == "short":
            rows[row] = rows[row][:-1]
        elif kind == "long":
            rows[row] = rows[row] + ["1"]
        elif kind == "blank_line":
            rows[row] = []
        elif rows[row]:
            rows[row][col % len(rows[row])] = BAD_CELLS[kind]
    lines = [",".join(a.name for a in schema)]
    for cells in rows:
        quoted = ['"' + c.replace('"', '""') + '"' if any(ch in c for ch in ',"') or rng.random() < 0.1 else c
                  for c in cells]
        lines.append(",".join(quoted))
    p = tmp_path / f"parity-{seed}.csv"
    p.write_bytes(("\n".join(lines) + "\n").encode("utf-8", "surrogateescape"))
    return p, tuple(schema)


@settings(max_examples=60, deadline=None)
@given(
    n_numeric=st.integers(1, 3),
    closed=st.lists(st.booleans(), min_size=1, max_size=3),
    n_rows=st.integers(2 * 256 + 1, 3 * 256 + 80),
    seed=st.integers(0, 2**32 - 1),
    faults=st.lists(
        st.tuples(st.floats(0.0, 1.0, exclude_max=True), st.integers(0, 7),
                  st.sampled_from(sorted(BAD_CELLS) + list(BAD_ROWS))),
        max_size=3,
    ),
)
def test_load_csv_matches_per_cell_reference(tmp_path_factory, n_numeric, closed, n_rows, seed, faults):
    """Over tables of three or more row blocks, with padded and quoted cells,
    open and closed lists and Python's numeric syntaxes, load_csv gives the
    reference parser's rows, categories and observed ranges, or its message
    for the first bad cell in row-major order."""
    bad = [(int(at * n_rows), col, kind) for at, col, kind in faults]
    p, schema = parity_csv(tmp_path_factory.mktemp("parity"), n_numeric, closed, n_rows, seed, bad)
    assert load_outcome(load_csv, p, schema) == load_outcome(reference_load_csv, p, schema)


@pytest.mark.parametrize(
    "bad, message",
    [
        # a later column at an earlier row comes first
        ([(300, 1, "word"), (40, 2, "label")], "row 41, column 'cat0': unknown category 'zz'"),
        ([(40, 2, "label"), (40, 0, "word")], "row 41, column 'num0': cannot parse 'abc' as a number"),
        ([(700, 0, "missing")], "row 701, column 'num0': missing value"),
        ([(600, 0, "short"), (650, 0, "nan")], "row 601: expected 5 fields, got 4"),
        ([(650, 0, "nan")], "row 651, column 'num0': value nan is not a finite number"),
        ([(620, 2, "over_limit")], "row 621: field larger than field limit (131072)"),
        # the rows of a block read before a csv error are checked first
        ([(620, 2, "over_limit"), (530, 3, "missing")], "row 531, column 'cat1': missing value"),
        ([(520, 4, "blank_line")], "row 521: expected 5 fields, got 0"),
    ],
)
def test_load_csv_names_first_bad_cell_in_row_major_order(tmp_path, bad, message):
    p, schema = parity_csv(tmp_path, 2, [True, False], 720, 17, bad)
    assert load_outcome(load_csv, p, schema) == f"{p}: {message}"
    assert load_outcome(reference_load_csv, p, schema) == f"{p}: {message}"


# ---------------------------------------------------------------------------
# encoding

def test_encode_minmax_and_onehot():
    rows = np.array([[50.0, 1.0, 0.0], [0.0, 0.0, 1.0], [100.0, 2.0, 1.0]])
    ds = TabularDataset(SCHEMA, rows, Provenance.raw())
    em = encode(ds)
    assert em.features.shape == (3, 4)
    assert em.features[0].tolist() == [0.5, 0.0, 1.0, 0.0]
    assert em.features[1].tolist() == [0.0, 1.0, 0.0, 0.0]
    assert em.features[2].tolist() == [1.0, 0.0, 0.0, 1.0]
    assert em.labels.tolist() == [0, 1, 1]
    assert attribute_columns(SCHEMA) == {0: slice(0, 1), 1: slice(1, 4)}


def test_encode_out_of_declared_range_errors():
    rows = np.array([[150.0, 0.0, 0.0]])
    ds = TabularDataset(SCHEMA, rows, Provenance.raw())
    with pytest.raises(EncodingError) as err:
        encode(ds)
    assert str(err.value) == "attribute 'age': value 150.0 at row 0 outside declared range [0.0, 100.0]"


def test_encode_outside_observed_range_passes_through():
    schema = (
        AttributeSchema("x", "numeric", "quasi_identifier", observed_range=(0.0, 10.0)),
        AttributeSchema("label", "categorical", "class", categories=("a", "b")),
    )
    ds = TabularDataset(schema, np.array([[20.0, 0.0]]), Provenance.raw())
    em = encode(ds)
    assert em.features[0, 0] == 2.0


def test_encode_zero_width_range():
    schema = (
        AttributeSchema("x", "numeric", "quasi_identifier", observed_range=(5.0, 5.0)),
        AttributeSchema("label", "categorical", "class", categories=("a", "b")),
    )
    ds = TabularDataset(schema, np.array([[5.0, 1.0]]), Provenance.raw())
    assert encode(ds).features[0, 0] == 0.0


def test_encode_requires_categorical_class():
    schema = (
        AttributeSchema("x", "numeric", "quasi_identifier", observed_range=(0.0, 1.0)),
        AttributeSchema("label", "numeric", "class", observed_range=(0.0, 1.0)),
    )
    ds = TabularDataset(schema, np.array([[0.5, 1.0]]), Provenance.raw())
    with pytest.raises(EncodingError, match="categorical"):
        encode(ds)


@settings(max_examples=50, deadline=None)
@given(st.integers(0, 30), st.integers(1, 4), st.integers(0, 3), st.integers(2, 4), st.integers(0, 10_000))
def test_encode_decode_round_trip(n, n_num, n_cat, n_classes, seed):
    from conftest import make_dataset

    ds = make_dataset(n, seed=seed, n_numeric=n_num, n_categorical=n_cat, n_classes=n_classes)
    em = encode(ds)
    if n:
        assert np.allclose(em.features[:, : n_num], np.clip(em.features[:, :n_num], 0.0, 1.0))
    back = decode(em, ds.schema)
    assert np.allclose(back.rows, ds.rows, rtol=1e-12, atol=1e-12)
    # one-hot blocks invert exactly
    cat_cols = [j for j, a in enumerate(ds.schema) if a.kind == "categorical"]
    assert np.array_equal(back.rows[:, cat_cols], ds.rows[:, cat_cols])


# ---------------------------------------------------------------------------
# forget requests and splits

def test_forget_request_from_ratio_floor():
    req = ForgetRequest.from_ratio(103, 0.05, seed=1)
    assert len(req.forget_indices) == 5
    req = ForgetRequest.from_ratio(10, 0.0, seed=1)
    assert req.forget_indices == ()


def test_forget_request_deterministic():
    a = ForgetRequest.from_ratio(1000, 0.1, seed=7)
    b = ForgetRequest.from_ratio(1000, 0.1, seed=7)
    c = ForgetRequest.from_ratio(1000, 0.1, seed=8)
    assert a.forget_indices == b.forget_indices
    assert a.forget_indices != c.forget_indices


def test_forget_request_validation():
    with pytest.raises(DataError):
        ForgetRequest((1, 1))
    with pytest.raises(DataError):
        ForgetRequest((-1,))
    with pytest.raises(DataError):
        ForgetRequest.from_ratio(10, 1.5, seed=0)


def test_forget_request_mask():
    mask = ForgetRequest((4, 0, 2)).mask(6)
    assert mask.dtype == bool
    assert mask.tolist() == [True, False, True, False, True, False]
    assert ForgetRequest(()).mask(3).tolist() == [False, False, False]
    assert ForgetRequest(()).mask(0).shape == (0,)
    with pytest.raises(DataError, match=r"forget index 6 out of range for 6 rows"):
        ForgetRequest((1, 6)).mask(6)


def test_split_forget_partition(small_dataset):
    req = ForgetRequest.from_ratio(small_dataset.n_rows, 0.1, seed=3)
    retain, forget = split_forget(small_dataset, req)
    assert retain.n_rows + forget.n_rows == small_dataset.n_rows
    assert retain.provenance.kind == "retain_subset"
    assert forget.provenance.kind == "forget_subset"
    forget_idx = np.array(req.forget_indices)
    retain_idx = np.setdiff1d(np.arange(small_dataset.n_rows), forget_idx)
    assert len(retain_idx) == retain.n_rows
    assert np.array_equal(small_dataset.rows[forget_idx], forget.rows)
    assert np.array_equal(small_dataset.rows[retain_idx], retain.rows)


def test_split_forget_rejects_non_raw(small_dataset):
    req = ForgetRequest((0,))
    retain, _ = split_forget(small_dataset, req)
    with pytest.raises(DataError, match="raw"):
        split_forget(retain, req)


def test_split_forget_rejects_out_of_range(small_dataset):
    with pytest.raises(DataError, match="out of range"):
        split_forget(small_dataset, ForgetRequest((small_dataset.n_rows,)))


@settings(max_examples=40, deadline=None)
@given(st.integers(1, 300), st.floats(0.0, 1.0), st.integers(0, 2**20))
def test_split_forget_properties(n, ratio, seed):
    from conftest import make_dataset

    ds = make_dataset(n, seed=11)
    req = ForgetRequest.from_ratio(n, ratio, seed)
    assert len(req.forget_indices) == int(np.floor(ratio * n))
    retain, forget = split_forget(ds, req)
    assert forget.n_rows == len(req.forget_indices)
    assert retain.n_rows == n - forget.n_rows
    # the parts are disjoint, cover every row and keep the original row order
    forget_idx = np.array(req.forget_indices, dtype=np.int64)
    retain_idx = np.setdiff1d(np.arange(n), forget_idx)
    assert np.array_equal(ds.rows[forget_idx], forget.rows)
    assert np.array_equal(ds.rows[retain_idx], retain.rows)


def test_dataset_immutability(small_dataset):
    with pytest.raises(ValueError):
        small_dataset.rows[0, 0] = 99.0


def test_encoded_take_copies_once_read_only():
    rng = np.random.default_rng(0)
    em = EncodedMatrix(rng.random((2000, 50)), rng.integers(0, 2, 2000))
    idx = rng.permutation(2000)[:1500]
    tracemalloc.start()
    try:
        taken = em.take(idx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one copy of the rows, not a second one made by the constructor
    assert peak < 1.5 * (taken.features.nbytes + taken.labels.nbytes)
    assert taken.features.tobytes() == em.features[idx].tobytes()
    assert taken.labels.tobytes() == em.labels[idx].tobytes()
    assert not np.shares_memory(taken.features, em.features)
    for arr in (taken.features, taken.labels):
        with pytest.raises(ValueError):
            arr[0] = 1


def encoding_table(n: int) -> TabularDataset:
    """n rows with a declared range, an observed range that some rows leave,
    a zero-width range and categoricals of 7, 16 and 41 categories (width 67);
    cells are fixed arithmetic of the row number, so no generator is involved."""
    i = np.arange(n)
    schema = (
        AttributeSchema("age", "numeric", "quasi_identifier", declared_range=(17.0, 90.0)),
        AttributeSchema("work", "categorical", "quasi_identifier", categories=tuple("abcdefg")),
        AttributeSchema("hours", "numeric", "quasi_identifier", observed_range=(-3.5, 12.25)),
        AttributeSchema("edu", "categorical", "quasi_identifier", categories=tuple("ABCDEFGHIJKLMNOP")),
        AttributeSchema("flat", "numeric", "other", observed_range=(5.0, 5.0)),
        AttributeSchema("country", "categorical", "quasi_identifier",
                        categories=tuple(f"c{k}" for k in range(41))),
        AttributeSchema("label", "categorical", "class", categories=("no", "yes")),
    )
    rows = np.column_stack([
        17.0 + (i * 37 % 731) / 10.0,
        i * 5 % 7,
        (i * 0.37) % 17.0 - 4.0,
        i * 11 % 16,
        np.full(n, 5.0),
        i * 13 % 41,
        i * 3 % 7 % 2,
    ])
    return TabularDataset(schema, rows, Provenance.raw())


# sha256 of encode(encoding_table(2000))'s features and labels bytes, taken
# from the encoder that stacked per-attribute blocks
ENCODING_TABLE_SHA256 = {
    "features": "b4ded0826d54e58283c41d2cb97f83728580ebdf0cc1a0087e2edf48c2219a5e",
    "labels": "da630e0afeebe5445d417e5bca6873bc586373d64e14239b9b3bea15cc2bc634",
}


def test_encode_bytes_pinned():
    em = encode(encoding_table(2000))
    assert em.features.shape == (2000, 67)
    assert hashlib.sha256(em.features.tobytes()).hexdigest() == ENCODING_TABLE_SHA256["features"]
    assert hashlib.sha256(em.labels.tobytes()).hexdigest() == ENCODING_TABLE_SHA256["labels"]


def test_encode_builds_one_matrix():
    ds = encoding_table(3000)
    tracemalloc.start()
    try:
        em = encode(ds)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the features array it returns, not per-attribute blocks, a stacked
    # copy of them and the constructor's copy of that
    assert peak < 1.5 * (em.features.nbytes + em.labels.nbytes)
    for arr in (em.features, em.labels):
        with pytest.raises(ValueError):
            arr[0] = 1


def test_dataset_category_bounds():
    with pytest.raises(DataError, match="category index"):
        TabularDataset(SCHEMA, np.array([[1.0, 5.0, 0.0]]), Provenance.raw())
    with pytest.raises(DataError, match="non-integer"):
        TabularDataset(SCHEMA, np.array([[1.0, 0.5, 0.0]]), Provenance.raw())


def test_dataset_holding_keeps_the_array_and_validates_it():
    """_holding takes a fresh array without the constructor's copy, makes it
    read-only and still refuses the cells the constructor refuses."""
    rows = np.array([[1.0, 2.0, 0.0], [3.0, 0.0, 1.0]])
    ds = TabularDataset._holding(SCHEMA, rows, Provenance.raw())
    assert ds.rows is rows and not rows.flags.writeable
    assert ds.schema == SCHEMA and ds.provenance == Provenance.raw()
    with pytest.raises(DataError, match="category index"):
        TabularDataset._holding(SCHEMA, np.array([[1.0, 5.0, 0.0]]), Provenance.raw())
    with pytest.raises(DataError, match="non-finite"):
        TabularDataset._holding(SCHEMA, np.array([[np.nan, 0.0, 0.0]]), Provenance.raw())
