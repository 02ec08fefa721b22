"""Tabular datasets: schema, strict CSV ingestion, encoding, forget splits.

A dataset is a rectangular float64 matrix with one column per declared
attribute.  Numeric cells hold the parsed value; categorical cells hold the
index of the category in the attribute's category list.  All downstream
stages (anonymization, training, attacks) consume either this raw matrix or
its encoded form (min-max scaled numerics + one-hot categoricals).
"""
from __future__ import annotations

import csv
import dataclasses
import itertools
import json
from array import array
from dataclasses import dataclass
from pathlib import Path

import numpy as np

NUMERIC = "numeric"
CATEGORICAL = "categorical"
KINDS = (NUMERIC, CATEGORICAL)

QUASI_IDENTIFIER = "quasi_identifier"
CLASS = "class"
OTHER = "other"
ROLES = (QUASI_IDENTIFIER, CLASS, OTHER)


class DataError(ValueError):
    """Base class for schema/CSV/encoding contract violations."""


class SchemaError(DataError):
    pass


class CsvFormatError(DataError):
    pass


class EncodingError(DataError):
    pass


@dataclass(frozen=True)
class AttributeSchema:
    """One column of a tabular dataset.

    declared_range is the user-asserted value range of a numeric attribute;
    observed_range is filled in from the data at load time unless the schema
    given to load_csv already carries one.  Encoding scales by the declared
    range when present, otherwise by the observed one.  A value outside an
    explicitly declared range is an error.
    """

    name: str
    kind: str
    role: str
    declared_range: tuple[float, float] | None = None
    categories: tuple[str, ...] = ()
    observed_range: tuple[float, float] | None = None

    def __post_init__(self):
        if self.kind not in KINDS:
            raise SchemaError(f"attribute {self.name!r}: unknown kind {self.kind!r}")
        if self.role not in ROLES:
            raise SchemaError(f"attribute {self.name!r}: unknown role {self.role!r}")
        if self.kind == CATEGORICAL and self.declared_range is not None:
            raise SchemaError(f"attribute {self.name!r}: categorical attributes take no range")
        if self.kind == NUMERIC and self.categories:
            raise SchemaError(f"attribute {self.name!r}: numeric attributes take no categories")
        for rng, label in ((self.declared_range, "declared"), (self.observed_range, "observed")):
            if rng is not None:
                lo, hi = rng
                if not (np.isfinite(lo) and np.isfinite(hi)) or lo > hi:
                    raise SchemaError(
                        f"attribute {self.name!r}: bad {label} range ({lo}, {hi})"
                    )
        if len(set(self.categories)) != len(self.categories):
            raise SchemaError(f"attribute {self.name!r}: duplicate categories")

    @property
    def effective_range(self) -> tuple[float, float]:
        rng = self.declared_range if self.declared_range is not None else self.observed_range
        if rng is None:
            raise SchemaError(f"attribute {self.name!r}: no range available")
        return rng


@dataclass(frozen=True)
class Provenance:
    """How a dataset came to be.  param carries k or epsilon when relevant."""

    kind: str
    param: float | None = None

    _KINDS = ("raw", "k_anonymized", "dp_protected", "retain_subset", "forget_subset")

    def __post_init__(self):
        if self.kind not in self._KINDS:
            raise DataError(f"unknown provenance kind {self.kind!r}")

    @classmethod
    def raw(cls):
        return cls("raw")

    @classmethod
    def k_anonymized(cls, k: int):
        return cls("k_anonymized", float(k))

    @classmethod
    def dp_protected(cls, epsilon: float):
        return cls("dp_protected", float(epsilon))

    @classmethod
    def retain_subset(cls):
        return cls("retain_subset")

    @classmethod
    def forget_subset(cls):
        return cls("forget_subset")

    def tag(self) -> str:
        if self.kind == "k_anonymized":
            return f"k_anonymized(k={int(self.param)})"
        if self.kind == "dp_protected":
            return f"dp_protected(eps={self.param:g})"
        return self.kind


def validate_schema(schema) -> tuple[AttributeSchema, ...]:
    schema = tuple(schema)
    if not schema:
        raise SchemaError("schema must declare at least one attribute")
    names = [a.name for a in schema]
    if len(set(names)) != len(names):
        raise SchemaError("duplicate attribute names in schema")
    n_class = sum(1 for a in schema if a.role == CLASS)
    if n_class != 1:
        raise SchemaError(f"schema must declare exactly one class attribute, found {n_class}")
    return schema


@dataclass(frozen=True)
class TabularDataset:
    """Immutable rows + schema.  Categorical cells are category indices."""

    schema: tuple[AttributeSchema, ...]
    rows: np.ndarray
    provenance: Provenance

    def __post_init__(self):
        self._own(np.array(self.rows, dtype=np.float64, copy=True))

    @classmethod
    def _holding(cls, schema, rows: np.ndarray, provenance: Provenance) -> "TabularDataset":
        """A TabularDataset of the float64 array rows itself, validated but
        without the constructor's defensive copy: for arrays no caller holds."""
        ds = object.__new__(cls)
        object.__setattr__(ds, "schema", schema)
        object.__setattr__(ds, "provenance", provenance)
        ds._own(rows)
        return ds

    def _own(self, rows: np.ndarray) -> None:
        """Validate the schema and the float64 rows, then hold the rows read-only."""
        schema = validate_schema(self.schema)
        object.__setattr__(self, "schema", schema)
        if rows.ndim != 2 or rows.shape[1] != len(schema):
            raise DataError(
                f"rows must be 2-d with {len(schema)} columns, got shape {rows.shape}"
            )
        for j, attr in enumerate(schema):
            col = rows[:, j]
            if not np.isfinite(col).all():
                raise DataError(f"attribute {attr.name!r}: non-finite cell")
            if attr.kind == CATEGORICAL and col.size:
                if not (col == np.floor(col)).all():
                    raise DataError(f"attribute {attr.name!r}: non-integer category index")
                if col.min() < 0 or col.max() >= len(attr.categories):
                    raise DataError(
                        f"attribute {attr.name!r}: category index out of range "
                        f"[0, {len(attr.categories)})"
                    )
        rows.setflags(write=False)
        object.__setattr__(self, "rows", rows)

    @property
    def n_rows(self) -> int:
        return self.rows.shape[0]

    @property
    def class_index(self) -> int:
        return next(i for i, a in enumerate(self.schema) if a.role == CLASS)

    @property
    def qi_indices(self) -> tuple[int, ...]:
        return tuple(i for i, a in enumerate(self.schema) if a.role == QUASI_IDENTIFIER)


@dataclass(frozen=True)
class EncodedMatrix:
    """Model-ready matrix: scaled numerics, one-hot categoricals, int labels."""

    features: np.ndarray
    labels: np.ndarray

    def __post_init__(self):
        self._own(
            np.array(self.features, dtype=np.float64, copy=True),
            np.array(self.labels, dtype=np.int64, copy=True),
        )

    @classmethod
    def _holding(cls, feats, labels) -> "EncodedMatrix":
        """An EncodedMatrix of feats and labels themselves, without the
        constructor's defensive copy: for arrays that no caller holds."""
        em = object.__new__(cls)
        em._own(feats, labels)
        return em

    def _own(self, feats: np.ndarray, labels: np.ndarray) -> None:
        """Hold feats and labels, which no caller may write to, read-only."""
        if feats.ndim != 2 or labels.ndim != 1 or feats.shape[0] != labels.shape[0]:
            raise DataError("features must be (n, d) and labels (n,)")
        feats.setflags(write=False)
        labels.setflags(write=False)
        object.__setattr__(self, "features", feats)
        object.__setattr__(self, "labels", labels)

    @property
    def n_rows(self) -> int:
        return self.features.shape[0]

    @property
    def width(self) -> int:
        return self.features.shape[1]

    def take(self, idx) -> "EncodedMatrix":
        """The rows idx, as numpy indexes them: an index array gives a copy,
        made once, and a slice a view (both read-only)."""
        return EncodedMatrix._holding(self.features[idx], self.labels[idx])


@dataclass(frozen=True)
class ForgetRequest:
    """A request to erase a set of training rows.

    forget_indices are positions into the raw training dataset.
    """

    forget_indices: tuple[int, ...]

    def __post_init__(self):
        idx = tuple(int(i) for i in self.forget_indices)
        if len(set(idx)) != len(idx):
            raise DataError("forget_indices must be unique")
        if any(i < 0 for i in idx):
            raise DataError("forget_indices must be non-negative")
        object.__setattr__(self, "forget_indices", tuple(sorted(idx)))

    @classmethod
    def from_ratio(cls, n_rows: int, ratio: float, seed: int) -> "ForgetRequest":
        """Draw floor(ratio * n_rows) distinct rows uniformly, deterministically."""
        from . import seeds

        if not 0.0 <= ratio <= 1.0:
            raise DataError(f"forget ratio must lie in [0, 1], got {ratio}")
        m = int(np.floor(ratio * n_rows))
        idx = seeds.stream(seed, seeds.FORGET_DRAW).permutation(n_rows)[:m]
        return cls(tuple(int(i) for i in idx))

    def mask(self, n_rows: int) -> np.ndarray:
        """Boolean mask over a table of n_rows, True at the forgotten rows.

        The one range check of a request against a table: an index past its
        end raises DataError naming the index and n_rows.
        """
        if self.forget_indices and self.forget_indices[-1] >= n_rows:
            raise DataError(
                f"forget index {self.forget_indices[-1]} out of range for {n_rows} rows"
            )
        mask = np.zeros(n_rows, dtype=bool)
        mask[list(self.forget_indices)] = True
        return mask


# ---------------------------------------------------------------------------
# JSON files

def read_json(path):
    """The JSON value in the file at path; a file that does not parse is a
    DataError naming path."""
    try:
        return json.loads(Path(path).read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: not valid JSON: {exc}") from None


# ---------------------------------------------------------------------------
# schema files

def parse_schema_file(path) -> list[AttributeSchema]:
    """Read a schema description: one attribute per line.

    Line grammar: ``name,kind,role[,min,max]`` where kind is numeric or
    categorical and role is quasi_identifier, class, or other.  Blank lines
    and lines starting with ``#`` are ignored.  Categories are not listed in
    the file; they are learned from data in order of first appearance.
    """
    attrs = []
    for lineno, raw in enumerate(Path(path).read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = [p.strip() for p in line.split(",")]
        if len(parts) not in (3, 5):
            raise SchemaError(
                f"{path}: line {lineno}: expected 'name,kind,role' or "
                f"'name,kind,role,min,max', got {raw!r}"
            )
        name, kind, role = parts[:3]
        declared = None
        if len(parts) == 5:
            if kind != NUMERIC:
                raise SchemaError(f"{path}: line {lineno}: range given for non-numeric attribute")
            try:
                declared = (float(parts[3]), float(parts[4]))
            except ValueError:
                raise SchemaError(f"{path}: line {lineno}: bad range bounds") from None
        attrs.append(AttributeSchema(name, kind, role, declared_range=declared))
    validate_schema(attrs)
    return attrs


# ---------------------------------------------------------------------------
# CSV ingestion

# Data rows converted at a time.  Each column of a block is converted by one
# C-level map over its cells, so the per-cell work runs without a Python loop
# step; a block this small keeps its cells in cache while it is transposed
# (2048-row blocks were slower), and the converted rows go straight into one
# row-major array.
_CSV_BLOCK = 256


class _CategoryCodes(dict):
    """One categorical column's cells, as read, mapped to category codes.

    The codes of the schema's categories come first; an open list (the
    schema gives none) learns labels in order of first appearance.  A cell
    missing from the map is stripped: a padded spelling of a known label is
    added under its own key, so each spelling is stripped once.  A cell that
    is empty once stripped, or names a label outside a closed list, raises
    KeyError.
    """

    def __init__(self, categories: tuple[str, ...]):
        # a schema label that no stripped cell can spell is never matched
        super().__init__((c, float(i)) for i, c in enumerate(categories) if c == c.strip() != "")
        self.labels = list(categories)
        self.closed = bool(categories)

    def __missing__(self, cell: str) -> float:
        label = cell.strip()
        if label not in self:
            if label == "" or self.closed:
                raise KeyError(cell)
            self[label] = float(len(self.labels))
            self.labels.append(label)
        code = self[cell] = self[label]
        return code


def load_csv(path, schema) -> TabularDataset:
    """Parse a CSV with header into a raw TabularDataset.

    The file must be UTF-8 text, and its header must name exactly the
    schema attributes, in order.  Numeric cells must parse as finite floats
    inside the attribute's declared range, if it has one; categorical cells
    must be non-empty strings.  Cells may be padded with whitespace.
    Attributes declared with an empty category list accept any label and the
    list of categories is learned in order of first appearance; a non-empty
    list is closed and unseen labels are an error.  A numeric attribute
    keeps the observed range the schema gives it (so a test table loaded
    under the training schema is scaled like the training table); one
    without is given the range of its column.  Row numbers in error
    messages are 1-based over data rows (the header is row 0).
    """
    schema = validate_schema(schema)
    rownum = -1  # the last row read
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
            codes = [_CategoryCodes(a.categories) if a.kind == CATEGORICAL else None for a in schema]
            cells = array("d")  # row-major, one float64 per cell
            block: list[list[str]] = []
            while True:
                block.clear()
                try:
                    block.extend(itertools.islice(reader, _CSV_BLOCK))
                except (csv.Error, UnicodeDecodeError):  # the rows read before it are checked first
                    _raise_first_bad_cell(path, schema, block, rownum + 1)
                    rownum += len(block)
                    raise
                if not block:
                    break
                values = np.empty((len(block), len(schema)))
                try:
                    columns = zip(*block, strict=True)
                    for j, (col_codes, column) in enumerate(zip(codes, columns, strict=True)):
                        if col_codes is None:
                            column = map(float, map(str.strip, column))
                        else:
                            column = map(col_codes.__getitem__, column)
                        values[:, j] = np.fromiter(column, np.float64, len(block))
                except (ValueError, KeyError):  # a row of the wrong length, or a bad cell
                    _raise_first_bad_cell(path, schema, block, rownum + 1)
                    raise
                cells.frombytes(values.tobytes())
                rownum += len(block)
        except csv.Error as exc:  # e.g. a field over the csv module's size limit
            raise CsvFormatError(f"{path}: row {rownum + 1}: {exc}") from None
        except UnicodeDecodeError as exc:  # decoded ahead in blocks: the row is not known
            raise CsvFormatError(f"{path}: not UTF-8 text: {exc}") from None

    rows = np.frombuffer(cells, dtype=np.float64).reshape(-1, len(schema))
    final_schema = []
    for j, attr in enumerate(schema):
        if attr.kind == CATEGORICAL:
            final_schema.append(dataclasses.replace(attr, categories=tuple(codes[j].labels)))
            continue
        col = rows[:, j]
        _check_numeric_column(path, attr, col)
        if attr.observed_range is not None:
            final_schema.append(attr)
        else:
            observed = (float(col.min()), float(col.max())) if col.size else (0.0, 1.0)
            final_schema.append(dataclasses.replace(attr, observed_range=observed))
    return TabularDataset(tuple(final_schema), rows, Provenance.raw())


def _raise_first_bad_cell(path, schema, block: list[list[str]], first_row: int) -> None:
    """CsvFormatError naming path, the row and the column of block's first
    bad cell in row-major order, if it has one; block holds data rows
    first_row, first_row + 1, ... as read."""
    for rownum, record in enumerate(block, start=first_row):
        if len(record) != len(schema):
            raise CsvFormatError(f"{path}: row {rownum}: expected {len(schema)} fields, got {len(record)}")
        for attr, field in zip(schema, record):
            value = field.strip()
            if value == "":
                problem = "missing value"
            elif attr.kind == NUMERIC:
                try:
                    float(value)
                    continue
                except ValueError:
                    problem = f"cannot parse {value!r} as a number"
            elif attr.categories and value not in attr.categories:
                problem = f"unknown category {value!r}"
            else:
                continue
            raise CsvFormatError(f"{path}: row {rownum}, column {attr.name!r}: {problem}")


def _check_numeric_column(path, attr: AttributeSchema, col: np.ndarray) -> None:
    """CsvFormatError naming path, the first bad row and the column unless
    every value of col is finite and inside attr's declared range, if any."""
    declared = attr.declared_range
    if declared is None:
        ok = np.isfinite(col)
    else:  # a declared range is finite, so NaN and the infinities fall outside it
        ok = (col >= declared[0]) & (col <= declared[1])
    if not ok.all():
        bad = int(np.argmin(ok))
        problem = "is not a finite number"
        if np.isfinite(col[bad]):
            problem = f"lies outside declared range {list(declared)}"
        raise CsvFormatError(f"{path}: row {bad + 1}, column {attr.name!r}: value {col[bad]} {problem}")


def write_csv(ds: TabularDataset, path) -> None:
    """Write a dataset back to CSV; categorical cells as their labels."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([a.name for a in ds.schema])
        for row in ds.rows:
            record = []
            for attr, cell in zip(ds.schema, row):
                if attr.kind == CATEGORICAL:
                    record.append(attr.categories[int(cell)])
                else:
                    record.append(repr(float(cell)))
            writer.writerow(record)


# ---------------------------------------------------------------------------
# encoding

def attribute_columns(schema) -> dict[int, slice]:
    """The encoded columns of each non-class attribute, keyed by its index
    in schema: one column for a numeric attribute, one per category for a
    categorical one, laid out in schema order."""
    columns, start = {}, 0
    for j, attr in enumerate(schema):
        if attr.role != CLASS:
            width = 1 if attr.kind == NUMERIC else len(attr.categories)
            columns[j] = slice(start, start + width)
            start += width
    return columns


def encoded_width(schema) -> int:
    return sum(cols.stop - cols.start for cols in attribute_columns(schema).values())


def encode(ds: TabularDataset, rows: np.ndarray | None = None) -> EncodedMatrix:
    """Min-max scale numerics, one-hot categoricals, class to int labels.

    Scaling uses the attribute's declared range when one was declared,
    otherwise the range observed at load time.  A value outside an
    explicitly declared range raises.  Values outside an observed range
    (e.g. test data encoded under the training schema) pass through and may
    fall outside [0, 1].  A zero-width range maps to 0.0.  The features are
    built in one (n, encoded_width) array, which the result holds.  Given
    rows (an integer index array), only those rows of ds are encoded, in
    that order: the same bits as encode(ds).take(rows), without encoding
    the others.
    """
    class_attr = ds.schema[ds.class_index]
    if class_attr.kind != CATEGORICAL:
        raise EncodingError("class attribute must be categorical")
    cells = ds.rows if rows is None else ds.rows[rows]
    n = len(cells)
    features = np.zeros((n, encoded_width(ds.schema)))
    row_ids = np.arange(n)
    for j, cols in attribute_columns(ds.schema).items():
        attr, col = ds.schema[j], cells[:, j]
        if attr.kind == NUMERIC:
            lo, hi = attr.effective_range
            if attr.declared_range is not None:
                below, above = col < lo, col > hi
                if below.any() or above.any():
                    bad = int(np.argmax(below | above))
                    row = bad if rows is None else int(np.asarray(rows)[bad])
                    raise EncodingError(
                        f"attribute {attr.name!r}: value {col[bad]} at row {row} "
                        f"outside declared range [{lo}, {hi}]"
                    )
            width = hi - lo
            if width > 0:
                scaled = features[:, cols.start]
                np.subtract(col, lo, out=scaled)
                scaled /= width
        else:
            features[row_ids, cols.start + col.astype(np.int64)] = 1.0
    labels = cells[:, ds.class_index].astype(np.int64)
    return EncodedMatrix._holding(features, labels)


# ---------------------------------------------------------------------------
# forget splits

def split_forget(ds: TabularDataset, request: ForgetRequest):
    """Partition a raw dataset into (retain, forget) per the request.

    Row order within each part follows the original dataset; the request's
    forget_indices are the positions the forget rows held in the input.
    """
    if ds.provenance.kind != "raw":
        raise DataError(
            f"forget splits run on raw data, got provenance {ds.provenance.tag()!r}"
        )
    mask = request.mask(ds.n_rows)
    retain = TabularDataset._holding(ds.schema, ds.rows[~mask], Provenance.retain_subset())
    forget = TabularDataset._holding(ds.schema, ds.rows[mask], Provenance.forget_subset())
    return retain, forget
