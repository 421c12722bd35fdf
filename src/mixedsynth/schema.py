"""Schema handling, CSV ingest, and the expanded latent-column layout.

A dataset is a set of typed columns: categorical columns are stored as
integer level codes against an ordered level list, binary/ordinal/count
columns as int64, continuous columns as float64.  Every categorical column
expands to a contiguous block of k latent indicator columns; all other
columns occupy one latent column.  The expanded width is
p_star = r + sum_c k_c.
"""
from __future__ import annotations

import csv
import hashlib
import json
import warnings
from dataclasses import dataclass, field
from enum import Enum
from itertools import islice
from pathlib import Path

import numpy as np

from .errors import (
    LevelNotInSchemaError,
    MissingValueError,
    NonIntegerCountError,
    SchemaError,
    UnknownColumnError,
)

__all__ = [
    "Kind",
    "ColumnSchema",
    "MixedDataset",
    "ExpandedLayout",
    "load_schema",
    "load_dataset",
    "expand_layout",
    "write_csv",
    "schema_to_doc",
    "schema_from_doc",
    "schema_hash",
]

# Cells matching these (case-sensitive, after strip) are treated as missing,
# except in a categorical column that declares the token as a level.
_MISSING_TOKENS = {"", "NA", "NaN", "nan", "N/A", "null", "None"}

ORDINAL_WARN_LEVELS = 10

#: rows that load_dataset converts, and write_csv formats, per block: enough
#: for each column's conversion to run as one C-level ``map``, few enough
#: that a block's text adds little to peak memory
CSV_BLOCK = 512

_INT64 = np.iinfo(np.int64)


class Kind(str, Enum):
    CATEGORICAL = "categorical"
    BINARY = "binary"
    ORDINAL = "ordinal"
    COUNT = "count"
    CONTINUOUS = "continuous"


#: kinds allowed in the response role
RESPONSE_KINDS = (Kind.ORDINAL, Kind.COUNT, Kind.CONTINUOUS)


@dataclass(frozen=True)
class ColumnSchema:
    """Declared name, kind, optional level list, and pipeline role of a column."""

    name: str
    kind: Kind
    levels: tuple[str, ...] | None = None
    role: str = "copula"

    def __post_init__(self):
        if not self.name:
            raise SchemaError("column name must be non-empty")
        if self.role not in ("copula", "response"):
            raise SchemaError(f"column '{self.name}': unknown role '{self.role}'")
        if self.kind is Kind.CATEGORICAL:
            if self.levels is None or len(self.levels) < 2:
                raise SchemaError(
                    f"column '{self.name}': categorical columns need >= 2 declared levels"
                )
            if len(set(self.levels)) != len(self.levels):
                raise SchemaError(f"column '{self.name}': duplicate levels")
            padded = [lv for lv in self.levels if lv != lv.strip()]
            if padded:
                # a CSV cell is read stripped, so such a level never reads back
                raise SchemaError(
                    f"column '{self.name}': levels {padded} have surrounding "
                    "whitespace"
                )
        elif self.levels is not None:
            raise SchemaError(
                f"column '{self.name}': only categorical columns declare levels"
            )
        if self.role == "response" and self.kind not in RESPONSE_KINDS:
            raise SchemaError(
                f"column '{self.name}': response columns must be ordinal, count, "
                f"or continuous, not {self.kind.value}"
            )

    @property
    def width(self) -> int:
        """Width of this column's latent block: a categorical column's level
        count, else 1."""
        return len(self.levels) if self.kind is Kind.CATEGORICAL else 1


@dataclass
class MixedDataset:
    """Complete-case mixed-type table with schema-validated column arrays."""

    schema: tuple[ColumnSchema, ...]
    columns: dict[str, np.ndarray]
    n: int = field(init=False)

    def __post_init__(self):
        self.schema = tuple(self.schema)
        names = [c.name for c in self.schema]
        if len(set(names)) != len(names):
            raise SchemaError("duplicate column names in schema")
        if set(self.columns) != set(names):
            extra = set(self.columns) - set(names)
            missing = set(names) - set(self.columns)
            bad = ", ".join(sorted(extra | missing))
            raise UnknownColumnError(f"columns do not match schema: {bad}")
        lengths = {len(v) for v in self.columns.values()}
        if len(lengths) != 1:
            raise SchemaError(f"columns have differing lengths: {sorted(lengths)}")
        self.n = lengths.pop()
        for col in self.schema:
            arr = np.asarray(self.columns[col.name])
            arr = self._validate_column(col, arr)
            self.columns[col.name] = arr

    @staticmethod
    def _validate_column(col: ColumnSchema, arr: np.ndarray) -> np.ndarray:
        if col.kind is Kind.CONTINUOUS:
            arr = np.asarray(arr, dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                row = int(np.flatnonzero(~np.isfinite(arr))[0])
                raise MissingValueError(
                    f"column '{col.name}', row {row}: non-finite value"
                )
            return arr
        arr = np.asarray(arr)
        if not np.issubdtype(arr.dtype, np.integer):
            as_int = np.asarray(arr, dtype=np.float64)
            if not np.all(np.isfinite(as_int)):
                row = int(np.flatnonzero(~np.isfinite(as_int))[0])
                raise MissingValueError(
                    f"column '{col.name}', row {row}: non-finite value"
                )
            if np.any(as_int != np.floor(as_int)):
                row = int(np.flatnonzero(as_int != np.floor(as_int))[0])
                raise NonIntegerCountError(
                    f"column '{col.name}', row {row}: value {arr[row]!r} is not an integer"
                )
            arr = as_int.astype(np.int64)
        else:
            arr = arr.astype(np.int64)
        if col.kind is Kind.CATEGORICAL:
            bad = (arr < 0) | (arr >= col.width)
            if np.any(bad):
                row = int(np.flatnonzero(bad)[0])
                raise LevelNotInSchemaError(
                    f"column '{col.name}', row {row}: level code {arr[row]} outside "
                    f"declared levels (k={col.width})"
                )
        elif col.kind is Kind.BINARY:
            bad = (arr < 0) | (arr > 1)
            if np.any(bad):
                row = int(np.flatnonzero(bad)[0])
                raise LevelNotInSchemaError(
                    f"column '{col.name}', row {row}: binary value {arr[row]} not in {{0,1}}"
                )
        return arr

    def col_schema(self, name: str) -> ColumnSchema:
        for c in self.schema:
            if c.name == name:
                return c
        raise UnknownColumnError(f"no column named '{name}'")

    def subset(self, names) -> "MixedDataset":
        """Dataset restricted to the named columns, in the given order."""
        sub = tuple(self.col_schema(nm) for nm in names)
        return MixedDataset(sub, {nm: self.columns[nm] for nm in names})

    @property
    def copula_columns(self) -> tuple[ColumnSchema, ...]:
        return tuple(c for c in self.schema if c.role == "copula")


@dataclass(frozen=True)
class ExpandedLayout:
    """Mapping from columns to contiguous latent blocks of total width p_star."""

    columns: tuple[ColumnSchema, ...]
    offsets: tuple[int, ...]
    p_star: int

    def cat_latent_mask(self) -> np.ndarray:
        """Boolean mask over latent columns: True inside categorical blocks."""
        mask = np.zeros(self.p_star, dtype=bool)
        for col, off in zip(self.columns, self.offsets):
            if col.kind is Kind.CATEGORICAL:
                mask[off : off + col.width] = True
        return mask

    def latent_names(self) -> list[str]:
        names = []
        for col in self.columns:
            if col.kind is Kind.CATEGORICAL:
                names.extend(f"{col.name}={lv}" for lv in col.levels)
            else:
                names.append(col.name)
        return names


def expand_layout(columns) -> ExpandedLayout:
    """Assign each column a contiguous latent block in declaration order.

    Accepts a MixedDataset (its copula-role columns are used) or an iterable
    of ColumnSchema.
    """
    if isinstance(columns, MixedDataset):
        cols = columns.copula_columns
    else:
        cols = tuple(columns)
    offsets = []
    off = 0
    for col in cols:
        offsets.append(off)
        off += col.width
    return ExpandedLayout(cols, tuple(offsets), off)


def _parse_kind(raw: str, name: str) -> Kind:
    try:
        return Kind(str(raw).strip().lower())
    except ValueError:
        raise SchemaError(
            f"column '{name}': unknown kind '{raw}' "
            f"(expected one of {[k.value for k in Kind]})"
        ) from None


def load_schema(path) -> tuple[ColumnSchema, ...]:
    """Read a schema from a YAML or JSON config file.

    The file holds a ``columns`` list (or is itself a list) of entries with
    keys ``name``, ``kind``, optional ``levels`` and ``role``.
    """
    path = Path(path)
    text = path.read_text(encoding="utf-8-sig")  # a leading BOM is skipped
    if path.suffix.lower() == ".json":
        doc = json.loads(text)
    else:
        import yaml  # only YAML schemas need it

        doc = yaml.safe_load(text)
    if isinstance(doc, dict):
        entries = doc.get("columns")
        if entries is None:
            raise SchemaError(f"{path}: schema file needs a 'columns' list")
    else:
        entries = doc
    return schema_from_doc(entries, path)


def _convert_cell(col: ColumnSchema, raw: str, row: int):
    val = raw.strip()
    if col.kind is Kind.CATEGORICAL and val in col.levels:
        return col.levels.index(val)
    if val in _MISSING_TOKENS:
        raise MissingValueError(f"column '{col.name}', row {row}: missing value")
    if col.kind is Kind.CATEGORICAL:
        raise LevelNotInSchemaError(
            f"column '{col.name}', row {row}: level '{val}' not in schema "
            f"levels {list(col.levels)}"
        )
    if col.kind is Kind.CONTINUOUS:
        try:
            return float(val)
        except ValueError:
            raise SchemaError(
                f"column '{col.name}', row {row}: cannot parse '{val}' as float"
            ) from None
    try:
        parsed = int(val)
    except ValueError:
        raise NonIntegerCountError(
            f"column '{col.name}', row {row}: cannot parse '{val}' as integer"
        ) from None
    if not _INT64.min <= parsed <= _INT64.max:
        raise NonIntegerCountError(
            f"column '{col.name}', row {row}: integer '{val}' does not fit in 64 bits"
        )
    if col.kind is Kind.BINARY and parsed not in (0, 1):
        raise LevelNotInSchemaError(
            f"column '{col.name}', row {row}: binary value {parsed} not in {{0,1}}"
        )
    return parsed


def _convert_block(rows: list, columns: list, codes: dict):
    """Typed arrays for each column of a block of CSV rows, in ``columns``
    order; None when a row has the wrong length or any cell is bad.

    Each column goes through the conversions of ``_convert_cell`` as one
    ``map``; telling which cell failed is left to the per-cell scan.
    """
    if any(len(row) != len(columns) for row in rows):
        return None
    out = []
    for col, cells in zip(columns, zip(*rows)):
        vals = list(map(str.strip, cells))
        if col.kind is Kind.CATEGORICAL:
            # a declared level is that level, even when it is a missing token
            convert, dtype = codes[col.name].__getitem__, np.int64
        elif not _MISSING_TOKENS.isdisjoint(vals):
            return None
        elif col.kind is Kind.CONTINUOUS:
            convert, dtype = float, np.float64
        else:
            convert, dtype = int, np.int64
        try:
            arr = np.fromiter(map(convert, vals), dtype, len(vals))
        except (KeyError, ValueError, OverflowError):
            return None
        if col.kind is Kind.BINARY and ((arr < 0) | (arr > 1)).any():
            return None
        out.append(arr)
    return out


def load_dataset(csv_path, schema) -> MixedDataset:
    """Load a header-row CSV against a schema (path or ColumnSchema tuple).

    Rows are converted column by column in blocks of ``CSV_BLOCK``.  A block
    that fails is scanned again cell by cell, in row order, so the error
    names the first bad cell's column and row (counted from the first data
    row), as a cell-by-cell reader would.
    """
    if isinstance(schema, (str, Path)):
        schema = load_schema(schema)
    schema = tuple(schema)
    csv_path = Path(csv_path)
    # utf-8-sig skips the byte-order mark that Excel's "CSV UTF-8" writes
    with csv_path.open(newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise SchemaError(f"{csv_path}: empty file") from None
        header = [h.strip() for h in header]
        dup = next((h for i, h in enumerate(header) if h in header[:i]), None)
        if dup is not None:
            raise SchemaError(f"{csv_path}: CSV header repeats column '{dup}'")
        by_name = {c.name: c for c in schema}
        for h in header:
            if h not in by_name:
                raise UnknownColumnError(f"CSV column '{h}' not declared in schema")
        for c in schema:
            if c.name not in header:
                raise UnknownColumnError(f"schema column '{c.name}' missing from CSV")
        columns = [by_name[h] for h in header]
        codes = {c.name: {lv: i for i, lv in enumerate(c.levels)}
                 for c in columns if c.kind is Kind.CATEGORICAL}
        blocks: dict[str, list] = {c.name: [] for c in schema}
        row0 = 0
        while rows := list(islice(reader, CSV_BLOCK)):
            arrays = _convert_block(rows, columns, codes)
            if arrays is None:
                _raise_first_bad_cell(rows, row0, columns, csv_path)
            for c, arr in zip(columns, arrays):
                blocks[c.name].append(arr)
            row0 += len(rows)
    if row0 == 0:
        raise SchemaError(f"{csv_path}: no data rows")
    ds = MixedDataset(schema, {name: np.concatenate(b) for name, b in blocks.items()})
    _warn_short_ordinals(ds)
    return ds


def _raise_first_bad_cell(rows: list, row0: int, columns: list, csv_path: Path):
    """Raise the error of a rejected block's first bad row or cell, in row
    order; ``row0`` is the block's first row."""
    for row_idx, row in enumerate(rows, start=row0):
        if len(row) != len(columns):
            raise SchemaError(
                f"{csv_path}, row {row_idx}: expected {len(columns)} cells, "
                f"got {len(row)}"
            )
        for col, raw in zip(columns, row):
            _convert_cell(col, raw, row_idx)
    raise AssertionError("a rejected block converts cell by cell")


def _warn_short_ordinals(ds: MixedDataset) -> None:
    for c in ds.schema:
        if c.kind is Kind.ORDINAL:
            distinct = np.unique(ds.columns[c.name]).size
            if distinct < ORDINAL_WARN_LEVELS:
                warnings.warn(
                    f"ordinal column '{c.name}' has only {distinct} distinct values; "
                    "categorical treatment usually synthesizes such columns better",
                    UserWarning,
                    stacklevel=3,
                )


def _format_column(col: ColumnSchema, values: np.ndarray):
    """The CSV text of a column's values: level labels, ``repr`` of floats,
    or integers."""
    if col.kind is Kind.CATEGORICAL:
        codes = values.astype(np.int64, copy=False).tolist()
        return map(col.levels.__getitem__, codes)
    if col.kind is Kind.CONTINUOUS:
        return map(repr, values.astype(np.float64, copy=False).tolist())
    return map(str, values.astype(np.int64, copy=False).tolist())


def write_csv(ds: MixedDataset, path) -> None:
    """Write the canonical CSV form (schema column order, labels restored),
    formatting column by column in blocks of ``CSV_BLOCK`` rows."""
    path = Path(path)
    cols = [ds.columns[c.name] for c in ds.schema]
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([c.name for c in ds.schema])
        for lo in range(0, ds.n, CSV_BLOCK):
            writer.writerows(zip(*(
                _format_column(c, col[lo : lo + CSV_BLOCK])
                for c, col in zip(ds.schema, cols)
            )))


def schema_to_doc(schema) -> list:
    """JSON form of a schema: one {name, kind, levels, role} dict per column."""
    return [
        {
            "name": c.name,
            "kind": c.kind.value,
            "levels": list(c.levels) if c.levels else None,
            "role": c.role,
        }
        for c in schema
    ]


def schema_from_doc(doc, source="schema") -> tuple[ColumnSchema, ...]:
    """Inverse of schema_to_doc: a non-empty list of column entries with keys
    ``name``, ``kind``, optional ``levels`` and ``role``; errors name
    ``source``."""
    if not isinstance(doc, list) or not doc:
        raise SchemaError(f"{source}: schema 'columns' must be a non-empty list")
    out = []
    for ent in doc:
        if not isinstance(ent, dict) or "name" not in ent or "kind" not in ent:
            raise SchemaError(f"{source}: each column needs 'name' and 'kind' keys")
        name = str(ent["name"])
        kind = _parse_kind(ent["kind"], name)
        levels = ent.get("levels")
        if levels is not None:
            if not isinstance(levels, list):
                raise SchemaError(f"{source}: column '{name}': 'levels' must be a list")
            levels = tuple(str(lv) for lv in levels)
        out.append(
            ColumnSchema(name, kind, levels=levels, role=str(ent.get("role", "copula")))
        )
    return tuple(out)


def schema_hash(schema) -> str:
    """Stable SHA-256 over the canonical JSON form of a schema."""
    doc = schema_to_doc(schema)
    blob = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()
