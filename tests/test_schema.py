import csv
import io
import json

import numpy as np
import pytest

from mixedsynth.errors import (
    LevelNotInSchemaError,
    MissingValueError,
    NonIntegerCountError,
    SchemaError,
    UnknownColumnError,
)
from mixedsynth.schema import (
    CSV_BLOCK,
    ColumnSchema,
    Kind,
    MixedDataset,
    expand_layout,
    load_dataset,
    load_schema,
    schema_from_doc,
    schema_hash,
    schema_to_doc,
    write_csv,
)


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text, encoding="utf-8")
    return path


SCHEMA_YAML = """
columns:
  - {name: race, kind: categorical, levels: [white, black]}
  - {name: score, kind: count}
"""


def test_minimal_csv_loads(tmp_path):
    sp = _write(tmp_path, "s.yaml", SCHEMA_YAML)
    cp = _write(tmp_path, "d.csv", "race,score\nwhite,316\nblack,370\nwhite,340\n")
    ds = load_dataset(cp, sp)
    assert ds.n == 3
    assert len(ds.schema) == 2
    np.testing.assert_array_equal(ds.columns["race"], [0, 1, 0])
    np.testing.assert_array_equal(ds.columns["score"], [316, 370, 340])
    assert ds.columns["score"].dtype == np.int64


def test_unknown_level_rejected(tmp_path):
    sp = _write(tmp_path, "s.yaml", SCHEMA_YAML)
    cp = _write(tmp_path, "d.csv", "race,score\nPurple,316\n")
    with pytest.raises(LevelNotInSchemaError, match="race.*Purple"):
        load_dataset(cp, sp)


def test_integer_range_column_loads_unchanged(tmp_path):
    # count column spanning a narrow integer range, e.g. a reading score
    sp = _write(tmp_path, "s.yaml", "columns:\n  - {name: eog, kind: count}\n")
    vals = list(range(316, 371))
    cp = _write(tmp_path, "d.csv", "eog\n" + "\n".join(map(str, vals)) + "\n")
    ds = load_dataset(cp, sp)
    np.testing.assert_array_equal(ds.columns["eog"], vals)


def test_unknown_columns_both_directions(tmp_path):
    sp = _write(tmp_path, "s.yaml", SCHEMA_YAML)
    cp = _write(tmp_path, "d.csv", "race,score,extra\nwhite,1,2\n")
    with pytest.raises(UnknownColumnError, match="extra"):
        load_dataset(cp, sp)
    cp2 = _write(tmp_path, "d2.csv", "race\nwhite\n")
    with pytest.raises(UnknownColumnError, match="score"):
        load_dataset(cp2, sp)


def test_duplicate_header_name_rejected(tmp_path):
    sp = _write(tmp_path, "s.yaml", SCHEMA_YAML)
    cp = _write(tmp_path, "d.csv", "race,score,score\nwhite,1,2\nblack,3,4\n")
    with pytest.raises(SchemaError, match="repeats column 'score'"):
        load_dataset(cp, sp)


def test_missing_value_named(tmp_path):
    sp = _write(tmp_path, "s.yaml", SCHEMA_YAML)
    cp = _write(tmp_path, "d.csv", "race,score\nwhite,316\nblack,\n")
    with pytest.raises(MissingValueError, match="score.*row 1"):
        load_dataset(cp, sp)


def test_non_integer_count(tmp_path):
    sp = _write(tmp_path, "s.yaml", SCHEMA_YAML)
    cp = _write(tmp_path, "d.csv", "race,score\nwhite,2.5\n")
    with pytest.raises(NonIntegerCountError, match="score"):
        load_dataset(cp, sp)


def test_binary_values_enforced():
    col = ColumnSchema("flag", Kind.BINARY)
    with pytest.raises(LevelNotInSchemaError):
        MixedDataset((col,), {"flag": np.array([0, 1, 2])})
    ds = MixedDataset((col,), {"flag": np.array([0, 1, 0])})
    assert ds.n == 3


def _block(layout, name) -> slice:
    """The latent columns of one column's block."""
    for col, off in zip(layout.columns, layout.offsets):
        if col.name == name:
            return slice(off, off + col.width)
    raise KeyError(name)


def test_expand_layout_widths():
    cols = [
        ColumnSchema("c1", Kind.CATEGORICAL, levels=tuple("abcde")),
        ColumnSchema("c2", Kind.CATEGORICAL, levels=tuple("wxyz")),
    ] + [ColumnSchema(f"n{i}", Kind.COUNT) for i in range(21)]
    lay = expand_layout(cols)
    assert lay.p_star == 30
    assert _block(lay, "c1") == slice(0, 5)
    assert _block(lay, "c2") == slice(5, 9)
    assert _block(lay, "n0") == slice(9, 10)
    # blocks partition [0, p_star)
    seen = np.zeros(lay.p_star, dtype=int)
    for c in lay.columns:
        seen[_block(lay, c.name)] += 1
    assert np.all(seen == 1)


def test_expand_layout_no_categoricals():
    cols = [ColumnSchema(f"n{i}", Kind.CONTINUOUS) for i in range(4)]
    lay = expand_layout(cols)
    assert lay.p_star == 4
    assert [_block(lay, c.name) for c in cols] == [slice(i, i + 1) for i in range(4)]


def test_expand_layout_single_categorical():
    lay = expand_layout([ColumnSchema("x1", Kind.CATEGORICAL, levels=tuple("abcde"))])
    assert lay.p_star == 5
    assert lay.latent_names() == [f"x1={l}" for l in "abcde"]


def test_csv_round_trip(tmp_path):
    schema = (
        ColumnSchema("g", Kind.CATEGORICAL, levels=("lo", "hi")),
        ColumnSchema("c", Kind.COUNT),
        ColumnSchema("z", Kind.CONTINUOUS),
    )
    rng = np.random.default_rng(0)
    ds = MixedDataset(
        schema,
        {
            "g": rng.integers(0, 2, 50),
            "c": rng.poisson(9, 50),
            "z": rng.standard_normal(50),
        },
    )
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    ds2 = load_dataset(path, schema)
    for name in ("g", "c", "z"):
        np.testing.assert_array_equal(ds.columns[name], ds2.columns[name])
    # writer output is deterministic
    path2 = tmp_path / "rt2.csv"
    write_csv(ds2, path2)
    assert path.read_bytes() == path2.read_bytes()


def test_categorical_response_rejected():
    with pytest.raises(SchemaError, match="response"):
        ColumnSchema("y", Kind.CATEGORICAL, levels=("a", "b"), role="response")


def test_short_ordinal_warns(tmp_path):
    sp = _write(tmp_path, "s.yaml", "columns:\n  - {name: o, kind: ordinal}\n")
    cp = _write(tmp_path, "d.csv", "o\n" + "\n".join("12312") + "\n")
    with pytest.warns(UserWarning, match="categorical treatment"):
        load_dataset(cp, sp)


def test_schema_hash_tracks_content():
    a = (ColumnSchema("x", Kind.COUNT),)
    b = (ColumnSchema("x", Kind.COUNT),)
    c = (ColumnSchema("x", Kind.ORDINAL),)
    assert schema_hash(a) == schema_hash(b)
    assert schema_hash(a) != schema_hash(c)


def test_schema_from_doc_inverts_schema_to_doc():
    """The archive reads schemas back through the parser load_schema uses,
    so a malformed entry gets load_schema's error, naming its source."""
    schema = (
        ColumnSchema("g", Kind.CATEGORICAL, levels=("a", "b")),
        ColumnSchema("y", Kind.COUNT, role="response"),
    )
    assert schema_from_doc(schema_to_doc(schema)) == schema
    with pytest.raises(SchemaError, match="m.mxs: each column needs 'name'"):
        schema_from_doc([{"name": "x"}], "m.mxs")
    with pytest.raises(SchemaError, match="must be a non-empty list"):
        schema_from_doc([], "m.mxs")


@pytest.mark.parametrize("levels", ["abc", {"a": 1, "b": 2}, 3, True])
def test_levels_must_be_a_list(tmp_path, levels):
    """A string is not split into characters, nor a mapping read as its keys:
    ``levels`` that is not a list is an error naming the column."""
    with pytest.raises(SchemaError, match="s.json: column 'g': 'levels' must be a list"):
        schema_from_doc([{"name": "g", "kind": "categorical", "levels": levels}],
                        "s.json")
    sp = _write(tmp_path, "s.yaml", f"columns:\n  - {{name: g, kind: categorical, "
                                    f"levels: {json.dumps(levels)}}}\n")
    with pytest.raises(SchemaError, match="column 'g': 'levels' must be a list"):
        load_schema(sp)


def test_schema_validation_errors():
    with pytest.raises(SchemaError):
        ColumnSchema("x", Kind.CATEGORICAL, levels=("a",))  # k < 2
    with pytest.raises(SchemaError):
        ColumnSchema("x", Kind.CATEGORICAL, levels=("a", "a"))  # duplicates
    with pytest.raises(SchemaError):
        ColumnSchema("x", Kind.COUNT, levels=("a", "b"))  # levels on non-categorical


def test_load_schema_json(tmp_path):
    sp = _write(
        tmp_path,
        "s.json",
        '{"columns": [{"name": "x", "kind": "count", "role": "response"}]}',
    )
    (col,) = load_schema(sp)
    assert col.kind is Kind.COUNT and col.role == "response"


@pytest.mark.parametrize("name, text", [
    ("s.yaml", SCHEMA_YAML),
    ("s.json", '{"columns": [{"name": "race", "kind": "categorical", '
               '"levels": ["white", "black"]}, {"name": "score", "kind": "count"}]}'),
], ids=["yaml", "json"])
def test_byte_order_mark_is_skipped(tmp_path, name, text):
    """Excel's "CSV UTF-8" export starts the file with a UTF-8 byte-order
    mark; a schema or CSV that starts with one loads as the plain file does."""
    rows = "race,score\nwhite,316\nblack,370\n"
    plain = _write(tmp_path, name, text)
    marked = tmp_path / ("bom_" + name)
    marked.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    schema = load_schema(plain)
    assert load_schema(marked) == schema
    csv_plain = _write(tmp_path, "d.csv", rows)
    csv_marked = tmp_path / "bom_d.csv"
    csv_marked.write_bytes(b"\xef\xbb\xbf" + rows.encode("utf-8"))
    a, b = load_dataset(csv_plain, schema), load_dataset(csv_marked, schema)
    assert a.schema == b.schema
    for col in a.columns:
        assert np.array_equal(a.columns[col], b.columns[col])


# ---- column-wise CSV reading and writing against cell-by-cell oracles

_ORACLE_MISSING = {"", "NA", "NaN", "nan", "N/A", "null", "None"}


def _oracle_cell(col, raw, row):
    """The cell-by-cell converter the block loader must agree with."""
    val = raw.strip()
    if col.kind is Kind.CATEGORICAL and val in col.levels:
        return col.levels.index(val)
    if val in _ORACLE_MISSING:
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
    if col.kind is Kind.BINARY and parsed not in (0, 1):
        raise LevelNotInSchemaError(
            f"column '{col.name}', row {row}: binary value {parsed} not in {{0,1}}"
        )
    return parsed


def _oracle_load(path, schema):
    """Column arrays read row by row and cell by cell."""
    with path.open(newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = [h.strip() for h in next(reader)]
        by_name = {c.name: c for c in schema}
        cols = {h: [] for h in header}
        for row_idx, row in enumerate(reader):
            if len(row) != len(header):
                raise SchemaError(
                    f"{path}, row {row_idx}: expected {len(header)} cells, "
                    f"got {len(row)}"
                )
            for h, raw in zip(header, row):
                cols[h].append(_oracle_cell(by_name[h], raw, row_idx))
    return {
        c.name: np.asarray(cols[c.name],
                           dtype=np.float64 if c.kind is Kind.CONTINUOUS else np.int64)
        for c in schema
    }


def _oracle_write(ds, path):
    """The canonical CSV written row by row and cell by cell."""
    def cell(col, value):
        if col.kind is Kind.CATEGORICAL:
            return col.levels[int(value)]
        if col.kind is Kind.CONTINUOUS:
            return repr(float(value))
        return str(int(value))

    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow([c.name for c in ds.schema])
        cols = [ds.columns[c.name] for c in ds.schema]
        for i in range(ds.n):
            writer.writerow([cell(c, col[i]) for c, col in zip(ds.schema, cols)])


_EVERY_KIND = (
    ColumnSchema("g", Kind.CATEGORICAL, levels=("lo", "mid, quoted", "hi")),
    ColumnSchema("b", Kind.BINARY),
    ColumnSchema("o", Kind.ORDINAL),
    ColumnSchema("c", Kind.COUNT),
    ColumnSchema("z", Kind.CONTINUOUS),
)


def _every_kind_csv(tmp_path, n, edits=()):
    """An n-row CSV of every column kind, with padded cells, exponents and
    -0.0, its header in an order other than the schema's; ``edits`` sets
    (row, column, raw text) cells or, with column None, a whole raw line."""
    rng = np.random.default_rng(11)
    levels = _EVERY_KIND[0].levels
    floats = ["-0.0", "1e-300", "2.5E+10", " 3.25 ", "-7", "1.5e0", "+.5"]
    rows = []
    for i in range(n):
        rows.append({
            "z": floats[i % len(floats)] if i % 3 else repr(float(rng.normal())),
            "c": f" {int(rng.integers(-5, 400))}" if i % 4 else str(i),
            "g": levels[int(rng.integers(0, 3))] + (" " if i % 5 == 0 else ""),
            "o": f"{int(rng.integers(0, 12))} ",
            "b": str(int(rng.integers(0, 2))),
        })
    header = ["z", "c", "g", "o", "b"]
    lines = [",".join(header)]
    for i, r in enumerate(rows):
        cells = dict(r)
        raw = None
        for row, column, text in edits:
            if row == i and column is None:
                raw = text
            elif row == i:
                cells[column] = text
        if raw is None:
            out = io.StringIO()
            csv.writer(out, lineterminator="").writerow([cells[h] for h in header])
            raw = out.getvalue()
        lines.append(raw)
    path = tmp_path / "every_kind.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def _oracle_error(path):
    with pytest.raises(SchemaError) as want:
        _oracle_load(path, _EVERY_KIND)
    return type(want.value), str(want.value)


def test_block_loader_matches_cell_oracle_bitwise(tmp_path):
    n = 2 * CSV_BLOCK + 77
    path = _every_kind_csv(tmp_path, n)
    want = _oracle_load(path, _EVERY_KIND)
    ds = load_dataset(path, _EVERY_KIND)
    assert ds.n == n
    for c in _EVERY_KIND:
        got = ds.columns[c.name]
        assert got.dtype == want[c.name].dtype
        assert got.tobytes() == want[c.name].tobytes(), c.name
    assert np.signbit(ds.columns["z"]).any()  # -0.0 kept its sign

    mine, theirs = tmp_path / "block.csv", tmp_path / "cell.csv"
    write_csv(ds, mine)
    _oracle_write(ds, theirs)
    assert mine.read_bytes() == theirs.read_bytes()
    assert b'"mid, quoted"' in mine.read_bytes()


def test_bad_cell_past_the_first_block_names_its_row(tmp_path):
    path = _every_kind_csv(tmp_path, 2 * CSV_BLOCK, [(700, "c", "7.5")])
    with pytest.raises(NonIntegerCountError, match="column 'c', row 700:"):
        load_dataset(path, _EVERY_KIND)
    assert _oracle_error(path) == (NonIntegerCountError,
                                   "column 'c', row 700: cannot parse '7.5' as integer")


@pytest.mark.parametrize("edits", [
    # later column, earlier row, same block
    [(650, "g", "purple"), (600, "b", "2")],
    # earlier header column in the same row
    [(600, "b", "NA"), (600, "z", "x1")],
    # in different blocks
    [(CSV_BLOCK + 3, "z", "nope"), (CSV_BLOCK - 2, "o", "")],
])
def test_first_bad_cell_in_row_order_is_reported(tmp_path, edits):
    path = _every_kind_csv(tmp_path, 2 * CSV_BLOCK + 10, edits)
    with pytest.raises(SchemaError) as got:
        load_dataset(path, _EVERY_KIND)
    assert (type(got.value), str(got.value)) == _oracle_error(path)


def test_short_row_after_a_bad_cell_reports_the_bad_cell(tmp_path):
    path = _every_kind_csv(tmp_path, 2 * CSV_BLOCK,
                           [(CSV_BLOCK + 5, "o", "3.5"), (CSV_BLOCK + 9, None, "1.0,2")])
    with pytest.raises(NonIntegerCountError, match=f"row {CSV_BLOCK + 5}:") as got:
        load_dataset(path, _EVERY_KIND)
    assert (type(got.value), str(got.value)) == _oracle_error(path)


def test_short_row_is_reported_with_its_row(tmp_path):
    path = _every_kind_csv(tmp_path, CSV_BLOCK + 40, [(CSV_BLOCK + 20, None, "1.0,2")])
    with pytest.raises(SchemaError, match=f"row {CSV_BLOCK + 20}: expected 5 cells, got 2"):
        load_dataset(path, _EVERY_KIND)
    assert _oracle_error(path)[1].endswith(f"row {CSV_BLOCK + 20}: expected 5 cells, got 2")


def test_count_beyond_64_bits_names_its_cell(tmp_path):
    path = _every_kind_csv(tmp_path, 20, [(13, "c", "9223372036854775808")])
    with pytest.raises(NonIntegerCountError, match="column 'c', row 13: .*64 bits"):
        load_dataset(path, _EVERY_KIND)


@pytest.mark.parametrize("token", sorted(_ORACLE_MISSING))
def test_declared_level_spelled_as_a_missing_token_round_trips(tmp_path, token):
    """In a categorical column that declares it, a missing token is that
    level: what write_csv writes, load_dataset reads back, through the block
    loader and the cell-by-cell scan alike.  Elsewhere it is still missing."""
    schema = (ColumnSchema("region", Kind.CATEGORICAL, levels=(token, "EU", "AS")),
              ColumnSchema("c", Kind.COUNT))
    n = CSV_BLOCK + 9
    ds = MixedDataset(schema, {"region": np.arange(n) % 3, "c": np.arange(n)})
    path = tmp_path / "rt.csv"
    write_csv(ds, path)
    back = load_dataset(path, schema)
    for name in ("region", "c"):
        np.testing.assert_array_equal(back.columns[name], ds.columns[name])
    # a bad count after the token sends its block through the cell scan
    lines = path.read_text(encoding="utf-8").splitlines()
    lines[3] = lines[3].rsplit(",", 1)[0] + ",7.5"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    with pytest.raises(NonIntegerCountError, match="column 'c', row 2:"):
        load_dataset(path, schema)
    undeclared = (ColumnSchema("region", Kind.CATEGORICAL, levels=("EU", "AS")),
                  ColumnSchema("c", Kind.COUNT))
    path = _write(tmp_path, "d.csv", f"region,c\nEU,1\n{token},2\n")
    with pytest.raises(MissingValueError, match="column 'region', row 1: missing"):
        load_dataset(path, undeclared)


def test_level_with_surrounding_whitespace_is_refused(tmp_path):
    """A CSV cell is read stripped, so a level with surrounding whitespace
    could be written but never read back: the schema refuses it, naming the
    column.  Inner whitespace round-trips."""
    with pytest.raises(SchemaError, match=r"column 'g': levels \[' x'\] have "
                                          "surrounding whitespace"):
        ColumnSchema("g", Kind.CATEGORICAL, levels=(" x", "y"))
    sp = _write(tmp_path, "s.json", json.dumps(
        {"columns": [{"name": "g", "kind": "categorical", "levels": ["x", "y\t"]}]}))
    with pytest.raises(SchemaError, match="column 'g': levels"):
        load_schema(sp)
    schema = (ColumnSchema("g", Kind.CATEGORICAL, levels=("North America", "EU")),)
    ds = MixedDataset(schema, {"g": np.array([0, 1, 0])})
    write_csv(ds, tmp_path / "rt.csv")
    back = load_dataset(tmp_path / "rt.csv", schema)
    np.testing.assert_array_equal(back.columns["g"], ds.columns["g"])
