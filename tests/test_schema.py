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
