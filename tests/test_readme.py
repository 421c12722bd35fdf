"""The README's Library example runs as written."""
import json
import re
from pathlib import Path

import numpy as np

from mixedsynth.schema import ColumnSchema, Kind, MixedDataset, write_csv

README = Path(__file__).resolve().parents[1] / "README.md"


def _library_example() -> str:
    section = README.read_text(encoding="utf-8").split("\n## Library\n", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs(tmp_path, monkeypatch):
    """The example reads conf.csv and schema.json from the working
    directory; a 100-row mixed table stands in for them."""
    rng = np.random.default_rng(0)
    n = 100
    g = rng.integers(0, 3, n)
    schema = (ColumnSchema("g", Kind.CATEGORICAL, levels=("a", "b", "c")),
              ColumnSchema("y", Kind.COUNT), ColumnSchema("w", Kind.CONTINUOUS))
    write_csv(MixedDataset(schema, {"g": g, "y": rng.poisson(3.0 + g),
                                    "w": rng.normal(0.5 * g, 1.0)}),
              tmp_path / "conf.csv")
    (tmp_path / "schema.json").write_text(json.dumps({"columns": [
        {"name": "g", "kind": "categorical", "levels": ["a", "b", "c"]},
        {"name": "y", "kind": "count"},
        {"name": "w", "kind": "continuous"},
    ]}))
    monkeypatch.chdir(tmp_path)
    scope = {}
    exec(_library_example(), scope)
    releases = scope["releases"]
    assert len(releases) == 5
    assert all(r.n == n and r.schema == schema for r in releases)
    archive = scope["archive"]
    assert (archive.full_schema, archive.seed, archive.extra) == (schema, 3, {})
