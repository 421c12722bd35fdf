"""Each command imports only what it runs: importing the package or the
command line loads no other submodule and no scipy, ``risk``, which
needs no scipy, runs without loading it, and ``synth``, which factors with
numpy.linalg, runs without loading scipy.linalg."""
import json
import subprocess
import sys

import numpy as np

from mixedsynth.cli import main

_LOADED = """
import json, sys
{body}
print(json.dumps(sorted(m for m in sys.modules
                        if m.split(".")[0] in ("mixedsynth", "scipy"))))
"""


def _loaded(src_env, body, *args):
    """Names of the mixedsynth and scipy modules loaded after running
    ``body`` in a fresh interpreter."""
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED.format(body=body), *args],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_package_and_cli_import_no_submodule(src_env):
    assert _loaded(src_env, "import mixedsynth") == ["mixedsynth"]
    assert _loaded(src_env, "import mixedsynth.cli") == ["mixedsynth", "mixedsynth.cli"]


def _write_table(path, rng, n):
    g = rng.choice(["a", "b", "c"], n)
    y = rng.poisson(4.0, n)
    r = rng.poisson(2.0, n)
    rows = "".join(f"{a},{b},{c}\n" for a, b, c in zip(g, y, r))
    path.write_text("g,y,r\n" + rows)


def test_risk_run_loads_no_scipy(src_env, tmp_path):
    rng = np.random.default_rng(0)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"columns": [
        {"name": "g", "kind": "categorical", "levels": ["a", "b", "c"]},
        {"name": "y", "kind": "count"},
        {"name": "r", "kind": "count"},
    ]}))
    _write_table(tmp_path / "conf.csv", rng, 100)
    pool = tmp_path / "pool"
    pool.mkdir()
    for i in range(3):
        _write_table(pool / f"syn_{i}.csv", rng, 100)
    loaded = _loaded(
        src_env, "from mixedsynth.cli import main\nassert main(sys.argv[1:]) == 0",
        "risk", "--conf", str(tmp_path / "conf.csv"), "--schema", str(schema),
        "--pool-dir", str(pool), "--known", "g,y", "--target", "r",
        "--m", "1,2", "--reps", "2", "--seed", "1", "--out", str(tmp_path / "risk.json"),
    )
    assert "mixedsynth.risk" in loaded
    assert [m for m in loaded if m.split(".")[0] == "scipy"] == []


def test_synth_run_loads_no_scipy_linalg(src_env, tmp_path):
    rng = np.random.default_rng(0)
    schema = tmp_path / "schema.json"
    schema.write_text(json.dumps({"columns": [
        {"name": "g", "kind": "categorical", "levels": ["a", "b", "c"]},
        {"name": "y", "kind": "count"},
        {"name": "x", "kind": "continuous"},
    ]}))
    rows = zip(rng.choice(["a", "b", "c"], 80), rng.poisson(4.0, 80), rng.normal(size=80).tolist())
    data = tmp_path / "data.csv"
    data.write_text("g,y,x\n" + "".join(f"{g},{y},{x!r}\n" for g, y, x in rows))
    model = tmp_path / "model.mxs"
    assert main(["fit", "--data", str(data), "--schema", str(schema), "--out", str(model),
                 "--seed", "1", "--iters", "20", "--burn-in", "10", "--thin", "5"]) == 0
    loaded = _loaded(
        src_env, "from mixedsynth.cli import main\nassert main(sys.argv[1:]) == 0",
        "synth", "--model", str(model), "--out-dir", str(tmp_path / "syn"),
        "--m", "2", "--seed", "1",
    )
    assert "scipy.special" in loaded
    assert [m for m in loaded if m.startswith("scipy.linalg")] == []


def test_dir_lists_every_public_name(src_env):
    """Listing the names resolves none of them."""
    body = "import mixedsynth\nassert set(mixedsynth.__all__) <= set(dir(mixedsynth))"
    assert _loaded(src_env, body) == ["mixedsynth"]
