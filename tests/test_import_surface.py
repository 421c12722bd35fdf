"""Import surface: every exported name resolves, and the benchmark tracer
can still wrap every function it traces."""
import subprocess
import sys
from pathlib import Path

_CHECK = """
import importlib, pkgutil, sys
sys.path.insert(0, sys.argv[1])
import tracer
import mixedsynth

tracer.install(tracer.Tracer())
missing = []
for info in pkgutil.iter_modules(mixedsynth.__path__):
    mod = importlib.import_module("mixedsynth." + info.name)
    names = getattr(mod, "__all__", ())
    missing += [f"{info.name}.{n}" for n in names if not hasattr(mod, n)]
missing += [n for n in mixedsynth.__all__ if not hasattr(mixedsynth, n)]
print("\\n".join(missing))
sys.exit(1 if missing else 0)
"""


def test_exports_resolve_after_tracer_install(src_env):
    # a subprocess, since install() rebinds module attributes for good
    bench = Path(__file__).resolve().parents[1] / "perfbench"
    proc = subprocess.run(
        [sys.executable, "-c", _CHECK, str(bench)],
        capture_output=True, text=True, env=src_env,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
