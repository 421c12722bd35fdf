"""Shared fixtures."""
import os
from pathlib import Path

import pytest

import mixedsynth


@pytest.fixture
def src_env() -> dict:
    """This process's environment, with the directory holding the imported
    ``mixedsynth`` first on PYTHONPATH, so a child Python process imports the
    same package, installed or not."""
    src = str(Path(mixedsynth.__file__).parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return {**os.environ, "PYTHONPATH": path}
