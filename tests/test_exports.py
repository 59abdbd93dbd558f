"""The package root re-exports the whole public surface, and importing it
with the CLI leaves numpy unloaded."""

import os
import subprocess
import sys
from pathlib import Path

import vtcodes

SRC = Path(__file__).resolve().parents[1] / "src"


def test_all_names_resolve():
    missing = [name for name in vtcodes.__all__ if not hasattr(vtcodes, name)]
    assert missing == []


def test_version_string():
    assert vtcodes.__version__.count(".") == 2


def test_core_callables_present():
    for name in (
        "encode_binary",
        "extract_binary",
        "correct_binary",
        "encode_q",
        "extract_q",
        "correct_q",
        "enumerate_binary",
        "enumerate_q",
        "rate_bounds",
        "run_trials",
    ):
        assert callable(getattr(vtcodes, name))


def test_import_leaves_numpy_unloaded():
    code = 'import vtcodes, vtcodes.cli, sys; sys.exit("numpy" in sys.modules)'
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    assert subprocess.run([sys.executable, "-c", code], env=env, timeout=60).returncode == 0
