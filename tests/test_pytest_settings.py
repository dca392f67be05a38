"""The repository's pytest settings report a failing hypothesis test in full,
and collecting the test modules starts no thread."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

TESTS = Path(__file__).resolve().parent
PYPROJECT = TESTS.parent / "pyproject.toml"

FAILING_TEST = '''
from hypothesis import given, settings, strategies as st


@given(st.integers())
@settings(database=None, deadline=None)
def test_fails(x):
    assert x < 10
'''


def test_failing_hypothesis_test_prints_its_falsifying_example(tmp_path):
    # the warnings filter turns every warning into an error; a warning raised
    # while hypothesis reports the failure must not hide the example
    (tmp_path / "test_fail.py").write_text(FAILING_TEST)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_fail.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out


# imports numpy and shapeassoc, then each named module, and fails naming the
# first module after which the process runs more threads than before it
THREAD_CHECK = '''
import importlib, os, sys
import numpy, shapeassoc

def threads():
    return len(os.listdir("/proc/self/task"))

before = threads()
for name in sys.argv[1:]:
    importlib.import_module(name)
    assert threads() <= before, f"importing {name} grew the threads from {before} to {threads()}"
'''


@pytest.mark.skipif(not Path("/proc/self/task").is_dir(), reason="needs /proc/self/task")
def test_importing_the_test_modules_starts_no_thread():
    # perfbench marks a run incorrect when the process has more threads than
    # processors, and its smoke test runs in the same pytest process as these
    modules = ["helpers"] + sorted(p.stem for p in TESTS.glob("test_*.py"))
    path = os.pathsep.join([str(TESTS.parent / "src"), str(TESTS), os.environ.get("PYTHONPATH", "")])
    run = subprocess.run(
        [sys.executable, "-c", THREAD_CHECK, *modules],
        cwd=TESTS, env={**os.environ, "PYTHONPATH": path},
        capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
