"""The repository's pytest settings report a failing hypothesis test in full."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

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
