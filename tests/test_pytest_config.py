"""The pytest settings in pyproject.toml: a failing property fails one test."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

TWO_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(x):
    assert x < 0


def test_plain_passes():
    pass
'''


def test_failing_property_does_not_stop_the_session(tmp_path):
    """With every warning an error, Hypothesis's failure report must not abort
    the run (INTERNALERROR) and hide the tests after it. Run in tmp_path, so
    Hypothesis's example database is written there."""
    (tmp_path / "test_two.py").write_text(TWO_TESTS)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "test_two.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    out = result.stdout + result.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
