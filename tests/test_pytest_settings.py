"""pyproject.toml turns every warning into an error.  A failing property test
must still be reported as a failure: to report it, Hypothesis imports libcst,
whose import raises a DeprecationWarning that the settings ignore by its
message."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

THREE_TESTS = '''
from hypothesis import given, strategies as st


def test_before():
    pass


@given(st.integers(min_value=5, max_value=10))
def test_fails(x):
    assert x < 5


def test_after():
    pass
'''


def test_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    (tmp_path / "test_three.py").write_text(THREE_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "FAILED test_three.py::test_fails" in proc.stdout
    assert "1 failed, 2 passed" in proc.stdout
