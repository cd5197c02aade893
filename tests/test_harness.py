"""The test configuration reports every failure and keeps running."""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_property_fails(n):
    assert n != n


def test_plain_passes():
    pass
'''


def test_a_failing_property_test_does_not_stop_the_session(tmp_path):
    # warnings are errors; one the hypothesis plugin emits while it
    # reports a failure once turned into an INTERNALERROR that ended the
    # session before the second test ran
    probe = tmp_path / "test_probe.py"
    probe.write_text(PROBE)
    result = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), str(probe)],
        cwd=tmp_path, capture_output=True, text=True)
    assert "INTERNALERROR" not in result.stdout + result.stderr
    assert "1 failed, 1 passed" in result.stdout
