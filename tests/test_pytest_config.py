"""The pytest configuration in pyproject.toml reports a failing property
test instead of aborting the session.

On a failure Hypothesis's pytest plugin imports libcst, which emits a
DeprecationWarning on import.  Under ``filterwarnings = ["error"]`` that
warning became an INTERNALERROR, and every later test went unrun.
"""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parents[1]

FAILING_PROPERTY = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5
'''


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    probe = tmp_path / "test_probe.py"
    probe.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"),
         "-p", "no:cacheprovider", "-q", str(probe)],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    out = run.stdout + run.stderr
    assert run.returncode == 1, out
    assert "Falsifying example" in out
    assert "INTERNALERROR" not in out
