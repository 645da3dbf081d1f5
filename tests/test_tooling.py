"""The test settings themselves: one failing Hypothesis test fails alone.

pyproject turns DeprecationWarning into an error. Hypothesis's failure
report imports libcst, which sets off a third-party DeprecationWarning; as
an error it stopped pytest with an INTERNALERROR, and every test after the
failing one went unreported.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_a(x):
    assert x < 5


def test_b():
    pass
"""


def test_failing_hypothesis_test_does_not_stop_the_run(tmp_path):
    (tmp_path / "test_pair.py").write_text(PAIR)
    cmd = [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(ROOT / "pyproject.toml"),
           "--rootdir", str(tmp_path), "test_pair.py"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    out = proc.stdout + proc.stderr
    assert "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
