import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

_FAILING_PROPERTY = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 0
"""


def test_failing_hypothesis_test_is_reported(tmp_path):
    # under this project's warning filters, a failing example must come out
    # as an ordinary failure, not as an internal error that ends the session
    (tmp_path / "test_property.py").write_text(_FAILING_PROPERTY)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=300)
    output = proc.stdout + proc.stderr
    assert proc.returncode == 1, output
    assert "1 failed" in proc.stdout
    assert "INTERNALERROR" not in output
