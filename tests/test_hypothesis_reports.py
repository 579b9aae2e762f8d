"""A failing property test must report its falsifying example.

To write that report hypothesis imports libcst, whose import raises a
DeprecationWarning. The suite turns DeprecationWarning into an error, so
without the message-scoped ignore in pyproject.toml a failing ``@given``
test ended the run with INTERNALERROR, exit 3 and no example.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING = """
from hypothesis import given, strategies as st


@given(st.integers(0, 10))
def test_fails(x):
    assert x < 5
"""


def test_failing_given_test_reports_its_example(tmp_path):
    (tmp_path / "test_fails.py").write_text(FAILING)
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider",
         "-c", str(PYPROJECT), "--rootdir", str(tmp_path), "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 1, done.stdout + done.stderr
    assert "Falsifying example: test_fails(" in done.stdout
