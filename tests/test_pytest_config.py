"""The pytest configuration reports a failing property test as one failure.

Warnings are errors in this suite.  A failing `@given` test makes hypothesis
import its report helpers, and one of their dependencies warns on import; the
configuration must let that pass, or pytest stops the whole run with
INTERNALERROR and never shows the falsifying example.
"""
import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING_PROPERTY = """\
from hypothesis import given, strategies as st


@given(st.integers())
def test_small(n):
    assert n < 5
"""


def test_failing_property_test_shows_its_falsifying_example(tmp_path):
    test_file = tmp_path / "test_failing_property.py"
    test_file.write_text(FAILING_PROPERTY)
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider",
         "-c", str(CONFIG), "--rootdir", str(tmp_path), str(test_file)],
        capture_output=True, text=True, cwd=tmp_path,
    )
    output = run.stdout + run.stderr
    assert "INTERNALERROR" not in output, output
    assert run.returncode == 1, output
    assert "Falsifying example" in output, output
