"""The test configuration reports every failure and still runs the rest of the suite."""

import subprocess
import sys
import textwrap
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


def test_a_failing_given_test_does_not_end_the_run(tmp_path):
    # Hypothesis writes a patch for a failing @given test; that import must not
    # stop pytest, and an unexpected warning still fails its test.
    (tmp_path / "test_three.py").write_text(textwrap.dedent("""
        import warnings

        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails_under_hypothesis(x):
            assert x < 0


        def test_warns():
            warnings.warn("an unexpected warning")


        def test_passes():
            pass
    """))
    run = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
         "test_three.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "2 failed, 1 passed" in run.stdout
