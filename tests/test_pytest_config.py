"""The repository's pytest settings, run on a small test file of their own."""

from __future__ import annotations

from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

FAILING_THEN_PASSING = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(database=None, max_examples=5)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    assert True
'''


def test_failing_hypothesis_test_does_not_end_the_session(tmp_path, fresh_python):
    # Every warning is an error, and the hypothesis plugin raised a
    # DeprecationWarning from mypy_extensions while it reported a failure:
    # pytest printed INTERNALERROR and ran no later test.
    path = tmp_path / "test_pair.py"
    path.write_text(FAILING_THEN_PASSING)
    proc = fresh_python(
        "-m", "pytest", "-q", "-p", "no:cacheprovider", "-c", str(PYPROJECT),
        "--rootdir", str(tmp_path), str(path), seconds=120.0,
    )
    assert "INTERNALERROR" not in proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
