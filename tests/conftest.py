"""Shared test helpers."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

import mehgrisk

SRC = Path(mehgrisk.__file__).resolve().parents[1]


@pytest.fixture
def fresh_python():
    """Run ``python ARGS`` with the package importable; a hang fails the test.

    A call that never returns then fails its own test by timeout instead
    of stalling the whole suite.
    """

    def run(*args: str, seconds: float = 60.0) -> subprocess.CompletedProcess:
        env = dict(os.environ, PYTHONPATH=str(SRC))
        try:
            return subprocess.run(
                [sys.executable, *args], env=env, capture_output=True,
                text=True, timeout=seconds,
            )
        except subprocess.TimeoutExpired:
            pytest.fail(f"python {' '.join(args)} ran past {seconds} s")

    return run
