"""The static-analysis gate, as pytest tests (``-m lint_gate``).

Runs the same checks as ``tools/check.sh``: reprolint must be clean,
and ruff/mypy must pass *when installed* — both are optional in the
reproduction image, so their absence skips rather than fails.
Deselected by default (``addopts`` in pyproject.toml): ``check.sh``
runs these gates itself, and tier-1 keeps the in-process whole-repo
lint of ``tests/tools/test_reprolint.py``.
"""

import shutil
import subprocess
import sys
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
LINT_PATHS = ["src", "tests", "benchmarks", "tools"]

pytestmark = pytest.mark.lint_gate


def test_reprolint_clean():
    proc = subprocess.run(
        [sys.executable, "-m", "tools.reprolint", *LINT_PATHS],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert "reprolint: clean" in proc.stdout


def test_ruff_clean():
    if shutil.which("ruff") is None:
        pytest.skip("ruff not installed in this image")
    proc = subprocess.run(
        ["ruff", "check", *LINT_PATHS],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr


def test_mypy_clean():
    try:
        import mypy  # noqa: F401
    except ImportError:
        pytest.skip("mypy not installed in this image")
    proc = subprocess.run(
        [sys.executable, "-m", "mypy",
         "src/repro/simulator", "src/repro/mapping",
         "src/repro/experiments/runner.py",
         "src/repro/experiments/manifest.py"],
        cwd=REPO, capture_output=True, text=True,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
