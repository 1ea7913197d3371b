"""The warning policy of the project's pytest configuration, run on throwaway suites."""

import subprocess
import sys
from pathlib import Path

CONFIG = Path(__file__).resolve().parents[1] / "pyproject.toml"


def _pytest(tmp_path, source: str) -> str:
    """Run ``source`` as a one-file suite under the project's configuration."""
    (tmp_path / "test_throwaway.py").write_text(source)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-q", "-c", str(CONFIG), "-p", "no:cacheprovider",
         "test_throwaway.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    return proc.stdout + proc.stderr


def test_a_warning_fails_its_test(tmp_path):
    out = _pytest(tmp_path, (
        "import warnings\n"
        "def test_warns():\n"
        "    warnings.warn('stray', UserWarning)\n"
    ))
    assert "1 failed" in out and "UserWarning: stray" in out


def test_a_failing_property_test_is_reported_and_the_run_goes_on(tmp_path):
    out = _pytest(tmp_path, (
        "from hypothesis import given, settings, strategies as st\n"
        "@settings(database=None)\n"
        "@given(st.integers(0, 10))\n"
        "def test_fails(x):\n"
        "    assert x < 5\n"
        "def test_passes():\n"
        "    pass\n"
    ))
    assert "1 failed, 1 passed" in out and "INTERNALERROR" not in out
    assert "Falsifying example" in out
