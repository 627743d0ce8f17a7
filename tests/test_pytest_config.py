"""The suite's pytest settings keep one failing test from ending the session."""

from pathlib import Path

pytest_plugins = ["pytester"]

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 5


def test_runs_after_the_failure():
    pass
"""


def test_failing_hypothesis_test_leaves_later_tests_running(pytester):
    # Reporting a failing example imports libcst, which warns with a
    # DeprecationWarning that the suite's filters would otherwise raise as
    # an internal error, skipping every later test.
    pytester.makepyfile(test_probe=PROBE)
    result = pytester.runpytest_subprocess(
        "-c", str(PYPROJECT), "--rootdir", str(pytester.path), "-p", "no:cacheprovider",
        "test_probe.py",
    )
    result.assert_outcomes(failed=1, passed=1)
    assert "INTERNALERROR" not in result.stdout.str()
