"""The shared conftest keeps a failing Hypothesis test under -W error a
plain failure."""

from pathlib import Path

CONFTEST = Path(__file__).with_name("conftest.py")

DRAWN = '''
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_drawn_fails(x):
    assert x < 0


def test_after():
    pass
'''


def test_failing_hypothesis_test_leaves_the_later_tests_running(pytester):
    # without the conftest the failure's report imports libcst, whose
    # warning -W error turns into an INTERNALERROR that ends the session
    pytester.makeconftest(CONFTEST.read_text(encoding="utf-8"))
    pytester.makepyfile(test_drawn=DRAWN)
    result = pytester.runpytest_subprocess("-W", "error",
                                           "-p", "no:cacheprovider")
    result.assert_outcomes(failed=1, passed=1)
    result.stdout.fnmatch_lines(["FAILED test_drawn.py::test_drawn_fails*"])
    assert "INTERNALERROR" not in result.stdout.str() + result.stderr.str()
