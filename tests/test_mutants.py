"""The committed mutants stay anchored to src/.

tests/mutants.py runs the mutants themselves, outside tier-1; these tests
only read files, so a rewrite of a checked line fails here first.
"""

import re

import pytest
from mutants import CHECK_MUTANTS, MUTANTS, ROOT, anchor_count


@pytest.mark.parametrize("mutant", MUTANTS, ids=range(len(MUTANTS)))
def test_each_old_text_occurs_exactly_once(mutant):
    assert mutant.new != mutant.old
    assert anchor_count(mutant) == 1, (mutant.file, mutant.old)


def test_one_mutant_per_internal_check():
    # and no two mutants, of either kind, share an anchor
    raises = sum(path.read_text(encoding="utf-8").count(
        "raise InternalCheckError(")
        for path in (ROOT / "src" / "padicamen").glob("*.py"))
    assert raises == len(CHECK_MUTANTS)
    assert len(MUTANTS) == len({(m.file, m.old) for m in MUTANTS})


def test_each_listed_test_exists():
    for mutant in MUTANTS:
        assert mutant.tests
        for test in mutant.tests:
            path, _, name = test.partition("::")
            text = (ROOT / path).read_text(encoding="utf-8")
            name = re.sub(r"\[.*\]$", "", name)
            assert not name or "def %s(" % name in text, test
