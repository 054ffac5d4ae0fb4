"""The mutation table's rows still name code that exists.

The runner itself, ``python tests/mutants.py``, is a CI step: it applies
each mutant to a copy of src/ and requires one of its tests to fail.
Here tier-1 only checks that each row's text occurs exactly once under
src/, in the row's file, so a refactor that moves the text updates the
table and no mutant is dropped unseen.
"""

import pytest

from mutants import MUTANTS, occurrences


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda mutant: mutant.name)
def test_mutant_text_occurs_once(mutant):
    assert occurrences(mutant.text) == {mutant.file: 1}
    assert mutant.replacement != mutant.text

