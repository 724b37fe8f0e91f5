"""Every mutant in tests/mutants.py still has a target: its source text
occurs exactly once in its file, and each test it names exists. Running
the mutants is tests/mutants.py's own job."""

import re

import pytest

import mutants


@pytest.mark.parametrize("mutant", mutants.MUTANTS, ids=[m.id for m in mutants.MUTANTS])
def test_source_text_occurs_once(mutant):
    assert mutant.source != mutant.replacement
    assert (mutants.ROOT / mutant.file).read_text().count(mutant.source) == 1


def test_ids_are_unique_and_name_existing_tests():
    ids = [m.id for m in mutants.MUTANTS]
    assert len(set(ids)) == len(ids)
    for mutant in mutants.MUTANTS:
        assert mutant.tests
        for node in mutant.tests:
            path, *names = node.split("::")
            source = (mutants.ROOT / path).read_text()
            for name in names:
                assert re.search(rf"(def|class) {re.escape(name.split('[')[0])}\b", source), node
