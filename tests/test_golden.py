"""Reports of the moduli subcommands, pinned byte for byte.

tests/golden/corpus.json holds each case's inputs, flags, exit code and
report text; tests/golden/generate.py builds it and, with --check, prints
the cases that changed. A change that moves a report regenerates the
corpus and lists the changed cases in CHANGES.md.
"""

import importlib.util
import json
from pathlib import Path

import pytest

SPEC = importlib.util.spec_from_file_location(
    "golden_generate", Path(__file__).with_name("golden") / "generate.py")
generate = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(generate)
CASES = json.loads(generate.CORPUS.read_text())


@pytest.fixture(scope="module")
def directory(tmp_path_factory):
    return tmp_path_factory.mktemp("golden")


@pytest.mark.parametrize("case", CASES, ids=[case["name"] for case in CASES])
def test_report_matches_the_corpus(case, directory):
    assert generate.run_case(case, directory) == (case["code"], case["stdout"])


def test_corpus_covers_each_subcommand_and_exit_code():
    seen = {(case["command"], case["code"]) for case in CASES}
    assert {command for command, _ in seen} == {"order", "certify", "witness", "char"}
    assert {code for _, code in seen} == {0, 1, 2, 3}
    assert any("eigenvalues" in payload for case in CASES
               for payload in case["inputs"].values() if isinstance(payload, dict))
