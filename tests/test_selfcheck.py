"""Tests for the bundled invariant suites behind `kostant selfcheck`."""

import pytest

from kostant.selfcheck import SUITE_NAMES, run_suites


def test_every_suite_passes():
    results = run_suites()
    assert [r.name for r in results] == list(SUITE_NAMES)
    failed = [(r.name, r.detail) for r in results if not r.passed]
    assert not failed


def test_injected_fault_fails_cmjd(perturbed_unipotent):
    (result,) = run_suites(names=["cmjd"])
    assert result.name == "cmjd" and not result.passed
    assert "reconstruction" in result.detail


def test_unknown_suite_rejected():
    with pytest.raises(ValueError):
        run_suites(names=["nope"])
