"""Mutants that the tests must kill, and a runner that applies them.

MUTANTS holds one entry per mutant: an id, a file under the repository
root, a source text that occurs there exactly once, its replacement, and
the pytest node ids expected to fail once the replacement is made.
tests/test_mutants.py checks that every source text still occurs exactly
once, so a change that moves a target updates its entry.

Run from anywhere, with pytest installed:

    python tests/mutants.py [ID ...]

The runner copies the tree to a temporary directory and runs the named
tests there once unmutated; they must pass. It then applies one mutant at
a time, runs that mutant's tests, prints "killed" or "survived", and
restores the file. It ends with killed/total and the wall time, and exits
1 when a mutant survived. A test run that outlasts TIMEOUT_S counts as a
kill.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from collections import namedtuple
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
TIMEOUT_S = 600

Mutant = namedtuple("Mutant", "id file source replacement tests")

ORDER, LINALG, CMJD = "src/kostant/order.py", "src/kostant/linalg.py", "src/kostant/cmjd.py"
SYMCHAR, CLI = "src/kostant/symchar.py", "src/kostant/cli.py"

MUTANTS = (
    # decision constants, each moved both ways
    Mutant("rel-slack-narrow", ORDER, "REL_SLACK = 1e-10", "REL_SLACK = 1e-13", (
        "tests/test_golden.py::test_report_matches_the_corpus[near-float-1e-11-certify]",)),
    Mutant("rel-slack-wide", ORDER, "REL_SLACK = 1e-10", "REL_SLACK = 1e-7", (
        "tests/test_order.py::test_float_differences_past_the_tie_band_are_decided",)),
    Mutant("paper-band-half", ORDER, "PAPER_BAND_EPS = 8 * 2.0 ** -52",
           "PAPER_BAND_EPS = 4 * 2.0 ** -52", (
               "tests/test_order.py::TestSeparatingSymPower"
               "::test_gap_of_six_ulps_is_undecided",)),
    Mutant("paper-band-milli", ORDER, "PAPER_BAND_EPS = 8 * 2.0 ** -52",
           "PAPER_BAND_EPS = 8e-3 * 2.0 ** -52", (
               "tests/test_order.py::TestSeparatingSymPower"
               "::test_paper_degree_matches_exact_scan",)),
    Mutant("paper-band-wide", ORDER, "PAPER_BAND_EPS = 8 * 2.0 ** -52",
           "PAPER_BAND_EPS = 8e6 * 2.0 ** -52", (
               "tests/test_order.py::TestSeparatingSymPower"
               "::test_ratio_near_one_returns_promptly",)),
    Mutant("exact-tie-degree-limit", ORDER, "EXACT_TIE_DEGREE_LIMIT = 2000",
           "EXACT_TIE_DEGREE_LIMIT = 1999", (
               "tests/test_order.py::test_float_tie_band_above_the_exact_degree_limit",)),
    Mutant("merge-rounding-small", LINALG, "MERGE_ROUNDING = 100 * np.finfo(float).eps",
           "MERGE_ROUNDING = 1 * np.finfo(float).eps", (
               "tests/test_cmjd.py::TestCmjdJordanBlocks::test_merge_takes_the_block_mean",)),
    Mutant("merge-rounding-large", LINALG, "MERGE_ROUNDING = 100 * np.finfo(float).eps",
           "MERGE_ROUNDING = 1e6 * np.finfo(float).eps", (
               "tests/test_cmjd.py::TestCmjdJordanBlocks"
               "::test_non_defective_pair_inside_merge_radius_stays_split",)),
    Mutant("spectrum-margin-small", CMJD, "SPECTRUM_MARGIN = 100.0", "SPECTRUM_MARGIN = 1.0", (
        "tests/test_cmjd.py::TestProvenSpectra"
        "::test_bound_inside_the_margin_falls_back_to_eigvals",)),
    Mutant("spectrum-margin-large", CMJD, "SPECTRUM_MARGIN = 100.0", "SPECTRUM_MARGIN = 1e6", (
        "tests/test_cmjd.py::TestOneFactorization::test_generic_input",)),
    Mutant("projector-norm-cap-loose", LINALG, "PROJECTOR_NORM_CAP = 1e12",
           "PROJECTOR_NORM_CAP = 1e16", (
               "tests/test_linalg.py::TestSpectralProjectors::test_norm_cap_raises",)),
    Mutant("projector-norm-cap-tight", LINALG, "PROJECTOR_NORM_CAP = 1e12",
           "PROJECTOR_NORM_CAP = 1e6", (
               "tests/test_linalg.py::TestSpectralProjectors"
               "::test_projector_norms_match_formed_projectors",)),
    # one tie rule per moduli pair: the chain's end and scan, its rational
    # rounding term, float moduli on centered logs, the paper degree search bound
    Mutant("chain-end-unchecked", ORDER, "if not any(_prefix_cmp(work, target, scale)):",
           "if True:", (
               "tests/test_cli.py::test_internal_check_failure_is_a_numerical_failure",)),
    Mutant("chain-rational-rounding", ORDER, "rational * 2 * lx.n * 2.0 ** -53 / REL_SLACK",
           "rational * 0", (
               "tests/test_golden.py::test_report_matches_the_corpus[near-one-exact-certify]",)),
    Mutant("chain-scan-resets", ORDER, "                above = i\n",
           "                above, j, k = i, None, None\n", (
               "tests/test_order.py::TestNearTies::test_totals_apart_inside_the_band",)),
    Mutant("certify-uncentered", ORDER, "xs, ys, scale = _centered_logs(xs, ys)",
           "_, _, scale = _centered_logs(xs, ys)", (
               "tests/test_order.py::TestNearTies::test_product_far_from_one",)),
    Mutant("paper-search-bound", ORDER, "if hi.bit_length() > 1000:", "if hi > 10 ** 15:", (
        "tests/test_order.py::TestFindSeparatingCharacter"
        "::test_paper_degree_past_the_old_search_range",)),
    # the CLI's option checks and exit codes
    Mutant("tol-finite", CLI, "if not 0 < value < math.inf:", "if not 0 < value:", (
        "tests/test_cli.py::test_bad_option_values_are_usage_errors",)),
    Mutant("dim-cap-bound", CLI, "if value < 1:", "if value < 0:", (
        "tests/test_cli.py::test_bad_option_values_are_usage_errors",)),
    Mutant("selfcheck-exit-3", CLI, 'return (0 if report["passed"] else 3), report',
           "return 0, report", (
               "tests/test_cli.py::test_failing_suite_exits_3",)),
    # empty products keep the arithmetic of their input
    Mutant("products-start", SYMCHAR, "[math.prod(combo, start=1.0) for combo",
           "[math.prod(combo) for combo", (
               "tests/test_symchar.py::TestRepModuli::test_trivial_rep_keeps_the_arithmetic",)),
    Mutant("dominant-weight-start", SYMCHAR, "math.prod(map(pow, x.values, parts), start=1.0)",
           "math.prod(map(pow, x.values, parts))", (
               "tests/test_symchar.py::TestRepModuli::test_trivial_rep_keeps_the_arithmetic",)),
    # exact Jacobi-Trudi: the fraction-free elimination and its one division
    Mutant("bareiss-divisor", SYMCHAR, "// prev", "// 1", (
        "tests/test_symchar.py::TestIntegerKernels::test_schur_matches_fraction_elimination",)),
    Mutant("bareiss-divisor-stale", SYMCHAR, "        prev = pivot\n", "", (
        "tests/test_symchar.py::TestIntegerKernels::test_schur_matches_fraction_elimination",)),
    Mutant("jacobi-trudi-scale", SYMCHAR, "den ** sum(shape.parts)", "den ** shape.length", (
        "tests/test_symchar.py::TestIntegerKernels::test_schur_matches_fraction_elimination",)),
    # float Schur values on the same kernel: dyadic integers, one rounding,
    # and Overflow past float range
    Mutant("dyadic-denominator-min", SYMCHAR, "den = math.lcm(*[q for _, q in ratios])",
           "den = min([q for _, q in ratios])", (
               "tests/test_symchar.py::TestSchur"
               "::test_float_value_past_the_range_of_its_entries",)),
    Mutant("schur-float-division", SYMCHAR, "return det / scale",
           "return float(det) / float(scale)", (
               "tests/test_symchar.py::TestSchur"
               "::test_float_value_past_the_range_of_its_entries",)),
    Mutant("schur-overflow-unmapped", SYMCHAR,
           'raise Overflow(f"s_{shape.parts} exceeds float range") from None', "raise", (
               "tests/test_symchar.py::TestSchur::test_float_value_past_float_range_overflows",)),
    Mutant("character-overflow-unchecked", SYMCHAR,
           "if value.__class__ is float and not math.isfinite(value):", "if False:", (
               "tests/test_symchar.py::TestAbsCharacter"
               "::test_float_value_past_float_range_overflows",
               "tests/test_cli.py::test_char_past_float_range_is_a_numerical_failure")),
    Mutant("schur-shape-coercion", SYMCHAR,
           'object.__setattr__(self, "shape", _as_partition(self.shape))',
           'object.__setattr__(self, "shape", self.shape)', (
               "tests/test_symchar.py::TestSchur::test_tuple_shape_is_coerced",)),
    # mutations that earlier changes checked by hand
    Mutant("over-lcm-factor", SYMCHAR,
           "tuple([v.numerator * (den // q) for v, q in zip(values, dens)])",
           "tuple([v.numerator for v, q in zip(values, dens)])", (
               "tests/test_symchar.py::TestModuliVector::test_sorting_and_exactness",)),
    Mutant("no-exact-tie-break", ORDER, "return (lhs > rhs) - (lhs < rhs)", "return 0", (
        "tests/test_order.py::test_float_tie_band_above_the_exact_degree_limit",)),
    # one rule for spectral radii, and one exact pass per side in the scan
    Mutant("radius-test-inclusive", ORDER, "if not d < c < math.inf:",
           "if not d <= c < math.inf:", (
               "tests/test_order.py::TestSeparatingSymPower"
               "::test_radii_that_do_not_separate_are_refused",)),
    Mutant("exact-scan-restarts", ORDER, "_h_sign(m, log_c, log_d, cv, dv, exact) > 0",
           "_h_sign(m, log_c, log_d, cv, dv) > 0", (
               "tests/test_order.py::TestSeparatingSymPower"
               "::test_exact_scan_continues_one_pass_per_side",)),
    Mutant("failing-level-off-by-one", ORDER, "failing = next(k + 1 for k, c",
           "failing = next(k for k, c", (
               "tests/test_order.py::test_float_differences_past_the_tie_band_are_decided",)),
    Mutant("combine-block-map", LINALG, "f = np.asarray(coeffs, dtype=complex)[self.labels]",
           "f = np.asarray(coeffs, dtype=complex)[self.labels[::-1]]", (
               "tests/test_cmjd.py::TestCmjdExamples::test_phase_modulus_split",)),
    Mutant("merge-without-nilpotency", LINALG,
           "if not _nilpotent_about_mean(t[b, b], bound):", "if False:", (
               "tests/test_cmjd.py::TestCmjdJordanBlocks"
               "::test_coupled_pair_beyond_rounding_stays_split",)),
    # constants that tier-1 pinned before they were listed, and the two it did not
    Mutant("merge-radius-wide", LINALG, "MERGE_RADIUS = 1e-3", "MERGE_RADIUS = 1e-1", (
        "tests/test_cmjd.py::TestCmjdJordanBlocks::test_direct_sums_match_construction",
        "tests/test_cmjd.py::TestCmjdJordanBlocks::test_jordan_block_validates_or_raises",
        "tests/test_linalg.py::TestSpectralProjectors::test_norm_cap_raises")),
    Mutant("paper-exact-limit-zero", ORDER, "PAPER_EXACT_LIMIT = 20_000",
           "PAPER_EXACT_LIMIT = 0", (
               "tests/test_order.py::TestSeparatingSymPower"
               "::test_paper_degree_matches_exact_scan",)),
    Mutant("chain-threshold-wide", ORDER, "else 1e-14 * scale", "else 1e-8 * scale", (
        "tests/test_order.py::TestNearTies::test_one_verdict_per_pair",
        "tests/test_order.py::TestNearTies::test_product_far_from_one",
        "tests/test_golden.py::test_report_matches_the_corpus[near-float-1e-10-rev-certify]")),
    Mutant("singularity-threshold-low", LINALG, "SINGULARITY_THRESHOLD = 1e-13",
           "SINGULARITY_THRESHOLD = 1e-16", (
               "tests/test_cmjd.py::TestCmjdExamples"
               "::test_singularity_is_relative_to_the_largest_modulus",)),
    Mutant("normalize-sl-wide", ORDER, "1e-9 * (sum(map(abs, logs)) + 1)",
           "1e-3 * (sum(map(abs, logs)) + 1)", (
               "tests/test_order.py::TestFindSeparatingCharacter"
               "::test_float_product_off_one_is_normalized",)),
    # float Ext moduli past float range: refused, and their level skipped
    Mutant("rep-moduli-range-unchecked", SYMCHAR,
           "if not x.exact and not 0 < min(values) <= max(values) < math.inf:", "if False:", (
               "tests/test_symchar.py::TestRepModuli"
               "::test_float_moduli_past_float_range_overflow",)),
    Mutant("overflow-level-not-skipped", ORDER, "except (NotSeparable, Overflow) as exc:",
           "except NotSeparable as exc:", (
               "tests/test_order.py::TestFindSeparatingCharacter"
               "::test_ext_moduli_past_float_range_skip_their_level",)),
    # the paper degree from a checked estimate: both checks are needed
    Mutant("paper-estimate-unchecked-below", ORDER, "and not proven(m - 1)", "and True", (
        "tests/test_order.py::TestSeparatingSymPower::test_root_just_below_an_integer",)),
    Mutant("paper-estimate-unchecked", ORDER,
           "proven(m := math.floor(root) + 1) and not proven(m - 1)",
           "(m := math.floor(root) + 1)", (
               "tests/test_order.py::TestSeparatingSymPower::test_root_just_below_an_integer",
               "tests/test_order.py::TestSeparatingSymPower"
               "::test_paper_degree_matches_the_search")),
)


def _run_tests(tree: Path, tests) -> int | None:
    """pytest's exit code on the tests, or None past TIMEOUT_S."""
    env = {**os.environ, "PYTHONPATH": str(tree / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    command = [sys.executable, "-m", "pytest", "-q", "-x", "-p", "no:cacheprovider", *tests]
    try:
        return subprocess.run(command, cwd=tree, env=env, capture_output=True,
                              timeout=TIMEOUT_S).returncode
    except subprocess.TimeoutExpired:
        return None


def main(ids) -> int:
    unknown = set(ids) - {m.id for m in MUTANTS}
    if unknown:
        sys.exit(f"unknown mutant id(s): {sorted(unknown)}")
    chosen = [m for m in MUTANTS if not ids or m.id in ids]
    start = time.perf_counter()
    killed = 0
    with tempfile.TemporaryDirectory() as tmp:
        tree = Path(tmp) / "tree"
        shutil.copytree(ROOT, tree, ignore=shutil.ignore_patterns(
            ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".perfbench-*"))
        if _run_tests(tree, sorted({t for m in chosen for t in m.tests})) != 0:
            sys.exit("the mutants' tests do not pass on the unmutated tree")
        for mutant in chosen:
            path = tree / mutant.file
            text = path.read_text()
            if text.count(mutant.source) != 1:
                sys.exit(f"{mutant.id}: source text does not occur exactly once")
            path.write_text(text.replace(mutant.source, mutant.replacement))
            try:
                code = _run_tests(tree, mutant.tests)
            finally:
                path.write_text(text)
            killed += code != 0
            verdict = "survived" if code == 0 else "killed" if code else "killed (timeout)"
            print(f"{verdict:<16} {mutant.id}", flush=True)
    print(f"{killed}/{len(chosen)} killed in {time.perf_counter() - start:.0f} s")
    return 0 if killed == len(chosen) else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
