"""Command-line flags: each subcommand takes only the options it reads;
subcommands on moduli input start without the matrix layers or dataclasses."""

import json
import math
import os
import subprocess
import sys
from decimal import Decimal, localcontext
from fractions import Fraction
from types import ModuleType

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kostant
from kostant import complete_homogeneous, order
from kostant.cli import main
from kostant.serialize import parse_matrix


@pytest.fixture
def inputs(tmp_path):
    def put(name, obj):
        path = tmp_path / name
        path.write_text(json.dumps(obj))
        return str(path)

    return {
        "x": put("x.json", {"values": [4.0, 0.5, 0.5]}),
        "y": put("y.json", {"values": [2.0, 1.0, 0.5]}),
        "g": put("g.json", {"entries": [[2, 1], [0, 0.5]]}),
        "spec": put("spec.json", {"sym": 2}),
    }


def commands(f):
    return {
        "decompose": ["decompose", "--g", f["g"]],
        "order": ["order", "--g1", f["x"], "--g2", f["y"]],
        "char": ["char", "--spec", f["spec"], "--x", f["x"]],
        "witness": ["witness", "--h1", f["y"], "--h2", f["x"]],
        "certify": ["certify", "--x", f["x"], "--y", f["y"]],
        "selfcheck": ["selfcheck", "--suite", "characters"],
    }


ACCEPTED = {
    "decompose": {"--tol"},
    "order": {"--tol", "--exact"},
    "char": {"--tol", "--exact", "--dim-cap"},
    "witness": {"--tol", "--exact", "--dim-cap"},
    "certify": {"--tol", "--exact"},
    "selfcheck": set(),
}
FLAG_ARGS = {"--tol": ["1e-8"], "--exact": [], "--dim-cap": ["1000000"]}


@pytest.mark.parametrize("command", sorted(ACCEPTED))
def test_flags_per_subcommand(command, inputs, capsys):
    argv = commands(inputs)[command]
    code = main(argv)
    default = capsys.readouterr().out
    for flag, value in FLAG_ARGS.items():
        if flag in ACCEPTED[command]:
            if flag != "--exact":  # --exact reads integers as rationals
                assert main(argv + [flag, *value]) == code
                assert capsys.readouterr().out == default
        else:
            with pytest.raises(SystemExit) as exc:
                main(argv + [flag, *value])
            assert exc.value.code == 2
            assert "unrecognized arguments" in capsys.readouterr().err


def test_out_writes_the_report(inputs, tmp_path, capsys):
    argv = commands(inputs)["order"]
    main(argv)
    default = capsys.readouterr().out
    out = tmp_path / "report.json"
    main(argv + ["--out", str(out)])
    assert capsys.readouterr().out == ""
    assert out.read_text() == default


def test_unwritable_out_is_an_input_error(inputs, tmp_path, capsys):
    out = tmp_path / "no_such_dir" / "report.json"
    assert main(commands(inputs)["order"] + ["--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith(f"error: cannot write {out}: ")


@pytest.mark.parametrize("command, flag, value", [
    ("order", "--tol", "0"),
    ("order", "--tol", "-1"),
    ("order", "--tol", "nan"),
    ("order", "--tol", "inf"),
    ("decompose", "--tol", "inf"),
    ("witness", "--dim-cap", "0"),
    ("char", "--dim-cap", "0"),
])
def test_bad_option_values_are_usage_errors(command, flag, value, inputs, capsys):
    # an infinite tol merged every eigenvalue into one cluster, and
    # decompose could not write it to JSON
    with pytest.raises(SystemExit) as exc:
        main(commands(inputs)[command] + [flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: must be" in captured.err


@pytest.mark.parametrize("content, message", [
    (None, "cannot read "),
    ("{\"values\": [2.0, 0.5", "bad JSON in "),
])
def test_unreadable_input_is_a_parse_error(content, message, inputs, tmp_path, capsys):
    path = tmp_path / "in.json"
    if content is not None:
        path.write_text(content)
    code, report = run_json(commands({**inputs, "x": str(path)})["order"], capsys)
    assert (code, report["error"]) == (2, "ParseError")
    assert report["message"].startswith(message + str(path))


def test_failing_suite_exits_3(perturbed_unipotent, capsys):
    code, report = run_json(["selfcheck", "--suite", "cmjd"], capsys)
    assert code == 3 and report["passed"] is False
    (suite,) = report["suites"]
    assert suite["name"] == "cmjd" and "reconstruction" in suite["detail"]


@pytest.mark.parametrize("key, payload", [
    ("x", {"values": 5}),
    ("x", {"values": "421"}),
    ("x", {"values": {"0": 4.0}}),
    ("x", {"values": [math.inf, 1.0, 0.5]}),
    ("x", {"values": [math.nan, 1.0, 0.5]}),
    ("spec", {"sym": 2.7}),
    ("spec", {"sym": True}),
    ("spec", {"ext": "2"}),
    ("spec", {"schur": "21"}),
    ("spec", {"schur": [2.9, 1]}),
    ("spec", {"schur": [2, False]}),
    ("spec", {"compose": {"outer": {"sym": 2.0}, "inner": {"ext": 1}}}),
    ("spec", {"tensor": {"sym": 1}}),
    ("g", {"n": True, "entries": [[2]]}),
    ("g", {"n": 1.0, "entries": [[2]]}),
    # numbers past float range: moduli, a matrix, and a matrix under --exact
    ("x", {"values": [10 ** 400, 1]}),
    ("g", {"entries": [[10 ** 400, 0], [0, 1]]}),
    ("x --exact", {"entries": [[10 ** 400, 0], [0, 1]]}),
    # an irrational modulus past float range among supplied eigenvalues
    ("x --exact", {"entries": [[1, 0], [0, 1]],
                   "eigenvalues": [{"re": 10 ** 400, "im": 1}, 1]}),
])
def test_malformed_payloads_are_parse_errors(key, payload, inputs, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    key, *flags = key.split()
    command = {"x": "order", "spec": "char", "g": "decompose"}[key]
    argv = commands({**inputs, key: str(path)})[command] + flags
    code, report = run_json(argv, capsys)
    assert (code, report["error"]) == (2, "ParseError")


@pytest.mark.parametrize("key, payload, message", [
    ("x", {"values": [True, 1.0]}, "expected a numeric scalar, got True"),
    ("x", {"values": ["1/0", 1]}, "bad rational literal '1/0'"),
    ("x", {"values": ["two", 1]}, "bad rational literal 'two'"),
    ("x", {"values": [None, 1.0]}, "expected a numeric scalar, got None"),
    ("x", {"entries": [[[1], 0], [0, 1]]}, "expected a complex entry, got [1]"),
    ("x", {"entries": [[{"re": 1, "i": 0}]]},
     "expected a complex entry, got {'re': 1, 'i': 0}"),
    ("x", {"n": 2}, "matrix JSON must be an object with an 'entries' field"),
    ("x", {"entries": []}, "matrix entries must be a nonempty list of rows"),
    ("x", {"entries": [[1, 0], [0]]}, "matrix entries must form an 2 x 2 array"),
    ("x", {"entries": [[1, 0], [0, 1]], "eigenvalues": [1]},
     "eigenvalues must list one value per dimension"),
    ("spec", {"sym": 1, "ext": 1}, "rep spec must be a single-key object, got "
     "{'sym': 1, 'ext': 1}"),
    ("spec", {"dsum": []}, "dsum takes a nonempty list"),
    ("spec", {"compose": {"outer": {"sym": 1}}},
     "compose takes {'outer': ..., 'inner': ...}"),
    ("spec", {"wedge": 2}, "unknown rep spec kind 'wedge'"),
])
def test_malformed_payloads_name_their_fault(key, payload, message, inputs, tmp_path,
                                             capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(payload))
    command = {"x": "order", "spec": "char"}[key]
    code, report = run_json(commands({**inputs, key: str(path)})[command], capsys)
    assert (code, report["error"], report["message"]) == (2, "ParseError", message)


def test_unipotent_matrix_is_equal_to_the_identity(tmp_path, capsys):
    # [[0, 1], [-1, 2]] is conjugate to the Jordan block [[1, 1], [0, 1]],
    # so its moduli are those of its hyperbolic part, the identity
    g, one = tmp_path / "g.json", tmp_path / "one.json"
    g.write_text(json.dumps({"entries": [[0, 1], [-1, 2]]}))
    one.write_text(json.dumps({"values": [1, 1]}))
    for a, b in ((g, one), (one, g)):
        code, report = run_json(["order", "--g1", str(a), "--g2", str(b)], capsys)
        assert (code, report["relation"]) == (0, "EQUAL")
        code, report = run_json(["witness", "--h1", str(a), "--h2", str(b)], capsys)
        assert (code, report["error"]) == (1, "OrderHolds")


def test_dim_cap_reaches_the_witness_search(inputs, capsys):
    code, report = run_json(commands(inputs)["witness"] + ["--dim-cap", "1"], capsys)
    assert (code, report["error"]) == (2, "DimensionCap")
    assert "level 1: degree budget 0 < 1 (Ext^1 alone has dimension 3)" \
        in report["message"]


def test_dimension_cap_names_the_reason_of_each_level(tmp_path, capsys):
    # an exact pair that h_1 separates, refused because the float log of
    # its radius ratio 1 + 10^-400 is 0, so no paper degree is proven: the
    # report says so, not only that a cap was hit
    a = 2 * (1 + Fraction(1, 10 ** 400))
    (tmp_path / "x.json").write_text(json.dumps({"values": ["2", "1/2"]}))
    (tmp_path / "y.json").write_text(json.dumps({"values": [str(a), str(1 / a)]}))
    code, report = run_json(["witness", "--exact", "--h1", str(tmp_path / "x.json"),
                             "--h2", str(tmp_path / "y.json")], capsys)
    assert (code, report["error"]) == (2, "DimensionCap")
    assert report["message"].startswith(
        "no failing level gives a separating character under dimension cap "
        "1000000: level 1: paper degree bound overflowed the search range")


def test_rational_string_entries(tmp_path, capsys):
    # bare strings are real entries, as bare numbers are
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"entries": [[2, 1], [0, "1/2"]],
                                "eigenvalues": [2, "1/2"]}))
    assert main(["decompose", "--g", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["hyperbolic"]["entries"][1][1] == {"re": 0.5, "im": 0.0}
    assert main(["order", "--exact", "--g1", str(path), "--g2", str(path)]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["relation"] == "EQUAL"
    assert report["moduli_1"] == ["2", "1/2"]


def pythagorean(scale: Fraction, m: int, n: int, swap: bool, signs: tuple):
    """An eigenvalue s (m^2 - n^2) + s (2 m n) i, parts in either order and
    of either sign, as a payload entry, and its modulus s (m^2 + n^2)."""
    re, im = scale * (m * m - n * n), scale * 2 * m * n
    if swap:
        re, im = im, re
    entry = {"re": str(signs[0] * re), "im": str(signs[1] * im)}
    return entry, scale * (m * m + n * n)


RATIONAL_EIGENVALUES = st.lists(st.builds(
    pythagorean, st.fractions(min_value=Fraction(1, 10 ** 6), max_value=10 ** 6),
    st.integers(1, 50), st.integers(0, 50), st.booleans(),
    st.tuples(st.sampled_from([1, -1]), st.sampled_from([1, -1]))),
    min_size=1, max_size=5)


def eigenvalue_payload(entries) -> dict:
    n = len(entries)
    return {"entries": [[0] * n for _ in range(n)], "eigenvalues": entries}


@settings(max_examples=100, deadline=None)
@given(RATIONAL_EIGENVALUES, st.fractions(min_value=Fraction(1, 10 ** 6),
                                          max_value=10 ** 6), st.integers(0, 5))
def test_supplied_eigenvalues_parse_to_their_moduli(pairs, scale, at):
    entries, moduli = [entry for entry, _ in pairs], [m for _, m in pairs]
    exact = parse_matrix(eigenvalue_payload(entries), exact=True).moduli
    assert exact.exact and exact.values == tuple(sorted(moduli, reverse=True))
    # s + s i has modulus s sqrt(2): every modulus becomes a float
    entries.insert(at, {"re": str(scale), "im": str(scale)})
    floats = parse_matrix(eigenvalue_payload(entries), exact=True).moduli
    assert all(type(v) is float for v in floats.values)
    assert floats.values == tuple(sorted(
        (abs(complex(float(Fraction(e["re"])), float(Fraction(e["im"]))))
         for e in entries), reverse=True))
    assert parse_matrix(eigenvalue_payload(entries), exact=False).moduli is None


def run_json(argv, capsys):
    code = main(argv)
    return code, json.loads(capsys.readouterr().out)


def test_char_on_schur_weight_above_twelve(tmp_path, capsys):
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps(
        {"compose": {"outer": {"sym": 1}, "inner": {"schur": [7, 6]}}}))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"values": [3.0, 2.0, 1.0, 0.5, 1 / 3]}))
    code, report = run_json(["char", "--spec", str(spec), "--x", str(x)], capsys)
    assert code == 0
    assert report["dimension"] == 6930


def test_char_past_float_range_is_a_numerical_failure(tmp_path, capsys):
    # the character 1.4e381 is past float range; so is the radius 3**800
    spec = tmp_path / "spec.json"
    spec.write_text(json.dumps({"tensor": [{"sym": 400}, {"sym": 400}]}))
    x = tmp_path / "x.json"
    x.write_text(json.dumps({"values": [3.0, 1.0, 1 / 3]}))
    code, report = run_json(["char", "--spec", str(spec), "--x", str(x),
                             "--dim-cap", str(10 ** 20)], capsys)
    assert code == 3
    assert (report["error"], report["message"]) == (
        "Overflow", "character exceeds float range")


@pytest.mark.parametrize("spec, error, message", [
    ({"ext": 4}, "BadIndex", "exterior power 4 exceeds dimension 3"),
    ({"compose": {"outer": {"schur": [1, 1, 1, 1]}, "inner": {"sym": 1}}},
     "LengthMismatch", "partition length 4 exceeds vector length 3"),
])
def test_char_index_errors(spec, error, message, inputs, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(spec))
    code, report = run_json(["char", "--spec", str(path), "--x", inputs["x"]], capsys)
    assert code == 2
    assert (report["error"], report["message"]) == (error, message)


@pytest.mark.parametrize("flags", [[], ["--exact"]])
def test_internal_check_failure_is_a_numerical_failure(flags, tmp_path, capsys, monkeypatch):
    # the chain builder is handed a target that its start does not
    # majorize, so its internal check fails; that must not read as exit 1,
    # "not a member"
    hlp_steps = order._hlp_steps
    monkeypatch.setattr(order, "_hlp_steps", lambda work, target, scale: hlp_steps(
        work, [3 * t for t in target], scale))
    (tmp_path / "x.json").write_text(json.dumps({"values": [4.0, 0.25]}))
    (tmp_path / "y.json").write_text(json.dumps({"values": [2.0, 0.5]}))
    code, report = run_json(["certify", "--x", str(tmp_path / "x.json"),
                             "--y", str(tmp_path / "y.json"), *flags], capsys)
    assert code == 3
    assert set(report) == {"command", "error", "message"}
    assert (report["command"], report["error"]) == ("certify", "AssertionError")
    assert report["message"].startswith("T-transform chain stalled")


@pytest.mark.parametrize("delta", [10 ** -10, 10 ** -12, 10 ** -14, 10 ** -20])
@pytest.mark.parametrize("flags", [[], ["--exact"]])
def test_certify_decides_exact_near_ties_exactly(delta, flags, tmp_path, capsys):
    # y = (a, 1/a) with a = 2(1 + delta) leaves the hull of x = (2, 1/2) at
    # level 1, as order finds, however small delta is
    a = 2 * (1 + Fraction(delta))
    (tmp_path / "x.json").write_text(json.dumps({"values": ["2", "1/2"]}))
    (tmp_path / "y.json").write_text(json.dumps({"values": [str(a), str(1 / a)]}))
    x, y = str(tmp_path / "x.json"), str(tmp_path / "y.json")
    code, report = run_json(["certify", "--x", x, "--y", y, *flags], capsys)
    assert (code, report["member"], report["functional"]["k"]) == (1, False, 1)
    assert report["functional"]["margin"] == pytest.approx(float(delta), rel=1e-9)
    code, report = run_json(["order", "--g1", x, "--g2", y, *flags], capsys)
    assert (code, report["relation"], report["failing_level"]) == (1, "LEQ", 1)


def test_witness_past_float_range(tmp_path, capsys):
    # separated at k=1, m=235, where h_235 is past float range
    for name, logs in (("x", (3.5, 3.4, -6.9)), ("y", (3.51, -1.75, -1.76))):
        (tmp_path / f"{name}.json").write_text(
            json.dumps({"values": [math.exp(v) for v in logs]}))
    code, report = run_json(["witness", "--h1", str(tmp_path / "x.json"),
                             "--h2", str(tmp_path / "y.json")], capsys)
    assert code == 0
    assert (report["k"], report["m"], report["dimension"]) == (1, 235, 27966)
    assert 709 < report["chi1"]["log"] < report["chi2"]["log"]


def test_exact_witness_past_the_digit_limit(tmp_path, capsys):
    # chi2 has about 5,100 digits, more than Python converts to a string
    x, y = ["2", "2", "1/4"], ["1007/500", "1000/1007", "1/2"]
    for name, values in (("x", x), ("y", y)):
        (tmp_path / f"{name}.json").write_text(json.dumps({"values": values}))
    code, report = run_json(["witness", "--exact", "--h1", str(tmp_path / "x.json"),
                             "--h2", str(tmp_path / "y.json")], capsys)
    assert code == 0
    assert report["spec"] == {"compose": {"outer": {"sym": 848}, "inner": {"ext": 1}}}
    assert report["dimension"] == math.comb(850, 2)
    assert report["m"] <= report["paper_bound_m"]
    h_x, h_y = (complete_homogeneous(848, [Fraction(v) for v in values])
                for values in (x, y))
    assert h_y > h_x
    assert report["chi1"] == str(h_x)
    with localcontext() as ctx:
        ctx.prec = 30
        log_h_y = float(Decimal(h_y.numerator).ln() - Decimal(h_y.denominator).ln())
    assert math.isclose(report["chi2"]["log"], log_h_y, rel_tol=1e-12)


def past_float_range(tmp_path):
    """Files of the SL moduli (2, 1/2) and (10^400/3, 3/10^400), whose
    floats overflow and underflow."""
    big = Fraction(10 ** 400, 3)
    paths = []
    for name, values in (("small", ["2", "1/2"]), ("big", [str(big), str(1 / big)])):
        (tmp_path / f"{name}.json").write_text(json.dumps({"values": values}))
        paths.append(str(tmp_path / f"{name}.json"))
    return paths


@pytest.mark.parametrize("flip", [False, True])
def test_certify_past_float_range(flip, tmp_path, capsys):
    x, y = past_float_range(tmp_path)[::-1 if flip else 1]
    code, report = run_json(["certify", "--exact", "--x", x, "--y", y], capsys)
    assert (code, report["member"]) == ((0, True) if flip else (1, False))
    _, verdict = run_json(["order", "--exact", "--g1", x, "--g2", y], capsys)
    assert report["member"] == (verdict["relation"] in ("GEQ", "EQUAL"))
    if not flip:  # log(P_1(y) / P_1(x)) = log(10^400 / 6)
        assert report["functional"]["k"] == 1
        assert math.isclose(report["functional"]["margin"],
                            400 * math.log(10) - math.log(6))


def test_witness_past_float_range_exact(tmp_path, capsys):
    x, y = past_float_range(tmp_path)
    code, report = run_json(["witness", "--exact", "--h1", x, "--h2", y], capsys)
    assert code == 0
    assert (report["k"], report["m"]) == (1, 1)
    assert Fraction(report["chi2"]) > Fraction(report["chi1"]) == Fraction(5, 2)
    code, report = run_json(["witness", "--exact", "--h1", y, "--h2", x], capsys)
    assert (code, report["error"]) == (1, "OrderHolds")


def test_witness_past_float_range_mixed(tmp_path, capsys):
    # floats against rationals that do not fit a float: the spectral
    # radii are compared exactly
    _, y = past_float_range(tmp_path)
    x = tmp_path / "floats.json"
    x.write_text(json.dumps({"values": [2.0, 0.5]}))
    code, report = run_json(["witness", "--h1", str(x), "--h2", y], capsys)
    assert code == 0
    assert (report["k"], report["m"], report["chi1"]) == (1, 1, 2.5)
    big = Fraction(10 ** 400, 3)
    assert Fraction(report["chi2"]) == big + 1 / big
    code, report = run_json(["witness", "--h1", y, "--h2", str(x)], capsys)
    assert (code, report["error"]) == (1, "OrderHolds")


# --- imports ---------------------------------------------------------------------

MATRIX_MODULES = ("numpy", "scipy", "kostant.cmjd", "kostant.linalg",
                  "kostant.selfcheck")
# standard modules that a moduli subcommand does without: dataclasses,
# and the inspect module that it imports
STARTUP_COSTS = ("dataclasses", "inspect")
EXPORTS = """
    BadIndex CmjdReport CmjdTriple Compose DimensionCap
    DirectSum EQUAL Ext GEQ INCOMPARABLE IllConditioned KostantError LEQ
    LengthMismatch LogValue LogVector ModuliVector NonConvergence NonPositive
    NotHyperbolic NotSeparable OrderHolds OrderVerdict Overflow
    ParseError Partition RepSpec Schur SeparatingFunctional
    SeparatingWitness Singular SpectralDecomposition Spectrum SumMismatch Sym
    TTransformCertificate Tensor abs_character apply_t_transforms
    cmjd complete_homogeneous complete_homogeneous_log
    eigen_spectrum elementary find_separating_character hyperbolic_log
    kostant_compare mat_norm matrix_moduli permutohedron_certificate
    rep_dim rep_moduli schur separating_sym_power spectral_projectors
    spectral_radius_rep validate_cmjd verify_certificate
""".split()


def fresh(code: str) -> str:
    """Standard output of code run in a new interpreter."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(kostant.__file__)))
    return subprocess.run([sys.executable, "-c", code], timeout=120, check=True,
                          env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True).stdout


def main_in_fresh_interpreter(argvs):
    """Exit code and report of main on each argv, run in turn in one new
    interpreter, and the matrix modules and STARTUP_COSTS loaded after them."""
    codes, reports, modules = json.loads(fresh(
        "import io, json, sys\n"
        "from contextlib import redirect_stdout\n"
        "from kostant.cli import main\n"
        "codes, reports = [], []\n"
        f"for argv in {argvs!r}:\n"
        "    with redirect_stdout(io.StringIO()) as out:\n"
        "        codes.append(main(argv))\n"
        "    reports.append(out.getvalue())\n"
        "print(json.dumps([codes, reports, sorted(sys.modules)]))\n"))
    loaded = [m for m in modules
              if any(m == f or m.startswith(f + ".") for f in MATRIX_MODULES)
              or m in STARTUP_COSTS]
    return list(zip(codes, reports)), loaded


def test_moduli_subcommands_load_no_matrix_code(inputs, capsys):
    argvs = [commands(inputs)[c] for c in ("order", "certify", "char", "witness")]
    argvs.append(commands(inputs)["order"] + ["--exact"])
    results, loaded = main_in_fresh_interpreter(argvs)
    assert loaded == []
    for argv, result in zip(argvs, results):
        assert result == (main(argv), capsys.readouterr().out)
    assert [code for code, _ in results] == [0, 0, 0, 0, 0]


def test_matrix_subcommands_in_a_fresh_interpreter(tmp_path, capsys):
    path = tmp_path / "g.json"
    path.write_text(json.dumps({"entries": [[2, 1], [0, "1/2"]],
                                "eigenvalues": [2, "1/2"]}))
    g = str(path)
    argvs = [["decompose", "--g", g], ["order", "--g1", g, "--g2", g],
             ["order", "--exact", "--g1", g, "--g2", g]]
    results, loaded = main_in_fresh_interpreter(argvs)
    assert {"numpy", "kostant.cmjd", "kostant.linalg"} <= set(loaded)
    # kostant.linalg loads scipy's LAPACK extension, not the scipy.linalg package
    assert not {"scipy.linalg", "scipy._lib._array_api"} & set(loaded)
    for argv, result in zip(argvs, results):
        assert result == (main(argv), capsys.readouterr().out)
    assert [code for code, _ in results] == [0, 0, 0]


def test_scipy_linalg_imported_later_shares_the_lapack_extension():
    out = fresh("import kostant.linalg as ours\n"
                "import scipy.linalg.lapack as lapack\n"
                "print(ours.zgees is lapack.zgees, ours.ztrsen is lapack.ztrsen)\n")
    assert out.split() == ["True", "True"]


def test_every_export_resolves():
    for name in EXPORTS:
        assert not isinstance(getattr(kostant, name), ModuleType), name
    # submodules bind on the package as they load; they are not exports
    public = {name for name in dir(kostant) if not name.startswith("_")
              and not isinstance(getattr(kostant, name), ModuleType)}
    assert public == set(EXPORTS)
    with pytest.raises(AttributeError):
        kostant.no_such_name


@pytest.mark.parametrize("first", ["import kostant.cmjd", "import kostant.selfcheck",
                                   "from kostant.cmjd import validate_cmjd"])
def test_cmjd_is_the_function_after_its_module_loads(first):
    # the submodule kostant.cmjd shares the exported function's name
    out = fresh(f"{first}\n"
                "from kostant import cmjd\n"
                "import kostant.cmjd as again\n"
                "print(cmjd.__module__, cmjd.__name__, again is cmjd)\n")
    assert out.split() == ["kostant.cmjd", "cmjd", "True"]
