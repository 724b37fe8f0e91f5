"""Command-line flags: each subcommand takes only the options it reads."""

import json
import math

import pytest

from kostant.cli import main


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


def test_dim_cap_reaches_the_witness_search(inputs, capsys):
    assert main(commands(inputs)["witness"] + ["--dim-cap", "1"]) == 2
    assert json.loads(capsys.readouterr().out)["error"] == "DimensionCap"


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
