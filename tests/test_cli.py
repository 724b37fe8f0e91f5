"""Command-line flags: each subcommand takes only the options it reads."""

import json

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
