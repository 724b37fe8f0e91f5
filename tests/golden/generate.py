"""Build or check the golden report corpus of the moduli subcommands.

Each case is one `kostant` run: a subcommand, its input payloads and its
extra flags, with the exit code and the exact report text it gave. The
cases cover `order`, `certify`, `witness` and `char` on moduli and on
matrix payloads that carry their eigenvalues, real and complex, with and
without `--exact`, every exit code from 0 to 3, and the near-tie pairs of
ROADMAP item 13. The inputs come from a seeded `random.Random`, so the
same source gives the same corpus.

    PYTHONPATH=src python tests/golden/generate.py           # rewrite corpus.json
    PYTHONPATH=src python tests/golden/generate.py --check   # print changed cases

`--check` prints the unified diff of every case whose report or exit
code differs from the committed corpus and exits 1 when there is one.
`tests/test_golden.py` replays the committed corpus in tier-1.
"""

from __future__ import annotations

import argparse
import difflib
import io
import json
import math
import random
import sys
import tempfile
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

CORPUS = Path(__file__).with_name("corpus.json")
SEED = 20261019
# the flag that names each input file, per subcommand
INPUT_FLAGS = {"order": ("g1", "g2"), "certify": ("x", "y"),
               "witness": ("h1", "h2"), "char": ("spec", "x")}


def run_case(case: dict, directory: Path) -> tuple[int, str]:
    """Exit code and standard output of `kostant` on one case, with its
    inputs written to files in directory."""
    from kostant.cli import main

    argv = [case["command"]]
    for flag, payload in case["inputs"].items():
        path = directory / f"{case['name']}-{flag}.json"
        path.write_text(json.dumps(payload))
        argv += [f"--{flag}", str(path)]
    out = io.StringIO()
    with redirect_stdout(out):
        code = main(argv + case["flags"])
    return code, out.getvalue()


# --- inputs ---------------------------------------------------------------------


def rational_sl(rng: random.Random, n: int) -> list[str]:
    """n positive rationals with product exactly 1, as "p/q" strings."""
    values = [Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(n - 1)]
    values.append(1 / math.prod(values))
    return [str(v) for v in values]


def float_sl(rng: random.Random, n: int, spread: float = 1.0) -> list[float]:
    logs = [rng.gauss(0.0, spread) for _ in range(n)]
    mean = sum(logs) / n
    return [math.exp(v - mean) for v in logs]


def integer_mix(rng: random.Random, n: int) -> list:
    """Product-one values with JSON integers among them: integers parse as
    floats without --exact and as rationals with it."""
    values = [rng.choice([1, 2, 3, 4, "1/2", "2/3", "3/2", "5/4"]) for _ in range(n - 1)]
    values.append(str(1 / math.prod(Fraction(v) for v in values)))
    return values


def triangular(rng: random.Random, n: int) -> dict:
    """An upper-triangular matrix with a rational product-one diagonal,
    repeated entries (Jordan blocks) included, and its eigenvalues. A
    triangular matrix keeps its diagonal through the Schur form, so the
    float moduli do not depend on the LAPACK build."""
    diagonal = [Fraction(rng.choice([1, 2, 3, 4, 5]), rng.choice([1, 2, 3]))
                for _ in range(n - 1)]
    if rng.random() < 0.4:
        diagonal[-1] = diagonal[0]
    diagonal.append(1 / math.prod(diagonal))
    rng.shuffle(diagonal)
    entries = [[str(diagonal[i]) if i == j else (rng.choice([0, 1, -1, 2]) if j > i else 0)
                for j in range(n)] for i in range(n)]
    sign = [rng.choice([1, -1]) for _ in range(n)]
    # a sign changes the eigenvalue, not its modulus; keep the product of
    # the eigenvalues positive so that the matrix stays in SL_n
    if math.prod(sign) < 0:
        sign[0] = -sign[0]
    eigenvalues = []
    for i in range(n):
        value = sign[i] * diagonal[i]
        entries[i][i] = str(value)
        eigenvalues.append(str(value))
    return {"entries": entries, "eigenvalues": eigenvalues}


def complex_triangular(diagonal: list) -> dict:
    """An upper-triangular matrix with the given diagonal of complex
    eigenvalues and ones above it, and those eigenvalues."""
    n = len(diagonal)
    entries = [[diagonal[i] if i == j else int(j > i) for j in range(n)]
               for i in range(n)]
    return {"entries": entries, "eigenvalues": diagonal}


# complex eigenvalues: moduli rational (3/5 + 4/5 i), irrational (1 + i:
# every modulus falls back to a float), from float parts (0.6 + 0.8 i,
# and 0.75 + 1.0 i of modulus 5/4), and mixed; each with rational moduli
# of the same length and product one to compare against
COMPLEX_EIGENVALUES = {
    "rational": ([{"re": "3/5", "im": "4/5"}, {"re": "3/5", "im": "-4/5"}, 2, "1/2"],
                 ["3", "1", "1/2", "2/3"]),
    "irrational": ([{"re": 1, "im": 1}, {"re": 1, "im": -1}, "1/2"],
                   ["3/2", "1", "2/3"]),
    "float-parts": ([{"re": 0.6, "im": 0.8}, {"re": 0.6, "im": -0.8}, 2.0, 0.5],
                    ["3", "1", "1/2", "2/3"]),
    "mix-rational": ([{"re": "3/5", "im": "4/5"}, {"re": 0.75, "im": 1.0}, "-4/5"],
                     ["3/2", "1", "2/3"]),
    "mix": ([{"re": "3/5", "im": "4/5"}, {"re": 1, "im": 1}, {"re": 1, "im": -1},
             {"re": 0.75, "im": 1.0}, "2/5"],
            ["2", "3/2", "1", "1/2", "2/3"]),
}


SPECS = [{"sym": 3}, {"ext": 2}, {"schur": [2, 1]},
         {"tensor": [{"sym": 1}, {"ext": 1}]},
         {"dsum": [{"sym": 2}, {"ext": 1}]},
         {"compose": {"outer": {"sym": 2}, "inner": {"ext": 2}}}]


# --- cases ------------------------------------------------------------------------


def build_cases() -> list[dict]:
    rng = random.Random(SEED)
    cases: list[dict] = []

    def add(name, command, first, second, flags=()):
        keys = INPUT_FLAGS[command]
        cases.append({"name": name, "command": command,
                      "inputs": {keys[0]: first, keys[1]: second},
                      "flags": list(flags)})

    def moduli(values):
        return {"values": values}

    def pair_cases(tag, x, y, flags=()):
        add(f"{tag}-order", "order", moduli(x), moduli(y), flags)
        add(f"{tag}-certify", "certify", moduli(x), moduli(y), flags)
        add(f"{tag}-witness", "witness", moduli(x), moduli(y), flags)

    for i in range(32):
        n = 2 + i % 4
        flags = ["--exact"] if i % 2 else []
        pair_cases(f"exact-n{n}-{i}", rational_sl(rng, n), rational_sl(rng, n), flags)
    for i in range(32):
        n = 2 + i % 5
        pair_cases(f"float-n{n}-{i}", float_sl(rng, n), float_sl(rng, n))
    for i in range(8):
        n = 3 + i % 3
        x, y = integer_mix(rng, n), integer_mix(rng, n)
        pair_cases(f"mixed-n{n}-{i}", x, y)
        pair_cases(f"mixed-n{n}-{i}-exact", x, y, ["--exact"])

    for i, spec in enumerate(SPECS):
        for j, x in enumerate((float_sl(rng, 3), float_sl(rng, 4),
                               rational_sl(rng, 3), rational_sl(rng, 4))):
            add(f"char-{i}-{j}", "char", spec, moduli(x))
    for i in range(6):
        n = 2 + i % 3
        g = triangular(rng, n)
        other = moduli(rational_sl(rng, n))
        for flags in ([], ["--exact"]):
            tag = f"matrix-n{n}-{i}" + ("-exact" if flags else "")
            add(f"{tag}-order", "order", g, other, flags)
            add(f"{tag}-order-rev", "order", other, g, flags)
            add(f"{tag}-certify", "certify", g, other, flags)
            add(f"{tag}-witness", "witness", other, g, flags)
            add(f"{tag}-char", "char", SPECS[i], g, flags)

    # ROADMAP item 13: near ties in floats, in rationals, and a unipotent
    # matrix against the identity
    for delta in (1e-10, 1e-11, 1e-12):
        a = 2 * (1 + delta)
        x, y = [2.0, 0.5], [a, 1 / a]
        pair_cases(f"near-float-{delta:g}", x, y)
        pair_cases(f"near-float-{delta:g}-rev", y, x)
    for delta in (10 ** -10, 10 ** -14, 10 ** -20):
        a = 2 * (1 + Fraction(delta))
        x, y = ["2", "1/2"], [str(a), str(1 / a)]
        pair_cases(f"near-exact-{delta:g}", x, y, ["--exact"])
        pair_cases(f"near-exact-{delta:g}-rev", y, x, ["--exact"])
    near_one = ["1000000000001/1000000000000", "1000000000000/1000000000001"]
    pair_cases("near-one-exact", near_one, ["1", "1"], ["--exact"])
    pair_cases("near-one-exact-rev", ["1", "1"], near_one, ["--exact"])
    # Ext^1 radii 5e-11 relative apart: degree 1 separates them
    pair_cases("near-identity-float", [1.001, 1.0, 0.9990009990009991],
               [1.0010000000500499, 1.0, 0.9990009989510491])
    unipotent, identity = {"entries": [[0, 1], [-1, 2]]}, moduli([1, 1])
    for flags in ([], ["--exact"]):
        tag = "unipotent" + ("-exact" if flags else "")
        add(f"{tag}-order", "order", unipotent, identity, flags)
        add(f"{tag}-certify", "certify", unipotent, identity, flags)
        add(f"{tag}-certify-rev", "certify", identity, unipotent, flags)
        add(f"{tag}-witness", "witness", identity, unipotent, flags)
    for i, (kind, (diagonal, values)) in enumerate(COMPLEX_EIGENVALUES.items()):
        g, other = complex_triangular(diagonal), moduli(values)
        for flags in ([], ["--exact"]):
            tag = f"complex-{kind}" + ("-exact" if flags else "")
            add(f"{tag}-order", "order", g, other, flags)
            add(f"{tag}-certify", "certify", g, other, flags)
            add(f"{tag}-certify-rev", "certify", other, g, flags)
            add(f"{tag}-witness", "witness", other, g, flags)
            add(f"{tag}-witness-rev", "witness", g, other, flags)
            add(f"{tag}-char", "char", SPECS[i], g, flags)

    # exit 2: input errors; exit 3: numerical failures
    three, two = moduli(["2", "1", "1/2"]), moduli(["2", "1/2"])
    add("error-length-order", "order", three, two)
    add("error-length-certify", "certify", two, three)
    add("error-length-witness", "witness", three, two)
    add("error-nonpositive", "order", moduli([2.0, -0.5]), two)
    add("error-empty", "certify", moduli([]), two)
    add("error-not-a-list", "witness", moduli("2"), two)
    add("error-sum", "certify", moduli(["2", "1"]), two)
    add("error-not-normalized", "witness", moduli(["2", "1"]), two, ["--exact"])
    add("error-dim-cap-witness", "witness", moduli(["2", "1/2"]), moduli(["3", "1/3"]),
        ["--dim-cap", "1"])
    add("error-dim-cap-char", "char", {"sym": 30}, moduli(float_sl(rng, 4)),
        ["--dim-cap", "100"])
    add("error-bad-index", "char", {"ext": 4}, three)
    add("error-bad-spec", "char", {"sym": True}, three)
    add("error-overflow-char", "char", {"sym": 2000}, moduli([3.0, 1 / 3]))
    return cases


def generate() -> list[dict]:
    with tempfile.TemporaryDirectory() as directory:
        out = []
        for case in build_cases():
            code, stdout = run_case(case, Path(directory))
            out.append({**case, "code": code, "stdout": stdout})
        return out


def check(cases: list[dict]) -> int:
    """Print how each case differs from the committed corpus; the number
    of cases that differ."""
    committed = {case["name"]: case for case in json.loads(CORPUS.read_text())}
    changed = 0
    for case in cases:
        old = committed.pop(case["name"], None)
        if old == case:
            continue
        changed += 1
        if old is None:
            print(f"+ new case {case['name']}")
            continue
        print(f"~ {case['name']}: exit {old['code']} -> {case['code']}")
        sys.stdout.writelines(difflib.unified_diff(
            old["stdout"].splitlines(True), case["stdout"].splitlines(True),
            "committed", "now"))
    for name in committed:
        changed += 1
        print(f"- dropped case {name}")
    return changed


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--check", action="store_true",
                        help="print the cases that differ from corpus.json")
    args = parser.parse_args()
    cases = generate()
    if args.check:
        changed = check(cases)
        print(f"{changed} of {len(cases)} cases differ")
        return 1 if changed else 0
    CORPUS.write_text(json.dumps(cases, indent=1) + "\n")
    print(f"wrote {len(cases)} cases to {CORPUS}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
