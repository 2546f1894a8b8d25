"""Golden CLI corpus: stdout bytes and exit codes of fixed commands.

The expected outputs in golden_cli.json were recorded once and are
compared byte for byte, so a refactor of any layer must leave every
report unchanged.  The corpus holds every command shown in the README,
the determinism commands of test_cli.py and a few extra oracle runs on
toric and truncated inputs.  Tokens such as {I2} name matrix files that
the test writes before running the command.

To record the file again from the current code (only when a change of
output is intended and declared): python tests/test_golden.py --record
"""

import json
import os
import sys

import pytest

from segrecm.cli import run

from oracles import format_matrix

GOLDEN = os.path.join(os.path.dirname(__file__), "golden_cli.json")

MATRICES = {
    "I2": [[1, 0], [0, 1]],
    "I3": [[1, 0, 0], [0, 1, 0], [0, 0, 1]],
    "A": [[1, 1, 1, 1], [0, 1, 2, 3]],
    "B": [[1, 1, 1], [0, 1, 2]],
    # x^3, y^3, z^3, x^2 y, y z^2: the kernel has pivot 2
    "C": [[3, 0, 0, 2, 0], [0, 3, 0, 1, 1], [0, 0, 3, 0, 2]],
    "R": [[1, 1, 0], [0, 0, 1]],  # a repeated column
    "P": [[1]],  # one column
}

CORPUS = [
    # README
    "toric validate --matrix {A}",
    "toric segre --left {I2} --right {I2} --census 2",
    "toric tensor --left {A} --right {B}",
    "toric kernel --matrix {A}",
    "toric census --matrix {A} --upto 6 --cap 100000",
    "--cap 100000 toric census --matrix {A} --upto 6",
    "hilbert coeff --series|num: 1 0 ; den: 2|--n 5",
    "hilbert shift --series|num: 1 0 ; den: 1|--a 2",
    "hilbert hadamard --left|num: 1 0 ; den: 2|--right|num: 1 0 ; den: 2",
    "hilbert window --series|num: 1 0 1 1 ; den: 3|--lo 0 --hi 6",
    "classify depth --dims 3,2 --ainv -3,-2 --shifts 0,-3",
    "classify cm-twist --rho 3,2 --a 2",
    "classify interval --rho 4,2",
    "classify anticanonical --rho 3,2",
    "classify power --rho 3,2 --a 2",
    "oracle friendly --ring1 x:3 --ring2 y:2 --shift1 2 --shift2 1 --window -6..6",
    "oracle friendly --toric1 {I2} --toric2 {I2} --shift1 1 --shift2 0 --window -4..4",
    # determinism commands of test_cli.py
    "classify interval --rho 6,3,2",
    "toric segre --left {I2} --right {I2} --census 3",
    "oracle friendly --ring1 x:3 --ring2 y:2 --shift1 2 --shift2 1",
    # more oracle runs: toric squares, truncated and Artinian quotients
    "oracle friendly --toric1 {I2} --toric2 {I2} --shift1 2 --shift2 -1 --window -3..3",
    "oracle friendly --toric1 {I3} --toric2 {I3} --shift1 1 --shift2 0 --window -1..1",
    "oracle friendly --toric1 {B} --toric2 {I2} --shift1 0 --shift2 1 --window -2..2",
    "oracle friendly --ring1|a,b:2 0,0 2|--ring2 c:3 --shift1 1 --shift2 0 --window -4..4",
    "oracle friendly --ring1|x,y:1 1|--ring2 z:2 --shift1 0 --shift2 1 --window -3..3",
    "oracle friendly --ring1 x,y --ring2 z --shift1 1 --shift2 0 --window -2..2",
    "--format text oracle friendly --ring1 x:4 --ring2 y:3 --shift1 1 --shift2 2",
    # edge reports: an interval with no ends (every integer twist is CM)
    # and a window where neither side has a nonzero degree
    "classify interval --rho 5,5,5",
    "oracle friendly --ring1 x:2 --ring2 y:2 --shift1 0 --shift2 0 --window 5..5",
    # parse forms: '=' values (negative too), a repeated flag or global
    # option (the last value wins)
    "classify cm-twist --rho=3,2 --a=-1",
    "classify depth --dims 3,2 --ainv=-3,-2 --shifts 0,-3",
    "--format=text classify interval --rho 4,2",
    "classify interval --rho 4,2 --rho 6,3,2",
    "--cap 5 --cap 100000 toric census --matrix {A} --upto 6",
    # ties and long integers in the twist criteria and the support scan:
    # two equal largest ratios, interval ends of 28 and 29 digits, every
    # s_i tied with 7 witnesses tied on q
    "classify interval --rho 9,6,4",
    "classify interval --rho 30000000000000000000000000000,10000000000000000000000000000,1",
    "classify power --rho 9,6,4 --a 2",
    "classify cm-twist --rho 14,14,13,13,12 --a 2",
    "classify depth --dims 2,3,4 --ainv 0,0,0 --shifts 0,0,0",
    # a quotient unit with a semigroup side, a semigroup unit, a
    # non-Artinian quotient unit, the tensor rule, a numerator divisible
    # by (1 - t)^2 and the Segre rule in text form
    "oracle friendly --ring1 x:3 --toric2 {I2} --shift1 0 --shift2 1 --window -2..3",
    "oracle friendly --toric1 {I2} --ring2 y:2 --shift1 0 --shift2 1 --window -2..3",
    "oracle friendly --ring1|x,y:2 0|--ring2 z:2 --shift1 1 --shift2 0 --window -3..3",
    "toric tensor --left {I2} --right {B} --census 4",
    "hilbert coeff --series|num: 1 0 -2 1 1 2 ; den: 3|--n 4",
    "--format text toric segre --left {I2} --right {I2} --census 2",
    # Hadamard products with a polynomial factor: on either side, with a
    # negative exponent, a series that reduces to 1 + t + t^2, two
    # polynomials and the zero series
    "hilbert hadamard --left|num: 1 0 2 1 1 2 ; den: 0|--right|num: 1 0 ; den: 2",
    "hilbert hadamard --left|num: 1 -1 1 0 ; den: 2|--right|num: 1 0 2 1 1 2 ; den: 0",
    "hilbert hadamard --left|num: 1 0 -1 3 ; den: 1|--right|num: 1 0 ; den: 2",
    "hilbert hadamard --left|num: 1 0 1 3 ; den: 0|--right|num: 2 1 1 3 ; den: 0",
    "hilbert hadamard --left|num: 1 0 -1 0 ; den: 1|--right|num: 1 0 ; den: 2",
    # depth reports: a dimension-1 factor, a module that is not
    # Cohen-Macaulay (depth 8 of 10), four factors, and a witness cap stop
    "classify depth --dims 1,3 --ainv -1,-3 --shifts 0,2",
    "classify depth --dims 4,3,5 --ainv -5,-1,-2 --shifts -2,3,0",
    "classify depth --dims 2,2,2,2 --ainv -2,-2,-2,-2 --shifts 1,-1,2,0",
    "--cap 3 classify depth --dims 2,2,2,2 --ainv 0,0,0,0 --shifts 0,0,0,0",
    # product kernels read off the factors: a factor kernel with pivot 2
    # on either side, a repeated column and a one-column factor
    "toric segre --left {B} --right {C}",
    "toric segre --left {C} --right {B}",
    "toric tensor --left {C} --right {B}",
    "toric segre --left {R} --right {A} --census 3",
    "toric tensor --left {R} --right {R}",
    "toric segre --left {P} --right {C}",
    "toric segre --left {C} --right {P}",
    "toric tensor --left {I2} --right {P} --census 3",
    # usage and domain errors print nothing on stdout
    "classify nonsense",
    "classify cm-twist --rho 2,3 --a 1",
]


def argv_of(command, paths):
    """Split on '|' when present (values with spaces), else on spaces."""
    if "|" in command:
        argv = []
        for pos, chunk in enumerate(command.split("|")):
            argv += [chunk] if pos % 2 else chunk.split()
    else:
        argv = command.split()
    return [tok.format(**paths) for tok in argv]


def write_matrices(directory):
    paths = {}
    for name, rows in MATRICES.items():
        path = os.path.join(directory, f"{name}.mat")
        with open(path, "w", encoding="ascii") as fh:
            fh.write(format_matrix(rows))
        paths[name] = path
    return paths


def run_captured(argv, capsys):
    code = run(argv)
    return code, capsys.readouterr().out


def load_golden():
    with open(GOLDEN, encoding="utf-8") as fh:
        return json.load(fh)


@pytest.mark.parametrize("command", CORPUS)
def test_golden_output(command, tmp_path, capsys):
    expected = load_golden()[command]
    code, out = run_captured(argv_of(command, write_matrices(str(tmp_path))), capsys)
    assert code == expected["exit"]
    assert out == expected["stdout"]


def record():
    import contextlib
    import io
    import tempfile

    golden = {}
    with tempfile.TemporaryDirectory() as tmp:
        paths = write_matrices(tmp)
        for command in CORPUS:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
                code = run(argv_of(command, paths))
            golden[command] = {"exit": code, "stdout": buf.getvalue()}
    with open(GOLDEN, "w", encoding="utf-8") as fh:
        json.dump(golden, fh, indent=1, sort_keys=True)
        fh.write("\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit("usage: python tests/test_golden.py --record")
    record()
