import json
import os
import subprocess
import sys

import pytest

import segrecm
from segrecm.cli import run
from segrecm.toric import format_matrix

from oracles import support_witnesses


@pytest.fixture
def i2_path(tmp_path):
    path = tmp_path / "I2.mat"
    path.write_text(format_matrix([[1, 0], [0, 1]]))
    return str(path)


def invoke(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, out


def invoke_json(capsys, argv):
    code, out = invoke(capsys, argv)
    assert code == 0, out
    return json.loads(out)


class TestReports:
    def test_envelope_fields(self, capsys):
        report = invoke_json(capsys, ["classify", "anticanonical", "--rho", "3,2"])
        assert set(report) == {"command", "inputs", "results", "assumptions", "version"}
        assert report["command"] == "classify anticanonical"
        assert report["results"]["is_cm"] is True
        assert report["assumptions"]

    def test_interval_payload(self, capsys):
        report = invoke_json(capsys, ["classify", "interval", "--rho", "4,2"])
        results = report["results"]
        assert results == {"kind": "open_interval", "lo": "-1", "hi": "2",
                           "integer_points": [0, 1]}

    def test_segre_with_census(self, capsys, i2_path):
        report = invoke_json(capsys, ["toric", "segre", "--left", i2_path,
                                      "--right", i2_path, "--census", "2"])
        results = report["results"]
        assert results["kernel"]["rank"] == 1
        assert results["kernel"]["vectors"] == [[1, -1, -1, 1]]
        assert results["census"] == [1, 4, 9]

    def test_depth_report(self, capsys):
        report = invoke_json(capsys, ["classify", "depth", "--dims", "3,2",
                                      "--ainv", "-3,-2", "--shifts", "0,-3"])
        results = report["results"]
        assert (results["dim"], results["depth"], results["is_cm"]) == (4, 2, False)
        assert results["witnesses"][0] == {"q": 2, "subset": [2], "lo": 0, "hi": 1}

    def test_depth_dimension_one_pair(self, capsys):
        report = invoke_json(capsys, ["classify", "depth", "--dims", "2,1",
                                      "--ainv", "-2,-1", "--shifts", "0,-1"])
        assert report["results"]["method"] == "subset-support"
        assert report["results"]["depth"] == 1

    def test_depth_dimension_one_contract(self, capsys):
        # depth is the least witness q, and witnesses are the exhaustive
        # Kunneth subsets in input order, whichever factor has dimension 1
        for dims in ((1, 1), (2, 1), (1, 2), (3, 1), (1, 3)):
            for ainv in ((-1, -1), (-2, -1), (-1, -2)):
                for s1 in range(-2, 3):
                    for s2 in range(-2, 3):
                        report = invoke_json(capsys, [
                            "classify", "depth", "--dims", "%d,%d" % dims,
                            "--ainv", "%d,%d" % ainv, "--shifts", f"{s1},{s2}"])
                        results = report["results"]
                        want = support_witnesses(list(zip(dims, ainv, (s1, s2))))
                        got = [(w["q"], tuple(w["subset"]), w["lo"], w["hi"])
                               for w in results["witnesses"]]
                        assert got == want, (dims, ainv, s1, s2)
                        assert results["depth"] == min(w[0] for w in want)
                        assert report["assumptions"][-1].startswith(
                            "two-factor case split with a dimension-1 factor")

    def test_depth_many_factors(self, capsys):
        # more factors than any subset loop could visit, one witness
        report = invoke_json(capsys, ["classify", "depth", "--dims", ",".join(["2"] * 200),
                                      "--ainv", ",".join(["-2"] * 200),
                                      "--shifts", ",".join(["0"] * 200)])
        results = report["results"]
        assert (results["dim"], results["depth"], results["is_cm"]) == (201, 201, True)
        assert [w["subset"] for w in results["witnesses"]] == [list(range(1, 201))]
        assert len(report["assumptions"]) == 2

    def test_hilbert_roundtrip(self, capsys):
        report = invoke_json(capsys, ["hilbert", "hadamard",
                                      "--left", "num: 1 0 ; den: 2",
                                      "--right", "num: 1 0 ; den: 2"])
        assert report["results"]["series"] == "num: 1 0 1 1 ; den: 3"
        report = invoke_json(capsys, ["hilbert", "window",
                                      "--series", "num: 1 0 1 1 ; den: 3",
                                      "--lo", "0", "--hi", "2"])
        assert report["results"]["values"] == [1, 4, 9]
        report = invoke_json(capsys, ["hilbert", "coeff",
                                      "--series", "num: 1 0 ; den: 2", "--n", "5"])
        assert report["results"]["coefficient"] == 6
        report = invoke_json(capsys, ["hilbert", "shift",
                                      "--series", "num: 1 0 ; den: 1", "--a", "2"])
        assert report["results"]["series"] == "num: 1 -2 ; den: 1"

    def test_oracle_friendly(self, capsys):
        report = invoke_json(capsys, ["oracle", "friendly", "--ring1", "x:3",
                                      "--ring2", "y:2", "--shift1", "2",
                                      "--shift2", "1", "--window", "-6..6"])
        results = report["results"]
        assert results["verdict"] == "not_friendly_certified"
        assert results["exact"] is True
        assert results["left_nonzero"] == {"1": 1, "2": 1}
        assert results["right_nonzero"] == {"2": 1}
        assert report["assumptions"] == []

    def test_oracle_friendly_toric(self, capsys, i2_path):
        report = invoke_json(capsys, ["oracle", "friendly",
                                      "--toric1", i2_path, "--toric2", i2_path,
                                      "--shift1", "1", "--shift2", "0",
                                      "--window", "-3..3"])
        assert report["results"]["verdict"] == "consistent"
        assert report["assumptions"]  # depth hypothesis recorded

    def test_text_format(self, capsys):
        code, out = invoke(capsys, ["--format", "text", "classify",
                                    "anticanonical", "--rho", "3,2"])
        assert code == 0
        assert "results.is_cm: true" in out


class TestDeterminism:
    def test_byte_identical_runs(self, capsys, i2_path):
        commands = [
            ["classify", "interval", "--rho", "6,3,2"],
            ["toric", "segre", "--left", i2_path, "--right", i2_path,
             "--census", "3"],
            ["oracle", "friendly", "--ring1", "x:3", "--ring2", "y:2",
             "--shift1", "2", "--shift2", "1"],
        ]
        for argv in commands:
            first = invoke(capsys, argv)
            second = invoke(capsys, argv)
            assert first == second


class TestExitCodes:
    def test_usage_error(self, capsys):
        assert run(["classify", "nonsense"]) == 2
        assert run([]) == 2
        assert run(["hilbert", "coeff", "--series", "garbage", "--n", "1"]) == 2

    def test_domain_error(self, capsys, tmp_path):
        assert run(["classify", "cm-twist", "--rho", "2,3", "--a", "1"]) == 3
        bad = tmp_path / "bad.mat"
        bad.write_text(format_matrix([[1, 2]]))
        assert run(["toric", "kernel", "--matrix", str(bad)]) == 3
        assert run(["classify", "power", "--rho", "3,3", "--a", "2"]) == 3
        # three factors with a dimension 1 entry have no supported formula,
        # and no number of factors allows dimension 0
        assert run(["classify", "depth", "--dims", "2,2,1",
                    "--ainv", "-1,-1,-1", "--shifts", "0,0,0"]) == 3
        assert run(["classify", "depth", "--dims", "0,2",
                    "--ainv", "-1,-1", "--shifts", "0,0"]) == 3

    def test_resource_cap(self, capsys, i2_path):
        assert run(["--cap", "5", "toric", "census", "--matrix", i2_path,
                    "--upto", "9"]) == 4

    def test_negative_cap_is_usage_error(self, capsys, i2_path):
        # a cap of 0 is valid: the census needs one point in degree 0
        for argv, at_zero in ((["toric", "census", "--matrix", i2_path, "--upto", "2"], 4),
                              (["classify", "interval", "--rho", "4,2"], 0)):
            assert run(["--cap", "-1"] + argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and "--cap" in err
            assert run(["--cap", "0"] + argv) == at_zero

    def test_oracle_resource_cap(self, capsys):
        assert run(["--cap", "10", "oracle", "friendly", "--ring1", "a,b,c,d",
                    "--ring2", "e,f,g,h", "--shift1", "0", "--shift2", "0",
                    "--window", "0..6"]) == 4
        err = capsys.readouterr().err
        assert "monomial quotient K[a,b,c,d]" in err and "cap of 10" in err

    def test_hilbert_window_resource_cap(self, capsys):
        assert run(["--cap", "10", "hilbert", "window", "--series",
                    "num: 1 0 ; den: 1", "--lo", "0", "--hi", "300000"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "series window [0, 300000]" in err and "cap of 10" in err

    def test_hilbert_hadamard_resource_cap(self, capsys):
        assert run(["--cap", "10", "hilbert", "hadamard", "--left", "num: 1 0 ; den: 2",
                    "--right", "num: 1 0 1 100000 ; den: 2"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "Hadamard coefficient stream" in err and "cap of 10" in err

    def test_hilbert_hadamard_work_cap(self, capsys):
        # the stream of 2,005 terms is under the cap, but multiplying it
        # by (1 - t)^3999 takes 2,005 x 4,000 products
        assert run(["--cap", "10000", "hilbert", "hadamard",
                    "--left", "num: 1 0 ; den: 2000",
                    "--right", "num: 1 0 ; den: 2000"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "Hadamard numerator" in err and "cap of 10000" in err

    def test_depth_witness_cap(self, capsys):
        # all 63 nonempty subsets of six equal factors are witnesses
        assert run(["--cap", "10", "classify", "depth", "--dims", "2,2,2,2,2,2",
                    "--ainv", "0,0,0,0,0,0", "--shifts", "0,0,0,0,0,0"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "depth witnesses" in err and "cap of 10" in err
        # 2^15000 witnesses: the count in the message stays short enough
        # to print (a 4,516-digit int would not convert to str)
        many = ",".join(["0"] * 15000)
        assert run(["--cap", "10", "classify", "depth", "--dims", ",".join(["2"] * 15000),
                    "--ainv", many, "--shifts", many]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "depth witnesses" in err and len(err) < 200

    def test_help_exits_clean(self, capsys):
        assert run(["--help"]) == 0


class TestModuleEntry:
    def test_python_dash_m(self):
        src = os.path.dirname(os.path.dirname(segrecm.__file__))
        env = dict(os.environ, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-m", "segrecm.cli", "classify", "interval", "--rho", "4,2"],
            capture_output=True, text=True, env=env, timeout=60)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["integer_points"] == [0, 1]
