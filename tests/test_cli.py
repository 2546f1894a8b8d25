import contextlib
import io
import json
import os
import subprocess
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import segrecm
from segrecm.cli import (COMMANDS, GLOBALS, INT, MATRIX, RING, SERIES, TORIC, _cap,
                         _format_series, _int_list, _window, run)
from segrecm.series import HilbertSeries as H
from segrecm.toric import validate
from oracles import format_matrix, support_witnesses


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
                        want = support_witnesses([(d, -a, alpha - a) for d, alpha, a
                                                  in zip(dims, ainv, (s1, s2))])
                        got = [(w["q"], tuple(w["subset"]), w["lo"], w["hi"])
                               for w in results["witnesses"]]
                        assert got == want, (dims, ainv, s1, s2)
                        assert results["depth"] == min(w[0] for w in want)
                        assert report["assumptions"][-1].startswith(
                            "subset support analysis with a dimension-1 factor")

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
        # an Artinian factor: (1 + t + t^2) times the stream n + 1
        report = invoke_json(capsys, ["hilbert", "hadamard",
                                      "--left", "num: 1 0 1 1 1 2 ; den: 0",
                                      "--right", "num: 1 0 ; den: 2"])
        assert report["results"]["series"] == "num: 1 0 2 1 3 2 ; den: 0"

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
        assert report["results"]["exact"] is True
        assert report["assumptions"]  # depth hypothesis recorded

    def test_oracle_friendly_depth_one_quartic(self, capsys, i2_path, tmp_path):
        # the rational quartic K[s^4, s^3 t, s t^3, t^4] has depth 1, and
        # its duals do not commute with the Segre product
        quartic = tmp_path / "Q.mat"
        quartic.write_text(format_matrix([[4, 3, 1, 0], [0, 1, 3, 4]]))
        for other, shift1, mismatch, left, right in ((i2_path, 1, 2, 15, 12),
                                                      (str(quartic), 2, 3, 65, 52)):
            report = invoke_json(capsys, ["oracle", "friendly", "--toric1", str(quartic),
                                          "--toric2", other, "--shift1", str(shift1),
                                          "--shift2", "0", "--window", "-3..3"])
            results = report["results"]
            assert results["verdict"] == "not_friendly_certified"
            assert results["exact"] is True
            assert results["mismatch_degrees"] == [mismatch]
            assert results["left_dims"][mismatch + 3] == left
            assert results["right_dims"][mismatch + 3] == right

    def test_oracle_friendly_non_artinian_is_exact(self, capsys):
        # K[x,y]/(xy) # K[z,w]/(zw) twisted by (1, 0): the non-Artinian pair
        # is counted exactly, and degree 1 certifies the mismatch
        report = invoke_json(capsys, ["oracle", "friendly", "--ring1", "x,y:1 1",
                                      "--ring2", "z,w:1 1", "--shift1", "1",
                                      "--shift2", "0", "--window", "-3..3"])
        results = report["results"]
        assert results["exact"] is True
        assert results["verdict"] == "not_friendly_certified"
        assert results["mismatch_degrees"] == [1]
        assert (results["left_dims"][4], results["right_dims"][4]) == (4, 2)

    def test_oracle_friendly_polynomial_rings_match_toric(self, capsys, tmp_path):
        # relation-free specs are semigroup rings: K[x,y,z] # K[u,v,w] is I3 # I3
        i3 = tmp_path / "I3.mat"
        i3.write_text(format_matrix([[1, 0, 0], [0, 1, 0], [0, 0, 1]]))
        shifts = ["--shift1", "1", "--shift2", "0", "--window", "-3..3"]
        start = time.perf_counter()
        report = invoke_json(capsys, ["oracle", "friendly", "--ring1", "x,y,z",
                                      "--ring2", "u,v,w"] + shifts)
        elapsed = time.perf_counter() - start
        toric = invoke_json(capsys, ["oracle", "friendly", "--toric1", str(i3),
                                     "--toric2", str(i3)] + shifts)
        assert report["results"]["left_dims"] == toric["results"]["left_dims"] == \
            [0, 0, 0, 0, 3, 18, 60]
        assert report["results"]["exact"] is True
        assert elapsed < 0.05, f"took {elapsed * 1000:.1f} ms"

    def test_text_format(self, capsys):
        code, out = invoke(capsys, ["--format", "text", "classify",
                                    "anticanonical", "--rho", "3,2"])
        assert code == 0
        assert "results.is_cm: true" in out

    def test_text_format_sorts_nested_keys(self, capsys):
        # dicts inside lists print with their keys sorted too
        code, out = invoke(capsys, ["--format", "text", "classify", "depth", "--dims", "3,2",
                                    "--ainv", "-3,-2", "--shifts", "0,-3"])
        assert code == 0
        assert ('results.witnesses: [{"hi": 1, "lo": 0, "q": 2, "subset": [2]}, '
                '{"hi": -3, "lo": null, "q": 4, "subset": [1, 2]}]\n') in out


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
        bad, empty = tmp_path / "bad.mat", tmp_path / "empty.mat"
        bad.write_text(format_matrix([[1, 2]]))
        empty.write_text("0 0\n")
        assert run(["toric", "kernel", "--matrix", str(bad)]) == 3
        assert run(["toric", "validate", "--matrix", str(empty)]) == 3
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

    def test_split_census_resource_cap(self, capsys, i2_path):
        # the factor censuses are lazy, so a huge bound stops at the cap
        assert run(["--cap", "5", "toric", "segre", "--left", i2_path, "--right", i2_path,
                    "--census", "1000000"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: resource cap: semigroup census: "
                                     "needs at least 14 entries, over the cap of 5\n")

    def test_negative_cap_is_usage_error(self, capsys, i2_path):
        # a cap of 0 is valid: the census needs one point in degree 0
        for argv, at_zero in ((["toric", "census", "--matrix", i2_path, "--upto", "2"], 4),
                              (["classify", "anticanonical", "--rho", "4,2"], 0)):
            assert run(["--cap", "-1"] + argv) == 2
            out, err = capsys.readouterr()
            assert out == "" and "--cap" in err
            assert run(["--cap", "0"] + argv) == at_zero

    def test_interval_points_stop_at_cap(self, capsys):
        # the open interval (-1, 2) holds the two points 0 and 1
        argv = ["classify", "interval", "--rho", "4,2"]
        for cap in ("0", "1"):
            assert run(["--cap", cap] + argv) == 4
            out, err = capsys.readouterr()
            assert out == "" and err == ("error: resource cap: integer points of the interval: "
                                         f"needs at least 2 entries, over the cap of {cap}\n")
        assert invoke_json(capsys, ["--cap", "2"] + argv)["results"]["integer_points"] == [0, 1]

    @pytest.mark.parametrize("argv, what", [
        (["classify", "interval", "--rho", "1000001,1000000"], "integer points of the interval"),
        (["classify", "interval", "--rho", "1000000000001,1000000000000"],
         "integer points of the interval")])
    def test_twist_commands_stop_at_the_default_cap(self, capsys, argv, what):
        # the points are counted before any is built
        start = time.perf_counter()
        code = run(argv)
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (4, "") and elapsed < 2
        assert what in err and "cap of 1000000" in err

    @pytest.mark.parametrize("m, a", [(4000, "1000000"), (708, "-1")])
    def test_long_chains_answer_under_the_default_cap(self, capsys, m, a):
        # the chain form makes the m - 1 comparisons of the other forms, so
        # it builds no power of the twist and has nothing to cap
        start = time.perf_counter()
        results = invoke_json(capsys, ["classify", "cm-twist", "--rho", ",".join(["1"] * m),
                                       "--a", a])["results"]
        assert time.perf_counter() - start < 2
        assert results["is_cm"] == results["is_cm_raw"] == results["chain"]

    def test_oracle_resource_cap(self, capsys):
        assert run(["--cap", "10", "oracle", "friendly", "--ring1", "a,b,c,d",
                    "--ring2", "e,f,g,h", "--shift1", "0", "--shift2", "0",
                    "--window", "0..6"]) == 4
        err = capsys.readouterr().err
        assert "labels of K[a,b,c,d]" in err and "cap of 10" in err

    def test_toric_oracle_resource_cap(self, capsys, i2_path):
        # the factor semigroup layers hold 15 points each, the Hom candidates 30 tests
        assert run(["--cap", "20", "oracle", "friendly", "--toric1", i2_path,
                    "--toric2", i2_path, "--shift1", "1", "--shift2", "0",
                    "--window", "-4..4"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: resource cap: toric Hom candidates: "
                                     "needs at least 30 entries, over the cap of 20\n")

    def test_monomial_oracle_resource_cap(self, capsys):
        # the labels and the window fit the cap; the Hom signatures do not
        assert run(["--cap", "14", "oracle", "friendly", "--ring1", "a,b:2 0,0 2",
                    "--ring2", "c:3", "--shift1", "1", "--shift2", "0",
                    "--window", "-4..4"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: resource cap: monomial Hom candidates: "
                                     "needs at least 15 entries, over the cap of 14\n")

    def test_zero_twisted_module_is_domain_error(self, capsys):
        # K[x]/(x^2)(3) lives in degrees -3..-2 and K[y]/(y^2) in 0..1
        assert run(["oracle", "friendly", "--ring1", "x:2", "--ring2", "y:2",
                    "--shift1", "3", "--shift2", "0"]) == 3
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: WindowTooSmall: ")

    def test_hilbert_window_reversed_bounds(self, capsys):
        assert run(["hilbert", "window", "--series", "num: 1 0 ; den: 1",
                    "--lo", "5", "--hi", "3"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and err == "error: window lo 5 exceeds hi 3\n"

    def test_hilbert_window_bits_cap_boundary(self, capsys):
        # each of C(10, 2), C(11, 2), C(12, 2) has at most
        # min(2, 10) * bit_length(12) = 8 bits, 24 in all
        argv = ["hilbert", "window", "--series", "num: 1 0 ; den: 3", "--lo", "8", "--hi", "10"]
        assert invoke_json(capsys, ["--cap", "24", *argv])["results"]["values"] == [45, 55, 66]
        assert run(["--cap", "23", *argv]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "series window [8, 10]" in err and "24 bits" in err

    def test_hilbert_window_resource_cap(self, capsys):
        assert run(["--cap", "10", "hilbert", "window", "--series",
                    "num: 1 0 ; den: 1", "--lo", "0", "--hi", "300000"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "series window [0, 300000]" in err and "cap of 10" in err

    def test_oracle_window_resource_cap(self, capsys, i2_path):
        # the window is counted before any degree of it is visited
        assert run(["--cap", "1000", "oracle", "friendly", "--toric1", i2_path,
                    "--toric2", i2_path, "--shift1", "0", "--shift2", "0",
                    "--window", "-200000..0"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "hom window [-200000, 0]" in err and "cap of 1000" in err

    def test_oracle_long_quotient_window_stops_at_once(self, capsys):
        # the n_max + 1 levels of each quotient are counted before padding
        start = time.perf_counter()
        assert run(["oracle", "friendly", "--ring1", "x:2", "--ring2", "y:2",
                    "--shift1", "0", "--shift2", "0", "--window", "0..1200000"]) == 4
        assert time.perf_counter() - start < 1.0
        out, err = capsys.readouterr()
        assert out == "" and "labels of K[x]/(x^2)" in err

    def test_repeated_variable_is_usage_error(self, capsys):
        assert run(["oracle", "friendly", "--ring1", "x,x:2 0", "--ring2", "y:2",
                    "--shift1", "0", "--shift2", "0", "--window", "0..1"]) == 2
        out, err = capsys.readouterr()
        assert out == "" and "repeats a variable name" in err

    def test_series_reader_stops_at_the_default_cap(self, capsys):
        # the flag type builds the series before --cap is read, so the
        # default cap bounds the 2,999,999 exponents (1 - t^3000000) / (1 - t) fills in
        assert run(["--cap", "10", "hilbert", "coeff", "--series", "num: 1 0 -1 3000000 ; den: 1",
                    "--n", "5"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and err == ("error: resource cap: series numerator: needs at least "
                                     "2999999 entries, over the cap of 1000000\n")

    def test_hilbert_hadamard_resource_cap(self, capsys):
        assert run(["--cap", "10", "hilbert", "hadamard", "--left", "num: 1 0 ; den: 2",
                    "--right", "num: 1 0 1 100000 ; den: 2"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "Hadamard coefficient stream" in err and "cap of 10" in err

    def test_hilbert_hadamard_polynomial_factor_under_a_large_cap(self, capsys):
        # the gap of 1,000,003 exponents is past the default cap, but the
        # product with a polynomial lives on its two terms, so nothing
        # divides across the gap
        assert run(["--cap", "3000000", "hilbert", "hadamard",
                    "--left", "num: 1 0 1 1000003 ; den: 0", "--right", "num: 1 0 ; den: 2"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and '"series": "num: 1 0 1000004 1000003 ; den: 0"' in out

    def test_hilbert_hadamard_polynomial_factor_costs_its_terms(self, capsys):
        # two coefficients, not one per degree up to 2,000,000
        start = time.perf_counter()
        code = run(["--cap", "10000000", "hilbert", "hadamard",
                    "--left", "num: 1 0 1 2000000 ; den: 0", "--right", "num: 1 0 ; den: 2"])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, err) == (0, "") and elapsed < 1
        assert '"series": "num: 1 0 2000001 2000000 ; den: 0"' in out

    def test_hilbert_hadamard_cap_counts_the_polynomial_terms(self, capsys):
        # the cap counts the polynomial's 2 terms, not the 101 degrees they span
        assert run(["--cap", "10", "hilbert", "hadamard",
                    "--left", "num: 1 0 1 100 ; den: 0", "--right", "num: 1 0 ; den: 2"]) == 0
        out, err = capsys.readouterr()
        assert err == "" and '"series": "num: 1 0 101 100 ; den: 0"' in out
        assert run(["--cap", "2", "hilbert", "hadamard",
                    "--left", "num: 1 0 1 1 1 100 ; den: 0", "--right", "num: 1 0 ; den: 2"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "Hadamard coefficient stream" in err
        assert "needs at least 3 entries" in err

    def test_hilbert_hadamard_work_cap(self, capsys):
        # the stream of 2,000 terms is under the cap, but multiplying it
        # by (1 - t)^3999 takes 2,000 x 4,000 products
        assert run(["--cap", "10000", "hilbert", "hadamard",
                    "--left", "num: 1 0 ; den: 2000",
                    "--right", "num: 1 0 ; den: 2000"]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "Hadamard numerator" in err and "cap of 10000" in err

    @pytest.mark.parametrize("den, n", [("100000", "10000000"), ("300000", "100000000")])
    def test_hilbert_coeff_binomial_cap(self, capsys, den, n):
        # C(n + den - 1, den - 1) would take seconds to build; its size
        # bound stops the run first
        start = time.perf_counter()
        code = run(["hilbert", "coeff", "--series", f"num: 1 0 ; den: {den}", "--n", n])
        elapsed = time.perf_counter() - start
        out, err = capsys.readouterr()
        assert (code, out) == (4, "") and elapsed < 0.1
        assert f"series coefficient t^{n}" in err and "cap of 1000000" in err

    def test_hilbert_coeff_binomial_cap_boundary(self, capsys):
        # C(12, 2) = 66 has at most min(2, 10) * bit_length(12) = 8 bits
        argv = ["hilbert", "coeff", "--series", "num: 1 0 ; den: 3", "--n", "10"]
        assert invoke_json(capsys, ["--cap", "8", *argv])["results"]["coefficient"] == 66
        assert run(["--cap", "7", *argv]) == 4
        out, err = capsys.readouterr()
        assert out == "" and "up to 8 bits, over the cap of 7" in err

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

    def test_report_integer_over_digit_limit(self, capsys):
        # C(100000 + 2999, 2999) has more digits than str() converts at the
        # interpreter's default limit; the report cannot be printed
        series_text = "num: 1 0 ; den: 3000"
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(4300)
        try:
            for argv in (["hilbert", "coeff", "--series", series_text, "--n", "100000"],
                         ["--format", "text", "hilbert", "coeff", "--series", series_text,
                          "--n", "100000"],
                         ["hilbert", "window", "--series", series_text,
                          "--lo", "99999", "--hi", "100000"]):
                assert run(argv) == 4, argv
                out, err = capsys.readouterr()
                assert out == ""
                assert err.startswith("error: resource cap: report integer") and "4300" in err
        finally:
            sys.set_int_max_str_digits(limit)


# flag values by the type in the flag's spec, well formed and malformed;
# {name} is a matrix file the test writes, or none; files and ring specs
# draw from one pool, so each flag also meets the other's values
FILES_AND_RINGS = ("x:3", "y:2", "x,y:2 0,0 2", "x,x:2 0", "{I2}", "{Q}", "{bad}", "{missing}")
VALUES = {
    INT["type"]: ("0", "1", "-2", "5", "40", "10000000", "100000000", "x"),
    _cap: ("0", "10", "100000", "1000000", "-1"),
    _int_list: ("4,2", "3,2,1", "-3,-2", "2,2,2", "0,-3", "1,,x"),
    _window: ("-6..6", "0..3", "-2..2", "3..0"),
    SERIES["type"]: ("num: 1 0 ; den: 2", "num: 1 -1 2 3 ; den: 3", "num: 1 0 ; den: 0",
                     "num: 1 0 ; den: 100000", "num: 1 0 ; den: 300000", "num: 1 0"),
    MATRIX["type"]: FILES_AND_RINGS,
    RING["type"]: FILES_AND_RINGS,
    TORIC["type"]: FILES_AND_RINGS,
}
ANY_VALUE = st.sampled_from(sorted({value for pool in VALUES.values() for value in pool}))
MATRIX_FILES = {"I2": format_matrix([[1, 0], [0, 1]]),
                "Q": format_matrix([[4, 3, 1, 0], [0, 1, 3, 4]]),
                "bad": "2 2\n1 0\n"}


def _draw_flags(draw, spec, noisy):
    """Flags of spec, optional ones half the time, each with a value of its
    type; when noisy, two times in seven any value or none instead."""
    argv = []
    for flag, keys in spec.items():
        if not keys.get("required") and draw(st.booleans()):
            continue
        typed = st.sampled_from(keys.get("choices") or VALUES[keys["type"]])
        value = draw(st.one_of(typed, typed, typed, typed, typed, ANY_VALUE, st.none())
                     if noisy else typed)
        if value is not None:
            argv += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    return argv


@st.composite
def argvs(draw):
    """A command line from GLOBALS and COMMANDS, now and then with --guard."""
    command = draw(st.sampled_from(list(COMMANDS)))
    subcommand = draw(st.sampled_from(list(COMMANDS[command][1])))
    noisy = draw(st.booleans())
    argv = [*_draw_flags(draw, GLOBALS, noisy), command, subcommand,
            *_draw_flags(draw, COMMANDS[command][1][subcommand][1], noisy)]
    return argv + ["--guard", "5"] if draw(st.integers(0, 9)) == 5 else argv


@pytest.fixture(scope="module")
def matrix_paths(tmp_path_factory):
    """{name: path} of MATRIX_FILES, written, and of "missing", not."""
    folder = tmp_path_factory.mktemp("matrices")
    for name, text in MATRIX_FILES.items():
        (folder / f"{name}.mat").write_text(text)
    return {name: str(folder / f"{name}.mat") for name in (*MATRIX_FILES, "missing")}


class TestEndings:
    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(argv=argvs())
    @example(argv=["hilbert", "hadamard", "--left", "num: 1 0 ; den: 2",
                   "--right", "num: 1 0 ; den: 2", "--guard", "5"])
    @example(argv=["hilbert", "coeff", "--series", "num: 1 0 ; den: 100000", "--n", "10000000"])
    @example(argv=["hilbert", "coeff", "--series", "num: 1 0 ; den: 300000", "--n", "100000000"])
    @example(argv=["hilbert", "window", "--series", "num: 1 0 ; den: 100000",
                   "--lo", "0", "--hi", "100000"])
    @example(argv=["oracle", "friendly", "--ring1", "x,y:2 0,0 2", "--toric2", "{Q}",
                   "--shift1", "100000000", "--shift2", "0"])
    def test_every_run_ends_in_a_documented_exit(self, matrix_paths, argv):
        argv = [tok.format(**matrix_paths) for tok in argv]
        out = io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = run(argv)
        assert time.perf_counter() - start < 2, argv
        assert code in (0, 2, 3, 4), argv
        assert code == 0 or out.getvalue() == "", argv


class TestParse:
    # stdout only: stderr wording is not part of the contract

    @pytest.mark.parametrize("argv", [["--help"], ["-h"], ["toric", "--help"],
                                      ["toric", "census", "--help"],
                                      ["--cap", "5", "classify", "interval", "-h"]])
    def test_help_names_every_flag(self, capsys, argv):
        code, out = invoke(capsys, argv)
        assert code == 0
        # each line's first two words -> its words, brackets stripped
        words = {tuple(line.split()[:2]): {word.strip("[]") for word in line.split()}
                 for line in out.splitlines() if line.strip()}
        assert {"--format", "--cap"} <= words["usage:", "segrecm"]
        for command, (_, subcommands) in COMMANDS.items():
            for name, (_, flags) in subcommands.items():
                assert set(flags) <= words[command, name], (command, name)

    @pytest.mark.parametrize("argv", [
        [],
        ["--format", "text"],
        ["nonsense", "interval", "--rho", "4,2"],
        ["classify", "nonsense", "--rho", "4,2"],
        ["classify", "interval", "--rho", "4,2", "--bogus", "1"],
        ["classify", "interval", "--rh", "4,2"],
        ["classify", "cm-twist", "--rho", "3,2"],
        ["classify", "interval", "--rho"],
        ["classify", "interval", "--rho", "4,2", "extra"],
        ["--format", "xml", "classify", "interval", "--rho", "4,2"],
        ["classify", "interval", "--rho", "4,2", "--format", "text"],
        ["classify", "--cap", "5", "interval", "--rho", "4,2"],
        ["classify", "cm-twist", "--rho", "3,2", "--a", "x"],
        ["--cap", "x", "classify", "interval", "--rho", "4,2"],
        ["hilbert", "hadamard", "--left", "num: 1 0 ; den: 2", "--right", "num: 1 0 ; den: 2",
         "--guard", "5"],
        ["hilbert", "coeff", "--series", "num: 1 0 ; den: -1", "--n", "1"],
        ["classify", "depth", "--dims", "2,3", "--ainv", "-2", "--shifts", "0,0"],
        ["classify", "depth", "--dims", "", "--ainv", "", "--shifts", ""],
        ["toric", "census", "--matrix", "{I2}", "--upto", "-1"],
        ["toric", "segre", "--left", "{I2}", "--right", "{I2}", "--census", "-1"],
    ])
    def test_usage_errors_exit_2_with_empty_stdout(self, capsys, argv, i2_path):
        assert invoke(capsys, [tok.format(I2=i2_path) for tok in argv]) == (2, "")


MATRIX_ARGV = ["toric", "validate", "--matrix", "{file}"]
SERIES_ARGV = ["hilbert", "coeff", "--n", "1", "--series"]
FRIENDLY_ARGV = ["oracle", "friendly", "--ring2", "y:2", "--shift1", "0", "--shift2", "0"]


class TestUsageMessages:
    # argv, the text of the file {file} names (or None), the stderr line
    @pytest.mark.parametrize("argv, file_text, message", [
        (MATRIX_ARGV, "", "--matrix: empty matrix text"),
        (MATRIX_ARGV, "2\n1 2", "--matrix: matrix header must be 'r n', got '2'"),
        (MATRIX_ARGV, "2 2\n1 0\n", "--matrix: expected 2 matrix rows, found 1"),
        (MATRIX_ARGV, "1 2\n1", "--matrix: expected 2 entries in row '1'"),
        (MATRIX_ARGV, "1 2\n1 x", "--matrix: bad integer in matrix row '1 x'"),
        (SERIES_ARGV + ["num: 1 0 den: 2"],
         None, "--series: series text needs one ';': 'num: 1 0 den: 2'"),
        (SERIES_ARGV + ["1 0 ; den: 2"],
         None, "--series: series text needs 'num:' and 'den:' markers: '1 0 ; den: 2'"),
        (SERIES_ARGV + ["num: 1 ; den: 2"], None,
         "--series: numerator tokens must come in (coeff, exponent) pairs: 'num: 1 ; den: 2'"),
        (SERIES_ARGV + ["num: x 0 ; den: 2"],
         None, "--series: bad integer in series text 'num: x 0 ; den: 2'"),
        (FRIENDLY_ARGV + ["--ring1", "x:q"], None, "--ring1: bad relation in ring spec 'x:q'"),
        (["classify", "interval", "--rho", "1,x"],
         None, "--rho: expects comma separated integers, got '1,x'"),
        (FRIENDLY_ARGV + ["--ring1", "x:3", "--window", "3..0"],
         None, "--window: expects 'lo..hi' with lo <= hi, got '3..0'"),
        # a scalar integer flag names its expected form, like the lists
        (FRIENDLY_ARGV + ["--ring1", "x:3", "--window", "x..0"],
         None, "--window: expects 'lo..hi' with lo <= hi, got 'x..0'"),
        (["--cap", "x", "classify", "interval", "--rho", "4,2"],
         None, "--cap: expects a nonnegative integer, got 'x'"),
        (["--cap", "-1", "classify", "interval", "--rho", "4,2"],
         None, "--cap: expects a nonnegative integer, got '-1'"),
        (["hilbert", "coeff", "--n", "1.5", "--series", "num: 1 0 ; den: 2"],
         None, "--n: expects an integer, got '1.5'"),
        (["hilbert", "shift", "--series", "num: 1 0 ; den: 2", "--a", "x"],
         None, "--a: expects an integer, got 'x'"),
        (["toric", "census", "--upto", "x", "--matrix", "{file}"],
         None, "--upto: expects an integer, got 'x'"),
        (["toric", "segre", "--census", "x"], None, "--census: expects an integer, got 'x'"),
        (FRIENDLY_ARGV + ["--shift1", "x"], None, "--shift1: expects an integer, got 'x'"),
        # a matrix file that cannot be opened
        (["toric", "census", "--matrix", "{file}", "--upto", "2"],
         None, "--matrix: [Errno 2] No such file or directory: '{file}'"),
    ])
    def test_usage_error_message(self, capsys, tmp_path, argv, file_text, message):
        path = tmp_path / "bad.mat"
        if file_text is not None:
            path.write_text(file_text)
        code = run([tok.format(file=path) for tok in argv])
        out, err = capsys.readouterr()
        assert (code, out, err) == (2, "", f"error: {message.format(file=path)}\n")


# the text formats, read by the flag types that consume them


class TestMatrixFormat:
    CUBIC = validate([[1, 1, 1], [0, 1, 2]])

    def test_round_trip(self, tmp_path):
        path = tmp_path / "cubic.mat"
        path.write_text(format_matrix(self.CUBIC.matrix))
        assert MATRIX["type"](str(path)) == self.CUBIC

    def test_parse_errors(self, tmp_path):
        path = tmp_path / "bad.mat"
        for bad in ("", "2\n1 2", "1 2\n1", "1 2\n1 x"):
            path.write_text(bad)
            with pytest.raises(ValueError):
                MATRIX["type"](str(path))


class TestTextEncoding:
    TWISTED = H([(0, 1), (1, 1)], 3)     # (1+t)/(1-t)^3

    def test_round_trip(self):
        for h in (H([(0, 1)], 2), self.TWISTED, H([(0, 1), (1, 1), (2, 1)], 0), H([], 0),
                  H([(-2, 3)], 1)):
            assert SERIES["type"](_format_series(h)) == h

    def test_format(self):
        assert _format_series(self.TWISTED) == "num: 1 0 1 1 ; den: 3"
        assert _format_series(H([], 0)) == "num: ; den: 0"

    def test_parse_errors(self):
        for bad in ("num: 1 ; den: 2", "1 0 ; den: 2", "num: 1 0 den: 2",
                    "num: x 0 ; den: 2"):
            with pytest.raises(ValueError):
                SERIES["type"](bad)


class TestRingSpec:
    # the name shows the variables, the relations their exponent vectors
    def test_single_variable(self):
        ring = RING["type"]("x:3")
        assert (ring.name, ring.relations) == ("K[x]/(x^3)", ((3,),))

    def test_multi_variable(self):
        ring = RING["type"]("x,y:2 0,0 2")
        assert (ring.name, ring.relations) == ("K[x,y]/(x^2, y^2)", ((2, 0), (0, 2)))

    def test_polynomial_ring(self):
        ring = RING["type"]("x,y")
        assert (ring.name, ring.relations) == ("K[x,y]", ())

    def test_errors(self):
        with pytest.raises(ValueError, match="bad relation"):
            RING["type"]("x:q")

    @pytest.mark.parametrize("spec, match", [
        ("", "at least one variable"), (":3", "at least one variable"),
        ("x,x", "repeats a variable name"), ("x,x:2 0", "repeats a variable name"),
        ("x y:3", "not an identifier"), ("x^2:3", "not an identifier"),
        ("x:1 2", "bad relation exponent vector"), ("x,y:1 -1", "bad relation exponent vector"),
        ("x,y:0 0", "bad relation exponent vector")])
    def test_monomial_factor_rejects(self, spec, match):
        with pytest.raises(ValueError, match=match):
            RING["type"](spec)


class TestModuleEntry:
    def test_python_dash_m(self):
        proc = python_child(["-m", "segrecm.cli", "classify", "interval", "--rho", "4,2"])
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["results"]["integer_points"] == [0, 1]

    def test_closed_stdout_ends_quietly(self, i2_path):
        # the read end is closed before the child starts, so the first
        # write fails whatever the timing
        for argv in (["--help"], ["toric", "census", "--matrix", i2_path, "--upto", "3"]):
            read_end, write_end = os.pipe()
            os.close(read_end)
            try:
                proc = python_child(["-m", "segrecm.cli", *argv], stdout=write_end)
            finally:
                os.close(write_end)
            assert (proc.returncode, proc.stderr) == (141, ""), (argv, proc.stderr)

    # the library modules each command group loads, beyond cli and errors
    LOADS = [([], set()),
             (["classify", "interval", "--rho", "4,2"], {"cohomo"}),
             (["hilbert", "coeff", "--series", "num: 1 0 ; den: 2", "--n", "5"], {"series"}),
             (["toric", "census", "--matrix", "{I2}", "--upto", "3"], {"toric", "linalg"}),
             (["oracle", "friendly", "--ring1", "x:3", "--ring2", "y:2",
               "--shift1", "2", "--shift2", "1"], {"oracle"}),
             (["oracle", "friendly", "--toric1", "{I2}", "--ring2", "y:2",
               "--shift1", "1", "--shift2", "0"], {"oracle", "toric", "linalg"})]

    @pytest.mark.parametrize("argv, modules", LOADS, ids=[
        "import", "classify", "hilbert", "toric", "oracle-ring", "oracle-toric"])
    def test_command_imports_only_its_modules(self, argv, modules, i2_path):
        # import segrecm.cli, run argv unless it is empty, list segrecm's modules
        script = ("import contextlib, io, sys\n"
                  "from segrecm.cli import run\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    code = run(sys.argv[1:]) if sys.argv[1:] else 0\n"
                  "print(code, *sorted(m for m in sys.modules if m.startswith('segrecm.')))\n")
        proc = python_child(["-c", script, *(tok.format(I2=i2_path) for tok in argv)])
        assert proc.returncode == 0, proc.stderr
        code, *loaded = proc.stdout.split()
        assert code == "0", proc.stderr
        assert loaded == sorted(f"segrecm.{name}" for name in {"cli", "errors", *modules})

    def test_commands_load_no_code_generating_modules(self, i2_path):
        # compared with the modules loaded before segrecm, as the
        # interpreter's site hooks may load typing themselves
        script = ("import contextlib, io, sys\n"
                  "before = set(sys.modules)\n"
                  "from segrecm.cli import run\n"
                  "with contextlib.redirect_stdout(io.StringIO()):\n"
                  "    codes = [run(argv) for argv in %r]\n"
                  "print(*codes, *sorted({'dataclasses', 'typing', 'inspect'}"
                  " & (set(sys.modules) - before)))\n")
        # one command each of classify, hilbert, toric and oracle
        argvs = [[tok.format(I2=i2_path) for tok in argv] for argv, _ in self.LOADS[1:5]]
        proc = python_child(["-c", script % (argvs,)])
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["0"] * 4, proc.stderr

    def test_package_names_are_their_module_attributes(self):
        # dir() lists every export before its first access; cli is imported here
        public = [name for name in dir(segrecm) if not name.startswith("_") and name != "cli"]
        assert public == segrecm.__all__
        for name in segrecm.__all__:
            value = getattr(segrecm, name)
            if isinstance(value, type(segrecm)):
                assert value is sys.modules[f"segrecm.{name}"], name
            else:
                assert value.__module__.startswith("segrecm."), name
                assert value is getattr(sys.modules[value.__module__], name), name
        from segrecm import toric
        assert toric is sys.modules["segrecm.toric"]
        for name in ("no_such_name", "dual_shift", "hermite_rows", "format_matrix"):
            with pytest.raises(AttributeError):
                getattr(segrecm, name)


def python_child(args, **kwargs):
    """A fresh interpreter on args, with src on its path; stderr captured."""
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(segrecm.__file__)))
    kwargs.setdefault("stdout", subprocess.PIPE)
    return subprocess.run([sys.executable, *args], stderr=subprocess.PIPE, text=True,
                          env=env, timeout=60, **kwargs)
