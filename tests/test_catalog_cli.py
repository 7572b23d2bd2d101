import json
import os
import re
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path
from types import SimpleNamespace

import pytest

from voaplus import (BinaryCode, CATALOG, Lattice, make_code, parse_spec,
                     serialize)
from voaplus.catalog import SIZE_LIMIT
from voaplus.cli import load_lattice, main
from voaplus.errors import LengthMismatch, ParseError, UnknownName

REPO = Path(__file__).resolve().parent.parent


def test_parse_spec_lattice_atoms():
    assert parse_spec("2A1").gram == ((8,),)
    assert parse_spec("sqrt2*(A1+A1)").gram == ((4, 0), (0, 4))
    assert parse_spec("2*A1").gram == ((8,),)
    e16 = parse_spec("E8+E8")
    assert e16.rank == 16 and e16.det == 1 and e16.is_even
    g16 = parse_spec("Gamma16")
    assert g16.rank == 16 and g16.det == 1 and g16.is_even
    assert parse_spec("gram([[2,1],[1,2]])").det == 3
    assert parse_spec("Z3").rank == 3


def test_parse_spec_code_atoms():
    assert parse_spec("rep(8)").dimension == 1
    assert parse_spec("zero(5)").dimension == 0
    assert parse_spec("hamming8").dimension == 4
    assert parse_spec("rm14").dimension == 5
    c = parse_spec("code(4, 1100, 0011)")
    assert c.dimension == 2
    lat = parse_spec("lb(code(4, 0000))")
    assert lat.det == 64


def test_parse_spec_errors():
    with pytest.raises(UnknownName):
        parse_spec("Q5")
    with pytest.raises(ParseError):
        parse_spec("A1 +")
    with pytest.raises(ParseError):
        parse_spec("sqrt2*rep(8)")
    with pytest.raises(ParseError):
        parse_spec("A1 + rep(4)")
    with pytest.raises(ParseError):
        parse_spec("lb(A1)")
    with pytest.raises(ParseError):
        parse_spec("(A1")
    exc = pytest.raises(ParseError, parse_spec, "A1 @ A1")
    assert exc.value.position is not None


def test_parse_round_trips_catalog():
    for entry in CATALOG:
        obj = entry.build()
        if entry.kind == "code":
            assert isinstance(obj, BinaryCode)
        else:
            assert isinstance(obj, Lattice)
        # re-evaluating the printed constructor reproduces the same value
        assert parse_spec(entry.constructor) == obj


def test_catalog_lookup():
    by_name = {entry.name: entry for entry in CATALOG}
    assert len(by_name) == len(CATALOG)
    assert by_name["E8"].constructor == "E8"


def test_catalog_spans_ranks_1_to_16():
    ranks = {e.expected.get("rank") for e in CATALOG if e.kind == "lattice"}
    assert {1, 2, 3, 4, 8, 16} <= ranks
    assert sum(1 for e in CATALOG if e.kind == "lattice") >= 15


def test_cli_analyze_json_values(capsys):
    assert main(["analyze", "2A1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["orbit_size"] == 3
    assert doc["aut_order"] == 6
    assert doc["stabilizer_order"] == 2
    assert doc["exceeds_stabilizer"] is True
    assert doc["schema_version"] == 1
    assert doc["frame_cosets"]["cosets"][0]["rep"] == ["1/2"]


def test_cli_text_json_numeric_content_agrees(capsys):
    assert main(["analyze", "sqrt2*(A1+A1)", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert main(["analyze", "sqrt2*(A1+A1)"]) == 0
    text = capsys.readouterr().out
    assert "aut order = %d" % doc["aut_order"] in text
    assert "orbit of [0]^-: size %d" % doc["orbit_size"] in text
    assert "stabilizer order = %d" % doc["stabilizer_order"] in text


def test_cli_rl_and_shortvec(capsys):
    assert main(["rl", "E8"]) == 0
    assert "0 qualifying cosets" in capsys.readouterr().out
    assert main(["shortvec", "A2", "--norm", "2", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 6
    assert main(["shortvec", "2A1", "--norm", "2", "--coset", "1/2"]) == 0
    assert "2 vectors" in capsys.readouterr().out


@pytest.mark.parametrize("t", [94906267, 10 ** 8])
def test_cli_shortvec_skewed_basis(capsys, t):
    # A1+A1 in the basis (b0, b1 + t b0): all four roots, exactly
    spec = "gram([[2,%d],[%d,%d]])" % (2 * t, 2 * t, 2 * t * t + 2)
    assert main(["shortvec", spec, "--norm", "2"]) == 0
    assert capsys.readouterr().out.split("\n") == [
        "4 vectors of norm 2", "  (%d, 1)" % -t, "  (-1, 0)", "  (1, 0)",
        "  (%d, -1)" % t, ""]


def test_cli_analyze_skewed_basis_counts_isometries():
    # A1+A1 in the basis (b0, b1 + 94906267 b0): the candidate images have
    # norm about 1.8e16 in this basis, but not in a reduced one
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run(
        [sys.executable, "-m", "voaplus", "analyze",
         "gram([[2,189812534],[189812534,18014399031750580]])",
         "--format", "json"],
        env=env, capture_output=True, text=True, timeout=20, check=True)
    assert json.loads(done.stdout)["isometry_order"] == 8


@pytest.mark.parametrize("template", ["gram([[%s]])", "%s*A1"])
def test_cli_refuses_overlong_integer_literals(capsys, template):
    # int() refuses strings above 4300 digits by default
    assert main(["analyze", template % ("9" * 5000)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error:")
    assert "Traceback" not in err


# each entry parses (3000 digits), but det = (10^3000 - 1)^2 has 6000 and
# the even part's det = 4 det has 6001: str() refuses both
LONG = "9" * 3000
LONG_ODD = "gram([[%s,0],[0,%s]])" % (LONG, LONG)
LONG_DET = "9" * 2999 + "8" + "0" * 2999 + "1"
LONG_EVEN_DET = "3" + "9" * 2999 + "2" + "0" * 2999 + "4"


def test_cli_odd_text_prints_integers_past_the_str_limit(capsys):
    assert main(["odd", LONG_ODD]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    lines = out.splitlines()
    assert lines[0] == "odd lattice, rank 2, det " + LONG_DET
    assert lines[1].startswith("even part: det %s, " % LONG_EVEN_DET)


def test_cli_odd_json_prints_integers_past_the_str_limit(capsys):
    assert main(["odd", LONG_ODD, "--format", "json"]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    # json.loads refuses such integers too: read every one as its digits
    doc = json.loads(out, parse_int=str)
    assert doc["kind"] == "odd_report" and doc["lattice"]["rank"] == "2"
    assert doc["lattice"]["det"] == LONG_DET
    assert doc["lattice"]["gram"] == [[LONG, "0"], ["0", LONG]]
    assert doc["even_part"]["det"] == LONG_EVEN_DET
    # the long numbers are JSON numbers, as every other integer
    assert '"det": %s,' % LONG_DET in out


def _long_coset_file(tmp_path):
    # G = H G0 H' with G0 the Gram of lb(zero(4)) and H = I + 10^1500 on
    # the subdiagonal: every entry has at most 3001 digits, so it parses,
    # but the order-2 coset representatives in this basis have over 4300
    g0 = parse_spec("lb(zero(4))").gram
    n, t = len(g0), 10 ** 1500
    h = [[1 if i == j else t if i == j + 1 else 0 for j in range(n)]
         for i in range(n)]
    hg = [[sum(h[i][k] * g0[k][j] for k in range(n)) for j in range(n)]
          for i in range(n)]
    gram = [[sum(hg[i][k] * h[j][k] for k in range(n)) for j in range(n)]
            for i in range(n)]
    path = tmp_path / "long_coset.json"
    path.write_text(json.dumps({"gram": gram}), encoding="utf-8")
    return str(path)


@pytest.mark.parametrize("args", [["analyze"], ["analyze", "--format", "json"],
                                  ["orbit"]])
def test_cli_prints_coset_labels_past_the_str_limit(tmp_path, capsys, args):
    assert main(args[:1] + [_long_coset_file(tmp_path)] + args[1:]) == 0
    out, err = capsys.readouterr()
    assert err == ""
    assert re.search(r"\d{4301}", out)


def test_cli_not_positive_definite_past_the_str_limit(capsys):
    # the second leading minor 1 - 10^6000 has 6000 digits
    big = "1" + "0" * 3000
    assert main(["analyze", "gram([[1,%s],[%s,1]])" % (big, big)]) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(
        "input error: gram matrix is not positive definite: leading minor 2 "
        "is -" + "9" * 6000 + "\n")


@pytest.mark.parametrize("n", [0, 7, -7, 10 ** 4300 - 1, 10 ** 4300,
                               -(10 ** 5000) - 7, 3 ** 20000,
                               10 ** 9000 + 10 ** 3000],
                         ids=["0", "7", "-7", "10^4300-1", "10^4300",
                              "-10^5000-7", "3^20000", "10^9000+10^3000"])
def test_int_str_writes_every_digit(n):
    # digits checked against an exact rebuild: sum of digit * 10^position
    text = serialize.int_str(n)
    digits = text.lstrip("-")
    assert digits == "0" or not digits.startswith("0")
    assert text.startswith("-") == (n < 0)
    value = 0
    for chunk in range(0, len(digits), 1000):
        part = digits[chunk:chunk + 1000]
        value = value * 10 ** len(part) + int(part)
    assert value == abs(n)


def test_cli_closed_pipe_exits_quietly():
    # `voaplus shortvec E8 --norm 6 | head -1`: far more output than a pipe
    # buffer holds, so the writer meets the closed pipe
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    proc = subprocess.Popen(
        [sys.executable, "-m", "voaplus", "shortvec", "E8", "--norm", "6"],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"6720 vectors of norm 6\n"
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 141
    assert err == b""


def test_cli_process_writes_what_main_prints(tmp_path, capsys):
    # `python -m voaplus` ends with os._exit once main returns: the file
    # must still receive every byte that main prints in process
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    args = ["analyze", "A1", "--format", "json"]
    out = tmp_path / "out.json"
    with open(out, "wb") as fh:
        done = subprocess.run([sys.executable, "-m", "voaplus"] + args,
                              env=env, stdout=fh, stderr=subprocess.PIPE)
    assert done.returncode == 0 and done.stderr == b""
    assert main(args) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


def test_cli_process_exits_2_on_a_bad_spec():
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-m", "voaplus", "analyze", "Q7"],
                          env=env, capture_output=True, text=True)
    assert done.returncode == 2
    assert done.stdout == ""
    assert done.stderr == "input error: unknown name 'Q7' (at position 0)\n"


def test_cli_decompose_and_orbit(capsys):
    assert main(["decompose", "2A1"]) == 0
    out = capsys.readouterr().out
    assert "code [1,0]" in out
    assert main(["orbit", "E8", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["size"] == 2
    assert doc["twisted_sign"] == "-"


def test_cli_odd(capsys):
    assert main(["odd", "Z1", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["even_part"]["gram"] == [[4]]
    assert doc["odd_coset"] == ["1/2"]


def test_cli_exit_codes(capsys):
    assert main(["analyze", "NotAThing"]) == 2           # parse error
    assert main(["analyze", "gram([[2,1],[3,2]])"]) == 2  # not symmetric
    assert main(["analyze", "Z2"]) == 3                   # odd to analyze
    assert main(["odd", "A2"]) == 3                       # even to odd
    assert main(["shortvec", "A2", "--norm", "-1"]) == 3
    capsys.readouterr()


def test_cli_refuses_a_huge_norm_with_its_tree_estimate(capsys):
    # A2 at norm 10^10 takes 0.1 s and the time grows as sqrt(m); at a
    # 40-digit norm the walk did not end
    t0 = time.perf_counter()
    assert main(["shortvec", "A2", "--norm", "1" * 40]) == 3
    assert time.perf_counter() - t0 < 2.0
    out, err = capsys.readouterr()
    assert out == ""
    assert re.search(r"about 10\^19\.7 tree nodes \(limit 10\^7\)", err), err


@pytest.mark.parametrize("spec", [
    "A1000000000000", "D1000000000000", "Z99999999", "lb(zero(100000000))",
    "lb(rep(1000000000000))", "lb(code(1000000000000))", "A257"])
def test_cli_refuses_oversized_constructors(capsys, spec):
    t0 = time.perf_counter()
    assert main(["analyze", spec]) == 2
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds the limit %d" % SIZE_LIMIT in err


@pytest.mark.parametrize("atom", ["A", "D"])
def test_size_limit_pins_both_sides(capsys, atom):
    # the limit keeps a cold analyze of A_n and D_n to seconds; the size
    # just above it is refused up front, the limit itself parses
    t0 = time.perf_counter()
    assert main(["analyze", "%s%d" % (atom, SIZE_LIMIT + 1)]) == 2
    assert time.perf_counter() - t0 < 1.0
    assert "exceeds the limit %d" % SIZE_LIMIT in capsys.readouterr().err
    assert parse_spec("%s%d" % (atom, SIZE_LIMIT)).rank == SIZE_LIMIT


def test_analyze_refuses_more_than_2_to_16_order2_cosets(capsys):
    # lb(zero(17)) has 2^17 order-<=2 cosets: refused before the sweep
    # builds any of them (lb(zero(16)) takes about 9 s cold, and it doubles)
    t0 = time.perf_counter()
    assert main(["analyze", "lb(zero(17))"]) == 3
    assert time.perf_counter() - t0 < 2.0
    err = capsys.readouterr().err
    assert "refusing to build 2^17 order-<=2 cosets (limit 2^16)" in err


def test_parse_spec_accepts_sizes_up_to_the_limit():
    assert parse_spec("zero(%d)" % SIZE_LIMIT).length == SIZE_LIMIT
    assert parse_spec("A%03d" % 3).rank == 3   # leading zeros are fine


def test_rank_limit_pins_both_sides_of_a_direct_sum():
    # a sum is built once its summands' ranks fit, so rank 129 is refused
    # as fast as a size argument of 129
    t0 = time.perf_counter()
    assert parse_spec("A64+A64").rank == SIZE_LIMIT
    assert time.perf_counter() - t0 < 1.0
    t0 = time.perf_counter()
    with pytest.raises(ParseError, match="rank 129 exceeds the limit 128"):
        parse_spec("A64+A65")
    assert time.perf_counter() - t0 < 1.0


def _gram_file(tmp_path, n):
    path = tmp_path / "gram.json"
    path.write_text(json.dumps({"gram": [[2 * (i == j) for j in range(n)]
                                         for i in range(n)]}))
    return str(path)


@pytest.mark.parametrize("spec", [
    "+".join(["A1"] * 200),                 # took 13 s, then exit 3
    "A128+A128+A128+A128",                  # took over 60 s
    "gram([%s])" % ",".join(["[2]"] * 129),
    "sqrt2*(A100+(A20+A9))",
    "file"])
def test_cli_refuses_lattices_above_the_rank_limit(tmp_path, capsys, spec):
    if spec == "file":
        spec = _gram_file(tmp_path, SIZE_LIMIT + 1)
    t0 = time.perf_counter()
    assert main(["analyze", spec]) == 2
    assert time.perf_counter() - t0 < 1.0
    out, err = capsys.readouterr()
    assert out == ""
    assert "exceeds the limit %d" % SIZE_LIMIT in err


def test_gram_file_at_the_rank_limit_parses(tmp_path):
    assert load_lattice(_gram_file(tmp_path, SIZE_LIMIT)).rank == SIZE_LIMIT


@pytest.mark.parametrize("spec", [
    "(" * 400 + "A1" + ")" * 400,
    "sqrt2*" * 1000 + "A1",
    "lb(" * 400 + "rm14" + ")" * 400,
    "file"])
def test_cli_refuses_deep_nesting(tmp_path, capsys, spec):
    # each printed a RecursionError traceback and exited 1
    if spec == "file":
        path = tmp_path / "deep.json"
        path.write_text('{"gram": ' + "[" * 2000 + "]" * 2000 + "}")
        spec = str(path)
    assert main(["analyze", spec]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("input error: ")
    assert "Traceback" not in err


def test_nesting_up_to_the_depth_limit_parses():
    from voaplus.catalog import DEPTH_LIMIT
    assert parse_spec("(" * DEPTH_LIMIT + "A1" + ")" * DEPTH_LIMIT).rank == 1
    assert parse_spec("2*" * DEPTH_LIMIT + "A1").gram == ((2 * 4 ** 100,),)
    with pytest.raises(ParseError, match="nesting deeper than"):
        parse_spec("(" * (DEPTH_LIMIT + 1) + "A1" + ")" * (DEPTH_LIMIT + 1))


@pytest.mark.parametrize("argv", [
    ["analyze", "2A1"], ["odd", "Z1"], ["rl", "2A1"], ["decompose", "2A1"],
    ["orbit", "2A1"], ["shortvec", "2A1", "--norm", "2", "--coset", "1/2"]],
    ids=lambda argv: argv[0])
def test_cli_text_mode_builds_no_json(monkeypatch, capsys, argv):
    def refuse(*args):
        raise AssertionError("JSON built in text mode")
    for name in ("aut_report_json", "odd_report_json", "frame_cosets_json",
                 "decompositions_json", "orbit_json", "scaled_vec_json"):
        monkeypatch.setattr(serialize, name, refuse)
    assert main(argv) == 0
    assert capsys.readouterr().out


def test_cli_lattice_file_input(tmp_path, capsys):
    doc = {"name": "two_a1", "gram": [[8]]}
    path = tmp_path / "lat.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", str(path), "--format", "json"]) == 0
    out = json.loads(capsys.readouterr().out)
    assert out["aut_order"] == 6

    code_doc = {"length": 8, "generators": ["11111111"]}
    cpath = tmp_path / "code.json"
    cpath.write_text(json.dumps(code_doc), encoding="utf-8")
    assert main(["analyze", str(cpath)]) == 2  # a SPEC file holds a lattice
    assert "input file needs a 'gram' field" in capsys.readouterr().err

    bad = tmp_path / "bad.json"
    bad.write_text("{not json", encoding="utf-8")
    assert main(["analyze", str(bad)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("doc", ["gramophone", {"gram": 5},
                                 {"length": "eight"},
                                 {"length": 4, "generators": 5}])
def test_cli_lattice_file_wrong_shape(tmp_path, capsys, doc):
    path = tmp_path / "shape.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    assert main(["analyze", str(path)]) == 2
    assert "Traceback" not in capsys.readouterr().err


@pytest.mark.parametrize("doc", [
    {"gram": [[True, False], [False, True]]},
    {"gram": [[2.0]]},
    {"gram": [[None]]},
    {"gram": [[2, 1], [1, True]]},
    {"gram": [["2"]]},
    {"gram": [[2, 0.5], [0.5, 2]]}])
def test_cli_input_file_wrong_entry_types(tmp_path, capsys, doc):
    # JSON true is not the integer 1, nor is 2.0 or "2"
    path = tmp_path / "entries.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    for verb in ("analyze", "odd"):
        assert main([verb, str(path)]) == 2
        err = capsys.readouterr().err
        assert "not an integer" in err and "Traceback" not in err


@pytest.mark.parametrize("case", [
    "nested 900 deep", "10^5 characters", "10^5 characters, a 2"])
def test_cli_code_errors_do_not_echo_the_generator(capsys, case):
    # the messages once held the whole generator: 1.8 KB for the nested
    # one, 100 KB for the long ones
    if case == "10^5 characters":
        assert main(["analyze", "lb(code(4, %s))" % ("1" * 10 ** 5)]) == 2
        msg = capsys.readouterr().err
        assert msg.startswith(
            "input error: generator 0 (a str) has length 100000")
    elif case == "nested 900 deep":
        nested = 1
        for _ in range(900):
            nested = [nested]
        with pytest.raises(ParseError) as info:
            make_code(1, [nested])
        msg = str(info.value)
        assert msg.startswith("generator 0 is a list, ")
    else:
        with pytest.raises(LengthMismatch) as info:
            make_code(10 ** 5, ["1" * 99999 + "2"])
        msg = str(info.value)
        assert msg.startswith("codeword string of length 100000 is not "
                              "over {0,1} at position 99999")
    assert len(msg.encode()) < 200


@pytest.mark.parametrize("site", [
    "gram entry", "unknown name", "constructor", "rank bound"])
def test_error_messages_do_not_echo_long_input(tmp_path, monkeypatch, capsys,
                                               site):
    # each message once held the whole value: 200 047 bytes on stderr for
    # the gram entry, about 100 KB for the names, 50 KB for the variable
    spec = {"unknown name": "Q" * 10 ** 5,
            "constructor": "Q" * 10 ** 5 + "(1)"}.get(site, "A1")
    if site == "gram entry":
        spec = str(tmp_path / "gram.json")
        Path(spec).write_text(json.dumps({"gram": [["9" * 2 * 10 ** 5]]}))
    if site == "rank bound":
        monkeypatch.setenv("VOAPLUS_RANK_BOUND", "x" * 5 * 10 ** 4)
    assert main(["analyze", spec]) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: ")
    assert len(err.encode()) < 200 and len(err.splitlines()) == 1


@pytest.mark.parametrize("option, value", [
    ("--norm", "1" * 20001), ("--norm", "1/0" + "x" * 50000),
    ("--coset", "0," + "9" * 20001)])
def test_cli_bad_rationals_are_not_echoed(capsys, option, value):
    args = ["shortvec", "A2", "--norm", "2", option, value]
    assert main(args) == 2
    err = capsys.readouterr().err
    assert err.startswith("input error: %s" % option)
    assert "(%d characters)" % len(value.split(",")[-1]) in err
    assert len(err.encode()) < 200


@pytest.mark.parametrize("option, value", [
    ("--norm", "1e10000000"), ("--norm", "1e5000"),
    ("--coset", "1e-10000000,0")])
def test_cli_refuses_exponents_past_the_digit_limit(capsys, option, value):
    # 1e5000 ended in a ValueError traceback in text mode, and Fraction
    # wrote out 10^10000000 for longer than 30 s
    t0 = time.perf_counter()
    assert main(["shortvec", "A2", "--norm", "2", option, value]) == 2
    assert time.perf_counter() - t0 < 2
    err = capsys.readouterr().err
    assert err.startswith("input error: %s" % option)
    assert "exponent above 4300 (%d characters)" % len(value.split(",")[0]) \
        in err
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("norm, digits", [("1e4300", "1" + "0" * 4300),
                                          ("1.0e-4300", "1/1" + "0" * 4300)],
                         ids=["1e4300", "1.0e-4300"])
def test_cli_norm_at_the_exponent_limit(capsys, norm, digits):
    # the text header printed the norm with str(), which refuses 4301 digits
    t0 = time.perf_counter()
    assert main(["shortvec", "A1", "--norm", norm]) == 0
    assert capsys.readouterr().out == "0 vectors of norm %s\n" % digits
    assert main(["shortvec", "A1", "--norm", norm, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["norm"] in (digits,
                                                          digits + "/1")
    assert time.perf_counter() - t0 < 2


@pytest.fixture
def fractions_made(monkeypatch):
    """A list that grows by one with every Fraction created from now on."""
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", staticmethod(counting_new))
    return made


@pytest.mark.parametrize("fmt", ["text", "json"])
def test_shortvec_writes_integer_rows(capsys, fractions_made, fmt):
    # 53 827 Fractions when every listed coordinate was one
    assert main(["shortvec", "E8", "--norm", "6", "--format", fmt]) == 0
    assert len(fractions_made) <= 4
    out = capsys.readouterr().out
    count = (json.loads(out)["count"] if fmt == "json"
             else int(out.split(" ", 1)[0]))
    assert count == 6720        # 240 sigma_3(3)


@pytest.mark.parametrize("spec", ["E8", "Gamma16"])
def test_glued_lattices_parse_and_report_without_fractions(
        capsys, fractions_made, spec):
    # their glue rows were Fractions: 65 and 257 of them
    assert parse_spec(spec).det == 1
    assert not fractions_made
    assert main(["analyze", spec, "--format", "json"]) == 0
    assert not fractions_made
    assert json.loads(capsys.readouterr().out)["lattice"]["rank"] in (8, 16)


def test_cli_unreadable_input_and_empty_coset_field(tmp_path, capsys):
    # a directory and a file that is not UTF-8 are bad input, not crashes
    latin1 = tmp_path / "latin1.json"
    latin1.write_bytes(b'{"gram": [[2]], "name": "\xe9"}')
    for spec in (str(tmp_path), str(latin1)):
        assert main(["analyze", spec]) == 2
        assert capsys.readouterr().err.startswith("input error:")
    # an empty --coset field is not a zero
    for coset in ("0,,0", "0,", ",0"):
        assert main(["shortvec", "A2", "--norm", "2", "--coset", coset]) == 2
        assert capsys.readouterr().err.startswith("input error:")


def test_parse_spec_code_words_keep_leading_zeros(capsys):
    for spec in ("code(3, 0110)", "code(4, 01111)"):
        with pytest.raises(LengthMismatch):
            parse_spec(spec)
    assert main(["analyze", "lb(code(3, 0110))"]) == 2
    capsys.readouterr()
    assert parse_spec("code(4, 0000)").dimension == 0
    c = parse_spec("code(4, 1100, 0011)")
    assert c.basis_strings() == ["1100", "0011"]


def test_cli_rank_bound_env(monkeypatch, capsys):
    monkeypatch.setenv("VOAPLUS_RANK_BOUND", "2")
    assert main(["analyze", "sqrt2*A3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stabilizer_order"] is None
    assert doc["stabilizer_reason"] == "rank bound"
    monkeypatch.setenv("VOAPLUS_RANK_BOUND", "3")
    assert main(["analyze", "sqrt2*A3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["stabilizer_order"] == 192
    for bad in ("abc", "-1"):
        monkeypatch.setenv("VOAPLUS_RANK_BOUND", bad)
        assert main(["analyze", "A1"]) == 2
        assert "VOAPLUS_RANK_BOUND" in capsys.readouterr().err


def test_cli_selftest_small(monkeypatch, capsys):
    # keep the sweep small: drop the rank-16 entries for this smoke test
    import voaplus.selftest as st
    small = tuple(e for e in st.CATALOG
                  if e.expected.get("rank", 0) <= 4 or e.kind == "code")
    monkeypatch.setattr(st, "CATALOG", small)
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "0 failed" in out


def test_cli_selftest_ignores_the_rank_bound(monkeypatch, capsys):
    # the pinned orders assume the default bound; at bound 0 the self-test
    # once reported them missing and exited 4
    import voaplus.selftest as st
    small = tuple(e for e in st.CATALOG
                  if e.expected.get("rank", 0) <= 4 or e.kind == "code")
    monkeypatch.setattr(st, "CATALOG", small)
    monkeypatch.setenv("VOAPLUS_RANK_BOUND", "0")
    assert main(["selftest"]) == 0
    assert "0 failed" in capsys.readouterr().out


def test_cli_selftest_detects_injected_violation(monkeypatch, capsys):
    import voaplus.selftest as st
    small = tuple(e for e in st.CATALOG
                  if e.expected.get("rank", 0) <= 4 or e.kind == "code")
    monkeypatch.setattr(st, "CATALOG", small)
    monkeypatch.setattr(st, "twisted_character_count_mod2", lambda lat: -1)
    assert main(["selftest"]) == 4
    assert "FAIL" in capsys.readouterr().out


def test_cli_selftest_compares_torsion2_routes(monkeypatch, capsys):
    # break the per-coset route only; the sweep keeps the real kernel
    import voaplus.selftest as st
    from voaplus.kernels import enumerate_offsets
    small = tuple(e for e in st.CATALOG
                  if e.expected.get("rank", 0) <= 4 or e.kind == "code")
    monkeypatch.setattr(st, "CATALOG", small)
    monkeypatch.setattr(st, "kernels", SimpleNamespace(
        enumerate_offsets=lambda *args: enumerate_offsets(*args)[:-1]))
    assert main(["selftest"]) == 4
    failed = [line for line in capsys.readouterr().out.splitlines()
              if "FAIL" in line]
    assert failed
    assert all(".torsion2_routes_agree" in line for line in failed)


def test_cli_fractional_norm(capsys):
    # catalog A2 uses the Cartan sign convention, so (2/3, 1/3) is dual
    assert main(["shortvec", "A2", "--norm", "2/3",
                 "--coset", "2/3,1/3", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["count"] == 3
    assert doc["norm"] == "2/3"


def test_cli_selftest_json(monkeypatch, capsys):
    import voaplus.selftest as st
    small = tuple(e for e in st.CATALOG
                  if e.expected.get("rank", 0) <= 2 or e.kind == "code")
    monkeypatch.setattr(st, "CATALOG", small)
    assert main(["selftest", "--format", "json"]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["failed"] == 0
    assert doc["passed"] == len(doc["checks"])


def test_canonicalize_rejects_non_dual():
    from fractions import Fraction

    from helpers import canonicalize_coset
    from voaplus.errors import NotDualVector
    with pytest.raises(NotDualVector):
        canonicalize_coset(parse_spec("A2"), (Fraction(1, 2), Fraction(0)))


def test_cli_subprocess_golden():
    result = subprocess.run(
        [sys.executable, "-m", "voaplus", "analyze", "2A1", "--format", "json"],
        check=True, capture_output=True, text=True)
    assert result.stderr == ""
    doc = json.loads(result.stdout)
    assert doc["aut_order"] == 6
    assert doc["orbit"]["classes"] == ["[(0)]^-", "[(1/2)]^+", "[(1/2)]^-"]


def test_perfbench_trace_runs_against_src(tmp_path):
    # the benchmark's traced run wraps functions in src/ by name; a rename
    # or deletion there must fail here rather than in the benchmark
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    args = ["analyze", "sqrt2*A3", "--format", "json"]
    spans = tmp_path / "SPANS.json"
    traced = subprocess.run(
        [sys.executable, str(REPO / "perfbench" / "tracing.py"), str(spans)]
        + args, env=env, capture_output=True, text=True)
    assert traced.returncode == 0, traced.stderr
    plain = subprocess.run([sys.executable, "-m", "voaplus"] + args,
                           env=env, capture_output=True, text=True, check=True)
    assert traced.stdout == plain.stdout
    doc = json.loads(spans.read_text(encoding="utf-8"))
    assert "lattice.offsets_cache.hits" in doc["counts"]


def test_bench_scripts_run_against_src():
    # bench_shortvec exits 1 when a vector count differs from its known
    # value, bench_decompose when a decomposition count does,
    # bench_startup when the import pulls in a guarded module
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    for args in (["bench_shortvec.py", "--repeat", "1"],
                 ["bench_decompose.py", "--repeat", "1"],
                 ["bench_isometry.py", "--repeat", "1", "--max-rank", "6"],
                 ["bench_startup.py", "--repeat", "1"],
                 ["cli_digest.py", "2A1"]):
        done = subprocess.run(
            [sys.executable, str(REPO / "bench" / args[0])] + args[1:],
            env=env, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
    # cli_digest: one "sha256 exit-code command" line per command
    lines = [line.split(" ", 2) for line in done.stdout.splitlines()]
    assert [(len(sha), code) for sha, code, _ in lines] == [(64, "0")] * 6
    assert lines[0][2] == "voaplus analyze 2A1"


@pytest.mark.parametrize("module", ["voaplus.cli", "voaplus"])
def test_import_leaves_heavy_stdlib_modules_out(module):
    # value types are namedtuples: importing dataclasses would pull in
    # inspect, ast, dis and tokenize, about 30 ms of every cold CLI run.
    # -S keeps the interpreter's own site hooks out of the picture.
    # json is read only for a file argument, fractions (which loads
    # decimal) only by the Fraction views and shortvec's rational arguments;
    # the packed lanes need neither array nor struct (a site hook may load
    # struct, so only -S shows a new dependency on it)
    guarded = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize",
               "json", "fractions", "decimal", "array", "struct")
    code = ("import sys, %s; print(' '.join(m for m in %r if m in sys.modules))"
            % (module, guarded))
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == []


# runs cli.main on the arguments after -c, then prints its exit code and
# whether fractions was loaded, on stderr after the command's output
RUN_MAIN = ("import sys; from voaplus import cli; "
            "code = cli.main(sys.argv[1:]); "
            "print(code, 'fractions' in sys.modules, file=sys.stderr)")
WITHOUT_FRACTIONS = (
    [(["analyze", e.constructor, "--format", "json"], None)
     for e in CATALOG if e.kind == "lattice"]
    + [(["analyze", "sqrt2*A6", "--format", "json"], "6"),
       (["odd", "Z1"], None), (["odd", "Z2"], None),
       (["rl", "lb(rep(8))"], None), (["decompose", "lb(rep(8))"], None),
       (["orbit", "lb(rep(8))"], None), (["selftest"], None)])


@pytest.mark.parametrize("argv,bound", WITHOUT_FRACTIONS,
                         ids=[" ".join(a) for a, _ in WITHOUT_FRACTIONS])
def test_commands_run_without_fractions(argv, bound):
    # only shortvec reads a rational, so no other command loads fractions
    # (nor the decimal it imports); sqrt2*A6 runs the isometry search
    env = dict(os.environ, PYTHONPATH=str(REPO / "src"))
    env.pop("VOAPLUS_RANK_BOUND", None)
    if bound is not None:
        env["VOAPLUS_RANK_BOUND"] = bound
    done = subprocess.run([sys.executable, "-S", "-c", RUN_MAIN] + argv,
                          env=env, capture_output=True, text=True)
    assert done.stderr.split() == ["0", "False"], done.stderr
