import json
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from helpers import det_bareiss, random_posdef_gram, solve_integral
from voaplus import (CATALOG, Lattice, analyze, build_construction_b,
                     odd_split, parse_spec, repetition_code, serialize,
                     stabilizer_order, vectors_of_norm)
from voaplus.errors import NotEven, NotOdd


def test_stabilizer_order_worked_cases():
    assert stabilizer_order(Lattice([[8]])) == (2, None)
    assert stabilizer_order(Lattice([[4, 0], [0, 4]])) == (16, None)
    assert stabilizer_order(parse_spec("sqrt2*A3")) == (192, None)
    order, reason = stabilizer_order(parse_spec("A2"))
    assert order is None and reason == "roots present"
    lat, _ = build_construction_b(repetition_code(8))
    order, reason = stabilizer_order(lat)
    assert order is None and reason == "rank bound"


def test_catalog_searches_only_within_the_rank_bound(monkeypatch):
    # the search used to be called for every entry and raise above rank 4:
    # 20 calls over the catalog, 8 of them only to raise
    import voaplus.report as report
    real = report.orthogonal_group_order
    ranks = []

    def counted(lat, *args):
        ranks.append(lat.rank)
        return real(lat, *args)

    monkeypatch.setattr(report, "orthogonal_group_order", counted)
    for entry in CATALOG:
        if entry.kind == "lattice":
            analyze(entry.build())
        elif entry.kind == "odd":
            odd_split(entry.build())
    assert len(ranks) == 12
    assert max(ranks) <= report.DEFAULT_RANK_BOUND == 4


def test_aut_orders_worked_cases():
    assert analyze(Lattice([[8]])).aut_order == 6       # S3
    assert analyze(Lattice([[4, 0], [0, 4]])).aut_order == 48   # S4 x Z2
    assert analyze(parse_spec("sqrt2*A3")).aut_order == 576
    assert analyze(parse_spec("A2")).aut_order is None


def test_analyze_consistency():
    for spec in ["A1", "2A1", "A2", "sqrt2*A3", "lb(zero(4))", "E8"]:
        rep = analyze(parse_spec(spec))
        assert rep.index_over_stabilizer == rep.orbit_size
        assert rep.orbit_size == (1 + 2 * len(rep.frame_coset_set.cosets)
                                  + rep.orbit.twisted_count)
        assert rep.exceeds_stabilizer == (rep.orbit_size > 1)
        want = len(rep.frame_coset_set.cosets) > 0 or rep.cond_c
        assert rep.exceeds_stabilizer == want
        if rep.aut_order is not None:
            assert rep.aut_order == rep.stabilizer_order * rep.orbit_size
        assert rep.notes


def test_sqrt2_e8_aut_order_is_o_plus_10_2():
    # 2^7 |W(E8)| 527 = |O+(10, 2)|, with the isometry count at rank 8
    rep = analyze(parse_spec("sqrt2*E8"), 8)
    assert rep.isometry_order == 696729600
    assert rep.orbit_size == 527
    assert rep.aut_order == 46998591897600


def test_analyze_requires_even():
    with pytest.raises(NotEven):
        analyze(Lattice([[1]]))


def test_unimodular_verdicts():
    # the index of the stabilizer in Aut is the orbit size
    assert analyze(parse_spec("E8")).orbit_size == 2
    assert analyze(parse_spec("E8+E8")).orbit_size == 1
    assert analyze(parse_spec("Gamma16")).orbit_size == 1


def test_odd_split_rank1():
    rep = odd_split(Lattice([[1]]))
    assert rep.even_part.gram == ((4,),)
    assert rep.even_part.is_even
    # index 2: determinant scales by 4
    assert rep.even_part.det == 4 * 1
    assert rep.odd_rep == (1,)
    assert rep.odd_rep_norm == 1
    assert rep.odd_coset.rep == (Fraction(1, 2),)
    assert rep.odd_coset_in_orbit is False
    assert rep.even_report.orbit_size == 1


def test_odd_split_keeps_integer_coordinates():
    # the odd representative and its norm were Fractions
    rep = odd_split(parse_spec("Z2"))
    assert rep.odd_rep == (1, 0) and rep.odd_rep_norm == 1
    assert {type(x) for x in rep.odd_rep + (rep.odd_rep_norm,)} == {int}


def test_odd_split_rank2():
    z2 = parse_spec("Z2")
    rep = odd_split(z2)
    assert rep.even_part.is_even
    assert rep.even_part.det == 4
    # 2L inside the even part
    basis = [list(r) for r in rep.even_basis]
    for i in range(2):
        doubled = [2 if j == i else 0 for j in range(2)]
        assert solve_integral(basis, doubled) is not None
    assert abs(det_bareiss(basis)) == 2
    # even part of Z^2 has 4 roots, so no order is claimed
    assert rep.even_report.root_count == 4
    assert rep.aut_order is None


def test_odd_split_requires_odd():
    with pytest.raises(NotOdd):
        odd_split(Lattice([[2]]))


def test_odd_split_mixed_diagonal():
    lat = Lattice([[1, 0], [0, 2]])
    rep = odd_split(lat)
    assert rep.even_part.is_even
    assert rep.even_part.det == 4 * lat.det


ODD_GRAMS = st.builds(
    lambda seed, n: random_posdef_gram(random.Random(seed), n),
    st.integers(0, 2 ** 32 - 1), st.integers(1, 4)).filter(
        lambda g: g is not None and any(g[i][i] % 2 for i in range(len(g))))


@settings(max_examples=40, deadline=None)
@given(gram=ODD_GRAMS)
@example(gram=[[1]])
@example(gram=[[1, 0], [0, 1]])
@example(gram=[[1, 0], [0, 4]])
@example(gram=[[3, 1], [1, 2]])
def test_odd_coset_has_odd_norms(gram):
    # N(alpha) is odd, 2<alpha, x> and N(x) are even for x in the even
    # part: every norm in the odd class is odd, so it never meets the
    # norm-2 bound of a frame coset and no total order is ever claimed
    rep = odd_split(Lattice(gram))
    assert rep.odd_rep_norm % 2 == 1
    assert vectors_of_norm(rep.even_part, rep.odd_coset, 2) == []
    assert rep.odd_coset_in_orbit is False
    assert rep.aut_order is None


# Breaks the even split of Z2 on purpose: the even part's basis is doubled,
# so it has index 8 instead of 2.  Prints the error odd_split raises, the
# CLI exit code, and whether assert statements are live (__debug__).
BROKEN_SPLIT = """
import voaplus.report as report
from voaplus import cli, Lattice, odd_split, parse_spec
from voaplus.errors import InternalCheckError
from voaplus.lattice import sublattice_gram

real = report.even_sublattice

def index8(lat):
    sub, basis, alpha = real(lat)
    basis = tuple(tuple(2 * x for x in row) for row in basis)
    return Lattice(sublattice_gram(lat, basis)), basis, alpha

report.even_sublattice = index8
try:
    odd_split(parse_spec("Z2"))
    print("none")
except InternalCheckError as exc:
    print(type(exc).__name__)
print(cli.main(["odd", "Z2"]), __debug__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_odd_split_checks_survive_optimize(flags):
    done = subprocess.run([sys.executable] + flags + ["-c", BROKEN_SPLIT],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["SplitCheckFailed", "4", str(not flags)]
    assert "internal check failed" in done.stderr


REPORTED = [e for e in CATALOG if e.kind != "code"]


@pytest.mark.parametrize("entry", REPORTED, ids=[e.name for e in REPORTED])
def test_writer_matches_json_dumps_on_catalog_reports(entry):
    lat = entry.build()
    doc = (serialize.odd_report_json(odd_split(lat)) if entry.kind == "odd"
           else serialize.aut_report_json(analyze(lat)))
    assert serialize.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)


# st.text() draws quotes, backslashes, control and non-ASCII characters
JSON_DOCS = st.recursive(
    st.none() | st.booleans() | st.integers(-10 ** 30, 10 ** 30) | st.text(),
    lambda inner: (st.lists(inner, max_size=4)
                   | st.lists(inner, max_size=4).map(tuple)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=4)),
    max_leaves=30)


@given(JSON_DOCS)
@example({"q\"\\\x01\u00e9\U0001f600": ["\n\t", -1, True, None, (0, [], {})],
          "": {"b": False, "a": [[-7], "x"]}})
def test_writer_matches_json_dumps_on_generated_docs(doc):
    assert serialize.dumps(doc) == json.dumps(doc, indent=2, sort_keys=True)
