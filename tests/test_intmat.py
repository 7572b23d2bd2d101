import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (det_bareiss, mat_mul, random_posdef_gram,
                     random_unimodular_conjugate, solve_integral)
from voaplus import intmat, parse_spec
from voaplus.errors import RankDeficient


def random_matrix(rng, n, m=None, lo=-6, hi=6):
    m = n if m is None else m
    return [[rng.randrange(lo, hi + 1) for _ in range(m)] for _ in range(n)]


def test_xgcd_basics():
    for a, b in [(12, 18), (-4, 6), (0, 5), (7, 0), (1, 1), (-9, -6)]:
        g, x, y = intmat.xgcd(a, b)
        assert g == a * x + b * y
        assert g >= 0
        if a or b:
            assert a % g == 0 and b % g == 0


def test_det_bareiss_matches_cofactor():
    def cofactor_det(m):
        n = len(m)
        if n == 1:
            return m[0][0]
        return sum((-1) ** j * m[0][j]
                   * cofactor_det([row[:j] + row[j + 1:] for row in m[1:]])
                   for j in range(n))

    rng = random.Random(7)
    for _ in range(60):
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n)
        assert det_bareiss(m) == cofactor_det(m)


def test_hnf_canonical_and_spans():
    rng = random.Random(11)
    for _ in range(40):
        n = rng.randrange(1, 5)
        rows = random_matrix(rng, rng.randrange(1, 7), n)
        h = intmat.hnf(rows, n)
        # pivots strictly to the right going down, positive, reduced above
        pivots = []
        for r in h:
            p = next(j for j in range(n) if r[j] != 0)
            assert not pivots or p > pivots[-1]
            assert r[p] > 0
            pivots.append(p)
        for i, r in enumerate(h):
            p = pivots[i]
            for k in range(i):
                assert 0 <= h[k][p] < r[p]
        # feeding the HNF back reproduces it (canonical)
        assert intmat.hnf(h, n) == h
        # every original row solves over the HNF basis
        for row in rows:
            assert solve_integral(h, row) is not None


def test_smith_form_properties():
    rng = random.Random(19)
    seen = 0
    while seen < 40:
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n)
        if det_bareiss(m) == 0:
            continue
        seen += 1
        diag, u = intmat.smith_with_left(m)
        prod = 1
        for i, d in enumerate(diag):
            assert d > 0
            prod *= d
            if i:
                assert d % diag[i - 1] == 0
        assert prod == abs(det_bareiss(m))
        assert abs(det_bareiss(u)) == 1
        # U*m has the same row span as diag(d): U*m*V = D with V unimodular
        um = mat_mul(u, m)
        dmat = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        assert intmat.hnf(um, n) != [] and det_bareiss(um) != 0
        assert abs(det_bareiss(um)) == abs(det_bareiss(dmat))


def test_smith_singular_raises():
    with pytest.raises(RankDeficient):
        intmat.smith_with_left([[1, 1], [1, 1]])


def test_invert_fraction_roundtrip():
    rng = random.Random(23)
    seen = 0
    while seen < 25:
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n)
        if det_bareiss(m) == 0:
            continue
        seen += 1
        inv = intmat.invert_fraction(m)
        assert mat_mul(m, inv) == intmat.identity(n)
        adj, d = intmat.adjugate(m)
        assert d == abs(det_bareiss(m))
        assert mat_mul(m, adj) == [[d * x for x in row]
                                   for row in intmat.identity(n)]
    with pytest.raises(RankDeficient):
        intmat.adjugate([[1, 2], [2, 4]])


def test_same_row_lattice_relations():
    basis = [[2, 0], [0, 3]]
    negated = [[-2, 0], [0, 3]]
    mixed = [[2, 3], [2, -3], [2, 0]]
    sub = [[4, 0], [0, 3]]
    assert intmat.same_row_lattice(basis, negated)
    assert intmat.same_row_lattice(basis, mixed)
    assert not intmat.same_row_lattice(basis, sub)
    with pytest.raises(RankDeficient):
        intmat.same_row_lattice([[1, 0]], [[1, 0], [0, 1]])


def assert_lll_reduced(gram, reduced, h):
    """h unimodular, h G h' == reduced, and reduced is LLL-reduced with
    delta = 3/4, checked on an exact Gram-Schmidt of reduced."""
    n = len(gram)
    assert abs(det_bareiss(h)) == 1
    assert mat_mul(mat_mul(h, gram), [list(c) for c in zip(*h)]) == reduced
    mu = [[Fraction(0)] * n for _ in range(n)]
    b = [Fraction(0)] * n
    for i in range(n):
        for j in range(i):
            mu[i][j] = (reduced[i][j] - sum(mu[j][k] * mu[i][k] * b[k]
                                            for k in range(j))) / b[j]
        b[i] = reduced[i][i] - sum((mu[i][k] ** 2 * b[k] for k in range(i)),
                                   Fraction(0))
        assert all(abs(mu[i][j]) <= Fraction(1, 2) for j in range(i))
        if i:
            assert b[i] >= (Fraction(3, 4) - mu[i][i - 1] ** 2) * b[i - 1]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 8))
def test_lll_gram_is_reduced_and_unimodular(seed, n):
    rng = random.Random(seed)
    gram = None
    while gram is None:
        gram = random_posdef_gram(rng, n, hi=12)
    grams = [gram]
    if n > 1:
        grams.append(random_unimodular_conjugate(rng, gram, steps=4 * n))
    for g in grams:
        reduced, h = intmat.lll_gram(g)
        assert_lll_reduced(g, reduced, h)


def test_lll_gram_skewed_bw16_within_budget():
    # 80 random +-1 elementary basis changes of lb(rm14): max |G| = 1216
    gram = random_unimodular_conjugate(
        random.Random(2), parse_spec("lb(rm14)").gram, steps=80)
    assert max(abs(x) for row in gram for x in row) == 1216
    t0 = time.perf_counter()
    reduced, h = intmat.lll_gram(gram)
    assert time.perf_counter() - t0 < 2.0      # about 5 ms on a 2-core VM
    assert_lll_reduced(gram, reduced, h)
    assert all(reduced[i][i] == 4 for i in range(16))
