import random

import pytest

from voaplus import intmat
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
        assert intmat.det_bareiss(m) == cofactor_det(m)


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
            assert intmat.solve_integral(h, row) is not None


def test_smith_form_properties():
    rng = random.Random(19)
    seen = 0
    while seen < 40:
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n)
        if intmat.det_bareiss(m) == 0:
            continue
        seen += 1
        diag, u, uinv = intmat.smith_with_left(m)
        prod = 1
        for i, d in enumerate(diag):
            assert d > 0
            prod *= d
            if i:
                assert d % diag[i - 1] == 0
        assert prod == abs(intmat.det_bareiss(m))
        assert abs(intmat.det_bareiss(u)) == 1
        ident = intmat.mat_mul(u, uinv)
        assert ident == intmat.identity(n)
        # U*m has the same row span as diag(d): U*m*V = D with V unimodular
        um = intmat.mat_mul(u, m)
        dmat = [[diag[i] if i == j else 0 for j in range(n)] for i in range(n)]
        assert intmat.hnf(um, n) != [] and intmat.det_bareiss(um) != 0
        assert abs(intmat.det_bareiss(um)) == abs(intmat.det_bareiss(dmat))


def test_smith_singular_raises():
    with pytest.raises(RankDeficient):
        intmat.smith_with_left([[1, 1], [1, 1]])


def test_invert_fraction_roundtrip():
    rng = random.Random(23)
    seen = 0
    while seen < 25:
        n = rng.randrange(1, 5)
        m = random_matrix(rng, n)
        if intmat.det_bareiss(m) == 0:
            continue
        seen += 1
        inv = intmat.invert_fraction(m)
        assert intmat.mat_mul(m, inv) == intmat.identity(n)
        adj, d = intmat.adjugate(m)
        assert d == abs(intmat.det_bareiss(m))
        assert intmat.mat_mul(m, adj) == [[d * x for x in row]
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
