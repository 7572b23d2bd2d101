"""Exact integer and rational matrix routines.

Fraction-free LDL and adjugates (Bareiss), Hermite normal forms, Smith
forms as (diag, U) with U the left transform and the integral LLL
reduction of a Gram matrix, all over Python ints.  fraction_rows makes
every Fraction of the package's views, importing ``fractions`` on first
use.  Matrices are lists of row lists.  Sizes in
this package stay modest (catalog ranks up to 16, constructor sizes up to
catalog.SIZE_LIMIT = 128), so the straightforward algorithms are the right
ones.
"""

import math
from operator import mul

from .errors import NotPositiveDefinite, RankDeficient
from .serialize import int_str


def xgcd(a, b):
    """Return (g, x, y) with g = gcd(a, b) = a*x + b*y and g >= 0."""
    x, nx = 1, 0
    y, ny = 0, 1
    g, ng = a, b
    while ng:
        q = g // ng
        x, nx = nx, x - q * nx
        y, ny = ny, y - q * ny
        g, ng = ng, g - q * ng
    if g < 0:
        x, y, g = -x, -y, -g
    return g, x, y


def dot(u, v):
    """Sum of the products of matching entries."""
    return sum(map(mul, u, v))


def identity(n):
    return [[1 if i == j else 0 for j in range(n)] for i in range(n)]


def ldl(gram):
    """Fraction-free LDL data of a positive-definite integer Gram matrix.

    Returns (d, lam): d[k] is the k-th leading principal minor (d[0] = 1)
    and, for j <= k, lam[k][j] = d[j+1] * mu_kj with mu the Gram-Schmidt
    coefficients, so lam[k][k] = d[k+1].  Then
    y' G y = sum_i w_i^2 / (d[i] d[i+1]), w_i = sum_{k>=i} lam[k][i] y_k.
    This is the integral Gram-Schmidt step of Cohen, "A Course in
    Computational Algebraic Number Theory", Alg. 2.6.7 (Bareiss
    elimination): every division is exact.  Raises NotPositiveDefinite at
    the first leading minor that is not positive.
    """
    n = len(gram)
    d = [1] * (n + 1)
    lam = [[0] * n for _ in range(n)]
    for k in range(n):
        for j in range(k + 1):
            u = gram[k][j]
            for i in range(j):
                u = (d[i + 1] * u - lam[k][i] * lam[j][i]) // d[i]
            lam[k][j] = u
        if lam[k][k] <= 0:
            raise NotPositiveDefinite(
                "gram matrix is not positive definite: leading minor %d "
                "is %s" % (k + 1, int_str(lam[k][k])))
        d[k + 1] = lam[k][k]
    return d, lam


def _hnf_inplace(rows, ncols):
    """Row-reduce ``rows`` to Hermite normal form in place.

    Pivots positive, entries above each pivot reduced into [0, pivot).
    Zero rows sink to the bottom.
    """
    m = len(rows)
    r = 0
    for c in range(ncols):
        piv = None
        for i in range(r, m):
            if rows[i][c] != 0:
                piv = i
                break
        if piv is None:
            continue
        rows[r], rows[piv] = rows[piv], rows[r]
        for i in range(r + 1, m):
            while rows[i][c] != 0:
                a, b = rows[r][c], rows[i][c]
                if b % a == 0:
                    q = b // a
                    for j in range(ncols):
                        rows[i][j] -= q * rows[r][j]
                else:
                    g, x, y = xgcd(a, b)
                    ag, bg = a // g, b // g
                    for j in range(ncols):
                        ra, ri = rows[r][j], rows[i][j]
                        rows[r][j] = x * ra + y * ri
                        rows[i][j] = -bg * ra + ag * ri
        if rows[r][c] < 0:
            rows[r] = [-v for v in rows[r]]
        for i in range(r):
            q = rows[i][c] // rows[r][c]
            if q:
                for j in range(ncols):
                    rows[i][j] -= q * rows[r][j]
        r += 1
        if r == m:
            break
    return r


def hnf(rows, ncols=None):
    """Canonical HNF basis (nonzero rows only) of the row lattice."""
    if not rows:
        return []
    ncols = len(rows[0]) if ncols is None else ncols
    work = [list(r) for r in rows]
    rank = _hnf_inplace(work, ncols)
    return work[:rank]


def scaled_integer_rows(vectors):
    """Clear denominators: returns (int rows, den) with rows = den * vectors.

    Entries may be ints or Fractions; den is their least common
    denominator, and no Fraction is created on the way.
    """
    den = math.lcm(*(x.denominator for v in vectors for x in v))
    return [[x.numerator * (den // x.denominator) for x in v]
            for v in vectors], den


def same_row_lattice(gens_a, gens_b):
    """True iff two rational generator lists span the same full-rank Z-module.

    Raises RankDeficient when either list fails to span the ambient space.
    """
    if not gens_a or not gens_b:
        raise RankDeficient("empty generator list")
    ncols = len(gens_a[0])
    rows, _ = scaled_integer_rows(list(gens_a) + list(gens_b))
    rows_a, rows_b = rows[:len(gens_a)], rows[len(gens_a):]
    ha = hnf(rows_a, ncols)
    hb = hnf(rows_b, ncols)
    if len(ha) < ncols or len(hb) < ncols:
        raise RankDeficient("generators do not span full rank")
    return ha == hb


def smith_with_left(mat):
    """Smith form of a nonsingular integer matrix, tracking left transforms.

    Returns (diag, U) where U*mat*V == diag(d) for some untracked
    unimodular V and the d_i are positive with d_1 | d_2 | ... | d_n.
    """
    n = len(mat)
    # rows of [mat | I]: row operations build U in the right half, column
    # operations touch the left half only
    a = [list(row) + e for row, e in zip(mat, identity(n))]

    def row_add(i, j, q):  # row_i += q * row_j
        a[i] = [x + q * y for x, y in zip(a[i], a[j])]

    def col_add(j, i, q):  # col_j += q * col_i (right transform, untracked)
        for r in range(n):
            a[r][j] += q * a[r][i]

    def col_swap(i, j):
        for r in range(n):
            a[r][i], a[r][j] = a[r][j], a[r][i]

    def diagonalize():
        for k in range(n):
            while True:
                # move a minimal-magnitude nonzero entry to (k, k)
                best = None
                for i in range(k, n):
                    for j in range(k, n):
                        if a[i][j] != 0 and (
                                best is None
                                or abs(a[i][j]) < abs(a[best[0]][best[1]])):
                            best = (i, j)
                if best is None:
                    raise RankDeficient("singular matrix in Smith reduction")
                a[k], a[best[0]] = a[best[0]], a[k]
                if best[1] != k:
                    col_swap(k, best[1])
                dirty = False
                for i in range(k + 1, n):
                    if a[i][k] != 0:
                        row_add(i, k, -(a[i][k] // a[k][k]))
                        if a[i][k] != 0:
                            dirty = True
                for j in range(k + 1, n):
                    if a[k][j] != 0:
                        col_add(j, k, -(a[k][j] // a[k][k]))
                        if a[k][j] != 0:
                            dirty = True
                if not dirty:
                    break
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]

    # Diagonalize; whenever the divisibility chain d_i | d_{i+1} fails, fold
    # row i+1 into row i (putting gcd(d_i, d_{i+1}) within reach) and
    # re-diagonalize.  Each fold strictly shrinks d_i, so this terminates.
    diagonalize()
    while True:
        bad = next((i for i in range(n - 1)
                    if a[i + 1][i + 1] % a[i][i] != 0), None)
        if bad is None:
            break
        row_add(bad, bad + 1, 1)
        diagonalize()
    return [a[i][i] for i in range(n)], [row[n:] for row in a]


def adjugate(mat):
    """(rows, d) for a nonsingular integer matrix: d = |det mat| and
    rows = d * mat^-1, an integer matrix.

    Fraction-free Gauss-Jordan elimination (Bareiss) on [mat | I].  Every
    intermediate entry is a minor of the augmented matrix, so each division
    is exact; at the end the left block is p * I and the right block
    p * mat^-1, where p = +-det.
    """
    n = len(mat)
    a = [list(row) + [1 if j == i else 0 for j in range(n)]
         for i, row in enumerate(mat)]
    prev = 1
    for k in range(n):
        piv = next((i for i in range(k, n) if a[i][k] != 0), None)
        if piv is None:
            raise RankDeficient("singular matrix")
        a[k], a[piv] = a[piv], a[k]
        rk = a[k]
        p = rk[k]
        for i in range(n):
            if i != k:
                f = a[i][k]
                a[i] = [(p * x - f * y) // prev for x, y in zip(a[i], rk)]
        prev = p
    s = 1 if prev > 0 else -1
    return [[s * x for x in row[n:]] for row in a], s * prev


def fraction_rows(rows, den):
    """The integer rows over den > 0 as a list of tuples of Fractions;
    a job that makes none never loads fractions (nor decimal, numbers)."""
    from fractions import Fraction
    return [tuple(Fraction(x, den) for x in row) for row in rows]


def invert_fraction(mat):
    """Exact inverse of a nonsingular matrix with int/Fraction entries."""
    rows, den = scaled_integer_rows(mat)
    adj, det = adjugate(rows)
    return fraction_rows([[den * x for x in row] for row in adj], det)


def lll_gram(gram):
    """Integral LLL reduction (delta = 3/4) of a positive-definite Gram matrix.

    Returns (reduced, h): h is unimodular and reduced = h * gram * h^T is
    the Gram matrix of an LLL-reduced basis.  All-integer form of
    Lenstra-Lenstra-Lovasz (1982), after Cohen, "A Course in Computational
    Algebraic Number Theory", Alg. 2.6.7: with d[i] the Gram determinant of
    the first i vectors and lam[k][j] = d[j+1] * mu_kj, every update is an
    exact integer division.  The reduced basis is size-reduced
    (|2 lam[k][j]| <= d[j+1]) and satisfies the Lovasz condition
    4 d[k+1] d[k-1] >= 3 d[k]^2 - 4 lam[k][k-1]^2.
    """
    n = len(gram)
    g = [list(row) for row in gram]
    h = identity(n)
    # lam's diagonal is not kept up to date below; d is
    d, lam = ldl(g)

    def reduce(k, l):
        # b_k -= q b_l with q the integer nearest mu_kl
        dl = d[l + 1]
        if 2 * abs(lam[k][l]) <= dl:
            return
        q = (2 * lam[k][l] + dl) // (2 * dl)
        h[k] = [a - q * b for a, b in zip(h[k], h[l])]
        g[k] = [a - q * b for a, b in zip(g[k], g[l])]
        for row in g:
            row[k] -= q * row[l]
        lam[k][l] -= q * dl
        for i in range(l):
            lam[k][i] -= q * lam[l][i]

    def swap(k):
        # exchange b_{k-1} and b_k; d[k] and the lam entries it touches move
        h[k - 1], h[k] = h[k], h[k - 1]
        g[k - 1], g[k] = g[k], g[k - 1]
        for row in g:
            row[k - 1], row[k] = row[k], row[k - 1]
        for j in range(k - 1):
            lam[k - 1][j], lam[k][j] = lam[k][j], lam[k - 1][j]
        lm = lam[k][k - 1]
        dk, dk1 = d[k + 1], d[k]
        b = (d[k - 1] * dk + lm * lm) // dk1
        for i in range(k + 1, n):
            t = lam[i][k]
            lam[i][k] = (dk * lam[i][k - 1] - lm * t) // dk1
            lam[i][k - 1] = (b * t + lm * lam[i][k]) // dk
        d[k] = b

    k = 1
    while k < n:
        reduce(k, k - 1)
        lm = lam[k][k - 1]
        if 4 * d[k + 1] * d[k - 1] < 3 * d[k] * d[k] - 4 * lm * lm:
            swap(k)
            k = max(1, k - 1)
        else:
            for l in range(k - 2, -1, -1):
                reduce(k, l)
            k += 1
    return g, h
