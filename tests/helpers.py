"""Independent oracles and generators used across the test suite.

Everything here is deliberately naive -- box enumeration, brute-force
products, Hermite normal forms over Fractions -- so that it shares no code
path with the package internals it checks; the exceptions, named in their
docstrings, are the leaf-counting and list-based isometry searches, which
take their candidate vectors from the package, check_rebuild, which runs
the package's two rebuild checks, is_construction_b, which runs the
package's decomposition, structural_cosets_oracle, which
classifies through the package's Smith-form route (not the parity-key
index it checks), structural_cosets_gram_route, which tests dual
membership with the Gram matrix before it reads the index,
rep_of_element, which reads the Smith form's adjugate rows, and
single_coset_frame, greedy_frame and sweep_offsets, which read one
coset's own tree and the sweep's records.  canonicalize_coset and
kernel_offsets adapt rational vectors to the package's Smith-form route
and integer kernel; golay_code and leech_gram build the rank-24 examples.
"""

import math
import random
from fractions import Fraction
from itertools import product

from voaplus import (Frame, Lattice, StructuralCosets, extract_code,
                     extract_frame, frame_cosets, make_code, vectors_of_norm)
from voaplus.constrb import _check_frame, _check_generators, _mod8_lanes
from voaplus.errors import NotPositiveDefinite, RankDeficient
from voaplus.intmat import (adjugate, dot, hnf, ldl, lll_gram,
                            same_row_lattice)
from voaplus.kernels import enumerate_offsets
from voaplus.lattice import parity_key, signed_records


def canonicalize_coset(lat, vec):
    """Canonical Coset of a dual vector of ints or Fractions."""
    return lat.discriminant.coset_of(tuple(Fraction(x) for x in vec))


def kernel_offsets(gram, rep, m, half=False):
    """kernels.enumerate_offsets for a representative of ints or Fractions:
    rep is passed as integer numerators over their least common
    denominator."""
    rep = [Fraction(r) for r in rep]
    den = math.lcm(*(r.denominator for r in rep))
    nums = tuple(r.numerator * (den // r.denominator) for r in rep)
    return enumerate_offsets(gram, den, nums, m, half)


def naive_vectors_of_norm(gram, rep, m, box=8):
    """All v = x + rep with |x_i| <= box and v' G v == m, sorted.

    Scaled-integer arithmetic: with rep = r/q the condition becomes
    (qx + r)' G (qx + r) * den(m) == num(m) * q^2.
    """
    n = len(gram)
    m = Fraction(m)
    rep = [Fraction(r) for r in rep]
    q = 1
    for c in rep:
        q = q * c.denominator // math.gcd(q, c.denominator)
    r = [int(c * q) for c in rep]
    target = m.numerator * q * q
    out = []
    for x in product(range(-box, box + 1), repeat=n):
        y = [q * xi + ri for xi, ri in zip(x, r)]
        s = sum(y[i] * gram[i][j] * y[j] for i in range(n) for j in range(n))
        if s * m.denominator == target:
            out.append(tuple(Fraction(yi, q) for yi in y))
    out.sort()
    return out


def mat_mul(a, b):
    """Plain integer matrix product of row lists."""
    cols = len(b[0])
    return [[sum(ra[k] * b[k][j] for k in range(len(b))) for j in range(cols)]
            for ra in a]


def det_bareiss(mat):
    """Exact determinant of a square integer matrix."""
    n = len(mat)
    if n == 0:
        return 1
    m = [list(row) for row in mat]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if m[k][k] == 0:
            for i in range(k + 1, n):
                if m[i][k] != 0:
                    m[k], m[i] = m[i], m[k]
                    sign = -sign
                    break
            else:
                return 0
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
            m[i][k] = 0
        prev = m[k][k]
    return sign * m[n - 1][n - 1]


def solve_integral(basis, target):
    """Integer coefficients expressing ``target`` over HNF ``basis`` rows.

    Returns the coefficient list, or None when target is outside the row
    lattice.  ``basis`` must be in Hermite normal form (intmat.hnf).
    """
    ncols = len(target)
    rem = list(target)
    coeffs = []
    for row in basis:
        p = next(j for j in range(ncols) if row[j] != 0)
        if rem[p] % row[p] != 0:
            return None
        q = rem[p] // row[p]
        coeffs.append(q)
        for j in range(ncols):
            rem[j] -= q * row[j]
    if any(rem):
        return None
    return coeffs


def principal_minor(gram, j):
    """Determinant of gram without row and column j (1 at rank 1)."""
    rest = [i for i in range(len(gram)) if i != j]
    return ldl([[gram[a][b] for b in rest] for a in rest])[0][-1]


def naive_isometry_order(gram, box=None):
    """|O(L)| by unpruned brute force over candidate images (rank <= 3).

    The default box holds every candidate: a vector x of norm m has
    x_j^2 <= m (G^-1)_jj, the principal minor without j over det G.
    """
    n = len(gram)
    if box is None:
        det = ldl(gram)[0][n]
        box = max(math.isqrt(gram[i][i] * principal_minor(gram, j) // det)
                  for i in range(n) for j in range(n))
    cands = [naive_vectors_of_norm(gram, [0] * n, gram[i][i], box)
             for i in range(n)]
    cands = [[tuple(int(c) for c in v) for v in cs] for cs in cands]

    def inner(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    count = 0
    for imgs in product(*cands):
        if all(inner(imgs[i], imgs[j]) == gram[i][j]
               for i in range(n) for j in range(i, n)):
            count += 1
    return count


def leaf_count_isometry_order(gram):
    """|O(L)| by backtracking that counts every isometry as one leaf.

    Candidate images of b_i are the vectors of norm gram[i][i] (from the
    package's enumeration, itself checked against the box oracle above);
    a partial assignment must reproduce the Gram rows exactly.  The cost is
    proportional to |O(L)|, which keeps it to small ranks.
    """
    n = len(gram)
    lat = Lattice(gram)
    cands = [[tuple(int(c) for c in v)
              for v in vectors_of_norm(lat, None, gram[i][i])]
             for i in range(n)]
    order = sorted(range(n), key=lambda i: len(cands[i]))

    def inner(u, v):
        return sum(u[i] * gram[i][j] * v[j] for i in range(n) for j in range(n))

    chosen = []

    def count(t):
        if t == n:
            return 1
        it = order[t]
        total = 0
        for v in cands[it]:
            if all(inner(chosen[s], v) == gram[order[s]][it] for s in range(t)):
                chosen.append(v)
                total += count(t + 1)
                chosen.pop()
        return total

    return count(0)


def list_isometry_order(lat):
    """|O(L)| by the orbit-product search of
    lattice.orthogonal_group_order, with each candidate list a plain list
    that every narrowing filters by one dot product per vector.

    Takes the LLL basis and the candidate vectors from the package, like
    the search it checks, but none of its lane packing.
    """
    n = lat.rank
    lat = Lattice(lll_gram(lat.gram)[0])
    cands = [vectors_of_norm(lat, None, lat.gram[i][i]) for i in range(n)]
    cands = [[tuple(int(c) for c in v) for v in cs] for cs in cands]
    order = sorted(range(n), key=lambda i: len(cands[i]))
    g = lat.gram
    gv = {v: lat.gram_times(v) for cs in cands for v in cs}

    def narrow(t, v, lists):
        w, row = gv[v], g[order[t]]
        return [[u for u in cs if dot(u, w) == row[order[k]]]
                for k, cs in enumerate(lists, t + 1)]

    def extends(t, lists):
        return not lists or (all(lists) and any(
            extends(t + 1, narrow(t, v, lists[1:])) for v in lists[0]))

    count = 1
    lists = [cands[i] for i in order]
    for t, it in enumerate(order):
        count *= sum(1 for v in lists[0]
                     if extends(t + 1, narrow(t, v, lists[1:])))
        lists = narrow(t, tuple(int(j == it) for j in range(n)), lists[1:])
    return count


def brute_force_lexmin_f2(equations, nvars):
    """Lexicographically smallest 0/1 solution of (mask, rhs) equations over
    F_2, by trying all 2^nvars assignments in order; None if there is none.

    Bit i of a mask stands for variable i, and variable 0 is compared first.
    """
    for x in product((0, 1), repeat=nvars):
        if all(sum(x[i] for i in range(nvars) if mask >> i & 1) % 2 == rhs
               for mask, rhs in equations):
            return x
    return None


def random_unimodular_conjugate(rng, gram, steps=6):
    """U G U' for a random U built from steps +-1 elementary operations.

    Each step adds +-1 times row j to row i (the basis change b_i += +-b_j)
    and then does the same to the columns, so the result is the Gram matrix
    of the same lattice in another basis.
    """
    g = [list(r) for r in gram]
    n = len(g)
    for _ in range(steps):
        i, j = rng.sample(range(n), 2)
        s = rng.choice((1, -1))
        for k in range(n):
            g[i][k] += s * g[j][k]
        for k in range(n):
            g[k][i] += s * g[k][j]
    return g


def random_posdef_gram(rng, n, lo=-4, hi=8, even=False):
    """A random symmetric positive-definite integer Gram matrix, or None."""
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = rng.randrange(2, hi + 1)
        if even and g[i][i] % 2:
            g[i][i] += 1
        for j in range(i + 1, n):
            g[i][j] = g[j][i] = rng.randrange(lo, 3)
    try:
        ldl(g)
    except NotPositiveDefinite:
        return None
    return g


def random_doubly_even_code(rng, n, k):
    """A random doubly even code of length n with dimension <= k.

    Grows a basis from random weight-0-mod-4 words with even pairwise
    intersections; the span of such words is doubly even, so the result is
    doubly even by construction.
    """
    basis = []  # kept sorted by pivot, each word forward-reduced
    for _ in range(300):
        if len(basis) >= k:
            break
        w = rng.getrandbits(n)
        if w == 0 or w.bit_count() % 4:
            continue
        if any((w & b).bit_count() % 2 for b in basis):
            continue
        for b in basis:
            if w & (b & -b):
                w ^= b
        if w == 0:
            continue
        basis.append(w)
        basis.sort(key=lambda x: x & -x)
    return make_code(n, list(basis))


def doubly_even_sample(count=120, seed=20240613):
    """At least ``count`` doubly even codes with n <= 12, k <= 6."""
    rng = random.Random(seed)
    codes = []
    while len(codes) < count:
        n = rng.choice([4, 5, 6, 7, 8, 9, 10, 11, 12])
        k = rng.randrange(0, min(6, n // 2) + 1)
        codes.append(random_doubly_even_code(rng, n, k))
    return codes


def construction_b_generators(frame, code, signs=None):
    """Generators of the Construction-B lattice over a frame, as Fractions.

    The frame vectors (ints or Fractions) may live in any coordinate
    system.  The generators are the halved signed sums over the code's
    basis words and every e_i +- e_j and 2 e_i.
    """
    frame = [[Fraction(c) for c in e] for e in frame]
    n = len(frame)
    signs = (1,) * n if signs is None else signs
    zero = [Fraction(0)] * len(frame[0])
    gens = []
    for word in code.basis:
        acc = zero
        for i in range(n):
            if word >> i & 1:
                acc = [a + signs[i] * c for a, c in zip(acc, frame[i])]
        gens.append(tuple(a / 2 for a in acc))
    for i in range(n):
        gens.append(tuple(2 * c for c in frame[i]))
        for j in range(i + 1, n):
            for s in (1, -1):
                gens.append(tuple(a + s * b
                                  for a, b in zip(frame[i], frame[j])))
    return gens


def same_lattice(gens_a, gens_b):
    """True iff two full-rank generator lists span the same Z-module."""
    return same_row_lattice([[Fraction(c) for c in v] for v in gens_a],
                            [[Fraction(c) for c in v] for v in gens_b])


def is_odd(lat):
    """True iff some basis vector has odd norm."""
    return not lat.is_even


def inner(lat, u, v):
    """<u, v> for coordinate vectors of ints or Fractions, as a Fraction."""
    g = lat.gram
    n = lat.rank
    return sum(Fraction(u[i]) * g[i][j] * Fraction(v[j])
               for i in range(n) for j in range(n))


def norm(lat, v):
    return inner(lat, v, v)


def vec_json(vec):
    """A vector of ints or Fractions as the JSON writer lists it: "p/q"."""
    return ["%d/%d" % (x.numerator, x.denominator) for x in map(Fraction, vec)]


def vec_text(vec):
    """A vector of ints or Fractions as the text writer prints it."""
    return "(" + ", ".join(str(Fraction(x)) for x in vec) + ")"


def dual_gram(lat):
    """Gram matrix of the dual basis: the exact inverse of lat.gram."""
    rows, den = adjugate(lat.gram)
    return tuple(tuple(Fraction(x, den) for x in row) for row in rows)


def structural_cosets_oracle(lat, dec):
    """(twist_plus, twist_minus) of a FrameDecomposition through Fractions.

    plus = (sum_i s_i e_i)/4 and minus = plus - s_1 e_1, each classified by
    the Smith-form route (DiscriminantGroup.coset_of) when twice it lies in
    L and it lies in the dual, else None.
    """
    n = lat.rank
    frame = dec.frame
    plus = [sum(s * e[j] for s, e in zip(dec.signs, frame)) / 4
            for j in range(n)]
    minus = [p - dec.signs[0] * c for p, c in zip(plus, frame[0])]

    def classify(v):
        if any((2 * c).denominator != 1 for c in v):
            return None
        if any(sum(g * c for g, c in zip(row, v)).denominator != 1
               for row in lat.gram):
            return None
        return lat.discriminant.coset_of(tuple(v))

    return classify(plus), classify(minus)


def rebuild_spans_lattice(dec):
    """True iff a FrameDecomposition's (code, signs, frame) generate L.

    The Hermite-normal-form route: the generators and the unit basis of L
    must have the same HNF (same_lattice).  Generators of lower rank, as a
    frame with a repeated vector gives, generate something else.
    """
    n = len(dec.rows)
    unit = [tuple(int(i == j) for j in range(n)) for i in range(n)]
    try:
        return same_lattice(
            construction_b_generators(dec.frame, dec.code, dec.signs), unit)
    except RankDeficient:
        return False


def check_rebuild(frame, code, signs):
    """Raise unless (code, signs, frame) generate L itself: checks (b)
    and (a) of the constrb module docstring and the rank mod 2, through the
    package's own two halves, which extract_code runs itself: (b) before it
    reads the code and (a) on the lanes it has built for the signs."""
    _check_frame(frame)
    _check_generators(*_mod8_lanes(frame.rows), code, signs)


def is_construction_b(lat):
    """True iff some coset meets the bound; re-verified by decomposing."""
    fc = frame_cosets(lat)
    if not fc.cosets:
        return False
    extract_code(lat, extract_frame(lat, fc.cosets[0]), fc.cosets[0])
    return True


def structural_cosets_gram_route(lat, dec):
    """StructuralCosets of a FrameDecomposition, testing dual membership
    with the Gram matrix.

    plus = (sum_i s_i e_i)/4 and minus = plus - s_1 e_1 are num / 8 for
    integer rows num (the rows of dec are 2 e_i).  Such a vector is
    classified when 4 divides num (twice it lies in L) and 8 divides G num
    (it lies in the dual), by the parity key of num / 4; else None.
    """
    n = lat.rank
    plus = [sum(s * y[j] for s, y in zip(dec.signs, dec.rows))
            for j in range(n)]
    minus = [p - 4 * dec.signs[0] * c for p, c in zip(plus, dec.rows[0])]
    index = lat.discriminant.torsion2_index

    def classify(num):
        if any(c % 4 for c in num) or any(c % 8 for c in lat.gram_times(num)):
            return None
        return index[parity_key([c // 4 for c in num])]

    return StructuralCosets(twist_plus=classify(plus),
                            twist_minus=classify(minus))


def rep_of_element(disc, a):
    """The canonical representative of the group element a (each a_i in
    [0, d_i)) as Fractions: the adjugate rows of (UG) times a, over their
    denominator."""
    rows, den = disc._reps
    return tuple(Fraction(dot(row, a), den) for row in rows)


def single_coset_frame(lat, coset):
    """extract_frame's greedy frame, from the coset's own tree.

    The candidates are vectors_of_norm(lat, coset, 2), one enumeration of
    that coset alone (never the sweep), as integer rows y = 2v, and each
    pairing row G y is computed here.
    """
    n = lat.rank
    rows, pairings = [], []
    for v in vectors_of_norm(lat, coset, 2):
        y = tuple(int(2 * c) for c in v)
        if all(dot(y, gy) == 0 for gy in pairings):
            rows.append(y)
            pairings.append(tuple(lat.gram_times(y)))
            if len(rows) == n:
                return Frame(rows=tuple(rows), pairings=tuple(pairings))
    raise AssertionError("no frame in coset %s" % coset.label())


def greedy_frame(lat, coset):
    """extract_frame's greedy, with exact inner products and no lanes.

    The candidates are the coset's records from the sweep, both signs,
    sorted; each is kept when its w pairs to 0 with every kept one.  Of
    each pair +-w the negative comes first, and the positive is then
    refused, its pairing with -w being -8.
    """
    n = lat.rank
    rows, pairings = [], []
    for r in signed_records(lat.torsion2_norm2_records[coset]):
        if all(dot(r[:n], gy) == 0 for gy in pairings):
            rows.append(r[:n])
            pairings.append(r[n:])
    assert len(rows) == n, "no frame in coset %s" % coset.label()
    return Frame(rows=tuple(rows), pairings=tuple(pairings))


def sweep_offsets(lat):
    """{coset: offsets} of the sweep's norm-2 vectors, both signs, sorted.

    Each record's w is 2 (x + rep), so the offset is x = (w - 2 rep) / 2;
    the order is the records' (by w), which is the lex order of x.
    """
    n = lat.rank
    out = {}
    for coset, recs in lat.torsion2_norm2_records.items():
        r2 = [int(2 * c) for c in coset.rep]
        out[coset] = tuple(tuple((a - b) // 2 for a, b in zip(r[:n], r2))
                           for r in signed_records(recs))
    return out


def golay_code():
    """The extended binary Golay code [24, 12, 8]: the 12 cyclic shifts of
    g(x) = x^11 + x^10 + x^6 + x^5 + x^4 + x^2 + 1 over length 23, each
    with a parity bit in coordinate 23."""
    g = sum(1 << e for e in (0, 2, 4, 5, 6, 10, 11))
    words = [g << i for i in range(12)]
    return make_code(24, [w | (w.bit_count() & 1) << 23 for w in words])


def leech_gram():
    """A Gram matrix of the Leech lattice.

    sqrt8 Leech is spanned by 2c for the Golay words c, 4 (e_1 + e_i),
    8 e_1 and (-3, 1^23) (Conway-Sloane, SPLAG ch. 4, sec. 11); its HNF
    basis B gives the Gram matrix B B' / 8.
    """
    n = 24
    gens = [[2 * (w >> i & 1) for i in range(n)] for w in golay_code().basis]
    gens += [[4 * (j in (0, i)) for j in range(n)] for i in range(1, n)]
    gens += [[8] + [0] * (n - 1), [-3] + [1] * (n - 1)]
    basis = hnf(gens, n)
    return [[dot(a, b) // 8 for b in basis] for a in basis]


def is_isometric(gram_a, gram_b):
    """True iff the two Gram matrices describe isometric lattices.

    Brute force: images of the basis of A are sought, one at a time,
    among the vectors of B of the same norm (box
    enumeration, the box from Cauchy-Schwarz: |x_j|^2 <= N (G_B^-1)_jj),
    keeping the Gram matrix; with equal determinants a Gram-preserving
    image of the basis spans all of B.
    """
    n = len(gram_a)
    if n != len(gram_b) or det_bareiss(gram_a) != det_bareiss(gram_b):
        return False
    adj, det = adjugate(gram_b)

    def vectors(m):
        box = max(math.isqrt(m * adj[j][j] // det) for j in range(n))
        return [v for v in product(range(-box, box + 1), repeat=n)
                if dot(v, [dot(row, v) for row in gram_b]) == m]

    cands = [vectors(gram_a[i][i]) for i in range(n)]

    def extend(images):
        k = len(images)
        if k == n:
            return True
        return any(extend(images + [v]) for v in cands[k]
                   if all(dot(u, [dot(row, v) for row in gram_b])
                          == gram_a[j][k] for j, u in enumerate(images)))

    return extend([])
