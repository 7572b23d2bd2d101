"""Integral positive-definite lattices in exact arithmetic.

A lattice is its Gram matrix; every vector in the API is a coordinate tuple
over the lattice basis.  Lattice vectors have integer coordinates, dual
vectors rational ones (x lies in the dual iff G x is integral).  Cosets of
the lattice inside its dual carry a canonical representative derived from
the Smith form of the Gram matrix, so equality of cosets is equality of
representatives.  A Coset holds its representative as integer numerators
over one denominator, the form the kernel takes, and the vectors of a
norm (an int or a Fraction) in a coset are integer rows over its
denominator (vector_rows_of_norm).  A Coset's ``rep`` and vectors_of_norm
are their Fraction views, made by intmat.fraction_rows.

The norm-2 vectors of all order-<=2 cosets come from one enumeration.  A
dual vector v has 2v in L exactly when w = 2v lies in
M = L cap 2L* = {x in Z^n : G x = 0 mod 2}, and <v, v> = 2 exactly when
<w, w> = 8.  So those vectors are the w/2 for the norm-8 vectors w of M,
and w mod 2 names the coset of w/2: two such vectors lie in one coset
exactly when their w agree mod 2L.  The parity key of w is the n-bit
integer with bit j = w_j mod 2, and DiscriminantGroup.torsion2_index maps
it to the coset.  M is twice the union of the order-<=2 cosets, so its
basis comes from the Smith form: the 2 e_i and twice the representatives
of the order-2 generators.  M is enumerated once, in an LLL-reduced
basis; the kernel hands over one vector of each pair +-w (kernels,
half=True), and -w lies in w's coset, as -w = w mod 2.

Each swept vector is kept as a record: the tuple w + G w of 2n integers
over L's basis, G w being the pairings <w, b_j>.  The records are the one
stored copy of the sweep.  The frame greedy of constrb reads them, and so
do norm-2 counts on those cosets once they exist (count_norm, root_count);
vector_rows_of_norm always lists a coset from its own tree.  A record costs
one dot product of the reduced-basis vector y with the packed rows: every
reduced basis row is packed once, with its G-image, into one int of 2n
signed lanes, and w + G w = sum_i y_i P_i is read back from the lanes of
the sum (see _torsion2_sweep for the lane bound).

The sweep refuses a lattice with more than 2^TORSION2_LIMIT order-<=2
cosets (DimensionTooLarge) before it builds any of them.
"""

import math
import sys
from collections import namedtuple
from functools import cached_property, lru_cache, wraps
from itertools import zip_longest
from operator import add, neg

from . import intmat, kernels
from .errors import (DimensionTooLarge, NormNegative, NotDualVector, NotEven,
                     NotIntegral, NotPositiveDefinite, NotSymmetric)
from .serialize import scaled_vec_text

# at most 2^16 order-<=2 cosets: every lattice of rank <= 16 (a cold
# analyze of lb(zero(16)) takes about 9 s on a 2-core machine)
TORSION2_LIMIT = 16
# at most 10^TREE_LOG10_LIMIT nodes above the leaves of one enumeration
# tree, by the Gaussian heuristic (_check_tree_size): over 100 times the
# largest estimate of the tests, selftest and the benchmark's workloads
# (10^4.7, D16 at norm 4)
TREE_LOG10_LIMIT = 7


class Coset(namedtuple("Coset", "den nums order2")):
    """An element of dual/lattice: its canonical representative nums / den
    in lowest terms (den > 0), and order2, whether twice it lies in L."""
    __slots__ = ()

    @property
    def rep(self):
        """The representative as a tuple of Fractions."""
        return intmat.fraction_rows((self.nums,), self.den)[0]

    def label(self):
        return scaled_vec_text(self.den, self.nums)


class Lattice:
    """Positive-definite integral lattice given by its Gram matrix."""

    def __init__(self, gram):
        rows = [list(r) for r in gram]
        n = len(rows)
        if n == 0 or any(len(r) != n for r in rows):
            raise NotPositiveDefinite("gram matrix must be square and nonempty")
        for i, r in enumerate(rows):
            for j, x in enumerate(r):
                # ints and whole Fractions alike have denominator 1
                if isinstance(x, bool) or getattr(x, "denominator", 0) != 1:
                    raise NotIntegral("gram[%d][%d] is a %s, not an integer"
                                      % (i, j, type(x).__name__))
        rows = [[int(x) for x in r] for r in rows]
        for i in range(n):
            for j in range(i + 1, n):
                if rows[i][j] != rows[j][i]:
                    raise NotSymmetric("gram[%d][%d] != gram[%d][%d]" % (i, j, j, i))
        self._minors = intmat.ldl(rows)[0]
        self._gram = tuple(tuple(r) for r in rows)
        self._rank = n

    @property
    def gram(self):
        return self._gram

    @property
    def rank(self):
        return self._rank

    def __eq__(self, other):
        return isinstance(other, Lattice) and self._gram == other._gram

    def __hash__(self):
        return hash(self._gram)

    def __repr__(self):
        return "Lattice(%r)" % (list(map(list, self._gram)),)

    @property
    def det(self):
        return self._minors[-1]

    @cached_property
    def is_even(self):
        return all(self._gram[i][i] % 2 == 0 for i in range(self._rank))

    @cached_property
    def _dual_scaled(self):
        """(rows, det): the dual Gram matrix as integer rows over det."""
        return intmat.adjugate(self._gram)

    def gram_times(self, y):
        """G y for an integer vector y."""
        return [intmat.dot(row, y) for row in self._gram]

    @cached_property
    def discriminant(self):
        return DiscriminantGroup(self)

    @property
    def trivial_coset(self):
        return self.discriminant.trivial

    @cached_property
    def root_count(self):
        return count_norm(self, None, 2)

    @cached_property
    def torsion2_norm2_records(self):
        """{coset: sorted records} of the norm-2 vectors of every order-<=2
        coset, in torsion2_reps order; one enumeration of M.
        A record is w + G w for w = 2v, one of each pair +-v (see the
        module docstring).  Once computed, count_norm reads it for norm 2
        on these cosets."""
        return _torsion2_sweep(self)

    @cached_property
    def is_2_elementary(self):
        return all(d in (1, 2) for d in self.discriminant.invariant_factors)

    @cached_property
    def is_totally_even(self):
        """True when both the lattice and its sqrt2-rescaled dual are even."""
        if not self.is_even:
            return False
        rows, den = self._dual_scaled
        return all(rows[i][i] % den == 0
                   and all(2 * x % den == 0 for x in rows[i])
                   for i in range(self._rank))


class DiscriminantGroup:
    """Structure of dual/lattice from the Smith form of the Gram matrix.

    With U * G * V = diag(d), the map x -> U(Gx) mod d identifies
    dual/lattice with the direct sum of Z/d_i; the canonical representative
    of a class a is (UG)^-1 a with each a_i reduced into [0, d_i).
    """

    def __init__(self, lat):
        self.lattice = lat
        diag, u = intmat.smith_with_left([list(r) for r in lat.gram])
        self.invariant_factors = tuple(diag)
        self._u = u
        # (rows, |det G|) with rows = |det G| (UG)^-1
        self._reps = intmat.adjugate([lat.gram_times(r) for r in u])

    def element_of(self, vec):
        """Group element (a_i mod d_i) of a dual vector (ints or Fractions)."""
        (y,), q = intmat.scaled_integer_rows([vec])
        gy = self.lattice.gram_times(y)
        if any(x % q for x in gy):
            raise NotDualVector("vector is not in the dual lattice")
        gv = [x // q for x in gy]
        return tuple(intmat.dot(row, gv) % d
                     for row, d in zip(self._u, self.invariant_factors))

    def coset_of_element(self, a):
        d = self.invariant_factors
        a = tuple(ai % di for ai, di in zip(a, d))
        order2 = all((2 * ai) % di == 0 for ai, di in zip(a, d))
        return self._coset([intmat.dot(row, a) for row in self._reps[0]],
                           order2)

    def _coset(self, nums, order2):
        """The Coset of the representative nums / |det G|, reduced."""
        g = math.gcd(self._reps[1], *nums)
        return Coset(self._reps[1] // g, tuple(x // g for x in nums), order2)

    def coset_of(self, vec):
        return self.coset_of_element(self.element_of(vec))

    @cached_property
    def trivial(self):
        zero = tuple([0] * self.lattice.rank)
        return self.coset_of_element(zero)

    def check_torsion2_size(self):
        """Raise DimensionTooLarge above 2^TORSION2_LIMIT order-<=2 cosets.

        There are 2^k of them, k the number of even invariant factors; this
        builds none.
        """
        k = sum(1 for d in self.invariant_factors if d % 2 == 0)
        if k > TORSION2_LIMIT:
            raise DimensionTooLarge(
                "refusing to build 2^%d order-<=2 cosets (limit 2^%d)"
                % (k, TORSION2_LIMIT))

    @cached_property
    def torsion2_reps(self):
        """All cosets of order <= 2, the trivial one included, in canonical
        order; checked against the size limit first."""
        self.check_torsion2_size()
        # the elements are the sums of some of the (d_i / 2) e_i, d_i even;
        # their representatives' numerators over the common denominator
        # |det G| are the same sums of columns of rows, and sort as the
        # representatives do
        rows = self._reps[0]
        nums = [(0,) * len(rows)]
        for i, d in enumerate(self.invariant_factors):
            if d % 2 == 0:
                col = [d // 2 * row[i] for row in rows]
                nums += [tuple(map(add, num, col)) for num in nums]
        nums.sort()
        return tuple(self._coset(num, True) for num in nums)

    @cached_property
    def torsion2_index(self):
        """{parity key of 2 rep: coset} over torsion2_reps.

        The order-<=2 coset of a dual vector v with 2v in L is the value at
        the parity key of 2v (module docstring); the keys are all of
        ker(G mod 2) = M mod 2.  The den of these cosets divides 2.
        """
        return {parity_key([2 // c.den * x for x in c.nums]): c
                for c in self.torsion2_reps}


def parity_key(w):
    """The n-bit key of an integer vector w mod 2: bit j is w_j mod 2."""
    key = 0
    for j, c in enumerate(w):
        key |= (c & 1) << j
    return key


def cached_on_lattice(fn):
    """fn(lat), computed once per Lattice object and kept on it, as the
    cached_property values are; an equal lattice built anew computes its
    own, so everything derived from one sweep stays on one object."""
    name = "_cached_" + fn.__name__

    @wraps(fn)
    def cached(lat):
        store = lat.__dict__
        if name not in store:
            store[name] = fn(lat)
        return store[name]

    return cached


@lru_cache(maxsize=None)
def _cached_offsets(lat, den, nums, m):
    return tuple(kernels.enumerate_offsets(lat.gram, den, nums, m))


def _torsion2_basis(lat):
    """HNF basis of M = {x : G x = 0 mod 2}, rows over L's basis.

    M = 2T for T = {v in L* : 2v in L}, and T is spanned by L and the
    representatives of the classes (d_i/2) e_i, d_i even: twice such a
    representative is column i of DiscriminantGroup._reps times d_i / den.
    """
    n = lat.rank
    disc = lat.discriminant
    rows, den = disc._reps
    gens = [[2 * (j == i) for j in range(n)] for i in range(n)]
    gens += [[d * row[i] // den for row in rows]
             for i, d in enumerate(disc.invariant_factors) if d % 2 == 0]
    return intmat.hnf(gens, n)


def _torsion2_sweep(lat):
    """See Lattice.torsion2_norm2_records and the module docstring.

    The lanes.  A record w + G w of a norm-8 vector w of M has, by
    Cauchy-Schwarz, |w_j|^2 = <w, b*_j>^2 <= 8 (G^-1)_jj (b*_j the dual
    basis, of norm (G^-1)_jj = adj_jj / det, exact from _dual_scaled) and
    |(G w)_j|^2 = <w, b_j>^2 <= 8 G_jj.  So every entry is at most
    ``bound`` in absolute value, and lanes of ``width`` bits with
    bound < 2^(width-1) hold it as a signed number.  Each reduced basis row
    r_i of M is packed once: P_i = sum_k (r_i + G r_i)_k 2^(width k).  The
    packing is linear, so for y over the reduced basis,
    sum_i y_i P_i = sum_k c_k 2^(width k) with c = w + G w, whatever the
    carries in between; adding bias = sum_k 2^(width-1) 2^(width k) makes
    every lane c_k + 2^(width-1), in [0, 2^width), and xor with bias turns
    each lane into the two's complement of c_k, read back by a memoryview
    cast (lanes over 8 bytes, which need a basis skewed past 2^60, by
    int.from_bytes).  Bit 0 of a two's-complement lane is c_k mod 2, so
    the mapped int masked by ``low`` (bit 0 of each of the first n lanes)
    holds w mod 2: the records are bucketed by it, and each bucket's
    parity key is read once, off its first record.
    """
    n = lat.rank
    index = lat.discriminant.torsion2_index     # the size check comes first
    basis = _torsion2_basis(lat)
    reduced, h = intmat.lll_gram(sublattice_gram(lat, basis))
    # the reduced basis of M, rows over L's basis
    rows = [[intmat.dot(hi, col) for col in zip(*basis)] for hi in h]
    adj, det = lat._dual_scaled
    bound = max(math.isqrt(max(8 * adj[j][j] // det, 8 * lat.gram[j][j]))
                for j in range(n))
    nbytes = 1      # bytes per lane: 1, 2, 4, 8 (a memoryview format), ...
    while bound >> (8 * nbytes - 1):
        nbytes *= 2
    width = 8 * nbytes
    bias = sum(1 << (width * k + width - 1) for k in range(2 * n))
    packed = [sum(c << (width * k)
                  for k, c in enumerate(row + lat.gram_times(row)))
              for row in rows]
    low = sum(1 << (width * k) for k in range(n))
    size = 2 * n * nbytes
    # bytes in the host's order, so that a cast reads the lanes; on a
    # big-endian host they come out last lane first
    order = sys.byteorder
    step = 1 if order == "little" else -1
    if nbytes <= 8:
        code = "bhiq"[nbytes.bit_length() - 1]

        def unpack(buf):
            return tuple(memoryview(buf).cast(code))[::step]
    else:
        def unpack(buf):
            return tuple(int.from_bytes(buf[i:i + nbytes], order, signed=True)
                         for i in range(0, size, nbytes))[::step]
    # half: one of each pair +-y; -w lies in the coset of w (-w = w mod 2)
    ys = kernels.enumerate_offsets(reduced, 1, (0,) * n, 8, True)
    buckets = {}
    while ys:
        # each y is freed once mapped
        v = (intmat.dot(ys.pop(), packed) + bias) ^ bias
        buckets.setdefault(v & low, []).append(unpack(v.to_bytes(size, order)))
    by_key = {parity_key(recs[0][:n]): recs for recs in buckets.values()}
    return {c: tuple(sorted(by_key.get(key, ()))) for key, c in index.items()}


def signed_records(recs):
    """Both signs of the one-of-each-pair records, sorted (by w first)."""
    return sorted(recs + tuple(tuple(map(neg, r)) for r in recs))


def _check_tree_size(lat, m):
    """Raise DimensionTooLarge when the enumeration of norm m would visit
    more than 10^TREE_LOG10_LIMIT nodes above its leaves.

    By the Gaussian heuristic, the level with x_{n-j} .. x_{n-1} fixed
    holds about V_j m^(j/2) sqrt(d[n-j] / d[n]) nodes: the points of L
    projected away from its first n - j basis vectors, a lattice of
    dimension j and covolume sqrt(d[n] / d[n-j]) (d the leading minors,
    as in kernels), in the ball of radius sqrt(m) and volume V_j m^(j/2).
    The levels j = 1 .. n-1 are summed; the leaves (j = n) are read off
    the ends of a range.  The sum is formed in logarithms, so that any
    norm gives a finite estimate.
    """
    d, n = lat._minors, lat.rank
    if n == 1 or m == 0:
        return
    log_m = math.log(m.numerator) - math.log(m.denominator)
    logs = [j / 2 * (math.log(math.pi) + log_m) - math.lgamma(j / 2 + 1)
            + (math.log(d[n - j]) - math.log(d[n])) / 2 for j in range(1, n)]
    top = max(logs)
    log_total = top + math.log(sum(math.exp(t - top) for t in logs))
    if log_total > TREE_LOG10_LIMIT * math.log(10):
        raise DimensionTooLarge(
            "refusing an enumeration of about 10^%.1f tree nodes (limit "
            "10^%d)" % (log_total / math.log(10), TREE_LOG10_LIMIT))


def _offsets(lat, coset, m):
    """The offsets x of the vectors x + rep of norm m in the coset (None:
    L), from the coset's own cached tree, whether or not the sweep exists."""
    if m < 0:
        raise NormNegative("norm target must be >= 0")
    _check_tree_size(lat, m)
    if coset is None:
        return _cached_offsets(lat, 1, (0,) * lat.rank, m)
    return _cached_offsets(lat, coset.den, coset.nums, m)


def vector_rows_of_norm(lat, coset, m):
    """(den, rows): the vectors v of norm m in the coset (None: L, den 1)
    as integer rows den v = den x + coset.nums, lex-sorted, x running over
    the offsets of the coset's cached tree (exact integers, see kernels)."""
    offsets = _offsets(lat, coset, m)
    if coset is None:
        return 1, offsets
    den, nums = coset.den, coset.nums
    return den, tuple(tuple(den * x + r for x, r in zip(off, nums))
                      for off in offsets)


def vectors_of_norm(lat, coset, m):
    """Every dual vector v in the coset (a Coset, or None for L) with
    <v, v> == m, lex-sorted: vector_rows_of_norm as tuples of Fractions."""
    den, rows = vector_rows_of_norm(lat, coset, m)
    return intmat.fraction_rows(rows, den)


def count_norm(lat, coset, m):
    """The number of vectors of norm m in the coset (None: L).

    Once the sweep exists, a norm-2 count on an order-<=2 coset reads its
    records (one of each pair +-v).  Every other count lists the coset's
    own tree.  So root_count does not force the sweep, which builds all
    2^k order-<=2 cosets: for 2 I_14 that took 1.5 s against 1 ms for the
    roots' own tree, on a 2-core machine.
    """
    sweep = lat.__dict__.get("torsion2_norm2_records")
    if m == 2 and sweep is not None:
        recs = sweep.get(lat.trivial_coset if coset is None else coset)
        if recs is not None:
            return 2 * len(recs)
    return len(_offsets(lat, coset, m))


def orthogonal_group_order(lat):
    """Order of the isometry group O(L) as a product of orbit lengths.

    Basis vectors are taken in order o_0, o_1, ... (fewest candidate images
    first); the candidates for b_i are the vectors of norm gram[i][i].  With
    H_t the pointwise stabilizer of b_{o_0}, ..., b_{o_{t-1}},
    |O(L)| = prod_t |H_t b_{o_t}|, and v lies in that orbit iff the images
    (b_{o_0}, ..., b_{o_{t-1}}, v) extend to a Gram-preserving assignment of
    the whole basis (an isometry onto L: same Gram matrix, so index 1).
    Searches at every rank, though the extension search is exponential in
    principle; report decides which ranks are worth it.

    The candidates of each norm are one list, packed by columns
    (_packed_candidates), and the candidates left for b_{o_k} are a bitmask
    over it: bit width c + width - 1 for the c-th vector.  Cutting them to
    the u with <u, v> = p takes one product sum for all the u of a norm
    and a few operations on whole ints (narrow).
    """
    n = lat.rank
    # |O(L)| does not depend on the basis: search in an LLL-reduced one
    lat = Lattice(intmat.lll_gram(lat.gram)[0])
    g = lat.gram
    norms = [g[i][i] for i in range(n)]
    # lanes: by Cauchy-Schwarz every pairing of two candidates, or of a
    # candidate with a basis vector, is at most the largest norm in
    # absolute value, below half = 2^(width-1)
    width = max(norms).bit_length() + 1
    half = 1 << (width - 1)
    packs = {a: _packed_candidates(lat, _offsets(lat, None, a), width)
             for a in set(norms)}
    order = sorted(range(n), key=lambda i: len(packs[norms[i]][0]))
    norms = [norms[i] for i in order]       # by position in the order

    def narrow(t, v, masks):
        """masks (for b_{o_{t+1}}, ...) cut to the vectors u with
        <u, v> = <b_{o_k}, b_{o_t}>, v being the image of b_{o_t}; the
        list ends at the first mask that empties, which extends rejects.

        Lane c of s = sum_j v_j gcols[j] + high is <u_c, v> + half, in
        [1, 2^width); it is p + half, p = <b_{o_k}, b_{o_t}>, exactly when
        lane c of x = s ^ (p + half) ones is 0, which leaves bit width - 1
        of (((x | high) - ones) | x) clear."""
        row = g[order[t]]
        sums = {}
        out = []
        for k, m in enumerate(masks, t + 1):
            _, gcols, ones, high = packs[norms[k]]
            s = sums.get(norms[k])
            if s is None:
                s = sums[norms[k]] = high + sum(
                    vj * col for vj, col in zip(v, gcols) if vj)
            x = s ^ (row[order[k]] + half) * ones
            out.append(m & ~(((x | high) - ones) | x))
            if not out[-1]:
                break
        return out

    def members(t, mask):
        """The candidates of b_{o_t} in mask, in list order."""
        cands = packs[norms[t]][0]
        while mask:
            low = mask & -mask
            mask ^= low
            yield cands[low.bit_length() // width - 1]

    def extends(t, masks):
        """True at the first full assignment; masks[k] holds the images of
        b_{o_{t+k}} that fit every image chosen so far."""
        return not masks or (all(masks) and any(
            extends(t + 1, narrow(t, v, masks[1:]))
            for v in members(t, masks[0])))

    count = 1
    masks = [packs[a][3] for a in norms]
    for t, it in enumerate(order):
        count *= sum(1 for v in members(t, masks[0])
                     if extends(t + 1, narrow(t, v, masks[1:])))
        masks = narrow(t, tuple(int(j == it) for j in range(n)), masks[1:])
    return count


def _packed_candidates(lat, cands, width):
    """(cands, gcols, ones, high) for lanes of ``width`` bits.

    gcols[j] = sum_c <u_c, b_j> 2^(width c) over the candidates u_c, so
    sum_j v_j gcols[j] = sum_c <u_c, v> 2^(width c) for any v; ones has a
    1 in every lane and high the top bit of every lane (all candidates).
    The columns of the coordinates are packed first, in pairs of lanes,
    then pairs of pairs, ..., and then multiplied by G: n^2 multiply-adds
    of whole ints, no product G u_c.
    """
    def pack(xs):
        shift = width
        while len(xs) > 1:
            xs = [lo + (hi << shift)
                  for lo, hi in zip_longest(xs[::2], xs[1::2], fillvalue=0)]
            shift *= 2
        return xs[0]

    cols = [pack(col) for col in zip(*cands)]
    gcols = [sum(gij * col for gij, col in zip(row, cols) if gij)
             for row in lat.gram]
    ones = ((1 << (width * len(cands))) - 1) // ((1 << width) - 1)
    return cands, gcols, ones, ones << (width - 1)


def direct_sum(*lats):
    """The orthogonal sum of the lattices, one block each, as one Lattice."""
    n = sum(lat.rank for lat in lats)
    gram = []
    before = 0
    for lat in lats:
        after = n - before - lat.rank
        gram += [[0] * before + list(row) + [0] * after for row in lat.gram]
        before += lat.rank
    return Lattice(gram)


def rescale(lat, k):
    """Multiply the Gram matrix by a positive integer k (k=2: sqrt2-scaling)."""
    if not isinstance(k, int) or k <= 0:
        raise NotIntegral("rescale factor must be a positive integer")
    return Lattice([[k * x for x in row] for row in lat.gram])


def require_even(lat):
    if not lat.is_even:
        raise NotEven("operation requires an even lattice")


def sublattice_gram(lat, basis_rows):
    """Gram matrix of the sublattice spanned by integer rows over lat's basis."""
    gb = [lat.gram_times(r) for r in basis_rows]
    return [[intmat.dot(bi, gbj) for gbj in gb] for bi in basis_rows]
