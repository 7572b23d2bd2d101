"""Linear binary codes with the predicates the lattice machinery needs.

Codewords are bit-packed integers: coordinate 1 is bit 0, so the 0/1
string "110..." of ``code(n, ...)`` and of the JSON output sets bits 0
and 1.  The canonical basis is the reduced row-echelon form over F_2,
which makes code equality basis equality.  Lengths stay small (16 in
every case that matters, 20 with headroom), so weight distributions are
settled by enumerating all 2^k words.
"""

from collections import namedtuple
from functools import cached_property

from .errors import (CrossCheckFailed, DimensionTooLarge, LengthMismatch,
                     ParseError, WrongLength)

ENUM_DIM_LIMIT = 20


def _rref(words):
    """Reduced row-echelon basis of the span of bit-packed words.

    Pivot of a row is its lowest set bit; each pivot bit occurs in exactly
    one row, so the basis is the unique canonical one for the span.
    """
    basis = []
    for w in words:
        for b in basis:
            if w & (b & -b):
                w ^= b
        if w == 0:
            continue
        p = w & -w
        for i in range(len(basis)):
            if basis[i] & p:
                basis[i] ^= w
        basis.append(w)
    basis.sort(key=lambda x: x & -x)
    return tuple(basis)


def _f2_rank(rows):
    """Rank over F_2 of bit-packed rows: each kept row is reduced by the
    kept rows and keyed by its lowest set bit."""
    pivots = {}
    for w in rows:
        while w:
            low = w & -w
            if low not in pivots:
                pivots[low] = w
                break
            w ^= pivots[low]
    return len(pivots)


class BinaryCode(namedtuple("BinaryCode", "length basis")):
    """A code of the given length with its canonical (RREF) basis.

    No __slots__: the cached properties store their values in the instance
    __dict__.
    """

    @property
    def dimension(self):
        return len(self.basis)

    @property
    def all_one(self):
        return (1 << self.length) - 1

    def contains(self, word):
        w = word
        for b in self.basis:
            if w & (b & -b):
                w ^= b
        return w == 0

    @property
    def contains_all_one(self):
        return self.contains(self.all_one)

    def words(self):
        """All 2^k codewords."""
        if self.dimension > ENUM_DIM_LIMIT:
            raise DimensionTooLarge(
                "refusing to enumerate 2^%d codewords" % self.dimension)
        out = [0]
        for b in self.basis:
            out += [w ^ b for w in out]
        return out

    @cached_property
    def weight_distribution(self):
        dist = {}
        for w in self.words():
            k = w.bit_count()
            dist[k] = dist.get(k, 0) + 1
        return dist

    @cached_property
    def is_doubly_even(self):
        """Every codeword weight divisible by 4.

        Basis criterion, equivalent for linear codes because
        wt(a ^ b) = wt(a) + wt(b) - 2 wt(a & b): every basis weight is
        divisible by 4 and every pairwise intersection is even.
        """
        return (all(b.bit_count() % 4 == 0 for b in self.basis)
                and all((a & b).bit_count() % 2 == 0
                        for i, a in enumerate(self.basis)
                        for b in self.basis[i + 1:]))

    def word_string(self, w):
        return format(w, "0%db" % self.length)[::-1]

    def basis_strings(self):
        return [self.word_string(b) for b in self.basis]

    def __repr__(self):
        return "BinaryCode(n=%d, k=%d)" % (self.length, self.dimension)


def word_from_string(s):
    w = 0
    for i, ch in enumerate(s):
        if ch == "1":
            w |= 1 << i
        elif ch != "0":
            raise LengthMismatch("codeword string of length %d is not over "
                                 "{0,1} at position %d" % (len(s), i))
    return w


def word_from_support(positions):
    w = 0
    for p in positions:
        w |= 1 << p
    return w


def make_code(n, generators):
    """Canonical BinaryCode of length n spanned by the generators.

    Generators may be bit-packed ints or 0/1 strings; anything else (a
    float, None, a bool, a list) raises ParseError.  An error names the
    generator by its index, type and length (a string by its length and
    first bad position), never by its value, which may be arbitrarily long.
    """
    if n <= 0:
        raise LengthMismatch("code length must be positive")
    words = []
    for k, g in enumerate(generators):
        if isinstance(g, bool) or not isinstance(g, (int, str)):
            raise ParseError("generator %d is a %s, not a bit-packed int or "
                             "a 0/1 string" % (k, type(g).__name__))
        if isinstance(g, int):
            w = g
        elif len(g) != n:
            raise LengthMismatch("generator %d (a str) has length %d, "
                                 "expected %d" % (k, len(g), n))
        else:
            w = word_from_string(g)
        if w >> n:
            raise LengthMismatch("generator uses coordinates beyond length %d" % n)
        words.append(w)
    return BinaryCode(length=n, basis=_rref(words))


def zero_code(n):
    return make_code(n, [])


def repetition_code(n):
    """The one-dimensional code spanned by the all-one word."""
    return make_code(n, [(1 << n) - 1])


def reed_muller1(m):
    """The first-order Reed-Muller code RM(1, m) of length 2^m.

    Generated by the all-one word together with the m coordinate
    hyperplane indicators on {0,1}^m.
    """
    n = 1 << m
    planes = [word_from_support(i for i in range(n) if (i >> j) & 1)
              for j in range(m)]
    return make_code(n, [(1 << n) - 1] + planes)


def hamming8():
    """The [8,4] extended Hamming code RM(1, 3) (weights 0, 4, 8)."""
    return reed_muller1(3)


def rm14():
    """The [16,5] first-order Reed-Muller code RM(1, 4) (weights 0, 8, 16)."""
    return reed_muller1(4)


def words_of_weight(code, w):
    """All codewords of weight exactly w, in canonical order."""
    if not 0 <= w <= code.length:
        raise WrongLength("weight %d outside [0, %d]" % (w, code.length))
    # canonical order: lexicographic on the coordinate string, coordinate 1
    # first, which is the order of the equal-length word strings
    return sorted((x for x in code.words() if x.bit_count() == w),
                  key=code.word_string)


def rm14_subcode(code):
    """A witness subcode with weight distribution {0:1, 8:30, 16:1}, or None.

    Any 5-dimensional subcode of a length-16 code whose 30 non-trivial,
    non-all-one words all have weight 8 is a copy of the first-order
    Reed-Muller code (pairwise weight-8 intersections being 0, 4 or 8
    forces it), so the weight profile is the whole test.  Search: grow a
    basis of weight-8 words above the all-one word, depth-first, keeping
    the profile at every step.
    """
    if code.length != 16:
        raise WrongLength("subcode detection requires length 16")
    if not code.contains_all_one:
        return None
    one = code.all_one
    w8 = words_of_weight(code, 8)

    def extend(chosen, span, start):
        if len(chosen) == 4:
            return make_code(16, [one] + chosen)
        for idx in range(start, len(w8)):
            w = w8[idx]
            if w in span:
                continue
            ok = True
            for s in span:
                x = s ^ w
                if x != 0 and x != one and x.bit_count() != 8:
                    ok = False
                    break
            if ok:
                got = extend(chosen + [w], span | {s ^ w for s in span},
                             idx + 1)
                if got is not None:
                    return got
        return None

    witness = extend([], {0, one}, 0)
    if (witness is not None
            and witness.weight_distribution != {0: 1, 8: 30, 16: 1}):
        raise CrossCheckFailed("RM(1,4) witness has weights %s"
                               % witness.weight_distribution)
    return witness
