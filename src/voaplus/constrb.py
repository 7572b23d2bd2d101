"""Construction B in both directions.

Forward: build the lattice generated by halved codewords of a doubly even
binary code over an orthogonal norm-2 frame, together with all sums of two
frame vectors.  Backward: detect such lattices through their distinguished
cosets -- an order-<=2 coset of the dual whose norm-2 vector count reaches
2n + |roots| always contains a frame, and the lattice is Construction B
exactly when some coset reaches the bound.  The count can never exceed the
bound; we assert that on every coset we touch, which turns a theoretical
equality into a free runtime oracle.

Frames stay integral from the sweep to the output: a Frame holds its
vectors as integer rows over one scale q, e_i = rows[i] / q, together with
the rows G rows[i], and a FrameDecomposition keeps (q, rows).  Fractions
appear only in the ``vectors``/``frame`` views.  Frames come only from the
sweep's records w + G w (lattice module docstring): the rows are the w
over q = 2, and the greedy computes no G y.  The structural cosets are
looked up by the parity key of twice the vector
(DiscriminantGroup.torsion2_index), not through the Smith form.

The rebuild check.  Let R be the lattice that (code, signs, frame)
generate: the halved signed codeword sums, 2 e_1 and the e_i + e_{i+1}.
It is checked that
  (a) every generator lies in L (its row is divisible by 2q), so R is in L;
  (b) the frame Gram matrix is exactly 2 I;
  (c) every pairing <e_i, b_j> with a basis vector of L is an integer.
By (b) the e_i are an orthogonal basis of the ambient space, so
x = sum_i (<x, e_i> / 2) e_i for every x; 2 e_i lies in R (from 2 e_1 and
the e_i + e_{i+1}), and with (c), 4 x = sum_i <x, e_i> (2 e_i) lies in R for
x in L.  So 4L is in R is in L, and L/R is a 2-group.  A finite 2-group A
with A = 2A is trivial, so R = L exactly when R + 2L = L, that is when the
generators over 2q have rank n mod 2: one elimination over F_2 in place of
a Hermite normal form.
"""

from collections import namedtuple
from fractions import Fraction

from . import intmat
from .codes import _rref, make_code
from .errors import (CosetNotInR, EqualityViolated, Incomplete, NoSignPattern,
                     NotDoublyEven)
from .lattice import (Lattice, cached_on_lattice, parity_key, require_even,
                      signed_records)


class FrameCosets(namedtuple("FrameCosets", "cosets counts bound")):
    """Cosets whose norm-2 count meets the bound 2n + |roots| exactly."""
    __slots__ = ()


def _fraction_rows(scale, rows):
    return tuple(tuple(Fraction(c, scale) for c in row) for row in rows)


class Frame(namedtuple("Frame", "scale rows pairings")):
    """An orthogonal norm-2 frame e_i = rows[i] / scale in integer rows over
    L's basis, and pairings[i] = G rows[i], so <e_i, b_j> is
    pairings[i][j] / scale."""
    __slots__ = ()

    @property
    def vectors(self):
        """The frame vectors as tuples of Fractions."""
        return _fraction_rows(self.scale, self.rows)


class FrameDecomposition(namedtuple("FrameDecomposition",
                                      "coset scale rows code signs")):
    """A Construction-B witness: coset, orthogonal frame, code, signs.

    The frame vectors are rows[i] / scale (integer rows over L's basis).
    Rebuilding the lattice from (code, signs * frame) reproduced the
    original exactly; extract_code enforces that before returning.
    """
    __slots__ = ()

    @property
    def frame(self):
        """The frame vectors as tuples of Fractions."""
        return _fraction_rows(self.scale, self.rows)


def _generator_rows(yframe, code, signs=None):
    """Generators of the Construction-B lattice over a frame, times 2q.

    With the frame e_i = yframe[i] / q, returns integer rows whose quotients
    by 2q generate the lattice: the halved signed codeword sums over the
    code's basis, 2 e_1 and the e_i + e_{i+1} (which span every e_i +- e_j,
    so the signs do not matter there).
    """
    n = len(yframe)
    signs = (1,) * n if signs is None else signs
    rows = []
    for word in code.basis:
        acc = [0] * len(yframe[0])
        for i in range(n):
            if (word >> i) & 1:
                s = signs[i]
                acc = [a + s * c for a, c in zip(acc, yframe[i])]
        rows.append(acc)
    rows.append([4 * c for c in yframe[0]])
    for i in range(n - 1):
        rows.append([2 * (a + b) for a, b in zip(yframe[i], yframe[i + 1])])
    return rows


def build_construction_b(code, signs=None):
    """Lattice of a doubly even code over the standard norm-2 frame.

    Returns (lattice, frame_coords): the Gram matrix of the HNF basis of
    the generators (ambient form 2*I), and the frame vectors written in
    that basis as dual vectors.
    """
    if not code.is_doubly_even:
        raise NotDoublyEven("Construction B needs a doubly even code")
    n = code.length
    # the basis rows over 2, in the ambient form 2*I: G = B B' / 2
    basis = intmat.hnf(_generator_rows(intmat.identity(n), code, signs), n)
    if len(basis) != n:
        raise Incomplete("construction generators did not span full rank")
    gram = [[intmat.dot(bi, bj) for bj in basis] for bi in basis]
    if any(e % 2 for row in gram for e in row):
        raise NotDoublyEven("generators produced a non-integral form")
    lat = Lattice([[e // 2 for e in row] for row in gram])
    # ambient frame vector u_i has basis coordinates u_i * (B/2)^-1 (row i)
    adj, det = intmat.adjugate(basis)
    frame_coords = [tuple(Fraction(2 * x, det) for x in row) for row in adj]
    return lat, frame_coords


@cached_on_lattice
def frame_cosets(lat):
    """Order-<=2 dual cosets meeting the norm-2 bound 2n + |roots|.

    Every count comes from one enumeration (Lattice.torsion2_norm2_records,
    one record of each pair +-v).  The count is asserted to equal the bound
    exactly; an excess would contradict the frame-extraction argument and
    signals a bug.
    """
    require_even(lat)
    sweep = lat.torsion2_norm2_records      # one enumeration for all cosets
    bound = 2 * lat.rank + lat.root_count
    kept = []
    counts = []
    for coset in lat.discriminant.torsion2_reps:
        c = 2 * len(sweep[coset.rep])
        if c >= bound:
            if c > bound:
                raise EqualityViolated(
                    "coset %s has %d norm-2 vectors, bound %d"
                    % (coset.label(), c, bound))
            kept.append(coset)
            counts.append(c)
    return FrameCosets(cosets=tuple(kept), counts=tuple(counts), bound=bound)


def extract_frame(lat, coset):
    """Greedy orthogonal frame inside a qualifying coset.

    Picks the lexicographically smallest norm-2 vector orthogonal to the
    ones already chosen; guaranteed to reach full rank for cosets meeting
    the bound.  The candidates are the sweep's records w + G w, w = 2v: a
    qualifying coset is a nontrivial order-2 one (the trivial coset holds
    the roots alone, fewer than the bound), so the Frame has scale 2, its
    rows are the w and its pairings the G w.  The membership precondition
    is checked on the coset itself (its count against the bound).
    """
    require_even(lat)
    n = lat.rank
    sweep = lat.torsion2_norm2_records      # first, so root_count reads it
    bound = 2 * n + lat.root_count
    recs = signed_records(sweep.get(coset.rep, ()))
    count = len(recs)
    if not coset.order2 or count < bound:
        raise CosetNotInR("coset %s does not meet the norm-2 bound"
                          % coset.label())
    if count > bound:
        raise EqualityViolated(
            "coset %s has %d norm-2 vectors, bound %d"
            % (coset.label(), count, bound))
    rows = []
    pairings = []
    for r in recs:
        y = r[:n]
        if all(intmat.dot(y, gy) == 0 for gy in pairings):
            rows.append(y)
            pairings.append(r[n:])
            if len(rows) == n:
                return Frame(scale=2, rows=tuple(rows),
                             pairings=tuple(pairings))
    raise Incomplete("frame extraction stalled at %d of %d vectors"
                     % (len(rows), lat.rank))


def _lexmin_f2_solution(equations, nvars):
    """Lexicographically smallest 0/1 solution of a linear system over F_2.

    equations: list of (mask, rhs), bit i of mask standing for variable i.
    Returns the assignment tuple, or None when the system is inconsistent.
    One reduction: variable i goes to bit nvars-1-i and the right-hand side
    to bit nvars, so each reduced row pivots on its highest-numbered
    variable and otherwise holds only free, lower-numbered ones.  A row
    whose pivot is the right-hand side bit reads 0 = 1; otherwise setting
    every free variable to 0 gives the smallest solution.
    """
    n = nvars
    words = [rhs << n | sum(1 << (n - 1 - i)
                            for i in range(n) if mask >> i & 1)
             for mask, rhs in equations]
    assign = [0] * n
    for row in _rref(words):
        pivot = (row & -row).bit_length() - 1
        if pivot == n:
            return None
        assign[n - 1 - pivot] = row >> n & 1
    return tuple(assign)


def extract_code(lat, frame, coset):
    """Recover the code and sign pattern of an extracted frame.

    ``frame`` is a Frame inside ``coset`` (extract_frame).  The code is the
    span of the mod-2 frame pairings of the generators of L extended by the
    coset representative.  The sign pattern is the lexicographically first
    one whose halved-codeword generators land in the lattice (a linear
    condition over F_2); the rebuild is then checked exactly (see the
    module docstring).
    """
    n = lat.rank
    q, yframe, gy = frame
    (rnum,), qr = intmat.scaled_integer_rows([coset.rep])
    if q % qr:
        # frame vectors have the denominators of the coset they lie in
        raise CosetNotInR("the frame does not lie in coset %s"
                          % coset.label())
    yrep = [c * (q // qr) for c in rnum]

    # pairing of e_i with the j-th basis vector is gy[i][j]/q, with the
    # coset representative it is <yrep, gy[i]>/q^2; both are integers.
    if any(c % q for row in gy for c in row):
        raise Incomplete("frame pairing was not integral")
    words = [sum((gy[i][j] // q & 1) << i for i in range(n))
             for j in range(n)]
    word = 0
    for i in range(n):
        p, r = divmod(intmat.dot(yrep, gy[i]), q * q)
        if r:
            raise Incomplete("frame pairing was not integral")
        word |= (p & 1) << i
    words.append(word)
    code = make_code(n, words)

    # sign conditions: for each basis codeword c, the halved sum over c
    # of +/-frame vectors lies in L iff the flip count on c has a forced
    # parity; determine that parity from the unsigned sum.
    equations = []
    for cword in code.basis:
        acc = [0] * n
        for i in range(n):
            if (cword >> i) & 1:
                acc = [a + y for a, y in zip(acc, yframe[i])]
        if all(a % (2 * q) == 0 for a in acc):
            parity = 0
        elif all((a - 2 * r) % (2 * q) == 0 for a, r in zip(acc, yrep)):
            parity = 1
        else:
            raise NoSignPattern("no flip parity embeds codeword generator")
        equations.append((cword, parity))
    flips = _lexmin_f2_solution(equations, n)
    if flips is None:
        raise NoSignPattern("sign parity system is inconsistent")
    signs = tuple(-1 if f else 1 for f in flips)
    _check_rebuild(frame, code, signs)
    return FrameDecomposition(coset=coset, scale=q, rows=yframe, code=code,
                              signs=signs)


def _check_rebuild(frame, code, signs):
    """Raise unless (code, signs, frame) generate L itself.

    Checks (a) and (b) of the module docstring and the rank mod 2; (c), the
    integral pairings, is checked by extract_code before it reads the code.
    """
    q, yframe, gy = frame
    n = len(yframe)
    two_q2 = 2 * q * q
    for i in range(n):
        if intmat.dot(yframe[i], gy[i]) != two_q2 or any(
                intmat.dot(yframe[j], gy[i]) for j in range(i)):
            raise Incomplete("frame vectors are not orthogonal of norm 2")
    rows = _generator_rows(yframe, code, signs)
    if any(c % (2 * q) for row in rows for c in row) or len(_rref(
            [sum((c // (2 * q) & 1) << j for j, c in enumerate(row))
             for row in rows])) != n:
        raise NoSignPattern("rebuilt lattice differs from the original")


@cached_on_lattice
def decompose(lat):
    """One FrameDecomposition per qualifying coset, in canonical order."""
    fc = frame_cosets(lat)
    return tuple(extract_code(lat, extract_frame(lat, c), c)
                 for c in fc.cosets)


class StructuralCosets(namedtuple("StructuralCosets",
                                    "twist_plus twist_minus")):
    """Quarter-frame-sum cosets marking the twisted-orbit conditions."""
    __slots__ = ()


def structural_cosets(lat, dec):
    """The quarter-sum coset and its first-frame-vector offset, when defined.

    plus = (sum_i s_i e_i)/4, minus = plus - s_1 e_1; each is returned as a
    coset only when it lies in the dual and has order <= 2, which happens
    exactly when the code contains the all-one word.
    """
    q, yframe = dec.scale, dec.rows
    plus = [0] * lat.rank
    for s, y in zip(dec.signs, yframe):
        plus = [a + s * c for a, c in zip(plus, y)]
    minus = [a - 4 * dec.signs[0] * c for a, c in zip(plus, yframe[0])]
    index = lat.discriminant.torsion2_index

    def classify(num):
        # the vector is num / 4q: twice it, w = num / 2q, lies in L iff
        # 2q | num, and the vector lies in the dual iff 4q | G num; its
        # coset then has order <= 2 and is named by w mod 2
        if any(c % (2 * q) for c in num):
            return None
        if any(c % (4 * q) for c in lat.gram_times(num)):
            return None
        return index[parity_key([c // (2 * q) for c in num])]

    return StructuralCosets(twist_plus=classify(plus),
                            twist_minus=classify(minus))
