"""Construction B in both directions.

Forward: build the lattice generated by halved codewords of a doubly even
binary code over an orthogonal norm-2 frame, together with all sums of two
frame vectors.  Backward: detect such lattices through their distinguished
cosets -- an order-<=2 coset of the dual whose norm-2 vector count reaches
2n + |roots| always contains a frame, and the lattice is Construction B
exactly when some coset reaches the bound.  The count can never exceed the
bound; we assert that on every coset we touch, which turns a theoretical
equality into a free runtime oracle.

Frames stay integral from the sweep to the output.  Every frame coset is
a nontrivial order-2 coset, so a frame vector e_i is half of an integer
row y_i = 2 e_i over L's basis: a Frame holds the rows y_i together with
the rows G y_i, and a FrameDecomposition keeps the y_i.  Fractions appear
only in the ``vectors``/``frame`` views and build_construction_b's frame,
made by intmat.fraction_rows.  Frames come only from the sweep's records
w + G w (lattice module docstring): the rows y_i are the w, and the greedy
computes no G y.  Cosets are integral too (lattice.Coset, numerators over
one denominator); the frame's coset and the structural cosets are looked
up by the parity key of twice the vector (DiscriminantGroup.torsion2_index),
not through the Smith form.

Rootless cosets.  A qualifying coset holds a frame, 2n vectors +-e_i.
When L has no roots the bound is 2n, so those are all of its norm-2
vectors: the n records of the sweep are the frame.  Of each pair +-w the
smaller is taken (its first nonzero entry is negative), and they are
sorted: that is the frame the greedy picks, as it refuses none of them.
No pairing is tested there: check (b) below, which runs on every frame,
verifies that they are orthogonal of norm 2.  The greedy serves lattices
with roots.

The rebuild check.  Let R be the lattice that (code, signs, frame)
generate: the halved signed codeword sums, 2 e_1 and the e_i + e_{i+1}.
It is checked that
  (a) every generator, a sum of rows y_i over 4, lies in L (the sum is
      divisible by 4), so R is in L;
  (b) the frame Gram matrix is exactly 2 I;
  (c) every pairing <e_i, b_j> with a basis vector of L is an integer.
By (b) the e_i are an orthogonal basis of the ambient space, so
x = sum_i (<x, e_i> / 2) e_i for every x; 2 e_i lies in R (from 2 e_1 and
the e_i + e_{i+1}), and with (c), 4 x = sum_i <x, e_i> (2 e_i) lies in R for
x in L.  So 4L is in R is in L, and L/R is a 2-group.  A finite 2-group A
with A = 2A is trivial, so R = L exactly when R + 2L = L, that is when the
generators over 4 have rank n mod 2: one elimination over F_2 in place of
a Hermite normal form.  extract_code checks (c), then (b), before it reads
the code off the pairings, and (a) with the rank once it has the signs.

Lanes.  Each frame row is handled as one int.  For (a) and the sign
equations it is packed into lanes that hold y mod 8, lane k of
sum_k (y_k mod 8) 2^(8 b k) for b bytes a lane.  The packing is additive
while no lane overflows, and every generator is a sum of at most n packed
rows with coefficients +-1, or twice a sum of two, or four times one: a
lane then holds at most 8n + 16 (a -1 is taken as 8 minus the lane), which
sets b.  A lane is congruent to its entry mod 8, and mod 8 decides all
that (a) and the rank test read: the entry c is divisible by 4 iff the
lane's two low bits are 0 (one mask test for the whole row), and then
c / 4 mod 2 is the lane's bit 2, so the F_2 row of c / 4 is
(row >> 2) & ONES, ONES holding a 1 in each lane.  For (b) the pairing
rows G y_i are packed by columns, cols[j] = sum_i (G y_i)_j 2^(w i), so
dot(y, cols) = sum_i <y, G y_i> 2^(w i): one product sum gives y's
pairings with the whole frame.  With |<y, G y_i>| below 2^(w-1) the
signed lanes of that sum are unique, so it equals 8 2^(w i) exactly when
y = y_i has norm 8 (e_i norm 2) and is orthogonal to the rest.  The bound
comes from the data, as the sweep sizes its lanes: n times the largest
|entry| of the rows times that of the pairings, or 128 when they all lie
in [-128, 128) (at least 8), and w is the fewest whole bytes above it.
In the greedy of extract_frame every candidate is a norm-8 record, so by
Cauchy-Schwarz its pairings with the chosen ones lie in [-8, 8] and lanes
of 8 bits hold them.
"""

from collections import namedtuple
from itertools import chain
from operator import neg

from . import intmat
from .codes import BinaryCode, _f2_rank, _rref
from .errors import (CosetNotInR, EqualityViolated, Incomplete, NoSignPattern,
                     NotDoublyEven)
from .lattice import Lattice, cached_on_lattice, parity_key, require_even


class FrameCosets(namedtuple("FrameCosets", "cosets counts bound")):
    """Cosets whose norm-2 count meets the bound 2n + |roots| exactly."""
    __slots__ = ()


class Frame(namedtuple("Frame", "rows pairings")):
    """An orthogonal norm-2 frame e_i = rows[i] / 2 in integer rows over
    L's basis, and pairings[i] = G rows[i], so <e_i, b_j> is
    pairings[i][j] / 2."""
    __slots__ = ()

    @property
    def vectors(self):
        """The frame vectors as tuples of Fractions."""
        return tuple(intmat.fraction_rows(self.rows, 2))


class FrameDecomposition(namedtuple("FrameDecomposition",
                                      "coset rows code signs")):
    """A Construction-B witness: coset, orthogonal frame, code, signs.

    The frame vectors are rows[i] / 2 (integer rows over L's basis).
    Rebuilding the lattice from (code, signs * frame) reproduced the
    original exactly; extract_code enforces that before returning.
    """
    __slots__ = ()

    frame = Frame.vectors


def build_construction_b(code):
    """Lattice of a doubly even code over the standard norm-2 frame.

    Returns (lattice, frame_coords): the Gram matrix of the HNF basis of
    the generators (ambient form 2*I), and the frame vectors written in
    that basis as dual vectors.
    """
    lat, basis = _construction_b(code)
    # ambient frame vector u_i has basis coordinates u_i * (B/2)^-1 (row i)
    adj, det = intmat.adjugate(basis)
    return lat, intmat.fraction_rows([[2 * x for x in row] for row in adj],
                                     det)


def _construction_b(code):
    """(lattice, B) of build_construction_b: B holds the HNF basis rows
    over 2 in the ambient coordinates.  The parser of lb(...) needs the
    lattice alone, so it builds no frame."""
    if not code.is_doubly_even:
        raise NotDoublyEven("Construction B needs a doubly even code")
    n = code.length
    # the generators over the standard frame (module docstring), as rows
    # over 2: the codeword sums, 4 e_1 and the 2 (e_i + e_{i+1})
    gens = [[word >> i & 1 for i in range(n)] for word in code.basis]
    gens.append([4] + [0] * (n - 1))
    gens += [[2 if j in (i, i + 1) else 0 for j in range(n)]
             for i in range(n - 1)]
    # the basis rows over 2, in the ambient form 2*I: G = B B' / 2
    basis = intmat.hnf(gens, n)
    if len(basis) != n:
        raise Incomplete("construction generators did not span full rank")
    gram = [[intmat.dot(bi, bj) for bj in basis] for bi in basis]
    if any(e % 2 for row in gram for e in row):
        raise NotDoublyEven("generators produced a non-integral form")
    return Lattice([[e // 2 for e in row] for row in gram]), basis


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
    # the sweep lists the cosets in torsion2_reps order
    for coset, recs in sweep.items():
        c = 2 * len(recs)
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
    the roots alone, fewer than the bound), so the Frame's rows are the w
    and its pairings the G w.  The membership precondition is checked on
    the coset itself: its count against the bound of frame_cosets, which
    has checked every count.  A candidate is tested against all chosen
    vectors at once, in 8-bit lanes (module docstring).  Of each pair +-w
    only the lexicographically smaller is a candidate: the larger comes
    later, when the smaller has been chosen (and <w, -w> = -8) or refused
    by a chosen vector, which then refuses its negative too.  On a rootless
    lattice the candidates are the frame, and no pairing is tested (module
    docstring).
    """
    n = lat.rank
    bound = frame_cosets(lat).bound
    recs = lat.torsion2_norm2_records.get(coset, ())
    if 2 * len(recs) < bound:
        raise CosetNotInR("coset %s does not meet the norm-2 bound"
                          % coset.label())
    zero = (0,) * (2 * n)
    cands = sorted(r if r < zero else tuple(map(neg, r)) for r in recs)
    if bound == 2 * n:
        # rootless: the n records are the frame, and extract_code checks
        # that they are orthogonal (module docstring)
        return Frame(rows=tuple(r[:n] for r in cands),
                     pairings=tuple(r[n:] for r in cands))
    rows = []
    pairings = []
    cols = [0] * n      # the chosen pairings in 8-bit columns (docstring)
    for r in cands:
        y = r[:n]
        if not intmat.dot(y, cols):
            gy = r[n:]
            shift = 8 * len(rows)
            cols = [c + (g << shift) for c, g in zip(cols, gy)]
            rows.append(y)
            pairings.append(gy)
            if len(rows) == n:
                return Frame(rows=tuple(rows), pairings=tuple(pairings))
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
    spec = "0%db" % n
    words = [rhs << n | int(format(mask, spec)[::-1], 2)
             for mask, rhs in equations]
    assign = [0] * n
    for row in _rref(words):
        pivot = (row & -row).bit_length() - 1
        if pivot == n:
            return None
        assign[n - 1 - pivot] = row >> n & 1
    return tuple(assign)


def _mod8_lanes(rows):
    """(ones, lanes): each integer row as one int whose lanes hold its
    entries mod 8, and ones, the int with a 1 in every lane.  A lane has
    the fewest bytes that hold 8n + 16 (module docstring)."""
    n = len(rows[0])
    nbytes = 1
    while (8 * n + 16) >> (8 * nbytes):
        nbytes += 1
    size = n * nbytes
    buf = bytearray(len(rows) * size)
    buf[::nbytes] = bytes(map((7).__and__, chain.from_iterable(rows)))
    lanes = [int.from_bytes(buf[i:i + size], "little")
             for i in range(0, len(buf), size)]
    return int.from_bytes(b"\1".ljust(nbytes, b"\0") * n, "little"), lanes


def _pairing_columns(rows, pairings):
    """(width, cols): cols[j] = sum_i pairings[i][j] 2^(width i), and every
    |dot(row, pairings[i])| is below 2^(width - 1), as is 8 (module
    docstring), so the lanes of dot(row, cols) are unique.  Lanes are whole
    bytes.  When every pairing g lies in [-128, 128), column j is packed
    from bytes, the low byte of lane i holding g + 128, and the biases are
    subtracted from the int read back; otherwise the columns are shifted
    together as ints."""
    n = len(pairings)
    try:
        low = bytes(map((128).__add__, chain.from_iterable(zip(*pairings))))
        top = 128
    except ValueError:      # a pairing outside [-128, 128)
        low = None
        top = max(map(abs, chain.from_iterable(pairings)))
    bound = max(8, len(rows[0]) * max(map(abs, chain.from_iterable(rows)))
                * top)
    nbytes = bound.bit_length() // 8 + 1
    width = 8 * nbytes
    if low is None:
        cols = list(pairings[-1])
        for p in pairings[-2::-1]:
            cols = [(c << width) + g for c, g in zip(cols, p)]
        return width, cols
    size = n * nbytes
    buf = bytearray(len(low) * nbytes)
    buf[::nbytes] = low
    bias = int.from_bytes(b"\x80".ljust(nbytes, b"\0") * n, "little")
    return width, [int.from_bytes(buf[i:i + size], "little") - bias
                   for i in range(0, len(buf), size)]


def _support(word, n):
    return [i for i in range(n) if word >> i & 1]


# bytes 0 and 2 spelled as the binary digits 0 and 1
_BITS = bytes.maketrans(b"\0\2", b"01")


def extract_code(lat, frame, coset):
    """Recover the code and sign pattern of an extracted frame.

    ``frame`` is a Frame inside ``coset`` (extract_frame): e_1 lies in the
    coset exactly when the parity key of y_1 = 2 e_1 names it in
    DiscriminantGroup.torsion2_index.  The code is the span of the mod-2 frame
    pairings of the basis of L; the representative adds nothing to it, as
    it differs from e_1, whose pairings are even, by a vector of L.  The
    sign pattern is the lexicographically first one whose
    halved-codeword generators land in the lattice (a linear condition
    over F_2); the rebuild is then checked exactly (see the module
    docstring).
    """
    n = lat.rank
    yframe, gy = frame
    if lat.discriminant.torsion2_index.get(parity_key(yframe[0])) != coset:
        raise CosetNotInR("the frame does not lie in coset %s"
                          % coset.label())

    # the pairing of e_i with the j-th basis vector is gy[i][j] / 2, an
    # integer; bit i of code word j is its parity, bit 1 of gy[i][j].  With
    # those bits as binary digits, row by row and then reversed, column j
    # is digits[n - 1 - j::n], row n - 1 first: word j spelled out.
    low = bytes(map((3).__and__, chain.from_iterable(gy)))
    if b"\1" in low or b"\3" in low:
        raise Incomplete("frame pairing was not integral")
    _check_frame(frame)
    digits = low.translate(_BITS)[::-1]
    code = BinaryCode(length=n, basis=_rref(
        [int(digits[n - 1 - j::n], 2) for j in range(n)]))

    # sign conditions: for each basis codeword c, the halved sum over c
    # of +/-frame vectors lies in L iff the flip count on c has a forced
    # parity; determine that parity from the unsigned sum (a flip changes
    # it by 2 y_i, which is 2 y_1 mod 4)
    ones, lanes = _mod8_lanes(yframe)
    low2 = 3 * ones
    equations = []
    for cword in code.basis:
        acc = sum(map(lanes.__getitem__, _support(cword, n)))
        if not acc & low2:
            parity = 0
        elif not (acc + 2 * lanes[0]) & low2:
            parity = 1
        else:
            raise NoSignPattern("no flip parity embeds codeword generator")
        equations.append((cword, parity))
    flips = _lexmin_f2_solution(equations, n)
    if flips is None:
        raise NoSignPattern("sign parity system is inconsistent")
    signs = tuple(-1 if f else 1 for f in flips)
    _check_generators(ones, lanes, code, signs)
    return FrameDecomposition(coset=coset, rows=yframe, code=code,
                              signs=signs)


def _check_frame(frame):
    """Check (b): raise Incomplete unless the frame Gram matrix is 2 I."""
    yframe, gy = frame
    width, cols = _pairing_columns(yframe, gy)
    for i, y in enumerate(yframe):
        if intmat.dot(y, cols) != 8 << (width * i):
            raise Incomplete("frame vectors are not orthogonal of norm 2")


def _check_generators(ones, lanes, code, signs):
    """Check (a) and the rank mod 2 on the frame's mod-8 lanes
    (_mod8_lanes): raise NoSignPattern unless the generators lie in L and
    span it."""
    n = len(lanes)
    signed = [p if s > 0 else 8 * ones - p for p, s in zip(lanes, signs)]
    gens = [sum(map(signed.__getitem__, _support(word, n)))
            for word in code.basis]
    gens.append(4 * lanes[0])
    gens += [2 * (a + b) for a, b in zip(lanes, lanes[1:])]
    low2 = 3 * ones
    if any(g & low2 for g in gens) or _f2_rank(
            g >> 2 & ones for g in gens) != n:
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
    yframe = dec.rows
    plus = list(map(sum, zip(*(y if s > 0 else map(neg, y)
                              for y, s in zip(yframe, dec.signs)))))
    minus = [a - 4 * dec.signs[0] * c for a, c in zip(plus, yframe[0])]
    index = lat.discriminant.torsion2_index

    def classify(num):
        # the vector is num / 8 (the rows are 2 e_i): twice it, w = num / 4,
        # lies in L iff 4 | num, and then the vector lies in the dual iff
        # G w = 0 mod 2, that is iff w mod 2 is a key of the index (its keys
        # are all of ker(G mod 2)), whose value is then the vector's coset
        if any(map((3).__and__, num)):
            return None
        return index.get(parity_key([c // 4 for c in num]))

    return StructuralCosets(twist_plus=classify(plus),
                            twist_minus=classify(minus))
