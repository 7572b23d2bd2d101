import math
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from helpers import (brute_force_lexmin_f2, canonicalize_coset,
                     check_rebuild, construction_b_generators,
                     doubly_even_sample, greedy_frame, inner,
                     is_construction_b, norm, random_doubly_even_code,
                     random_posdef_gram, random_unimodular_conjugate,
                     rebuild_spans_lattice, same_lattice, single_coset_frame,
                     structural_cosets_gram_route, structural_cosets_oracle)
from voaplus import (CATALOG, Lattice, build_construction_b, count_norm, decompose,
                     extract_code, extract_frame, frame_cosets, hamming8,
                     intmat, make_code, parse_spec, repetition_code, rm14,
                     structural_cosets, words_of_weight, zero_code)
from voaplus.codes import word_from_support
from voaplus.constrb import (FrameDecomposition, _lexmin_f2_solution,
                             _mod8_lanes, _pairing_columns)
from voaplus.errors import (CosetNotInR, Incomplete, NoSignPattern,
                            NotDoublyEven, NotEven)


def test_build_zero_code_rank1_gives_scaled_a1():
    lat, frame = build_construction_b(zero_code(1))
    assert lat.gram == ((8,),)
    assert norm(lat, frame[0]) == 2


def test_build_zero_code_rank2_matches_scaled_pair():
    lat, frame = build_construction_b(zero_code(2))
    # same lattice as diag(4, 4) up to basis: check the invariants
    assert lat.det == 16
    assert lat.root_count == 0
    assert count_norm(lat, None, 4) == 4
    assert all(norm(lat, f) == 2 for f in frame)
    assert inner(lat, frame[0], frame[1]) == 0


def test_build_refuses_non_doubly_even():
    with pytest.raises(NotDoublyEven):
        build_construction_b(repetition_code(6))


def test_build_hamming_root_count():
    lat, _ = build_construction_b(hamming8())
    assert lat.root_count == 112  # 8 * 14 weight-4 words
    assert lat.det == 4


def test_root_count_matches_weight4_words_random():
    # |L_2| == 8 |C_4| on a small sample; the full sweep runs in acceptance
    rng = random.Random(5150)
    for _ in range(15):
        n = rng.choice([4, 6, 8, 10, 12])
        c = random_doubly_even_code(rng, n, min(6, n // 2))
        lat, _ = build_construction_b(c)
        c4 = len(words_of_weight(c, 4))
        assert lat.root_count == 8 * c4, c.basis_strings()


def test_frame_cosets_paper_anchors():
    two_a1 = Lattice([[8]])
    fc = frame_cosets(two_a1)
    assert fc.bound == 2
    assert [c.rep for c in fc.cosets] == [(Fraction(1, 2),)]
    d44 = Lattice([[4, 0], [0, 4]])
    fc = frame_cosets(d44)
    assert fc.bound == 4
    assert [c.rep for c in fc.cosets] == [(Fraction(1, 2), Fraction(1, 2))]
    assert len(frame_cosets(parse_spec("E8")).cosets) == 0


def test_frame_coset_counts_equal_bound():
    for spec in ["2A1", "sqrt2*(A1+A1)", "sqrt2*A3", "lb(hamming8)"]:
        fc = frame_cosets(parse_spec(spec))
        assert all(c == fc.bound for c in fc.counts)


def test_frame_cosets_sweeps_all_cosets_in_one_enumeration(monkeypatch):
    # one tree for all 256 order-<=2 cosets of lb(rm14), not one per coset
    from voaplus import kernels, lattice
    calls = []
    real = kernels.enumerate_offsets

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "enumerate_offsets", counting)
    lattice._cached_offsets.cache_clear()
    lat = parse_spec("lb(rm14)")    # a fresh object: nothing stored on it
    assert len(lat.discriminant.torsion2_reps) == 256
    fc = frame_cosets(lat)
    assert len(fc.cosets) == 135 and fc.bound == 32
    assert len(calls) <= 2
    assert len(extract_frame(lat, fc.cosets[0]).rows) == 16
    assert len(calls) <= 2


def test_frame_cosets_of_skewed_basis():
    # the norm-2 sweep runs in a reduced basis of M, so a skewed basis of L
    # costs no more than the catalog one; root_count then reads the sweep
    # (on its own tree in this basis it took 54 s)
    gram = random_unimodular_conjugate(
        random.Random(2), parse_spec("lb(rm14)").gram, steps=80)
    lat = Lattice(gram)
    t0 = time.perf_counter()
    assert len(frame_cosets(lat).cosets) == 135
    assert lat.root_count == 0
    assert time.perf_counter() - t0 < 10.0    # about 0.3 s on a 2-core VM


def test_equal_lattice_keeps_its_own_sweep(monkeypatch):
    # frame_cosets and decompose are kept per Lattice object, like the
    # sweep: an equal lattice built anew sweeps once and reads its records
    from voaplus import kernels
    first = parse_spec("lb(rm14)")
    want = frame_cosets(first)
    calls = []
    real = kernels.enumerate_offsets

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "enumerate_offsets", counting)
    lat = parse_spec("lb(rm14)")
    assert lat == first and lat is not first
    fc = frame_cosets(lat)
    assert fc == want
    frames = [extract_frame(lat, c) for c in fc.cosets]
    assert len(frames) == 135 and len(calls) <= 1
    assert frame_cosets(lat) is fc


def test_extract_frame_on_a_fresh_lattice_sweeps_once(monkeypatch):
    # extract_frame reads the sweep itself, before root_count, so a fresh
    # object costs one kernel call: the sweep, which root_count then reads
    from voaplus import kernels, lattice
    first = parse_spec("lb(rm14)")
    coset = frame_cosets(first).cosets[0]
    lattice._cached_offsets.cache_clear()   # no tree of an earlier test
    calls = []
    real = kernels.enumerate_offsets

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(kernels, "enumerate_offsets", counting)
    lat = parse_spec("lb(rm14)")
    frame = extract_frame(lat, coset)
    assert len(calls) == 1
    assert len(frame.rows) == 16
    assert frame == single_coset_frame(first, coset)


def _skewed_pair(diag, t):
    """diag(a, b) in the basis (b0, b1 + t b0)."""
    a, b = diag
    return [[a, t * a], [t * a, t * t * a + b]]


# (name, Gram matrix, the same lattice in a reduced basis, a bound that
# some record entry reaches: 2^7 needs 2-byte lanes, 2^15 4-byte ones,
# 2^63 lanes of more than 8 bytes)
SKEWED = [
    ("lb(rm14), 80 steps", random_unimodular_conjugate(
        random.Random(2), parse_spec("lb(rm14)").gram, steps=80),
     parse_spec("lb(rm14)").gram, 1),
    ("A1+A1", _skewed_pair((2, 2), 94906267), [[2, 0], [0, 2]], 2 ** 15),
    ("sqrt2*(A1+A1), t=40", _skewed_pair((4, 4), 40), [[4, 0], [0, 4]],
     2 ** 7),
    ("sqrt2*(A1+A1), t=2^70", _skewed_pair((4, 4), 2 ** 70),
     [[4, 0], [0, 4]], 2 ** 63),
]


@pytest.mark.parametrize("name,gram,plain,reached", SKEWED,
                         ids=[case[0] for case in SKEWED])
def test_sweep_records_in_skewed_bases(name, gram, plain, reached):
    # the lanes of a record are as wide as the basis is skewed: every record
    # is w + G w for a norm-8 w in its coset, and the counts, the
    # decompositions and the structural cosets match the reduced basis
    lat = Lattice(gram)
    n = lat.rank
    sweep = lat.torsion2_norm2_records
    for coset in lat.discriminant.torsion2_reps:
        for r in sweep[coset]:
            w, gw = r[:n], r[n:]
            assert list(gw) == lat.gram_times(w)
            assert intmat.dot(w, gw) == 8
        if sweep[coset]:
            w = sweep[coset][0][:n]
            assert canonicalize_coset(
                lat, tuple(Fraction(c, 2) for c in w)) == coset
    assert max(abs(c) for recs in sweep.values() for r in recs
               for c in r) >= reached
    plain = Lattice(plain)
    assert (sorted(map(len, sweep.values()))
            == sorted(map(len, plain.torsion2_norm2_records.values())))
    assert frame_cosets(lat).counts == frame_cosets(plain).counts
    decs = decompose(lat)
    assert len(decs) == len(decompose(plain))
    for dec in decs:
        assert structural_cosets(lat, dec) == structural_cosets_oracle(lat,
                                                                       dec)


def _signed_lanes(value, width, count):
    """The count signed width-bit lanes of sum_i d_i 2^(width i)."""
    out = []
    for _ in range(count):
        low = value & ((1 << width) - 1)
        if low >> (width - 1):
            low -= 1 << width
        out.append(low)
        value = (value - low) >> width
    assert value == 0
    return out


# A1+A1 has roots and no frame coset
SKEWED_FRAMES = [case for case in SKEWED if case[0] != "A1+A1"]


@pytest.mark.parametrize("name,gram,plain,reached", SKEWED_FRAMES,
                         ids=[case[0] for case in SKEWED_FRAMES])
def test_pairing_lanes_in_skewed_bases(name, gram, plain, reached):
    # a skewed basis gives frames with large entries, and the lanes of the
    # rebuild check widen with them: every lane of dot(y, cols) reads back
    # the plain pairing, and the decompositions rebuild L by the HNF route
    # (checked on the first two: in the skewed rank-16 basis it takes
    # about 0.05 s a decomposition)
    lat = Lattice(gram)
    n = lat.rank
    widest = 0
    decs = decompose(lat)
    for dec in decs:
        frame = extract_frame(lat, dec.coset)
        width, cols = _pairing_columns(frame.rows, frame.pairings)
        widest = max(widest, width)
        for y in frame.rows:
            assert (_signed_lanes(intmat.dot(y, cols), width, n)
                    == [intmat.dot(y, p) for p in frame.pairings])
    assert all(rebuild_spans_lattice(dec) for dec in decs[:2])
    assert widest > reached.bit_length()


@pytest.mark.parametrize("n", [1, 16, 29, 30, 40])
def test_mod8_lanes_hold_every_generator_sum(n):
    # the largest lane a generator or a sign equation makes, 8n + 16 (n
    # lanes taken as 8 minus the lane, and more), reads back exactly; byte
    # lanes hold it up to n = 29
    rng = random.Random(n)
    rows = [[rng.randrange(-2 ** 70, 2 ** 70) for _ in range(n)]
            for _ in range(n)]
    ones, lanes = _mod8_lanes(rows)
    width = 8 if n < 30 else 16
    assert ones == sum(1 << (width * k) for k in range(n))
    for row, lane in zip(rows, lanes):
        assert [lane >> (width * k) & 255 for k in range(n)] == [
            c % 8 for c in row]
    top = sum(8 * ones - lane for lane in lanes) + 16 * ones
    assert ([top >> (width * k) & ((1 << width) - 1) for k in range(n)]
            == [sum(8 - c % 8 for c in col) + 16 for col in zip(*rows)])


def test_decompose_with_two_byte_lanes():
    # at rank 32 a lane must hold 8 * 32 + 16 > 255: the lattice of the
    # self-dual Reed-Muller code RM(2,5) decomposes into its own code, and
    # a flipped sign is refused, as the HNF route says it must be
    pts = range(32)
    words = [word_from_support(pts)]
    words += [word_from_support([p for p in pts if p >> i & 1])
              for i in range(5)]
    words += [word_from_support([p for p in pts if p >> i & p >> j & 1])
              for i in range(5) for j in range(i + 1, 5)]
    code = make_code(32, words)
    lat = build_construction_b(code)[0]
    (dec,) = decompose(lat)
    assert dec.code == code and rebuild_spans_lattice(dec)
    frame = extract_frame(lat, dec.coset)
    flipped = (-dec.signs[0],) + dec.signs[1:]
    assert not rebuild_spans_lattice(dec._replace(signs=flipped))
    with pytest.raises(NoSignPattern):
        check_rebuild(frame, dec.code, flipped)


CORRUPTIONS = ("none", "sign", "row", "code", "pairing")


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1),
       corruption=st.sampled_from(CORRUPTIONS))
def test_packed_checks_refuse_exactly_what_the_hnf_oracle_refuses(
        seed, corruption):
    # on a random Construction-B lattice (in a skewed basis half the time),
    # corrupt one decomposition: flip a sign, take a frame row (with its
    # pairing) from another frame coset, drop a code generator, or move a
    # pairing by +-2.  check_rebuild raises exactly when the HNF route
    # says the corrupted data do not rebuild L (a pairing that is not G y
    # never does); so does extract_code, which reads its own code and
    # signs off the frame
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8])
    lat = build_construction_b(random_doubly_even_code(rng, n, n // 2))[0]
    if rng.getrandbits(1):
        lat = Lattice(random_unimodular_conjugate(rng, lat.gram))
    decs = decompose(lat)
    dec = rng.choice(decs)
    frame = extract_frame(lat, dec.coset)
    rows, pairings = list(frame.rows), list(frame.pairings)
    code, signs = dec.code, dec.signs
    i = rng.randrange(n)
    if corruption == "sign":
        signs = signs[:i] + (-signs[i],) + signs[i + 1:]
    elif corruption == "row":
        others = [d.coset for d in decs if d.coset != dec.coset]
        other = extract_frame(lat, rng.choice(others)) if others else frame
        j = rng.choice([j for j in range(n) if others or j != i])
        rows[i], pairings[i] = other.rows[j], other.pairings[j]
    elif corruption == "code" and code.dimension:
        drop = rng.randrange(code.dimension)
        code = make_code(n, code.basis[:drop] + code.basis[drop + 1:])
    elif corruption == "pairing":
        row = list(pairings[i])
        row[rng.randrange(n)] += rng.choice((2, -2))
        pairings[i] = tuple(row)
    bad = frame._replace(rows=tuple(rows), pairings=tuple(pairings))
    spans = (all(list(p) == lat.gram_times(y) for y, p in zip(rows, pairings))
             and rebuild_spans_lattice(
                 dec._replace(rows=bad.rows, code=code, signs=signs)))
    try:
        check_rebuild(bad, code, signs)
        refused = False
    except (Incomplete, NoSignPattern):
        refused = True
    assert refused == (not spans)
    if corruption in ("none", "row", "pairing"):
        try:
            got = extract_code(lat, bad, dec.coset)
        except (CosetNotInR, Incomplete, NoSignPattern):
            got = None
        assert (got is None) == (not spans)
        assert got is None or got == dec


@settings(max_examples=16, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), conjugate=st.booleans())
def test_decompose_from_the_sweep_matches_single_coset_route(seed, conjugate):
    # random Construction-B lattices (their weight-4 words give roots, so
    # the greedy passes over candidates) and conjugates of lb(rep(8)):
    # decompose reads the sweep's records; on a fresh equal lattice, never
    # swept, the oracle enumerates each coset on its own
    rng = random.Random(seed)
    if conjugate:
        gram = random_unimodular_conjugate(rng, parse_spec("lb(rep(8))").gram)
    else:
        n = rng.choice([4, 6, 8, 10])
        gram = build_construction_b(
            random_doubly_even_code(rng, n, n // 2))[0].gram
    lat = Lattice(gram)
    fresh = Lattice(gram)
    decs = decompose(lat)
    assert decs
    assert decs == tuple(extract_code(fresh, single_coset_frame(fresh, c), c)
                         for c in frame_cosets(lat).cosets)
    assert "torsion2_norm2_records" not in fresh.__dict__
    for dec in decs:
        got = structural_cosets(lat, dec)
        assert got == structural_cosets_oracle(lat, dec)
        assert got == structural_cosets_gram_route(lat, dec)


def test_frame_cosets_requires_even():
    with pytest.raises(NotEven):
        frame_cosets(Lattice([[1]]))


def test_is_construction_b_catalog():
    assert is_construction_b(Lattice([[8]]))
    assert not is_construction_b(parse_spec("A2"))
    assert not is_construction_b(parse_spec("E8"))
    assert not is_construction_b(parse_spec("E8+E8"))


def test_extract_frame_examples():
    two_a1 = Lattice([[8]])
    coset = frame_cosets(two_a1).cosets[0]
    frame = extract_frame(two_a1, coset).vectors
    assert frame == ((Fraction(-1, 2),),)
    d44 = Lattice([[4, 0], [0, 4]])
    coset = frame_cosets(d44).cosets[0]
    frame = extract_frame(d44, coset).vectors
    assert len(frame) == 2
    assert inner(d44, frame[0], frame[1]) == 0
    assert all(norm(d44, f) == 2 for f in frame)
    # deterministic
    assert frame == extract_frame(d44, coset).vectors


EVEN_CATALOG = [e.constructor for e in CATALOG
                if e.kind == "lattice" and parse_spec(e.constructor).is_even]


@pytest.mark.parametrize("spec", EVEN_CATALOG)
def test_extract_frame_matches_the_greedy_on_the_catalog(spec):
    # a rootless lattice takes its frames straight off the records; they
    # are the frames the greedy picks, as on lattices with roots
    lat = parse_spec(spec)
    for coset in frame_cosets(lat).cosets:
        assert extract_frame(lat, coset) == greedy_frame(lat, coset)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1))
def test_extract_frame_matches_the_greedy_on_random_lattices(seed):
    # random Construction-B lattices, rootless when the code has no
    # weight-4 word, in a skewed basis half the time
    rng = random.Random(seed)
    n = rng.choice([4, 6, 8])
    code = random_doubly_even_code(rng, n, rng.randint(0, n // 2))
    lat = build_construction_b(code)[0]
    if rng.getrandbits(1):
        lat = Lattice(random_unimodular_conjugate(rng, lat.gram))
    cosets = frame_cosets(lat).cosets
    assert cosets
    for coset in cosets:
        assert extract_frame(lat, coset) == greedy_frame(lat, coset)


# corrupts the records of the first frame coset of the rootless lb(rep(8))
# into a set that is not orthogonal, then prints how decompose refuses it:
# "dup" repeats the first record, "foreign" puts a record of another coset
# that pairs with a kept one in place of the second
CORRUPT_FRAME = """
import sys
from voaplus import parse_spec
from voaplus.constrb import decompose, frame_cosets
from voaplus.errors import Incomplete

lat = parse_spec("lb(rep(8))")
n = lat.rank
recs = lat.torsion2_norm2_records
cosets = frame_cosets(lat).cosets
zero = (0,) * (2 * n)

def canon(r):
    return r if r < zero else tuple(-c for c in r)

own = sorted(map(canon, recs[cosets[0]]))
if sys.argv[1] == "dup":
    recs[cosets[0]] = (own[0],) + tuple(own[:-1])
else:
    kept = [own[0]] + own[2:]
    foreign = next(canon(r) for c in cosets[1:] for r in recs[c]
                   if canon(r) > own[0] and any(
                       sum(a * b for a, b in zip(canon(r)[:n], e[n:]))
                       for e in kept))
    recs[cosets[0]] = (own[0], foreign) + tuple(own[2:])
try:
    decompose(lat)
    print("accepted")
except Incomplete as exc:
    print(type(exc).__name__, exc, __debug__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("corruption", ["dup", "foreign"])
def test_rootless_frame_that_is_not_orthogonal_is_refused(flags, corruption):
    # the rootless path takes the records without testing a pairing;
    # check (b) of the rebuild refuses them, also under -O
    done = subprocess.run(
        [sys.executable] + flags + ["-c", CORRUPT_FRAME, corruption],
        capture_output=True, text=True, check=True)
    assert done.stdout.split() == [
        "Incomplete", "frame", "vectors", "are", "not", "orthogonal", "of",
        "norm", "2", str(not flags)]


def test_extract_frame_rejects_non_qualifying():
    lat = Lattice([[4, 0], [0, 4]])
    bad = canonicalize_coset(lat, (Fraction(1, 2), Fraction(0)))
    with pytest.raises(CosetNotInR):
        extract_frame(lat, bad)


def test_extract_code_refuses_a_frame_of_another_coset():
    # the frame's first vector names its coset by parity key: a frame of
    # one frame coset is refused for another, and for a coset of order 4
    lat = parse_spec("lb(rep(8))")
    first, second = frame_cosets(lat).cosets[:2]
    frame = extract_frame(lat, first)
    with pytest.raises(CosetNotInR, match="does not lie in coset"):
        extract_code(lat, frame, second)
    two_a1 = Lattice([[8]])
    frame = extract_frame(two_a1, frame_cosets(two_a1).cosets[0])
    quarter = canonicalize_coset(two_a1, (Fraction(1, 4),))
    assert not quarter.order2
    with pytest.raises(CosetNotInR, match="does not lie in coset"):
        extract_code(two_a1, frame, quarter)


def test_extract_code_roundtrips():
    two_a1 = Lattice([[8]])
    dec = decompose(two_a1)[0]
    assert dec.code.dimension == 0
    assert dec.code.length == 1

    lat, _ = build_construction_b(repetition_code(8))
    decs = decompose(lat)
    assert decs
    assert any(d.code == repetition_code(8) for d in decs)

    lat16, _ = build_construction_b(rm14())
    coset = frame_cosets(lat16).cosets[0]
    dec = extract_code(lat16, extract_frame(lat16, coset), coset)
    assert dec.code.dimension == 5
    assert dec.code.weight_distribution == {0: 1, 8: 30, 16: 1}


def test_frame_coset_of_built_lattice_qualifies():
    rng = random.Random(77)
    for _ in range(8):
        n = rng.choice([4, 6, 8])
        c = random_doubly_even_code(rng, n, n // 2)
        lat, frame = build_construction_b(c)
        coset = canonicalize_coset(lat, frame[0])
        fc = frame_cosets(lat)
        assert coset in fc.cosets
        # all frame vectors fall in one coset
        assert len({canonicalize_coset(lat, f) for f in frame}) == 1


def test_rebuild_generators_span_original():
    lat, frame = build_construction_b(hamming8())
    gens = construction_b_generators(frame, hamming8())
    unit = [tuple(Fraction(1 if j == i else 0) for j in range(8))
            for i in range(8)]
    assert same_lattice(gens, unit)


def test_structural_cosets_anchors():
    lat8, _ = build_construction_b(repetition_code(8))
    dec = decompose(lat8)[0]
    sc = structural_cosets(lat8, dec)
    assert sc.twist_minus is not None
    assert count_norm(lat8, sc.twist_minus, 2) == 16
    assert sc.twist_plus is not None

    lat16, _ = build_construction_b(rm14())
    dec16 = decompose(lat16)[0]
    sc16 = structural_cosets(lat16, dec16)
    assert sc16.twist_plus is not None
    assert count_norm(lat16, sc16.twist_plus, 2) == 32

    lat4, _ = build_construction_b(zero_code(4))
    dec4 = decompose(lat4)[0]
    sc4 = structural_cosets(lat4, dec4)
    assert sc4.twist_plus is None and sc4.twist_minus is None


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       scale=st.sampled_from((1, 2, 4)))
def test_structural_cosets_routes_agree_on_random_rows(seed, n, scale):
    # rows of 4 Z make every quarter sum lie in L, and then the parity-key
    # index alone decides dual membership; other rows test the 4 | num
    # gate.  The Gram-matrix route and the Fraction route must agree.
    rng = random.Random(seed)
    gram = None
    while gram is None:
        gram = random_posdef_gram(rng, n, hi=12, even=rng.getrandbits(1))
    lat = Lattice(gram)
    rows = tuple(tuple(scale * rng.randrange(-3, 4) for _ in range(n))
                 for _ in range(n))
    signs = tuple(rng.choice((1, -1)) for _ in range(n))
    dec = FrameDecomposition(coset=None, rows=rows, code=None, signs=signs)
    got = structural_cosets(lat, dec)
    assert got == structural_cosets_gram_route(lat, dec)
    assert got == structural_cosets_oracle(lat, dec)


def test_structural_cosets_refuse_a_quarter_sum_in_l_outside_the_dual():
    # in A2, e_1 = (2, 0) and e_2 = (0, 2) give plus = (1/2, 1/2): twice
    # it is (1, 1), in L, but <plus, b_1> = 1/2, so plus is not in A2*;
    # minus = plus - e_1 = (-3/2, 1/2) is not either
    lat = parse_spec("A2")
    dec = FrameDecomposition(coset=None, rows=((4, 0), (0, 4)), code=None,
                             signs=(1, 1))
    assert inner(lat, (Fraction(1, 2), Fraction(1, 2)), (1, 0)) == \
        Fraction(1, 2)
    assert structural_cosets(lat, dec) == (None, None)
    assert structural_cosets_gram_route(lat, dec) == (None, None)


def test_decompose_verifies_every_coset():
    lat, _ = build_construction_b(zero_code(3))  # the scaled rank-3 case
    decs = decompose(lat)
    assert len(decs) == len(frame_cosets(lat).cosets) == 1
    assert decs[0].code == zero_code(3)


# Flips the first sign of every lexmin solution, so each rebuilt lattice
# misses the original.  Prints the CLI exit code and whether assert
# statements are live (__debug__).
BROKEN_SIGNS = """
import voaplus.constrb as constrb
from voaplus import cli

real = constrb._lexmin_f2_solution

def flipped(equations, nvars):
    flips = real(equations, nvars)
    return (1 - flips[0],) + flips[1:]

constrb._lexmin_f2_solution = flipped
print(cli.main(["decompose", "lb(rep(8))"]), __debug__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
def test_rebuild_check_survives_optimize(flags):
    done = subprocess.run([sys.executable] + flags + ["-c", BROKEN_SIGNS],
                          capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["4", str(not flags)]
    assert "rebuilt lattice differs from the original" in done.stderr


def _index_in_l(gens):
    """[L : span] for generators given over L's basis, all inside L."""
    assert all(c.denominator == 1 for g in gens for c in g)
    basis = intmat.hnf([[int(c) for c in g] for g in gens])
    assert len(basis) == len(gens[0])
    return math.prod(row[i] for i, row in enumerate(basis))


@pytest.mark.parametrize("spec", ["lb(rep(8))", "lb(hamming8)", "2A1"])
def test_rebuild_check_agrees_with_hnf_oracle(spec):
    # the F_2 rank check against the HNF route it replaced: both accept
    # every decomposition, and both refuse a code short of one generator
    # (generators inside L spanning index 2) and a flipped first sign
    lat = parse_spec(spec)
    decs = decompose(lat)
    assert decs
    refused = 0
    for dec in decs:
        frame = extract_frame(lat, dec.coset)
        assert frame.rows == dec.rows
        assert rebuild_spans_lattice(dec)
        check_rebuild(frame, dec.code, dec.signs)
        if dec.code.dimension:
            short = make_code(lat.rank, dec.code.basis[1:])
            gens = construction_b_generators(dec.frame, short, dec.signs)
            assert _index_in_l(gens) == 2
            with pytest.raises(NoSignPattern,
                               match="rebuilt lattice differs from the "
                                     "original"):
                check_rebuild(frame, short, dec.signs)
            refused += 1
        flipped = (-dec.signs[0],) + dec.signs[1:]
        if dec.code.basis and dec.code.basis[0] & 1:
            assert not rebuild_spans_lattice(dec._replace(signs=flipped))
            with pytest.raises(NoSignPattern):
                check_rebuild(frame, dec.code, flipped)
    assert refused or spec == "2A1"


def test_rebuild_check_refuses_a_frame_that_is_not_orthogonal():
    lat = parse_spec("lb(rep(8))")
    dec = decompose(lat)[0]
    frame = extract_frame(lat, dec.coset)
    rows = (frame.rows[1],) + frame.rows[1:]
    pairings = (frame.pairings[1],) + frame.pairings[1:]
    with pytest.raises(Incomplete, match="not orthogonal of norm 2"):
        check_rebuild(frame._replace(rows=rows, pairings=pairings),
                       dec.code, dec.signs)


def test_decompose_works_on_integers():
    # frames stay integer rows from the sweep to the FrameDecomposition;
    # frame is a Fraction view of them
    lat = parse_spec("lb(rep(8))")
    # the sweep makes the canonical representatives; decompose has not run
    # on this fresh object
    assert lat.torsion2_norm2_records and frame_cosets(lat).cosets
    made = []
    new = Fraction.__new__

    def counting_new(cls, *args, **kwargs):
        made.append(1)
        return new(cls, *args, **kwargs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Fraction, "__new__", staticmethod(counting_new))
        decs = decompose(lat)
    assert len(decs) == 135
    assert len(made) == 0       # 8 775 before frames were integer rows
    dec = decs[0]
    assert dec.frame == tuple(tuple(Fraction(c, 2) for c in row)
                              for row in dec.rows)
    assert all(norm(lat, e) == 2 for e in dec.frame)


def test_roundtrip_sample_of_random_codes():
    for code in doubly_even_sample(count=12, seed=4242):
        lat, frame = build_construction_b(code)
        coset = canonicalize_coset(lat, frame[0])
        dec = extract_code(lat, extract_frame(lat, coset), coset)
        # extract_code verified the rebuild internally; spot-check the code
        assert dec.code.is_doubly_even
        assert dec.code.length == code.length


@settings(max_examples=300, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(0, 8),
       planted=st.booleans())
def test_lexmin_f2_solution_matches_brute_force(seed, n, planted):
    # a planted solution makes the system consistent; otherwise the
    # right-hand sides are random and extra equations make it often not
    rng = random.Random(seed)
    x = [rng.getrandbits(1) for _ in range(n)]
    equations = []
    for _ in range(rng.randrange(0, n + 3)):
        mask = rng.getrandbits(n)
        rhs = (sum(x[i] for i in range(n) if mask >> i & 1) % 2 if planted
               else rng.getrandbits(1))
        equations.append((mask, rhs))
    assert (_lexmin_f2_solution(equations, n)
            == brute_force_lexmin_f2(equations, n))
