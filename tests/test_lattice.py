import math
import random
import time
from fractions import Fraction
from itertools import product

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (canonicalize_coset, det_bareiss, dual_gram, is_odd,
                     kernel_offsets, leaf_count_isometry_order,
                     list_isometry_order, naive_isometry_order,
                     naive_vectors_of_norm, random_posdef_gram,
                     random_unimodular_conjugate, rep_of_element,
                     same_lattice, sweep_offsets, vec_json, vec_text)
from voaplus import (Lattice, count_norm, direct_sum, orthogonal_group_order,
                     parse_spec, rescale, vectors_of_norm)
from voaplus.errors import (DimensionTooLarge, NormNegative, NotIntegral,
                            NotPositiveDefinite, NotSymmetric)
from voaplus.lattice import _cached_offsets, _torsion2_basis
from voaplus.serialize import coset_json


def test_make_lattice_examples():
    a1 = Lattice([[2]])
    assert a1.is_even and a1.det == 2 and a1.rank == 1
    two_a1 = Lattice([[8]])
    assert two_a1.is_even and two_a1.det == 8
    a2 = Lattice([[2, 1], [1, 2]])
    assert a2.is_even and a2.det == 3
    z1 = Lattice([[1]])
    assert is_odd(z1)


def test_make_lattice_rejects_bad_input():
    with pytest.raises(NotSymmetric):
        Lattice([[2, 1], [0, 2]])
    with pytest.raises(NotPositiveDefinite):
        Lattice([[0]])
    with pytest.raises(NotPositiveDefinite):
        Lattice([[1, 2], [2, 1]])
    with pytest.raises(NotIntegral):
        Lattice([[1.5]])
    with pytest.raises(NotPositiveDefinite):
        Lattice([])


def test_discriminant_group_examples():
    assert Lattice([[8]]).discriminant.invariant_factors == (8,)
    assert len(Lattice([[8]]).discriminant.torsion2_reps) == 2
    e8 = parse_spec("E8")
    assert e8.discriminant.invariant_factors == (1,) * 8
    assert len(e8.discriminant.torsion2_reps) == 1
    d44 = Lattice([[4, 0], [0, 4]])
    assert d44.discriminant.invariant_factors == (4, 4)
    assert len(d44.discriminant.torsion2_reps) == 4


def test_discriminant_invariants_random():
    rng = random.Random(101)
    seen = 0
    while seen < 25:
        n = rng.randrange(1, 4)
        g = random_posdef_gram(rng, n)
        if g is None:
            continue
        seen += 1
        lat = Lattice(g)
        disc = lat.discriminant
        prod = 1
        for d in disc.invariant_factors:
            prod *= d
        assert prod == lat.det
        expect_t2 = 1
        for d in disc.invariant_factors:
            expect_t2 *= 2 if d % 2 == 0 else 1
        assert len(disc.torsion2_reps) == expect_t2
        # dual of the dual gram is the original
        dg = dual_gram(lat)
        from voaplus.intmat import invert_fraction
        back = invert_fraction([list(r) for r in dg])
        assert [[Fraction(x) for x in row] for row in back] == \
               [[Fraction(x) for x in row] for row in lat.gram]


def test_canonical_coset_is_stable():
    lat = Lattice([[8]])
    c1 = canonicalize_coset(lat, (Fraction(1, 2),))
    c2 = canonicalize_coset(lat, (Fraction(5, 2),))   # differs by 2 in L
    c3 = canonicalize_coset(lat, (Fraction(-1, 2),))  # negative rep
    assert c1 == c2 == c3
    assert c1.order2
    assert canonicalize_coset(lat, (Fraction(1, 4),)).order2 is False


def test_vectors_of_norm_paper_examples():
    two_a1 = Lattice([[8]])
    assert vectors_of_norm(two_a1, None, 2) == []
    half = canonicalize_coset(two_a1, (Fraction(1, 2),))
    vs = vectors_of_norm(two_a1, half, 2)
    assert vs == [(Fraction(-1, 2),), (Fraction(1, 2),)]
    assert parse_spec("E8").root_count == 240


def test_vectors_of_norm_rejects_negative():
    with pytest.raises(NormNegative):
        vectors_of_norm(Lattice([[2]]), None, -1)


CATALOG_SMALL = ["A1", "2A1", "sqrt2*A1", "A2", "sqrt2*(A1+A1)", "A3",
                 "sqrt2*A3", "gram([[2,1,0],[1,4,1],[0,1,6]])"]


@pytest.mark.parametrize("spec", CATALOG_SMALL)
def test_enumeration_matches_naive_box(spec):
    lat = parse_spec(spec)
    cosets = lat.discriminant.torsion2_reps
    for m in [0, 1, 2, 3, 4, Fraction(7, 2), 6, 8]:
        for coset in cosets:
            got = vectors_of_norm(lat, coset, m)
            want = naive_vectors_of_norm(lat.gram, coset.rep, m)
            assert got == want, (spec, m, coset.rep)


def test_enumeration_matches_naive_on_random_grams():
    rng = random.Random(303)
    seen = 0
    while seen < 12:
        n = rng.randrange(1, 4)
        g = random_posdef_gram(rng, n)
        if g is None:
            continue
        seen += 1
        lat = Lattice(g)
        for m in [2, 5, 8]:
            got = vectors_of_norm(lat, None, m)
            assert got == naive_vectors_of_norm(g, [0] * n, m)


def test_enumeration_backends_agree():
    lat = parse_spec("sqrt2*A3")
    coset = lat.discriminant.torsion2_reps[-1]
    rep = coset.rep
    found = 0
    # norm 2 is empty in this coset; norms 1 and 3 are not
    for m in (Fraction(2), Fraction(1), Fraction(3)):
        core = [tuple(x + r for x, r in zip(off, rep))
                for off in kernel_offsets(lat.gram, rep, m)]
        assert core == naive_vectors_of_norm(lat.gram, rep, m)
        assert vectors_of_norm(lat, coset, m) == core
        found += len(core)
    assert found > 0


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       even=st.booleans())
def test_torsion2_sweep_matches_per_coset_enumeration(seed, n, even):
    rng = random.Random(seed)
    gram = None
    while gram is None:
        gram = random_posdef_gram(rng, n, hi=12, even=even)
    grams = [gram]
    if n > 1:
        grams.append(random_unimodular_conjugate(rng, gram, steps=3 * n))
    for g in grams:
        lat = Lattice(g)
        sweep = sweep_offsets(lat)
        cosets = lat.discriminant.torsion2_reps
        assert sorted(sweep) == sorted(cosets)
        for coset in cosets:
            want = tuple(kernel_offsets(g, coset.rep, Fraction(2)))
            assert sweep[coset] == want, (g, coset)
            assert count_norm(lat, coset, 2) == len(want)


@pytest.mark.parametrize("steps", [0, 24])
def test_torsion2_sweep_buckets_match_own_trees_on_lb_rep8(steps):
    # the sweep maps one vector of each pair +-w; every bucket must still
    # equal the coset's own enumeration, in the catalog basis and another
    gram = random_unimodular_conjugate(
        random.Random(8), parse_spec("lb(rep(8))").gram, steps=steps)
    lat = Lattice(gram)
    sweep = sweep_offsets(lat)
    cosets = lat.discriminant.torsion2_reps
    assert len(cosets) == 256
    assert sorted(sweep) == sorted(cosets)
    for coset in cosets:
        own = _cached_offsets(lat, coset.den, coset.nums, Fraction(2))
        assert sweep[coset] == own, coset


def test_vectors_of_norm_on_a_swept_lattice_lists_the_own_tree():
    # the sweep changes no listing: every coset still comes from its own
    # tree, equal to the sweep's offsets
    lat = parse_spec("lb(rep(8))")
    sweep = sweep_offsets(lat)
    for coset in lat.discriminant.torsion2_reps[::17]:
        own = _cached_offsets(lat, coset.den, coset.nums, Fraction(2))
        want = [tuple(x + r for x, r in zip(off, coset.rep)) for off in own]
        assert vectors_of_norm(lat, coset, 2) == want
        assert own == sweep[coset]
        assert count_norm(lat, coset, 2) == len(want)


def test_root_count_does_not_force_the_sweep():
    # 2 I_14 has 2^14 order-<=2 cosets: the sweep would build them all,
    # while the roots alone are one small tree
    lat = Lattice([[2 * (i == j) for j in range(14)] for i in range(14)])
    t0 = time.perf_counter()
    assert lat.root_count == 28
    assert time.perf_counter() - t0 < 0.1
    assert "torsion2_norm2_records" not in lat.__dict__
    assert "torsion2_reps" not in lat.discriminant.__dict__


def test_torsion2_size_limit():
    # lb(zero(16)) has 2^16 order-<=2 cosets, the most allowed; the check
    # builds none of them.  lb(zero(17)) is refused before the sweep.
    disc = parse_spec("lb(zero(16))").discriminant
    disc.check_torsion2_size()
    assert "torsion2_reps" not in disc.__dict__
    big = parse_spec("lb(zero(17))")
    with pytest.raises(DimensionTooLarge, match="2\\^17"):
        big.torsion2_norm2_records
    assert "torsion2_reps" not in big.discriminant.__dict__


def coset_layer_grams(seed, n, even):
    """A random Gram matrix of rank n and, for n > 1, the same lattice in
    a random other basis."""
    rng = random.Random(seed)
    gram = None
    while gram is None:
        gram = random_posdef_gram(rng, n, hi=12, even=even)
    if n == 1:
        return rng, [gram]
    return rng, [gram, random_unimodular_conjugate(rng, gram, steps=3 * n)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       even=st.booleans())
def test_canonical_rep_maps_back_to_its_element(seed, n, even):
    rng, grams = coset_layer_grams(seed, n, even)
    for g in grams:
        disc = Lattice(g).discriminant
        ranges = [range(d) for d in disc.invariant_factors]
        if math.prod(disc.invariant_factors) <= 512:
            elements = list(product(*ranges))
        else:
            elements = [tuple(rng.choice(r) for r in ranges)
                        for _ in range(64)]
        for a in elements:
            assert disc.element_of(rep_of_element(disc, a)) == a, (g, a)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       even=st.booleans())
def test_cosets_are_integer_numerators_over_one_denominator(seed, n, even):
    # every coset from coset_of (of a representative moved by a vector of
    # L) and from torsion2_reps: lowest terms, the rep of the Fraction
    # formula, compared and hashed as its rep is, printed as its rep is
    rng, grams = coset_layer_grams(seed, n, even)
    for g in grams:
        disc = Lattice(g).discriminant
        d = disc.invariant_factors
        cosets = []
        for _ in range(16):
            a = tuple(rng.randrange(di) for di in d)
            rep = rep_of_element(disc, a)
            moved = tuple(r + rng.randrange(-3, 4) for r in rep)
            cosets.append(disc.coset_of(moved))
            assert cosets[-1].rep == rep, (g, a)
        halves = product(*[(0, di // 2) if di % 2 == 0 else (0,) for di in d])
        torsion2 = disc.torsion2_reps
        assert ({c.rep for c in torsion2}
                == {rep_of_element(disc, a) for a in halves}), g
        cosets += torsion2
        for c in cosets:
            assert c.den > 0 and math.gcd(c.den, *c.nums) == 1, c
            assert c.label() == vec_text(c.rep)
            assert coset_json(c) == vec_json(c.rep)
        for b in cosets[::3]:
            for c in cosets:
                assert (b == c) == (b.rep == c.rep), (b, c)
                assert b != c or hash(b) == hash(c)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6),
       even=st.booleans())
def test_torsion2_basis_spans_l_meet_2l_dual(seed, n, even):
    # rows inside M = {x : G x = 0 mod 2} and index 2^(n - k) in Z^n, k
    # the number of even invariant factors: together, a basis of M
    _, grams = coset_layer_grams(seed, n, even)
    for g in grams:
        lat = Lattice(g)
        basis = _torsion2_basis(lat)
        assert len(basis) == n
        for x in basis:
            assert all(v % 2 == 0 for v in lat.gram_times(x)), (g, x)
        k = sum(1 for d in lat.discriminant.invariant_factors if d % 2 == 0)
        assert abs(det_bareiss(basis)) == 2 ** (n - k), g


def test_enumeration_symmetry_and_coset_closure():
    lat = parse_spec("sqrt2*(A1+A1)")
    for coset in lat.discriminant.torsion2_reps:
        vs = vectors_of_norm(lat, coset, 4)
        as_set = set(vs)
        for v in vs:
            assert tuple(-x for x in v) in as_set
            assert all((x - r).denominator == 1 for x, r in zip(v, coset.rep))


def test_isometry_group_orders():
    assert orthogonal_group_order(Lattice([[8]])) == 2
    assert orthogonal_group_order(Lattice([[4, 0], [0, 4]])) == 8
    assert orthogonal_group_order(parse_spec("sqrt2*A3")) == 48
    assert orthogonal_group_order(parse_spec("A2")) == 12
    assert orthogonal_group_order(parse_spec("D4")) == 1152


def test_isometry_order_matches_naive():
    rng = random.Random(55)
    seen = 0
    while seen < 8:
        n = rng.randrange(1, 4)
        g = random_posdef_gram(rng, n)
        if g is None:
            continue
        seen += 1
        assert orthogonal_group_order(Lattice(g)) == naive_isometry_order(g)


def test_isometry_order_is_even_and_bounded():
    rng = random.Random(56)
    seen = 0
    while seen < 10:
        g = random_posdef_gram(rng, rng.randrange(1, 4))
        if g is None:
            continue
        seen += 1
        assert orthogonal_group_order(Lattice(g)) % 2 == 0


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4))
def test_isometry_order_matches_leaf_count(seed, n):
    g = random_posdef_gram(random.Random(seed), n)
    assume(g is not None)
    got = orthogonal_group_order(Lattice(g))
    assert got == leaf_count_isometry_order(g)
    if n <= 3:
        assert got == naive_isometry_order(g)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 4))
def test_isometry_order_invariant_under_random_basis_change(seed, n):
    rng = random.Random(seed)
    g = random_posdef_gram(rng, n)
    assume(g is not None)
    # rank 1 has no basis change but the sign
    skewed = random_unimodular_conjugate(rng, g) if n > 1 else g
    assert (orthogonal_group_order(Lattice(skewed))
            == orthogonal_group_order(Lattice(g)))


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5))
def test_packed_isometry_search_matches_list_search(seed, n):
    g = random_posdef_gram(random.Random(seed), n, even=True)
    assume(g is not None)
    lat = Lattice(g)
    assert orthogonal_group_order(lat) == list_isometry_order(lat)


@pytest.mark.parametrize("gram, order", [
    ([[2, 1], [1, 2 ** 70]], 4),
    ([[4, 2, 0], [2, 1000, 1], [0, 1, 2 ** 40]], 4),
    ([[2, 0, 0], [0, 2 ** 65, 0], [0, 0, 2 ** 65]], 16)])
def test_packed_isometry_search_with_wide_lanes(gram, order):
    # a norm past 2^64 needs lanes of more than 64 bits
    lat = Lattice(gram)
    assert orthogonal_group_order(lat) == order
    assert list_isometry_order(lat) == order
    assert leaf_count_isometry_order(gram) == order


@pytest.mark.parametrize("spec, order", [
    ("D4", 1152), ("sqrt2*A3", 48), ("sqrt2*D5", 3840)])
def test_isometry_order_invariant_under_basis_change(spec, order):
    gram = parse_spec(spec).gram
    rng = random.Random(spec)
    for _ in range(4):
        lat = Lattice(random_unimodular_conjugate(rng, gram))
        assert orthogonal_group_order(lat) == order


@pytest.mark.parametrize("spec, order", [
    # |O(D5)| = 2^5 5!, |O(A_n)| = 2 (n+1)! for n >= 2, |O(D4)| = 192 * 3!
    ("sqrt2*D5", 2 ** 5 * 120),
    ("sqrt2*A5", 2 * 720),
    ("sqrt2*A6", 2 * 5040),
    ("sqrt2*(A3+A3)", (2 * 24) ** 2 * 2),
    ("sqrt2*(D4+A1)", 1152 * 2),
    ("E8", 696729600),  # |W(E8)|
    ("E8+E8", 2 * 696729600 ** 2),
    ("D16", 2 ** 16 * math.factorial(16)),
])
def test_isometry_order_closed_forms(spec, order):
    lat = parse_spec(spec)
    assert orthogonal_group_order(lat) == order


def test_same_lattice_examples():
    basis = [(1, 0), (0, 1)]
    neg = [(-1, 0), (0, 1)]
    assert same_lattice(basis, neg)
    assert not same_lattice([(1,)], [(2,)])
    # an equivalence relation on a few generator sets of the same module
    sets = [basis, neg, [(1, 1), (0, 1)], [(1, 0), (1, 1), (0, 1)]]
    for a in sets:
        assert same_lattice(a, a)
        for b in sets:
            assert same_lattice(a, b) == same_lattice(b, a)
            assert same_lattice(a, b)


def test_rescale_and_direct_sum():
    a1 = Lattice([[2]])
    assert rescale(a1, 4).gram == ((8,),)
    d = direct_sum(a1, rescale(a1, 2))
    assert d.gram == ((2, 0), (0, 4))
    with pytest.raises(NotIntegral):
        rescale(a1, 0)


def test_two_elementary_and_totally_even():
    assert parse_spec("lb(rep(8))").is_2_elementary
    assert parse_spec("lb(rep(8))").is_totally_even
    assert not Lattice([[8]]).is_2_elementary
    assert parse_spec("E8").is_2_elementary   # trivial discriminant
    assert parse_spec("E8").is_totally_even   # dual of unimodular is itself
    assert not parse_spec("A2").is_totally_even
    assert not parse_spec("sqrt2*(A1+A1)").is_2_elementary  # factors 4
