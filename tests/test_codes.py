import random

import pytest
from hypothesis import given, settings, strategies as st

from helpers import random_doubly_even_code
from voaplus import (hamming8, make_code, repetition_code, rm14, rm14_subcode,
                     words_of_weight, zero_code)
from voaplus.codes import word_from_string
from voaplus.errors import (DimensionTooLarge, LengthMismatch, ParseError,
                            WrongLength)


def test_make_code_examples():
    c = make_code(8, ["11111111"])
    assert c.dimension == 1
    assert c.is_doubly_even
    assert c.contains_all_one
    z = zero_code(1)
    assert z.dimension == 0 and z.is_doubly_even and not z.contains_all_one
    h = hamming8()
    assert h.dimension == 4
    assert h.is_doubly_even
    assert h.weight_distribution == {0: 1, 4: 14, 8: 1}


def test_make_code_validates_length():
    with pytest.raises(LengthMismatch):
        make_code(4, ["101"])
    with pytest.raises(LengthMismatch):
        make_code(0, [])
    with pytest.raises(LengthMismatch):
        make_code(2, [0b111])


@pytest.mark.parametrize("gens", [
    ["1111", 3.5], ["1111", None], [True], [[1, 1, 1, 1]], [(1, 1, 1, 1)]])
def test_make_code_refuses_other_generator_types(gens):
    # a bool is not the integer 1, and a float or a list is not a codeword
    with pytest.raises(ParseError, match="generator %d is a %s, not a "
                       % (len(gens) - 1, type(gens[-1]).__name__)):
        make_code(4, gens)


def test_make_code_is_canonical_and_idempotent():
    rng = random.Random(99)
    for _ in range(50):
        n = rng.randrange(1, 13)
        gens = [rng.getrandbits(n) for _ in range(rng.randrange(0, 5))]
        c = make_code(n, gens)
        again = make_code(n, list(c.basis))
        assert again == c
        shuffled = list(gens)
        rng.shuffle(shuffled)
        assert make_code(n, shuffled) == c
        # pivots unique and rows reduced
        pivots = [b & -b for b in c.basis]
        assert len(set(pivots)) == len(pivots)
        for i, b in enumerate(c.basis):
            for j, other in enumerate(c.basis):
                if i != j:
                    assert not b & pivots[j]


def test_weight_distribution_sums_to_size():
    rng = random.Random(7)
    for _ in range(30):
        n = rng.randrange(1, 12)
        c = make_code(n, [rng.getrandbits(n) for _ in range(3)])
        assert sum(c.weight_distribution.values()) == 2 ** c.dimension


def test_doubly_even_implies_self_orthogonal():
    rng = random.Random(31)
    checked = 0
    while checked < 20:
        n = rng.randrange(4, 13)
        c = make_code(n, [rng.getrandbits(n) for _ in range(4)])
        if not c.is_doubly_even or c.dimension == 0:
            continue
        checked += 1
        ws = c.words()
        for a in ws:
            for b in ws:
                assert (a & b).bit_count() % 2 == 0


def test_words_of_weight():
    assert words_of_weight(zero_code(3), 0) == [0]
    assert len(words_of_weight(hamming8(), 4)) == 14
    assert len(words_of_weight(rm14(), 8)) == 30
    with pytest.raises(WrongLength):
        words_of_weight(hamming8(), 9)


def test_enumeration_refuses_large_dimension():
    n = 30
    gens = [1 << i for i in range(21)]
    big = make_code(n, gens)
    with pytest.raises(DimensionTooLarge):
        big.words()


def test_rm14_profile():
    c = rm14()
    assert c.dimension == 5
    assert c.weight_distribution == {0: 1, 8: 30, 16: 1}
    assert c.is_doubly_even
    assert c.contains_all_one


def test_rm14_subcode_detection():
    c = rm14()
    w = rm14_subcode(c)
    assert w == c
    assert rm14_subcode(zero_code(16)) is None
    with pytest.raises(WrongLength):
        rm14_subcode(hamming8())


def test_rm14_subcode_in_extension():
    # extend the Reed-Muller code by a weight-4 word keeping double evenness
    c = rm14()
    extra = word_from_string("1111000000000000")
    ext = make_code(16, list(c.basis) + [extra])
    assert ext.dimension == 6
    assert ext.is_doubly_even
    assert rm14_subcode(ext) is not None
    got = rm14_subcode(ext)
    assert got.weight_distribution == {0: 1, 8: 30, 16: 1}


def test_rm14_subcode_invariant_under_permutation():
    rng = random.Random(2024)
    base = rm14()
    for _ in range(6):
        perm = list(range(16))
        rng.shuffle(perm)
        permuted = []
        for b in base.basis:
            w = 0
            for i in range(16):
                if (b >> i) & 1:
                    w |= 1 << perm[i]
            permuted.append(w)
        pc = make_code(16, permuted)
        assert rm14_subcode(pc) is not None
        assert pc.weight_distribution == {0: 1, 8: 30, 16: 1}


def test_repetition_code_even_iff_multiple_of_four():
    assert repetition_code(8).is_doubly_even
    assert repetition_code(4).is_doubly_even
    assert not repetition_code(6).is_doubly_even
    # short codes: only the zero code is doubly even
    for n in (1, 2, 3):
        assert zero_code(n).is_doubly_even
        assert not repetition_code(n).is_doubly_even


@settings(max_examples=200, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12),
       kind=st.sampled_from(["random", "doubly_even",
                             "basis_weights_0_mod_4"]))
def test_is_doubly_even_matches_weight_distribution(seed, n, kind):
    # the near misses: codes whose canonical basis words all have weight
    # 0 mod 4 are doubly even exactly when those words meet evenly
    rng = random.Random(seed)
    if kind == "doubly_even":
        code = random_doubly_even_code(rng, n, rng.randrange(0, 5))
    else:
        while True:
            code = make_code(n, [rng.getrandbits(n)
                                 for _ in range(rng.randrange(0, 4))])
            if kind == "random" or all(b.bit_count() % 4 == 0
                                       for b in code.basis):
                break
    assert code.is_doubly_even == all(w % 4 == 0
                                      for w in code.weight_distribution)
