import math
import random
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import (canonicalize_coset, det_bareiss, dual_gram,
                     kernel_offsets, naive_vectors_of_norm,
                     random_posdef_gram)
from voaplus import Lattice, kernels, parse_spec, vectors_of_norm
from voaplus.errors import NotPositiveDefinite
from voaplus.intmat import dot, ldl


def core_vectors(gram, rep, m):
    """The kernel's offsets turned into the vectors x + rep."""
    return [tuple(x + r for x, r in zip(off, rep))
            for off in kernel_offsets(gram, rep, m)]


def test_ldl_reconstructs_gram():
    # gram[a][b] = sum_i lam[a][i] lam[b][i] / (d[i] d[i+1]), exactly
    rng = random.Random(7)
    grams = [[[4, -2, 0], [-2, 4, -2], [0, -2, 4]], [[3]]]
    grams += [g for g in (random_posdef_gram(rng, n) for n in (2, 3, 4, 5, 6)
                          for _ in range(10)) if g is not None]
    for gram in grams:
        n = len(gram)
        d, lam = ldl(gram)
        assert d[0] == 1
        for k in range(n):
            assert lam[k][k] == d[k + 1] > 0
            assert d[k + 1] == det_bareiss([row[:k + 1]
                                            for row in gram[:k + 1]])
            assert not any(lam[k][k + 1:])
        for a in range(n):
            for b in range(n):
                assert gram[a][b] == sum(
                    Fraction(lam[a][i] * lam[b][i], d[i] * d[i + 1])
                    for i in range(n))


@pytest.mark.parametrize("gram, minor, value", [
    ([[2, 2], [2, 2]], 2, 0), ([[1, 2], [2, 1]], 2, -3), ([[0]], 1, 0),
    ([[-1]], 1, -1), ([[2, 1, 0], [1, 2, 3], [0, 3, 2]], 3, -12)])
def test_ldl_refuses_at_first_nonpositive_minor(gram, minor, value):
    with pytest.raises(NotPositiveDefinite,
                       match="leading minor %d is %d$" % (minor, value)):
        ldl(gram)
    with pytest.raises(NotPositiveDefinite):
        Lattice(gram)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(2, 5))
def test_offsets_survive_skewed_basis(seed, n):
    # columns of an upper-unitriangular U with huge multipliers span the
    # same lattice: the new Gram is U' G U and x' maps back to U x'
    rng = random.Random(seed)
    gram = random_posdef_gram(rng, n, even=True)
    assume(gram is not None)
    u = [[int(i == j) if j <= i
          else rng.choice((1, -1)) * rng.randrange(2 ** 40, 2 ** 62)
          for j in range(n)] for i in range(n)]
    cols = list(zip(*u))
    skewed = [[dot(ci, [dot(row, cj) for row in gram]) for cj in cols]
              for ci in cols]
    zero = (Fraction(0),) * n
    for m in (Fraction(2), Fraction(4)):
        mapped = sorted(tuple(dot(row, xs) for row in u)
                        for xs in kernel_offsets(skewed, zero, m))
        assert mapped == kernel_offsets(gram, zero, m)


def test_int64_guard_reroutes_to_bigint():
    # gram entries near 2^31 square far past the int64 range; the kernel's
    # exact identity runs on Python ints, which do not overflow
    big = 2 ** 31
    gram = [[2 * big, 0], [0, 2 * big]]
    rep = [Fraction(0), Fraction(0)]
    got = kernel_offsets(gram, rep, Fraction(2 * big))
    assert sorted(got) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_bigint_path_matches_naive():
    gram = [[4, -2], [-2, 4]]
    rep = [Fraction(1, 2), Fraction(0)]
    got = core_vectors(gram, rep, Fraction(3))
    assert got == naive_vectors_of_norm(gram, rep, 3)
    assert got


def test_fractional_norm_targets():
    lat = Lattice([[2, 1], [1, 2]])
    # dual vectors of A2 have norms in (1/3)Z
    coset = lat.discriminant.torsion2_reps[0]
    assert vectors_of_norm(lat, coset, Fraction(1, 3)) == []
    third = canonicalize_coset(lat, (Fraction(2, 3), Fraction(-1, 3)))
    vs = vectors_of_norm(lat, third, Fraction(2, 3))
    assert vs == naive_vectors_of_norm(lat.gram, third.rep, Fraction(2, 3))
    assert len(vs) == 3


NORMS = [0, 1, 2, Fraction(1, 4), Fraction(1, 2), Fraction(3, 4),
         Fraction(5, 4), Fraction(5, 2)]


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 3))
def test_core_matches_naive_on_random_cosets(seed, n):
    gram = random_posdef_gram(random.Random(seed), n)
    assume(gram is not None)
    lat = Lattice(gram)
    cosets = lat.discriminant.torsion2_reps
    # |v_i| <= sqrt(m * G^-1_ii), so this box holds every offset; the
    # naive oracle is too slow for the boxes of badly skewed grams
    mmax = max(NORMS)
    dual = dual_gram(lat)
    box = max(math.isqrt(math.ceil(mmax * dual[i][i])) + 1
              + math.ceil(abs(c.rep[i])) for i in range(n) for c in cosets)
    assume(box <= 8)
    for coset in cosets:
        for m in NORMS:
            want = naive_vectors_of_norm(gram, coset.rep, m, box=box)
            assert core_vectors(gram, coset.rep, m) == want, (m, coset.rep)


def test_cli_import_leaves_numpy_out():
    script = ("import sys, voaplus.cli; "
              "print('numpy' in sys.modules, 'numba' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", script], capture_output=True,
                          text=True, check=True)
    assert done.stdout.split() == ["False", "False"]


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 6))
def test_representative_zero_walks_half_of_each_pair(seed, n):
    # rep 0 walks one vector of each pair +-x and mirrors it back; the
    # zero vector comes back at norm 0 only
    gram = random_posdef_gram(random.Random(seed), n)
    assume(gram is not None)
    dual = dual_gram(Lattice(gram))
    zero = (0,) * n
    assert kernel_offsets(gram, zero, Fraction(0)) == [zero]
    assert kernel_offsets(gram, zero, 0, half=True) == []
    checked = 0
    for m in range(7):
        # |x_i| <= sqrt(m (G^-1)_ii) holds every vector; small boxes only
        box = max(math.isqrt(math.floor(m * dual[i][i])) for i in range(n))
        if (2 * box + 1) ** n > 3000:
            continue
        want = [tuple(int(c) for c in v)
                for v in naive_vectors_of_norm(gram, zero, m, box=box)]
        assert kernel_offsets(gram, zero, Fraction(m)) == want, m
        half = kernel_offsets(gram, zero, m, half=True)
        # the half keeps the vector whose last nonzero coordinate is > 0
        assert all([c for c in x if c][-1] > 0 for x in half)
        mirrored = half + [tuple(-c for c in x) for x in half]
        assert sorted(mirrored + [zero] * (m == 0)) == want, m
        checked += m > 0
    assume(checked)     # a skewed gram may leave no small box above norm 0


def test_half_enumeration_needs_representative_zero():
    with pytest.raises(ValueError):
        kernel_offsets([[4]], (Fraction(1, 2),), 1, half=True)


# (spec, norm, nodes, vectors): the kernel's tree on catalog Gram matrices
KERNEL_WORK = [("E8", 6, 4651, 6720), ("D16", 4, 39176, 29152),
               ("Gamma16", 4, 100784, 61920), ("lb(rm14)", 4, 15529, 4320)]


def _counting_nodes(monkeypatch):
    # the kernel takes one isqrt at every node of its tree
    nodes = [0]

    def counting(v):
        nodes[0] += 1
        return math.isqrt(v)

    monkeypatch.setattr(kernels, "isqrt", counting)
    return nodes


@pytest.mark.parametrize("spec,m,nodes,vectors", KERNEL_WORK,
                         ids=["%s norm %d" % w[:2] for w in KERNEL_WORK])
def test_kernel_work_is_pinned(monkeypatch, spec, m, nodes, vectors):
    # the cached centers cut the cost of a node, not the tree: the node
    # and vector counts are those of a kernel that sums every center afresh
    gram = parse_spec(spec).gram
    counted = _counting_nodes(monkeypatch)
    out = kernels.enumerate_offsets(gram, 1, (0,) * len(gram), m)
    assert (counted[0], len(out)) == (nodes, vectors)


def test_sweep_kernel_work_is_pinned(monkeypatch):
    # lb(rm14)'s torsion-2 sweep: one half enumeration of M at norm 8
    lat = parse_spec("lb(rm14)")
    counted = _counting_nodes(monkeypatch)
    calls = []
    real = kernels.enumerate_offsets

    def recording(*args):
        out = real(*args)
        calls.append(len(out))
        return out

    monkeypatch.setattr(kernels, "enumerate_offsets", recording)
    lat.torsion2_norm2_records
    assert (counted[0], calls) == (13548, [2160])
