import math
import random
import subprocess
import sys
from fractions import Fraction

from hypothesis import assume, given, settings, strategies as st

from helpers import naive_vectors_of_norm, random_posdef_gram
from voaplus import make_lattice, vectors_of_norm
from voaplus.kernels import enumerate_offsets, ldl_decompose


def core_vectors(gram, rep, m):
    """The kernel's offsets turned into the vectors x + rep."""
    return [tuple(x + r for x, r in zip(off, rep))
            for off in enumerate_offsets(gram, rep, m)]


def test_ldl_reconstructs_gram():
    gram = [[4, -2, 0], [-2, 4, -2], [0, -2, 4]]
    d, u = ldl_decompose(gram)
    n = 3
    # gram = sum_i d[i] * row_i row_i' with row_i = e_i + u[i]
    rows = [[(1.0 if j == i else 0.0) + u[i][j] for j in range(n)]
            for i in range(n)]
    for a in range(n):
        for b in range(n):
            rebuilt = sum(d[i] * rows[i][a] * rows[i][b] for i in range(n))
            assert math.isclose(rebuilt, gram[a][b], rel_tol=1e-9,
                                abs_tol=1e-9)
    assert all(x > 0 for x in d)


def test_int64_guard_reroutes_to_bigint():
    # gram entries near 2^31 square far past the int64 range; the kernel's
    # exact identity runs on Python ints, which do not overflow
    big = 2 ** 31
    gram = [[2 * big, 0], [0, 2 * big]]
    rep = [Fraction(0), Fraction(0)]
    got = enumerate_offsets(gram, rep, Fraction(2 * big))
    assert sorted(got) == [(-1, 0), (0, -1), (0, 1), (1, 0)]


def test_bigint_path_matches_naive():
    gram = [[4, -2], [-2, 4]]
    rep = [Fraction(1, 2), Fraction(0)]
    got = core_vectors(gram, rep, Fraction(3))
    assert got == naive_vectors_of_norm(gram, rep, 3)
    assert got


def test_fractional_norm_targets():
    lat = make_lattice([[2, 1], [1, 2]])
    # dual vectors of A2 have norms in (1/3)Z
    coset = lat.discriminant.torsion2_reps[0]
    assert vectors_of_norm(lat, coset, Fraction(1, 3)) == []
    from voaplus import canonicalize_coset
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
    lat = make_lattice(gram)
    cosets = lat.discriminant.torsion2_reps
    # |v_i| <= sqrt(m * G^-1_ii), so this box holds every offset; the
    # naive oracle is too slow for the boxes of badly skewed grams
    mmax = max(NORMS)
    box = max(math.isqrt(math.ceil(mmax * lat.dual_gram[i][i])) + 1
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
