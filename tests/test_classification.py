"""The paper's small-rank classification as an exhaustive oracle, and the
rank-24 even unimodular examples pinned as they run today."""

from itertools import product

import pytest

from helpers import golay_code, is_isometric, leech_gram
from voaplus import (Lattice, analyze, frame_cosets, module_orbit,
                     parse_spec, zero_code)
from voaplus.constrb import build_construction_b

DET_LIMIT = 128


def reduced_even_forms(det_limit=DET_LIMIT):
    """Every reduced even Gram matrix of rank 1, 2 or 3 and det <= det_limit.

    Reduced here means the diagonal is sorted, a <= b <= c, and each
    off-diagonal entry is at most half the smaller diagonal entry of its
    row and column: |2 g12|, |2 g13| <= a and |2 g23| <= b.  Every positive
    definite form is equivalent to a Minkowski-reduced one, which meets
    these bounds and also a b <= 4/3 det (rank 2, implied by the bounds) and
    a b c <= 2 det (rank 3), the bounds of Conway and Sloane, "Sphere
    Packings, Lattices and Groups", ch. 15.  So the list holds every even
    lattice of rank <= 3 and det <= det_limit, some of them many times.
    """
    for a in range(2, det_limit + 1, 2):
        yield [[a]]
        for b in range(a, det_limit + 1, 2):
            for g in range(-(a // 2), a // 2 + 1):
                if a * b - g * g <= det_limit:
                    yield [[a, g], [g, b]]
    for a in range(2, 7, 2):                # a^3 <= a b c <= 2 det
        for b in range(a, 2 * det_limit // (a * a) + 1, 2):
            for c in range(b, 2 * det_limit // (a * b) + 1, 2):
                for g12, g13, g23 in product(range(-(a // 2), a // 2 + 1),
                                             range(-(a // 2), a // 2 + 1),
                                             range(-(b // 2), b // 2 + 1)):
                    det = (a * (b * c - g23 * g23)
                           - g12 * (g12 * c - g23 * g13)
                           + g13 * (g12 * g23 - b * g13))
                    if 0 < det <= det_limit and a * b * c <= 2 * det:
                        yield [[a, g12, g13], [g12, b, g23], [g13, g23, c]]


# lb(zero(n)) and the catalog's aut order of its lattice: 2A1 (rank 1),
# sqrt2(A1+A1) (rank 2) and sqrt2A3 (rank 3)
AUT_ORDER = {1: 6, 2: 48, 3: 576}


def test_rank_at_most_3_classification():
    forms = list(reduced_even_forms())
    assert len(forms) == 2244
    exceeding = []
    for gram in forms:
        lat = Lattice(gram)
        fc = frame_cosets(lat)
        assert (module_orbit(lat).size > 1) == bool(fc.cosets), gram
        if fc.cosets:
            exceeding.append(lat)
    assert sorted((lat.rank, lat.det) for lat in exceeding) == (
        [(1, 8), (2, 16)] + [(3, 32)] * 16)
    for lat in exceeding:
        model = build_construction_b(zero_code(lat.rank))[0]
        assert is_isometric(lat.gram, model.gram), lat
        assert analyze(lat).aut_order == AUT_ORDER[lat.rank]


def test_golay_code_weights():
    code = golay_code()
    assert (code.length, code.dimension) == (24, 12)
    assert code.weight_distribution == {0: 1, 8: 759, 12: 2576, 16: 759,
                                         24: 1}


@pytest.mark.parametrize("name", ["leech", "lb(golay)"])
def test_rank_24_pins(name):
    # no isometry search at rank 24 (the default rank bound is 4)
    if name == "leech":
        lat = Lattice(leech_gram())
        want = (1, 0, 0, 1)
    else:
        words = ", ".join(golay_code().basis_strings())
        lat = parse_spec("lb(code(24, %s))" % words)
        want = (4, 0, 1, 3)
    rep = analyze(lat)
    assert rep.rank == 24
    assert (rep.det, rep.root_count, len(rep.frame_coset_set.cosets),
            rep.orbit_size) == want
    assert not (rep.cond_a or rep.cond_b or rep.cond_c)
    assert rep.stabilizer_reason == "rank bound"
    assert rep.aut_order is None
