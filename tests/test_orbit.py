import os
import random
import subprocess
import sys
from itertools import product
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from helpers import mat_mul, random_posdef_gram, random_unimodular_conjugate
from voaplus import (Lattice, build_construction_b, condition_a, condition_b,
                     condition_c, decompose, fusion_space, module_orbit,
                     parse_spec, repetition_code, rm14, rm14_subcode,
                     twisted_character_count, twisted_character_count_mod2,
                     zero_code)
from voaplus.errors import ConditionABC, NotEven


def test_twisted_character_count_anchors():
    assert twisted_character_count(parse_spec("E8")) == 1
    lat, _ = build_construction_b(repetition_code(8))
    assert twisted_character_count(lat) == 256   # all of L/2L
    # the rank-1 root lattice: both routes give 2
    assert twisted_character_count(Lattice([[2]])) == 2
    assert twisted_character_count_mod2(Lattice([[2]])) == 2


def test_twisted_count_routes_agree_on_catalog():
    for spec in ["A1", "2A1", "A2", "A3", "D4", "E8", "D8", "sqrt2*A3",
                 "lb(hamming8)", "E8+E8", "Gamma16"]:
        lat = parse_spec(spec)
        assert twisted_character_count(lat) == twisted_character_count_mod2(lat)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 5))
def test_twisted_count_identities_on_random_lattices(seed, n):
    # |(L meet 2L*)/2L| three ways: the Smith form, the order-<=2 cosets,
    # GF(2) elimination -- and by brute force over {0,1}^n, in two bases
    rng = random.Random(seed)
    gram = random_posdef_gram(rng, n, even=True)
    assume(gram is not None)
    naive = sum(1 for v in product((0, 1), repeat=n)
                if all(sum(g * x for g, x in zip(row, v)) % 2 == 0
                       for row in gram))
    other = random_unimodular_conjugate(rng, gram) if n > 1 else gram
    for g in (gram, other):
        lat = Lattice(g)
        assert twisted_character_count(lat) == naive
        assert len(lat.discriminant.torsion2_reps) == naive
        assert twisted_character_count_mod2(lat) == naive


def _module_class_data(lat):
    """What the module-class counts are made of: the number t of order-<=2
    cosets (2 signed classes each), the invariant factors, whose product
    |L*/L| gives the (|L*/L| - t) / 2 plain classes, and the twisted
    classes per sign."""
    return (len(lat.discriminant.torsion2_reps),
            lat.discriminant.invariant_factors, twisted_character_count(lat))


def test_classify_modules_counts():
    # (signed, plain, twisted) classes: E8 (2, 0, 2), 2A1 (4, 3, 4),
    # A2 (2, 1, 2)
    assert _module_class_data(parse_spec("E8")) == (1, (1,) * 8, 1)
    assert _module_class_data(Lattice([[8]])) == (2, (8,), 2)
    assert _module_class_data(parse_spec("A2")) == (1, (1, 3), 1)


def test_classify_requires_even():
    with pytest.raises(NotEven):
        twisted_character_count(Lattice([[1]]))


def test_conditions_on_anchor_lattices():
    lat8, _ = build_construction_b(repetition_code(8))
    assert condition_a(lat8) is True
    assert condition_b(lat8) is False
    assert condition_c(lat8) is False

    lat16, _ = build_construction_b(rm14())
    assert condition_a(lat16) is False
    assert condition_b(lat16) is True
    assert condition_c(lat16) is False

    e8 = parse_spec("E8")
    assert condition_a(e8) is False   # no qualifying coset at all
    assert condition_b(e8) is False
    assert condition_c(e8) is True

    lat4, _ = build_construction_b(zero_code(4))
    assert condition_a(lat4) is False
    assert condition_b(lat4) is False
    assert condition_c(lat4) is False


def test_condition_a_on_root_full_lattice():
    # the length-8 Hamming construction has roots but still satisfies (a)
    assert condition_a(parse_spec("lb(hamming8)")) is True
    assert condition_a(parse_spec("D8")) is True


def test_condition_b_searches_each_code_once(monkeypatch):
    # the 135 decompositions of lb(rm14) share one code: one RM(1,4)
    # search, decided once for all of them
    import voaplus.orbit as orbit
    calls = []

    def counting(code):
        calls.append(code)
        return rm14_subcode(code)

    monkeypatch.setattr(orbit, "rm14_subcode", counting)
    lat = parse_spec("lb(rm14)")
    assert condition_b(lat) is True
    assert len(decompose(lat)) == 135
    assert len(calls) == 1


# Drops both markers from every structural coset, so the coset side of the
# (a) and (b) cross-checks always says no while the code side says yes.
# Prints the CLI exit code and whether assert statements are live.
LOST_MARKER = """
import sys
import voaplus.orbit as orbit
from voaplus import cli

real = orbit.structural_cosets

def unmarked(lat, dec):
    return real(lat, dec)._replace(twist_plus=None, twist_minus=None)

orbit.structural_cosets = unmarked
print(cli.main(["analyze", sys.argv[1]]), __debug__)
"""


@pytest.mark.parametrize("flags", [[], ["-O"]])
@pytest.mark.parametrize("spec", ["lb(rep(8))", "lb(rm14)"])
def test_condition_cross_checks_survive_optimize(spec, flags):
    env = dict(os.environ,
               PYTHONPATH=str(Path(__file__).resolve().parent.parent / "src"))
    done = subprocess.run([sys.executable] + flags + ["-c", LOST_MARKER, spec],
                          env=env, capture_output=True, text=True, check=True)
    assert done.stdout.split() == ["4", str(not flags)]
    assert "internal check failed" in done.stderr
    assert "disagree" in done.stderr


def test_orbit_shapes():
    two_a1 = module_orbit(Lattice([[8]]))
    assert two_a1.size == 3
    assert two_a1.twisted_sign is None
    labels = [c.label() for c in two_a1.classes]
    assert labels[0] == "[(0)]^-"
    assert len(labels) == 3

    e8 = module_orbit(parse_spec("E8"))
    assert e8.size == 2
    assert e8.twisted_sign == "-"
    assert e8.twisted_count == 1

    gamma = module_orbit(parse_spec("Gamma16"))
    assert gamma.size == 1
    assert gamma.twisted_sign is None

    lat8, _ = build_construction_b(repetition_code(8))
    rep8 = module_orbit(lat8)
    assert rep8.twisted_sign == "-"
    assert rep8.twisted_count == 256
    assert rep8.size == 1 + 2 * len(rep8.frame_coset_set.cosets) + 256

    lat16, _ = build_construction_b(rm14())
    rm = module_orbit(lat16)
    assert rm.twisted_sign == "+"


def test_twisted_gates():
    # twisted classes only at rank 8 (sign -) or 16 (sign +), and only on
    # 2-elementary totally even lattices
    for spec in ["A1", "2A1", "A2", "sqrt2*A3", "D4", "lbish"]:
        if spec == "lbish":
            lat, _ = build_construction_b(zero_code(4))
        else:
            lat = parse_spec(spec)
        orb = module_orbit(lat)
        if orb.twisted_sign is not None:
            assert lat.rank in (8, 16)
            assert lat.is_2_elementary and lat.is_totally_even
            assert orb.twisted_sign == ("-" if lat.rank == 8 else "+")


def test_fusion_space_sizes():
    f = fusion_space(Lattice([[8]]))
    assert (f.size, f.dim, f.gl_order) == (4, 2, 6)
    f = fusion_space(Lattice([[4, 0], [0, 4]]))
    assert (f.size, f.dim) == (4, 2)
    f = fusion_space(parse_spec("E8+E8"))
    assert (f.size, f.dim, f.gl_order) == (2, 1, 1)
    with pytest.raises(ConditionABC):
        fusion_space(parse_spec("E8"))


def test_classify_counts_invariant_under_basis_change():
    import random

    from helpers import det_bareiss

    rng = random.Random(808)
    for spec in ["A2", "2A1", "sqrt2*A3", "D4"]:
        lat = parse_spec(spec)
        n = lat.rank
        base = _module_class_data(lat)
        for _ in range(4):
            # random unimodular transform from elementary row operations
            u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
            for _ in range(6):
                i, j = rng.randrange(n), rng.randrange(n)
                if i != j:
                    s = rng.choice([-1, 1])
                    for k in range(n):
                        u[i][k] += s * u[j][k]
            assert abs(det_bareiss(u)) == 1
            g = mat_mul(mat_mul(u, [list(r) for r in lat.gram]),
                        [[u[j][i] for j in range(n)] for i in range(n)])
            other = _module_class_data(Lattice(g))
            assert other == base


def test_twisted_gates_across_catalog():
    from voaplus import CATALOG

    for entry in CATALOG:
        if entry.kind != "lattice":
            continue
        lat = entry.build()
        orb = module_orbit(lat)
        present = orb.twisted_sign is not None
        assert present == (orb.cond_a or orb.cond_b or orb.cond_c)
        if present:
            assert lat.rank in (8, 16)
            assert orb.twisted_sign == ("-" if lat.rank == 8 else "+")
            assert lat.is_2_elementary and lat.is_totally_even


def test_fusion_power_of_two_across_catalog():
    for spec in ["A1", "A2", "A3", "D4", "2A1", "sqrt2*A1", "sqrt2*(A1+A1)",
                 "sqrt2*A3", "lb(zero(4))", "D16", "E8+E8", "Gamma16"]:
        lat = parse_spec(spec)
        orb = module_orbit(lat)
        if not (orb.cond_a or orb.cond_b or orb.cond_c):
            size = fusion_space(lat, orb).size
            assert size & (size - 1) == 0
