"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest tests/test_acceptance.py -v -s`` (or via the CLI command
``voaplus selftest`` for the data-driven catalog subset).  The enumeration
kernel is plain Python with no warm-up, so time limits measure the
algorithms alone.
"""

import time

import pytest

from helpers import (canonicalize_coset, doubly_even_sample,
                     naive_vectors_of_norm)
from voaplus import (CATALOG, analyze, build_construction_b, count_norm,
                     decompose, extract_code, extract_frame, frame_cosets,
                     hamming8, odd_split, parse_spec, repetition_code, rm14,
                     structural_cosets, twisted_character_count,
                     twisted_character_count_mod2, vectors_of_norm,
                     words_of_weight)


def _report(num, ok, desc):
    print("[%s] criterion %02d: %s" % ("PASS" if ok else "FAIL", num, desc))
    assert ok, "criterion %02d failed: %s" % (num, desc)


@pytest.fixture(scope="module")
def random_codes():
    return doubly_even_sample(count=110)


@pytest.fixture(scope="module")
def catalog_reports():
    reports = {}
    for entry in CATALOG:
        if entry.kind == "lattice":
            reports[entry.name] = analyze(entry.build())
    return reports


def test_criterion_01_rank_small_orders():
    expected = {
        "2A1": (3, 2, 6),
        "sqrt2*(A1+A1)": (3, 16, 48),
        "sqrt2*A3": (3, 192, 576),
    }
    ok = True
    for spec, (q, h, aut) in expected.items():
        t0 = time.perf_counter()
        rep = analyze(parse_spec(spec))
        dt = time.perf_counter() - t0
        ok &= (rep.orbit_size, rep.stabilizer_order, rep.aut_order) == (q, h, aut)
        ok &= dt < 5.0
    _report(1, ok, "rank <= 3 orders: S3, S4xZ2, (2^2:S4).S3 with 5s budget")


def test_criterion_02_unimodular():
    t0 = time.perf_counter()
    e8 = analyze(parse_spec("E8"))
    dt8 = time.perf_counter() - t0
    ok = (len(e8.frame_coset_set.cosets) == 0 and e8.cond_c
          and e8.orbit_size == 2 and e8.exceeds_stabilizer and dt8 < 60.0)
    for spec in ("E8+E8", "Gamma16"):
        t0 = time.perf_counter()
        rep = analyze(parse_spec(spec))
        dt = time.perf_counter() - t0
        ok &= rep.orbit_size == 1 and not rep.exceeds_stabilizer and dt < 60.0
    _report(2, ok, "unimodular: E8 index 2; rank-16 index 1, 60s budget each")


def test_criterion_03_root_count_identity(random_codes):
    t0 = time.perf_counter()
    lat, _ = build_construction_b(hamming8())
    ok = lat.root_count == 112 == 8 * len(words_of_weight(hamming8(), 4))
    count = 0
    for code in random_codes:
        built, _ = build_construction_b(code)
        ok &= built.root_count == 8 * len(words_of_weight(code, 4))
        count += 1
    dt = time.perf_counter() - t0
    ok &= count >= 100 and dt < 120.0
    _report(3, ok, "|L_2| == 8|C_4|: Hamming 112 and %d random codes in %.1fs"
            % (count, dt))


def test_criterion_04_construction_roundtrip(random_codes):
    ok = True
    for code in random_codes:
        lat, frame = build_construction_b(code)
        coset = canonicalize_coset(lat, frame[0])
        bound = 2 * lat.rank + lat.root_count
        ok &= count_norm(lat, coset, 2) == bound      # a qualifying coset exists
        dec = extract_code(lat, extract_frame(lat, coset), coset)
        ok &= dec.code.is_doubly_even                 # rebuild checked inside
    for spec in ("A2", "A3", "E8", "E8+E8", "Gamma16", "A1"):
        ok &= len(frame_cosets(parse_spec(spec)).cosets) == 0
    _report(4, ok, "construction round trip and empty sets off-construction")


def test_criterion_05_bound_equality(random_codes, catalog_reports):
    ok = True
    for rep in catalog_reports.values():
        fc = rep.frame_coset_set
        ok &= all(c == fc.bound for c in fc.counts)
    for code in random_codes[:40]:
        lat, frame = build_construction_b(code)
        coset = canonicalize_coset(lat, frame[0])
        ok &= count_norm(lat, coset, 2) == 2 * lat.rank + lat.root_count
    _report(5, ok, "every qualifying coset meets the bound exactly")


def test_criterion_06_structural_cosets():
    t0 = time.perf_counter()
    lat8, _ = build_construction_b(repetition_code(8))
    rep8 = analyze(lat8)
    sc8 = structural_cosets(lat8, decompose(lat8)[0])
    ok = (count_norm(lat8, sc8.twist_minus, 2) == 16
          and rep8.cond_a and rep8.orbit.twisted_sign == "-")
    lat16, _ = build_construction_b(rm14())
    rep16 = analyze(lat16)
    sc16 = structural_cosets(lat16, decompose(lat16)[0])
    ok &= (count_norm(lat16, sc16.twist_plus, 2) == 32
           and rep16.cond_b and rep16.orbit.twisted_sign == "+")
    dt = time.perf_counter() - t0
    ok &= dt < 60.0
    _report(6, ok, "structural coset counts 16/32 and twisted signs in %.1fs" % dt)


def test_criterion_07_exceeds_equivalence(catalog_reports):
    ok = len(catalog_reports) >= 15
    for name, rep in catalog_reports.items():
        want = len(rep.frame_coset_set.cosets) > 0 or rep.cond_c
        ok &= rep.exceeds_stabilizer == want
    _report(7, ok, "exceeds-stabilizer iff construction-B or E8, %d lattices"
            % len(catalog_reports))


def test_criterion_08_power_of_two(catalog_reports):
    ok = True
    for rep in catalog_reports.values():
        if not (rep.cond_a or rep.cond_b or rep.cond_c):
            size = 2 + 2 * len(rep.frame_coset_set.cosets)
            ok &= size & (size - 1) == 0
    _report(8, ok, "fusion set size is a power of two off the conditions")


def test_criterion_09_enumeration_oracle():
    ok = True
    for entry in CATALOG:
        if entry.kind != "lattice" or entry.expected.get("rank", 99) > 3:
            continue
        lat = entry.build()
        for coset in lat.discriminant.torsion2_reps:
            for m in range(0, 9):
                got = vectors_of_norm(lat, coset, m)
                ok &= got == naive_vectors_of_norm(lat.gram, coset.rep, m)
    _report(9, ok, "kernel enumeration equals naive box enumeration")


def test_criterion_10_twisted_count_routes(catalog_reports):
    e8 = parse_spec("E8")
    ok = twisted_character_count(e8) == 1
    for rep in catalog_reports.values():
        lat = rep.lattice
        ok &= twisted_character_count(lat) == twisted_character_count_mod2(lat)
    _report(10, ok, "twisted multiplicity: unique for E8; index routes agree")


def test_criterion_11_odd_split():
    ok = True
    for spec in ("Z1", "Z2"):
        lat = parse_spec(spec)
        rep = odd_split(lat)
        ok &= rep.even_part.is_even
        ok &= rep.even_part.det == 4 * lat.det          # index 2
        ok &= rep.even_report.orbit_size >= 1           # downstream completed
        ok &= int(rep.odd_rep_norm) % 2 == 1
    ok &= odd_split(parse_spec("Z1")).even_part.gram == ((4,),)
    _report(11, ok, "odd split: even part of index 2, downstream completes")
