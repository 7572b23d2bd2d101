#!/usr/bin/env python3
"""Benchmark the short-vector enumeration kernel.

Runs fixed-norm enumerations through ``kernels.enumerate_offsets`` --
whole lattices, or every order-<=2 coset of one, either one tree per coset
or in one pass over M = L cap 2L* (the route the package takes, LLL
reduction and bucketing included) -- and prints each case's best time over
``--repeat`` runs and the number of vectors found.

Usage: PYTHONPATH=src python bench/bench_shortvec.py [--repeat N]
"""

import argparse
import time
from fractions import Fraction

from voaplus import lattice, parse_spec
from voaplus.kernels import enumerate_offsets

CASES = [
    ("E8 roots", "E8", None, 2),
    ("Gamma16 roots", "Gamma16", None, 2),
    ("E8+E8 norm 4", "E8+E8", None, 4),
    ("sqrt2E8 coset sweep", "lb(rep(8))", "torsion2", 2),
    ("sqrt2E8 one-pass sweep", "lb(rep(8))", "onepass", 2),
    ("BW16-like coset sweep", "lb(rm14)", "torsion2", 2),
    ("BW16-like one-pass sweep", "lb(rm14)", "onepass", 2),
]


def run_case(lat, coset_mode, m):
    if coset_mode == "onepass":
        return sum(map(len, lattice._torsion2_sweep(lat).values()))
    if coset_mode is None:
        reps = [(0,) * lat.rank]
    else:
        reps = [c.rep for c in lat.discriminant.torsion2_reps]
    return sum(len(enumerate_offsets(lat.gram, rep, Fraction(m)))
               for rep in reps)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print("%-26s %10s %9s" % ("case", "best [s]", "vectors"))
    for name, spec, coset_mode, m in CASES:
        lat = parse_spec(spec)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            count = run_case(lat, coset_mode, m)
            best = min(best, time.perf_counter() - t0)
        print("%-26s %10.4f %9d" % (name, best, count))


if __name__ == "__main__":
    main()
