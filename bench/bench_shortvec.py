#!/usr/bin/env python3
"""Benchmark the short-vector enumeration kernel.

Runs fixed-norm enumerations through ``kernels.enumerate_offsets`` --
whole lattices, or every order-<=2 coset of one, either one tree per coset
or in one pass over M = L cap 2L* (the route the package takes, LLL
reduction and bucketing included); each coset goes to the kernel as its
integer numerators over one denominator -- and prints each case's best
time over ``--repeat`` runs and the number of vectors found.  Exits with
status 1 if any count differs from the case's known value.

Usage: PYTHONPATH=src python bench/bench_shortvec.py [--repeat N]
"""

import argparse
import sys
import time

from voaplus import lattice, parse_spec
from voaplus.kernels import enumerate_offsets

# (name, spec, coset mode, norm, known vector count)
CASES = [
    ("E8 roots", "E8", None, 2, 240),
    ("Gamma16 roots", "Gamma16", None, 2, 480),
    ("E8+E8 norm 4", "E8+E8", None, 4, 61920),
    ("D16 norm 4", "D16", None, 4, 29152),
    ("Gamma16 norm 4", "Gamma16", None, 4, 61920),
    ("sqrt2E8 coset sweep", "lb(rep(8))", "torsion2", 2, 2160),
    ("sqrt2E8 one-pass sweep", "lb(rep(8))", "onepass", 2, 2160),
    ("BW16-like coset sweep", "lb(rm14)", "torsion2", 2, 4320),
    ("BW16-like one-pass sweep", "lb(rm14)", "onepass", 2, 4320),
    # A1+A1 in the basis (b0, b1 + 94906267 b0)
    ("skewed A1+A1 roots",
     "gram([[2,189812534],[189812534,18014399031750580]])", None, 2, 4),
]


def run_case(lat, coset_mode, m):
    if coset_mode == "onepass":
        # the sweep keeps one record of each pair +-v
        return 2 * sum(map(len, lattice._torsion2_sweep(lat).values()))
    if coset_mode is None:
        reps = [(1, (0,) * lat.rank)]
    else:
        reps = [(c.den, c.nums) for c in lat.discriminant.torsion2_reps]
    return sum(len(enumerate_offsets(lat.gram, den, nums, m))
               for den, nums in reps)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print("%-26s %10s %9s" % ("case", "best [s]", "vectors"))
    wrong = []
    for name, spec, coset_mode, m, known in CASES:
        lat = parse_spec(spec)
        best = float("inf")
        for _ in range(args.repeat):
            t0 = time.perf_counter()
            count = run_case(lat, coset_mode, m)
            best = min(best, time.perf_counter() - t0)
        print("%-26s %10.4f %9d" % (name, best, count))
        if count != known:
            wrong.append("%s: %d vectors, expected %d" % (name, count, known))
    if wrong:
        sys.exit("wrong vector counts:\n" + "\n".join(wrong))


if __name__ == "__main__":
    main()
