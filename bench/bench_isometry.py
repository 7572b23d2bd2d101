#!/usr/bin/env python3
"""Benchmark the isometry-group count ``lattice.orthogonal_group_order``.

Counts |O(L)| for the five rootless lattices of the benchmark's isometry
workload, for sqrt2*E8 and for A1+A1 in a skewed basis, and, with
``--max-rank 16``, for D16, E8+E8, Gamma16 and lb(rm14), and prints each
case's best time over ``--repeat`` runs next to |O(L)|.  The short-vector
cache is cleared before every run, so a time includes the enumeration of
the candidate images.  Exits with status 1 if any order differs from the
case's known value.

Usage: PYTHONPATH=src python bench/bench_isometry.py [--repeat N] [--max-rank R]
"""

import argparse
import math
import sys
import time

from voaplus import lattice, parse_spec

# (name, spec, known |O(L)|): |O(D_n)| = 2^n n! for n != 4, |O(A_n)| =
# 2 (n+1)! for n >= 2, |O(D4)| = 192 * 3!, |O(E8)| = |W(E8)|, |O(Gamma16)| =
# |W(D16)| = 2^15 16!, and lb(rm14) is the Barnes-Wall lattice BW16
CASES = [
    ("sqrt2*D5", "sqrt2*D5", 3840),
    ("sqrt2*A5", "sqrt2*A5", 1440),
    ("sqrt2*A6", "sqrt2*A6", 10080),
    ("sqrt2*(A3+A3)", "sqrt2*(A3+A3)", 4608),
    ("sqrt2*(D4+A1)", "sqrt2*(D4+A1)", 2304),
    ("sqrt2*E8", "sqrt2*E8", 696729600),
    # A1+A1 in the basis (b0, b1 + 94906267 b0)
    ("skewed A1+A1",
     "gram([[2,189812534],[189812534,18014399031750580]])", 8),
    ("D16", "D16", 2 ** 16 * math.factorial(16)),
    ("E8+E8", "E8+E8", 2 * 696729600 ** 2),
    ("Gamma16", "Gamma16", 2 ** 15 * math.factorial(16)),
    ("lb(rm14)", "lb(rm14)", 89181388800),
]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--max-rank", type=int, default=8,
                    help="skip the lattices of higher rank")
    args = ap.parse_args()

    print("%-16s %4s %10s %12s" % ("lattice", "rank", "best [s]", "|O(L)|"))
    wrong = []
    for name, spec, known in CASES:
        lat = parse_spec(spec)
        if lat.rank > args.max_rank:
            continue
        best = float("inf")
        for _ in range(args.repeat):
            lattice._cached_offsets.cache_clear()
            t0 = time.perf_counter()
            order = lattice.orthogonal_group_order(lat)
            best = min(best, time.perf_counter() - t0)
        print("%-16s %4d %10.4f %12d" % (name, lat.rank, best, order),
              flush=True)
        if order != known:
            wrong.append("%s: |O(L)| = %d, expected %d" % (name, order, known))
    if wrong:
        sys.exit("wrong isometry orders:\n" + "\n".join(wrong))


if __name__ == "__main__":
    main()
