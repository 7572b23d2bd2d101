#!/usr/bin/env python3
"""Benchmark the isometry-group count ``lattice.orthogonal_group_order``.

Counts |O(L)| for the five rootless lattices of the benchmark's isometry
workload and for sqrt2*E8, each with the rank bound set to its rank, and
prints each case's best time over ``--repeat`` runs next to |O(L)|.  The
short-vector cache is cleared before every run, so a time includes the
enumeration of the candidate images.

Usage: PYTHONPATH=src python bench/bench_isometry.py [--repeat N] [--max-rank R]
"""

import argparse
import time

from voaplus import lattice, parse_spec

CASES = ["sqrt2*D5", "sqrt2*A5", "sqrt2*A6", "sqrt2*(A3+A3)",
         "sqrt2*(D4+A1)", "sqrt2*E8"]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    ap.add_argument("--max-rank", type=int, default=8,
                    help="skip the lattices of higher rank")
    args = ap.parse_args()

    print("%-16s %4s %10s %12s" % ("lattice", "rank", "best [s]", "|O(L)|"))
    for spec in CASES:
        lat = parse_spec(spec)
        if lat.rank > args.max_rank:
            continue
        best = float("inf")
        for _ in range(args.repeat):
            lattice._cached_offsets.cache_clear()
            t0 = time.perf_counter()
            order = lattice.orthogonal_group_order(lat, lat.rank)
            best = min(best, time.perf_counter() - t0)
        print("%-16s %4d %10.4f %12d" % (spec, lat.rank, best, order),
              flush=True)


if __name__ == "__main__":
    main()
