#!/usr/bin/env python3
"""Benchmark the Construction-B decomposition layer.

Runs ``decompose`` and then ``module_orbit`` -- the torsion-2 sweep, one
frame, code and rebuild check per qualifying coset, the structural cosets
of the orbit conditions -- on a freshly parsed lattice, and prints each
case's best time over ``--repeat`` runs.  Then, in one more run, counts
the work as deterministic numbers: calls of the enumeration kernel
(``kernels.enumerate_offsets``), of ``Lattice.gram_times``, and the
``Fraction`` objects created.  Two more runs count ``decompose`` alone, on
a fresh lattice (the sweep included): its calls of ``intmat.dot``, and
its function calls under cProfile, built-in ones included.  Exits with
status 1 unless every case yields its known number of decompositions in
one kernel call (the sweep).

Usage: PYTHONPATH=src python bench/bench_decompose.py [--repeat N]
"""

import argparse
import cProfile
import pstats
import sys
import time
from fractions import Fraction

from voaplus import intmat, kernels, lattice, parse_spec
from voaplus.constrb import decompose
from voaplus.orbit import module_orbit

# (spec, known number of decompositions: the qualifying cosets)
CASES = [
    ("lb(rm14)", 135),
    ("lb(rep(8))", 135),
]


def run(lat):
    """decompose + module_orbit of a lattice not yet swept:
    (seconds, number of decompositions)."""
    lattice._cached_offsets.cache_clear()
    t0 = time.perf_counter()
    decs = decompose(lat)
    module_orbit(lat)
    return time.perf_counter() - t0, len(decs)


def counted(lat):
    """(kernel calls, gram_times calls, Fractions created) of one run."""
    counts = {"kernel": 0, "gram_times": 0, "fractions": 0}

    def counter(name, fn):
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    enumerate_offsets = kernels.enumerate_offsets
    gram_times = lattice.Lattice.gram_times
    new = Fraction.__new__
    kernels.enumerate_offsets = counter("kernel", enumerate_offsets)
    lattice.Lattice.gram_times = counter("gram_times", gram_times)
    Fraction.__new__ = staticmethod(counter("fractions", new))
    try:
        run(lat)
    finally:
        kernels.enumerate_offsets = enumerate_offsets
        lattice.Lattice.gram_times = gram_times
        Fraction.__new__ = new
    return counts["kernel"], counts["gram_times"], counts["fractions"]


def decompose_calls(spec):
    """(intmat.dot calls, calls under cProfile) of decompose on a fresh
    lattice, each from its own run."""
    dots = [0]
    dot = intmat.dot

    def counting(u, v):
        dots[0] += 1
        return dot(u, v)

    lattice._cached_offsets.cache_clear()
    lat = parse_spec(spec)
    intmat.dot = counting
    try:
        decompose(lat)
    finally:
        intmat.dot = dot
    lattice._cached_offsets.cache_clear()
    lat = parse_spec(spec)
    prof = cProfile.Profile()
    prof.runcall(decompose, lat)
    return dots[0], pstats.Stats(prof).total_calls


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print("%-12s %10s %6s %8s %11s %10s %9s %9s" % (
        "lattice", "best [s]", "decs", "kernel", "gram_times", "Fractions",
        "dot", "calls"))
    wrong = []
    for spec, known in CASES:
        best = float("inf")
        for _ in range(args.repeat):
            seconds, count = run(parse_spec(spec))
            best = min(best, seconds)
        kernel, gram, fractions = counted(parse_spec(spec))
        dots, calls = decompose_calls(spec)
        print("%-12s %10.4f %6d %8d %11d %10d %9d %9d"
              % (spec, best, count, kernel, gram, fractions, dots, calls),
              flush=True)
        if count != known:
            wrong.append("%s: %d decompositions, expected %d"
                         % (spec, count, known))
        if kernel > 1:
            wrong.append("%s: %d kernel calls, expected 1" % (spec, kernel))
    if wrong:
        sys.exit("wrong decomposition counts or kernel calls:\n"
                 + "\n".join(wrong))


if __name__ == "__main__":
    main()
