#!/usr/bin/env python3
"""Benchmark the Construction-B decomposition layer.

Runs ``decompose`` and then ``module_orbit`` -- the torsion-2 sweep, one
frame, code and rebuild check per qualifying coset, the structural cosets
of the orbit conditions -- on a freshly parsed lattice, and prints each
case's best time over ``--repeat`` runs, and the median split of one
report over its stages (``stage_split``): the sweep's kernel call, the rest
of the sweep (with ``frame_cosets``), the frames, the codes with their
rebuild checks, the orbit (``module_orbit``), the JSON document and
``dumps``.  Then, in one more run, counts
the work of a whole report as deterministic numbers: ``parse_spec`` of the
lattice, ``analyze`` and its JSON (``serialize.aut_report_json`` and
``serialize.dumps``), with its calls of the enumeration kernel
(``kernels.enumerate_offsets``), of ``Lattice.gram_times`` and of
``intmat.dot``, and the ``Fraction`` objects it creates and hashes.  One
more run counts the function calls of ``decompose`` alone under cProfile,
built-in ones included, on a fresh lattice (the sweep included).  Last,
it counts the same work for E8 and Gamma16, parsed from their glue rows,
for the odd split of Z2 (``odd_split`` and its JSON) and for the report
of sqrt2*A6 with the isometry search on (rank bound 6).  Exits with
status 1 unless every case yields its known number of decompositions in
one kernel call (the sweep), and none of these jobs creates or hashes a
``Fraction``.

Usage: PYTHONPATH=src python bench/bench_decompose.py [--repeat N]
"""

import argparse
import cProfile
import pstats
import statistics
import sys
import time
from fractions import Fraction

from voaplus import intmat, kernels, lattice, parse_spec, serialize
from voaplus.constrb import (decompose, extract_code, extract_frame,
                             frame_cosets)
from voaplus.orbit import module_orbit
from voaplus.report import analyze, odd_split

# (spec, known number of decompositions: the qualifying cosets)
CASES = [
    ("lb(rm14)", 135),
    ("lb(rep(8))", 135),
]
STAGES = ("sweep kernel", "sweep rest", "frames", "codes", "orbit",
          "JSON doc", "dumps")
COUNTS = ("kernel", "gram_times", "dot", "Fractions", "hashed")
# lattices glued from D_n with a half vector, counted like the cases
GLUED = ("E8", "Gamma16")
# whole jobs counted like the cases: (name, job)
JOBS = (
    ("odd Z2", lambda: serialize.odd_report_json(odd_split(parse_spec("Z2")))),
    ("sqrt2*A6", lambda: serialize.aut_report_json(
        analyze(parse_spec("sqrt2*A6"), 6))),
)


def run(lat):
    """decompose + module_orbit of a lattice not yet swept:
    (seconds, number of decompositions)."""
    lattice._cached_offsets.cache_clear()
    t0 = time.perf_counter()
    decs = decompose(lat)
    module_orbit(lat)
    return time.perf_counter() - t0, len(decs)


def stages(spec):
    """{stage: seconds} of one report of the lattice spec, parsed afresh;
    the parse and the rest of analyze (Smith form, fusion) are not timed."""
    lattice._cached_offsets.cache_clear()
    lat = parse_spec(spec)
    kernel = [0.0]
    enumerate_offsets = kernels.enumerate_offsets

    def timed(*args):
        t = time.perf_counter()
        try:
            return enumerate_offsets(*args)
        finally:
            kernel[0] += time.perf_counter() - t

    split = {}
    kernels.enumerate_offsets = timed
    try:
        t0 = time.perf_counter()
        cosets = frame_cosets(lat).cosets
        t1 = time.perf_counter()
    finally:
        kernels.enumerate_offsets = enumerate_offsets
    split["sweep kernel"] = kernel[0]
    split["sweep rest"] = t1 - t0 - kernel[0]
    frames = [extract_frame(lat, c) for c in cosets]
    t2 = time.perf_counter()
    for f, c in zip(frames, cosets):
        extract_code(lat, f, c)
    t3 = time.perf_counter()
    split["frames"] = t2 - t1
    split["codes"] = t3 - t2
    decompose(lat)          # the report's own, not timed
    t0 = time.perf_counter()
    module_orbit(lat)
    split["orbit"] = time.perf_counter() - t0
    rep = analyze(lat)
    t0 = time.perf_counter()
    doc = serialize.aut_report_json(rep)
    t1 = time.perf_counter()
    serialize.dumps(doc)
    split["JSON doc"] = t1 - t0
    split["dumps"] = time.perf_counter() - t1
    return split


def stage_split(spec, repeat):
    """The median over repeat runs of each of STAGES, in seconds."""
    runs = [stages(spec) for _ in range(repeat)]
    return [statistics.median(r[s] for r in runs) for s in STAGES]


def report_json(spec):
    """The JSON document of the report of the lattice spec, parse included."""
    return serialize.aut_report_json(analyze(parse_spec(spec)))


def counted(job):
    """{name: count} over COUNTS of job() and the JSON text of what it
    returns."""
    counts = dict.fromkeys(COUNTS, 0)

    def counter(name, fn):
        def counting(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return counting

    patched = [(kernels, "enumerate_offsets", "kernel"),
               (lattice.Lattice, "gram_times", "gram_times"),
               (intmat, "dot", "dot"),
               (Fraction, "__new__", "Fractions"),
               (Fraction, "__hash__", "hashed")]
    saved = [getattr(owner, name) for owner, name, _ in patched]
    for (owner, name, key), fn in zip(patched, saved):
        wrapped = counter(key, fn)
        setattr(owner, name,
                staticmethod(wrapped) if name == "__new__" else wrapped)
    lattice._cached_offsets.cache_clear()
    try:
        serialize.dumps(job())
    finally:
        for (owner, name, _), fn in zip(patched, saved):
            setattr(owner, name, fn)
    return counts


def decompose_calls(spec):
    """Calls under cProfile of decompose on a fresh lattice."""
    lattice._cached_offsets.cache_clear()
    lat = parse_spec(spec)
    prof = cProfile.Profile()
    prof.runcall(decompose, lat)
    return pstats.Stats(prof).total_calls


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=3)
    args = ap.parse_args()

    print("%-12s %10s %6s %8s %11s %7s %10s %7s %9s" % (
        ("lattice", "best [s]", "decs") + COUNTS + ("calls",)))
    wrong = []
    made = []       # (spec, counts) of every counted parse and report
    for spec, known in CASES:
        best = float("inf")
        for _ in range(args.repeat):
            seconds, count = run(parse_spec(spec))
            best = min(best, seconds)
        counts = counted(lambda: report_json(spec))
        made.append((spec, counts))
        calls = decompose_calls(spec)
        print("%-12s %10.4f %6d %8d %11d %7d %10d %7d %9d"
              % ((spec, best, count) + tuple(counts.values()) + (calls,)),
              flush=True)
        if count != known:
            wrong.append("%s: %d decompositions, expected %d"
                         % (spec, count, known))
        if counts["kernel"] > 1:
            wrong.append("%s: %d kernel calls, expected 1"
                         % (spec, counts["kernel"]))
    print()
    print("%-12s" % "stage [ms]" + "".join("%13s" % s for s in STAGES))
    for spec, _ in CASES:
        print("%-12s" % spec + "".join(
            "%13.2f" % (1e3 * t) for t in stage_split(spec, args.repeat)),
            flush=True)
    print()
    jobs = [(spec, lambda spec=spec: report_json(spec)) for spec in GLUED]
    for name, job in jobs + list(JOBS):
        counts = counted(job)
        made.append((name, counts))
        print("%-12s %10s %6s %8d %11d %7d %10d %7d %9s"
              % ((name, "-", "-") + tuple(counts.values()) + ("-",)),
              flush=True)
    for spec, counts in made:
        if counts["Fractions"] or counts["hashed"]:
            wrong.append("%s: %d Fractions created, %d hashed, expected 0"
                         % (spec, counts["Fractions"], counts["hashed"]))
    if wrong:
        sys.exit("wrong decomposition counts, kernel calls or Fractions:\n"
                 + "\n".join(wrong))


if __name__ == "__main__":
    main()
