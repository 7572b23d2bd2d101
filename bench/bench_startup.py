#!/usr/bin/env python3
"""Benchmark the start-up of a cold ``voaplus`` process.

Starts ``--repeat`` fresh interpreters running ``import voaplus.cli`` and as
many running ``pass``, alternating, and prints the median wall time of each
and their difference.  Byte-code caching is on, as in perfbench's set-up
probes: PYTHONDONTWRITEBYTECODE is dropped and one untimed import writes the
caches first.  Then lists the standard-library modules the import adds to a
bare interpreter, and exits 1 if any of GUARDED is among them: dataclasses
and typing, and the inspect, ast, dis and tokenize that come with them, add
about 30 ms to every CLI run.

Usage: PYTHONPATH=src python bench/bench_startup.py [--repeat N]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

GUARDED = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize")
ADDED = ("import sys; before = set(sys.modules); import voaplus.cli; "
         "print(' '.join(sorted(set(sys.modules) - before)))")


def run(code, env):
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", code], env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=25)
    args = ap.parse_args()

    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    run("import voaplus.cli", env)
    times = {"pass": [], "import voaplus.cli": []}
    for _ in range(args.repeat):
        for code in times:
            times[code].append(run(code, env))
    medians = {code: statistics.median(t) for code, t in times.items()}
    print("%-20s %10s" % ("python -c", "median [s]"))
    for code, m in medians.items():
        print("%-20s %10.4f" % (code, m))
    print("%-20s %10.4f" % ("import cost", medians["import voaplus.cli"]
                            - medians["pass"]))

    done = subprocess.run([sys.executable, "-c", ADDED], env=env, check=True,
                          capture_output=True, text=True)
    added = done.stdout.split()
    stdlib = sorted(m for m in added if not m.startswith("voaplus"))
    print("import voaplus.cli adds %d modules, %d of them outside voaplus:"
          % (len(added), len(stdlib)))
    print("  " + " ".join(stdlib))
    guarded = [m for m in GUARDED if m in added]
    if guarded:
        print("guarded modules imported: " + " ".join(guarded))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
