#!/usr/bin/env python3
"""Benchmark the start-up and the fixed cost of a cold ``voaplus`` process.

Starts ``--repeat`` rounds of fresh interpreters, alternating: ``python -c
pass``, ``import voaplus.cli``, a full ``python -m voaplus analyze A1
--format json`` and the same command under a probe.  Prints the median
wall time of each, from spawn to reap, and the import cost and fixed cost
over ``pass``.  The probe runs ``voaplus.cli.entry`` with time stamps and
splits the job: interpreter start (spawn to the probe's first line), the
import of ``voaplus.cli``, the parser (building it and reading the
arguments), the run (the command and the flush of its output) and the
time after ``main`` returns, to the reap.  Its stamps are ``time.time()``,
the one clock that the probe and this process share.  Byte-code caching
is on, as in perfbench's set-up probes: PYTHONDONTWRITEBYTECODE is dropped
and one untimed import writes the caches first.

Then lists the standard-library modules the import adds to a bare
interpreter, and exits 1 if any of GUARDED is among them: dataclasses and
typing, and the inspect, ast, dis and tokenize that come with them, add
about 30 ms to every CLI run, json about 4 ms (the package reads it only
for a file argument), and fractions with the decimal it loads about 2.5 ms
(only the Fraction views and shortvec's rational arguments need it).
array and struct are not loaded either: the packed lanes are built from
bytes and ints alone.

Usage: PYTHONPATH=src python bench/bench_startup.py [--repeat N]
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

GUARDED = ("dataclasses", "inspect", "typing", "ast", "dis", "tokenize",
           "json", "fractions", "decimal", "array", "struct")
ADDED = ("import sys; before = set(sys.modules); import voaplus.cli; "
         "print(' '.join(sorted(set(sys.modules) - before)))")
JOB = ["analyze", "A1", "--format", "json"]
# stamps after the import, after the parser (on entering the command) and
# after main returns, printed on stderr before entry flushes it
PROBE = r"""
import sys, time
stamps = [time.time()]
from voaplus import cli
stamps.append(time.time())
command, main = cli.cmd_analyze, cli.main

def cmd_analyze(args):
    stamps.append(time.time())
    return command(args)

def timed_main():
    code = main()
    stamps.append(time.time())
    print(*stamps, file=sys.stderr)
    return code

cli.cmd_analyze, cli.main = cmd_analyze, timed_main
if hasattr(cli, "entry"):
    cli.entry()
sys.exit(cli.main())    # a checkout older than entry
"""
SPLIT = ("interpreter start", "import voaplus.cli", "parser", "run",
         "after main returns")


def run(argv, env):
    """(seconds from spawn to reap, stderr, the spawn time by time.time())."""
    start = time.time()
    t0 = time.perf_counter()
    done = subprocess.run([sys.executable] + argv, env=env, check=True,
                          stdout=subprocess.DEVNULL, stderr=subprocess.PIPE)
    wall = time.perf_counter() - t0
    return wall, done.stderr, start


def probe(env):
    """The durations of SPLIT in one probed job."""
    wall, err, start = run(["-c", PROBE] + JOB, env)
    stamps = [start] + [float(x) for x in err.split()]
    return [b - a for a, b in zip(stamps, stamps[1:])] + [
        start + wall - stamps[-1]]


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--repeat", type=int, default=25)
    args = ap.parse_args()

    env = dict(os.environ)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    run(["-c", "import voaplus.cli"], env)
    commands = {"python -c pass": ["-c", "pass"],
                "import voaplus.cli": ["-c", "import voaplus.cli"],
                "voaplus " + " ".join(JOB): ["-m", "voaplus"] + JOB}
    times = {name: [] for name in commands}
    split = []
    for _ in range(args.repeat):
        for name, argv in commands.items():
            times[name].append(run(argv, env)[0])
        split.append(probe(env))
    medians = {name: statistics.median(t) for name, t in times.items()}
    width = max(map(len, commands)) + 2
    print("%-*s %10s" % (width, "cold process", "median [s]"))
    for name, m in medians.items():
        print("%-*s %10.4f" % (width, name, m))
    base = medians["python -c pass"]
    print("%-*s %10.4f" % (width, "import cost", medians["import voaplus.cli"]
                           - base))
    print("%-*s %10.4f" % (width, "job over pass",
                           medians["voaplus " + " ".join(JOB)] - base))
    print("split of the probed job (medians):")
    for name, parts in zip(SPLIT, zip(*split)):
        print("  %-*s %10.4f" % (width - 2, name, statistics.median(parts)))

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
