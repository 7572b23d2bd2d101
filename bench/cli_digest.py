#!/usr/bin/env python3
"""Digest the CLI's output on a fixed command list.

Runs each command in a fresh ``python -m voaplus`` process and prints one
line per command: the sha256 of its stdout and stderr, its exit code, and
the command.  With no arguments the list has 124 commands: six per spec
(``analyze`` as text and JSON, ``rl``, ``decompose --format json``,
``orbit``, ``shortvec --norm 2``) for the 18 even catalog lattices and A1+A1
in a skewed basis, plus ten more (odd lattices, ``selftest``, a coset
enumeration, the other output formats of lb(rm14), and two large
short-vector listings, D16 at norm 4 as JSON and E8 at norm 6 as text).
Given SPECs, it runs only the six per-spec commands for each of them.

Two checkouts give the same CLI output exactly when their digests match:

    PYTHONPATH=OLD/src python bench/cli_digest.py > old.txt
    PYTHONPATH=NEW/src python bench/cli_digest.py > new.txt
    diff old.txt new.txt

Usage: PYTHONPATH=src python bench/cli_digest.py [SPEC ...]
"""

import argparse
import hashlib
import shlex
import subprocess
import sys

SPECS = ("A1", "2A1", "sqrt2*A1", "A2", "sqrt2*(A1+A1)", "A3", "sqrt2*A3",
         "D4", "A2+A2", "lb(zero(4))", "D8", "lb(hamming8)", "lb(rep(8))",
         "E8", "D16", "lb(rm14)", "E8+E8", "Gamma16",
         # A1+A1 in the basis (b0, b1 + 94906267 b0)
         "gram([[2,189812534],[189812534,18014399031750580]])")

EXTRA = (["odd", "Z1"], ["odd", "Z2"], ["odd", "Z2", "--format", "json"],
         ["selftest"],
         ["shortvec", "sqrt2*(A1+A1)", "--norm", "4", "--coset", "1/2,0"],
         ["decompose", "lb(rm14)"], ["rl", "lb(rm14)", "--format", "json"],
         ["orbit", "lb(rm14)", "--format", "json"],
         ["shortvec", "D16", "--norm", "4", "--format", "json"],
         ["shortvec", "E8", "--norm", "6"])


def spec_commands(spec):
    return [["analyze", spec], ["analyze", spec, "--format", "json"],
            ["rl", spec], ["decompose", spec, "--format", "json"],
            ["orbit", spec], ["shortvec", spec, "--norm", "2"]]


def digest(args):
    """sha256 of stdout, a NUL and stderr of one run; and its exit code."""
    done = subprocess.run([sys.executable, "-m", "voaplus"] + args,
                          capture_output=True)
    return (hashlib.sha256(done.stdout + b"\0" + done.stderr).hexdigest(),
            done.returncode)


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("specs", nargs="*", metavar="SPEC")
    args = ap.parse_args()
    commands = [c for spec in args.specs or SPECS for c in spec_commands(spec)]
    if not args.specs:
        commands += EXTRA
    for cmd in commands:
        sha, code = digest(cmd)
        print("%s %d voaplus %s" % (sha, code, shlex.join(cmd)), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
