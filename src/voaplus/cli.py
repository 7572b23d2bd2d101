"""Command-line interface.

Commands: analyze, shortvec, rl, decompose, orbit, odd, selftest.  The
positional SPEC is either a constructor expression (see catalog) or a path
to a JSON document with a "gram" field; a code expression is refused as a
precondition violation.  Exit codes: 0 ok, 2 bad input, 3 precondition
violation, 4 internal assertion failure, 141 (the shell's status for
SIGPIPE) when the reader of stdout closes it early, with nothing on stderr.
VOAPLUS_RANK_BOUND, a non-negative integer, is the rank up to which
``analyze`` and ``odd`` search for |O(L)| (default 4; ``selftest`` always
checks the default); any other value is bad input, as is a rational
argument with an exponent above 4300 in magnitude (int()'s digit limit).

The ``voaplus`` command and ``python -m voaplus`` run ``entry``: it calls
``main``, flushes stdout and stderr and ends the process with os._exit, so
the interpreter's teardown (12 to 16 ms a job on a 2-vCPU machine), which
follows the last byte of output, is skipped.  ``atexit`` handlers do not
run after the CLI's output.  ``main`` returns its exit code and can be
called in process.
"""

import argparse
import os
import sys

from . import serialize
from .catalog import lattice_from_file, parse_spec
from .codes import BinaryCode
from .constrb import decompose, frame_cosets
from .errors import (InputError, InternalCheckError, ParseError,
                     PreconditionError, quoted)
from .lattice import vector_rows_of_norm
from .orbit import module_orbit
from .report import analyze, odd_split
from .selftest import run_selftest

EXPONENT_LIMIT = 4300     # largest |exponent| of a rational (int()'s limit)


def rank_bound():
    raw = os.environ.get("VOAPLUS_RANK_BOUND")
    if not raw:
        return None
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise ParseError("VOAPLUS_RANK_BOUND must be a non-negative integer, "
                     "got %s" % quoted(raw))


def load_lattice(text):
    if os.path.exists(text):
        return lattice_from_file(text)
    obj = parse_spec(text)
    if isinstance(obj, BinaryCode):
        raise PreconditionError("this command needs a lattice, got a code")
    return obj


def parse_fraction(text, name):
    """The rational ``text``; a ParseError names the argument ``name`` and
    the length of the text, never the text, which may be arbitrarily long.
    An exponent past +-EXPONENT_LIMIT is refused before Fraction expands it
    (fractions is imported here, by the one command that reads rationals)."""
    from fractions import Fraction
    _, e, exp = text.upper().partition("E")
    try:
        if e and abs(int(exp)) > EXPONENT_LIMIT:
            raise ParseError("%s has an exponent above %d (%d characters)"
                             % (name, EXPONENT_LIMIT, len(text)))
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError("%s is not a rational (%d characters)"
                         % (name, len(text))) from exc


def parse_coset(lat, text):
    parts = text.split(",")
    if len(parts) != lat.rank:
        raise ParseError("coset needs %d coordinates" % lat.rank)
    vec = tuple(parse_fraction(p, "--coset coordinate %d" % k)
                for k, p in enumerate(parts))
    return lat.discriminant.coset_of(vec)


def emit(args, text_fn, json_fn):
    """Print text_fn(), or json_fn() with --format json: only one is built."""
    if args.format == "json":
        print(serialize.dumps(json_fn()))
    else:
        print(text_fn())
    return 0


def cmd_analyze(args):
    lat = load_lattice(args.spec)
    rep = analyze(lat, rank_bound())
    return emit(args, lambda: serialize.aut_report_text(rep),
                lambda: serialize.aut_report_json(rep))


def cmd_shortvec(args):
    lat = load_lattice(args.spec)
    m = parse_fraction(args.norm, "--norm")
    coset = parse_coset(lat, args.coset) if args.coset else None
    den, rows = vector_rows_of_norm(lat, coset, m)

    def text():
        lines = ["%d vectors of norm %s" % (len(rows), serialize.num_text(m))]
        lines += ["  " + serialize.scaled_vec_text(den, r) for r in rows]
        return "\n".join(lines)

    return emit(args, text, lambda: serialize.document(
        "short_vectors", norm=serialize.frac_str(m),
        coset=serialize.coset_json(coset) if coset else None,
        count=len(rows),
        vectors=[serialize.scaled_vec_json(den, r) for r in rows]))


def cmd_rl(args):
    lat = load_lattice(args.spec)
    fc = frame_cosets(lat)

    def text():
        lines = ["bound 2n + |roots| = %d; %d qualifying cosets"
                 % (fc.bound, len(fc.cosets))]
        lines += ["  %s  count %d" % (c.label(), n)
                  for c, n in zip(fc.cosets, fc.counts)]
        return "\n".join(lines)

    return emit(args, text, lambda: serialize.document(
        "frame_cosets", **serialize.frame_cosets_json(fc)))


def cmd_decompose(args):
    lat = load_lattice(args.spec)
    decs = decompose(lat)

    def text():
        if not decs:
            return "not a Construction-B lattice (no qualifying coset)"
        lines = []
        for d in decs:
            lines.append("coset %s" % d.coset.label())
            for row in d.rows:
                lines.append("  frame %s" % serialize.scaled_vec_text(2, row))
            lines.append("  code [%d,%d] generators %s"
                         % (d.code.length, d.code.dimension,
                            " ".join(d.code.basis_strings()) or "-"))
            lines.append("  signs %s"
                         % "".join("+" if s > 0 else "-" for s in d.signs))
        return "\n".join(lines)

    return emit(args, text, lambda: serialize.document(
        "decompositions", items=serialize.decompositions_json(decs)))


def cmd_orbit(args):
    lat = load_lattice(args.spec)
    orbit = module_orbit(lat)

    def text():
        lines = ["orbit size %d" % orbit.size]
        lines += ["  " + c.label() for c in orbit.classes]
        return "\n".join(lines)

    return emit(args, text, lambda: serialize.document(
        "orbit", **serialize.orbit_json(orbit)))


def cmd_odd(args):
    lat = load_lattice(args.spec)
    rep = odd_split(lat, rank_bound())
    return emit(args, lambda: serialize.odd_report_text(rep),
                lambda: serialize.odd_report_json(rep))


def cmd_selftest(args):
    checks = run_selftest()
    failed = [c for c in checks if not c.ok]

    def text():
        lines = []
        for c in checks:
            lines.append("[%s] %s%s" % ("ok" if c.ok else "FAIL", c.name,
                                        "" if c.ok else ": " + c.detail))
        lines.append("%d checks, %d failed" % (len(checks), len(failed)))
        return "\n".join(lines)

    emit(args, text, lambda: serialize.document(
        "selftest", passed=len(checks) - len(failed), failed=len(failed),
        checks=[c._asdict() for c in checks]))
    return 0 if not failed else 4


def build_parser():
    ap = argparse.ArgumentParser(
        prog="voaplus",
        description="combinatorial invariants of even lattices and the "
                    "automorphism groups they determine")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, spec=True):
        p = sub.add_parser(name, help=help_text)
        if spec:
            p.add_argument("spec", help="constructor expression or JSON file")
        p.add_argument("--format", choices=("text", "json"), default="text")
        p.set_defaults(fn=fn)
        return p

    add("analyze", cmd_analyze, "full report on an even lattice")
    p = add("shortvec", cmd_shortvec, "vectors of a given norm in a coset")
    p.add_argument("--norm", required=True, help="target norm, e.g. 2 or 5/4")
    p.add_argument("--coset", help="dual-vector coordinates, e.g. 1/2,0")
    add("rl", cmd_rl, "cosets whose norm-2 count meets the frame bound")
    add("decompose", cmd_decompose, "frame + code decompositions")
    add("orbit", cmd_orbit, "orbit of the distinguished module class")
    add("odd", cmd_odd, "split an odd lattice over its even part")
    add("selftest", cmd_selftest, "run the data-driven acceptance checks",
        spec=False)
    return ap


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        code = args.fn(args)
        sys.stdout.flush()
        return code
    except InputError as exc:
        print("input error: %s" % exc, file=sys.stderr)
        return 2
    except PreconditionError as exc:
        print("precondition violated: %s" % exc, file=sys.stderr)
        return 3
    except InternalCheckError as exc:
        print("internal check failed: %s" % exc, file=sys.stderr)
        return 4
    except BrokenPipeError:
        # the reader closed stdout (e.g. `| head`): stop quietly, and point
        # stdout at devnull so the flush at interpreter exit cannot fail
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


def entry():
    """Run main() and end the process with its exit code, skipping the
    interpreter's teardown: everything has been written once both streams
    are flushed.  Usage errors and --help (SystemExit) exit as usual."""
    code = main()
    sys.stdout.flush()
    sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entry()
