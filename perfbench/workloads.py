"""The workloads: their jobs, their inputs and the check on every output.

``catalog`` and ``isometry`` are the benchmark's (BENCHMARK.json);
``deep_enum`` and ``skewed_basis`` are supplementary, run by hand with
run.py (see SUPPLEMENTARY).

Each workload function takes the run context and the seed and returns the
jobs of one pass.  Inputs depend only on the seed; the program sees only
the generated arguments and files.

* catalog      -- every even catalog lattice through ``analyze`` and the two
                  odd ones through ``odd``: the real traffic.  lb(rm14) does
                  most of the work (256 cosets swept, 135 qualifying).
* deep_enum    -- single large ``shortvec`` enumerations: kernel and
                  Fraction wrapping with large outputs; Construction B,
                  orbit and intmat stay idle.
* skewed_basis -- E8 and lb(rep(8)) under seeded unimodular changes of
                  basis: same answers, a far bigger search tree.
* isometry     -- rootless rank-5/6 lattices with the isometry search
                  enabled, the one exponential layer.
"""

import functools
import gzip
import json
import math
import os
import random
from fractions import Fraction

from jobs import CheckFailed, Job

HERE = os.path.dirname(os.path.abspath(__file__))
GOLDEN_PATH = os.path.join(HERE, "golden", "reports.json.gz")

# (catalog entry name, constructor expression); the entry name keys the
# pinned ``expected`` invariants in voaplus.catalog.
CATALOG_EVEN = (
    ("A1", "A1"), ("2A1", "2A1"), ("sqrt2A1", "sqrt2*A1"), ("A2", "A2"),
    ("sqrt2A1A1", "sqrt2*(A1+A1)"), ("A3", "A3"), ("sqrt2A3", "sqrt2*A3"),
    ("D4", "D4"), ("A2A2", "A2+A2"), ("lbzero4", "lb(zero(4))"),
    ("D8", "D8"), ("lbhamming8", "lb(hamming8)"), ("lbrep8", "lb(rep(8))"),
    ("E8", "E8"), ("D16", "D16"), ("lbrm14", "lb(rm14)"), ("E8E8", "E8+E8"),
    ("Gamma16", "Gamma16"),
)
CATALOG_ODD = (("Z1", "Z1"), ("Z2", "Z2"))

# (spec, norm, coset, theta-series count).  D16 norm 4 and E8 norm 6
# (= 240 * sigma_3(3)) are closed forms; the lb(rm14) coset is the first
# qualifying representative of `voaplus rl lb(rm14)`, count recorded.
LB_RM14_COSET = "-2,-1,2,1/2,-1,2,1/2,1,0,3/2,0,-1,5/2,1,-2,-5/2"
DEEP_ENUM = (
    ("D16", "4", None, 29152),
    ("E8", "6", None, 6720),
    ("lb(rm14)", "4", LB_RM14_COSET, 3840),
)

# (spec, rank, |Aut| of the unscaled root lattice).  |Aut(D5)| = 2^5 5!,
# |Aut(A_n)| = 2 (n+1)!, |Aut(D4)| = 2^4 4! 3 (triality); a direct sum of
# two equal summands gains a factor 2 for the swap.
ISOMETRY = (
    ("sqrt2*D5", 5, 2 ** 5 * math.factorial(5)),
    ("sqrt2*A5", 5, 2 * math.factorial(6)),
    ("sqrt2*A6", 6, 2 * math.factorial(7)),
    ("sqrt2*(A3+A3)", 6, (2 * math.factorial(4)) ** 2 * 2),
    ("sqrt2*(D4+A1)", 5, (2 ** 4 * math.factorial(4) * 3) * 2),
)

# (catalog entry, number of bases per pass, estimated norm-2 search-tree
# size band).  The largest Gram entry predicts the work badly (E8 bases
# with max|G| near 1000 took 0.07-0.63 s), so bases are drawn until the
# tree-size estimate falls inside the band; max|G| is recorded instead.
SKEWED = (
    ("E8", 3, (150000.0, 165000.0)),
    ("lbrep8", 1, (1000.0, 1100.0)),
)


def load_golden():
    """Reports recorded from the seed commit, keyed by workload and job."""
    with gzip.open(GOLDEN_PATH, "rt", encoding="utf-8") as fh:
        return json.load(fh)


def _check(cond, message, *args):
    if not cond:
        raise CheckFailed(message % args)


def match_recorded(got, want, path="report"):
    """Every field of ``want`` must be present and equal in ``got``.

    Fields that ``got`` has beyond ``want`` are ignored, since the schema
    only ever grows.
    """
    if isinstance(want, dict):
        _check(isinstance(got, dict), "%s is not an object", path)
        for key, value in want.items():
            _check(key in got, "%s.%s is missing", path, key)
            match_recorded(got[key], value, "%s.%s" % (path, key))
    elif isinstance(want, list):
        _check(isinstance(got, list) and len(got) == len(want),
               "%s has the wrong length", path)
        for i, (g, w) in enumerate(zip(got, want)):
            match_recorded(g, w, "%s[%d]" % (path, i))
    else:
        _check(got == want and type(got) is type(want),
               "%s is %r, recorded %r", path, got, want)


def lattice_invariants(report):
    """The aut_report fields the catalog's ``expected`` dicts name."""
    lat, orbit, cond = report["lattice"], report["orbit"], report["conditions"]
    return {
        "rank": lat["rank"],
        "det": lat["det"],
        "roots": lat["roots"],
        "frame_cosets": len(report["frame_cosets"]["cosets"]),
        "orbit_size": report["orbit_size"],
        "exceeds": report["exceeds_stabilizer"],
        "stabilizer_order": report["stabilizer_order"],
        "aut_order": report["aut_order"],
        "cond_a": cond["len8_all_one"],
        "cond_b": cond["len16_rm14"],
        "cond_c": cond["e8"],
        "twisted_sign": orbit["twisted_sign"],
        "twisted_count": orbit["twisted_count"],
    }


def odd_invariants(report):
    return {"rank": report["lattice"]["rank"],
            "even_part_det": report["even_part"]["det"]}


def basis_free_fields(report):
    """Fields of an aut_report that no change of basis may alter."""
    lat, fc = report["lattice"], report["frame_cosets"]
    return {
        "rank": lat["rank"],
        "det": lat["det"],
        "roots": lat["roots"],
        "even": lat["even"],
        "two_elementary": lat["two_elementary"],
        "totally_even": lat["totally_even"],
        "invariant_factors": lat["invariant_factors"],
        "frame_bound": fc["bound"],
        "frame_counts": sorted(c["count"] for c in fc["cosets"]),
        "conditions": report["conditions"],
        "orbit_size": report["orbit_size"],
        "twisted_sign": report["orbit"]["twisted_sign"],
        "twisted_count": report["orbit"]["twisted_count"],
        "fusion": report["fusion"],
        "isometry_order": report["isometry_order"],
        "stabilizer_order": report["stabilizer_order"],
        "aut_order": report["aut_order"],
        "exceeds": report["exceeds_stabilizer"],
    }


def _check_invariants(got, expected):
    for key, want in expected.items():
        _check(key in got, "no report field for expected %r", key)
        _check(got[key] == want, "%s is %r, catalog expects %r",
               key, got[key], want)


# ---------------------------------------------------------------- catalog

def catalog_commands():
    """(entry, spec, argv) of every catalog job: the jobs and the recording
    both take their command lines from here."""
    return [(entry, spec, (verb, spec, "--format", "json"))
            for verbs, verb in ((CATALOG_EVEN, "analyze"), (CATALOG_ODD, "odd"))
            for entry, spec in verbs]


def catalog_jobs(ctx, seed):
    golden = ctx.golden["catalog"]
    expected = ctx.catalog_expected()
    jobs = []
    for entry, spec, argv in catalog_commands():
        odd = argv[0] == "odd"

        def check(doc, spec=spec, entry=entry, odd=odd):
            got = odd_invariants(doc) if odd else lattice_invariants(doc)
            _check_invariants(got, expected[entry])
            match_recorded(doc, golden[spec])

        heavy = spec == "lb(rm14)"
        jobs.append(Job(name=spec, argv=argv, check=check,
                        timeout_s=90.0 if heavy else 30.0))
    random.Random("catalog/%d" % seed).shuffle(jobs)
    return jobs, {}


# ---------------------------------------------------------------- deep_enum

def _ints(vec, scale):
    out = []
    for text in vec:
        num, _, den = text.partition("/")
        q, r = divmod(int(num) * scale, int(den or 1))
        _check(r == 0, "coordinate %s has a denominator beyond %d", text, scale)
        out.append(q)
    return out


def check_short_vectors(doc, gram, norm, coset, count):
    """Count, coset membership, distinctness and exact norm of every vector.

    Coordinates are scaled to integers by the coset's denominator q, so the
    identity y' G y == norm * q^2 is checked in exact integer arithmetic.
    """
    _check(doc["kind"] == "short_vectors", "kind is %r", doc["kind"])
    _check(Fraction(doc["norm"]) == Fraction(norm), "norm is %r", doc["norm"])
    rep = [Fraction(c) for c in coset.split(",")] if coset else None
    if rep is not None:
        _check([Fraction(c) for c in doc["coset"]] == rep,
               "coset is %r", doc["coset"])
        q = math.lcm(*(c.denominator for c in rep))
        rnum = [int(c * q) for c in rep]
    else:
        _check(doc["coset"] is None, "coset is %r", doc["coset"])
        q, rnum = 1, [0] * len(gram)
    vectors = doc["vectors"]
    _check(doc["count"] == count and len(vectors) == count,
           "count %r with %d vectors, theta series gives %d",
           doc["count"], len(vectors), count)
    target = Fraction(norm) * q * q
    _check(target.denominator == 1, "norm %s is not reachable", norm)
    target = int(target)
    n = len(gram)
    rows = [[(j, g) for j, g in enumerate(row) if g] for row in gram]
    seen = set()
    for vec in vectors:
        y = _ints(vec, q)
        _check(len(y) == n, "vector of length %d", len(y))
        _check(all((a - b) % q == 0 for a, b in zip(y, rnum)),
               "vector %s is outside the coset", vec)
        norm_q2 = sum(y[i] * sum(g * y[j] for j, g in row)
                      for i, row in enumerate(rows))
        _check(norm_q2 == target, "vector %s has the wrong norm", vec)
        seen.add(tuple(y))
    _check(len(seen) == count, "vectors are not distinct")


def deep_enum_jobs(ctx, seed):
    grams = {spec: ctx.golden["catalog"][spec]["lattice"]["gram"]
             for spec, _, _, _ in DEEP_ENUM}
    jobs = []
    for spec, norm, coset, count in DEEP_ENUM:
        argv = ["shortvec", spec, "--norm", norm, "--format", "json"]
        if coset:
            # a representative starting with '-' would be read as a flag
            argv.append("--coset=" + coset)
        check = functools.partial(check_short_vectors, gram=grams[spec],
                                  norm=norm, coset=coset, count=count)
        jobs.append(Job(name="%s norm %s%s" % (spec, norm,
                                                " coset" if coset else ""),
                        argv=tuple(argv), check=check,
                        timeout_s=90.0 if count > 10000 else 30.0))
    random.Random("deep_enum/%d" % seed).shuffle(jobs)
    return jobs, {}


# ---------------------------------------------------------------- skewed_basis

def ldl_pivots(gram):
    """Float LDL pivots in the enumeration kernel's order (level n-1 first)."""
    n = len(gram)
    q = [[float(x) for x in row] for row in gram]
    for i in range(n - 1):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    return [q[i][i] for i in range(n)]


def tree_size_estimate(gram, norm=2.0):
    """Gaussian-heuristic node count of a depth-first norm-2 enumeration.

    Level k of the tree holds about vol_k(ball of radius sqrt(norm)) /
    sqrt(det of the projected k-dimensional lattice) nodes; the sum over
    levels tracks the kernel's node count within a few percent.
    """
    d = ldl_pivots(gram)
    n = len(d)
    total, det = 0.0, 1.0
    vol = [1.0, 2.0]                  # unit-ball volumes, V_k = V_{k-2} 2 pi / k
    for k in range(2, n + 1):
        vol.append(vol[k - 2] * 2.0 * math.pi / k)
    for k in range(1, n + 1):
        det *= d[n - k]
        total += vol[k] * norm ** (k / 2.0) / math.sqrt(det)
    return total


def skew_gram(gram, rng, band, max_steps=400, max_tries=2000):
    """A random unimodular congruence U G U' whose tree estimate lies in band.

    Each step adds +-1 times one basis vector to another (a unimodular row
    and column operation), so the result is the same lattice in another
    basis.  Steps continue until the estimate reaches the band; a basis
    that overshoots it is dropped and the walk restarts.
    """
    lo, hi = band
    n = len(gram)
    for _ in range(max_tries):
        g = [list(row) for row in gram]
        for _ in range(max_steps):
            i, j = rng.sample(range(n), 2)
            c = rng.choice((-1, 1))
            for k in range(n):
                g[i][k] += c * g[j][k]
            for k in range(n):
                g[k][i] += c * g[k][j]
            size = tree_size_estimate(g)
            if size >= lo:
                break
        if lo <= size <= hi:
            return g, size
    raise RuntimeError("no basis in the tree-size band %r" % (band,))


def skewed_grams(golden, seed):
    """The seed's generated bases: [(label, entry spec, gram, estimate)]."""
    spec_of = dict(CATALOG_EVEN)
    out = []
    for entry, count, band in SKEWED:
        spec = spec_of[entry]
        base = golden["catalog"][spec]["lattice"]["gram"]
        for k in range(count):
            rng = random.Random("skewed_basis/%d/%s/%d" % (seed, entry, k))
            gram, size = skew_gram(base, rng, band)
            out.append(("%s skew %d" % (spec, k), spec, gram, size))
    return out


def skewed_jobs(ctx, seed):
    golden = ctx.golden["catalog"]
    jobs = []
    inputs = []
    for label, spec, gram, size in skewed_grams(ctx.golden, seed):
        path = os.path.join(ctx.work_dir, label.replace(" ", "_")
                            .replace("(", "_").replace(")", "_") + ".json")
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"name": label, "gram": gram}, fh)
        want = basis_free_fields(golden[spec])

        def check(doc, gram=gram, want=want):
            _check(doc["lattice"]["gram"] == gram,
                   "report is for another Gram matrix")
            got = basis_free_fields(doc)
            for key, value in want.items():
                _check(got[key] == value,
                       "%s is %r, standard basis gives %r",
                       key, got[key], value)

        jobs.append(Job(name=label, argv=("analyze", path, "--format", "json"),
                        check=check, timeout_s=60.0))
        inputs.append({"job": label,
                       "max_abs_gram": max(abs(x) for row in gram for x in row),
                       "tree_estimate": round(size)})
    return jobs, {"seed": seed, "inputs": inputs}


# ---------------------------------------------------------------- isometry

def isometry_commands():
    """(spec, argv, env) of every isometry job: the jobs and the recording
    both take their command lines from here.

    VOAPLUS_RANK_BOUND = rank turns the isometry search on for the lattice.
    """
    return [(spec, ("analyze", spec, "--format", "json"),
             {"VOAPLUS_RANK_BOUND": str(rank)}) for spec, rank, _ in ISOMETRY]


def isometry_jobs(ctx, seed):
    golden = ctx.golden["isometry"]
    jobs = []
    for (spec, rank, aut), (_, argv, env) in zip(ISOMETRY, isometry_commands()):
        def check(doc, spec=spec, rank=rank, aut=aut):
            _check(doc["lattice"]["rank"] == rank, "rank is %r",
                   doc["lattice"]["rank"])
            _check(doc["isometry_order"] == aut,
                   "isometry_order is %r, closed form %d",
                   doc["isometry_order"], aut)
            stab = 2 ** (rank - 1) * aut
            _check(doc["stabilizer_order"] == stab,
                   "stabilizer_order is %r, want %d",
                   doc["stabilizer_order"], stab)
            _check(doc["aut_order"] == stab * doc["orbit_size"],
                   "aut_order is %r, want 2^(n-1) |O(L)| orbit = %d",
                   doc["aut_order"], stab * doc["orbit_size"])
            match_recorded(doc, golden[spec])

        jobs.append(Job(name=spec, argv=argv, check=check, timeout_s=60.0,
                        env=env))
    random.Random("isometry/%d" % seed).shuffle(jobs)
    return jobs, {}


WORKLOADS = {
    "catalog": catalog_jobs,
    "deep_enum": deep_enum_jobs,
    "skewed_basis": skewed_jobs,
    "isometry": isometry_jobs,
}

# Runnable with run.py but left out of BENCHMARK.json: on a shared 2-vCPU
# host only 60 s runs are steady enough, and at 60 s the 57 min budget for
# a full comparison (4 + 22 runs per workload) fits two workloads (see
# README.md, "Noise on this host").
SUPPLEMENTARY = ("deep_enum", "skewed_basis")
