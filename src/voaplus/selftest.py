"""Data-driven self-checks over the shipped catalog.

Every catalog entry carries its pinned invariants; this module recomputes
them and reports one named check per comparison, plus the cross-catalog
properties (the exceeds-stabilizer equivalence, fusion sizes being powers
of two, the two twisted-count routes agreeing, the one-pass norm-2 sweep of
the order-<=2 cosets agreeing with one enumeration per coset: the signed
records' w against 2 (x + rep) for each offset x of the coset's own tree).
Internal-assertion errors surface as failed checks rather than aborting the
sweep.
"""

from collections import namedtuple

from . import kernels
from .catalog import CATALOG
from .errors import VoaplusError
from .lattice import signed_records
from .orbit import twisted_character_count, twisted_character_count_mod2
from .report import analyze, odd_split


class Check(namedtuple("Check", "name ok detail", defaults=("",))):
    __slots__ = ()


def _pinned_checks(entry, got, out, detail="got {got}"):
    """One check per pinned invariant of entry, against got[key]."""
    for key, want in entry.expected.items():
        out("%s.%s" % (entry.name, key), got.get(key) == want,
            detail.format(got=got.get(key), want=want))


def _lattice_got(rep):
    return {
        "rank": rep.rank,
        "det": rep.det,
        "roots": rep.root_count,
        "frame_cosets": len(rep.frame_coset_set.cosets),
        "orbit_size": rep.orbit_size,
        "exceeds": rep.exceeds_stabilizer,
        "stabilizer_order": rep.stabilizer_order,
        "aut_order": rep.aut_order,
        "cond_a": rep.cond_a,
        "cond_b": rep.cond_b,
        "cond_c": rep.cond_c,
        "twisted_sign": rep.orbit.twisted_sign,
        "twisted_count": rep.orbit.twisted_count,
    }


def run_selftest():
    """The checks, under the default rank bound of report, which the
    pinned orders assume."""
    checks = []

    def out(name, ok, detail=""):
        checks.append(Check(name=name, ok=bool(ok), detail="" if ok else detail))

    reports = {}
    for entry in CATALOG:
        try:
            obj = entry.build()
        except VoaplusError as exc:
            out(entry.name + ".build", False, str(exc))
            continue
        try:
            if entry.kind == "code":
                _pinned_checks(entry, {
                    "dim": obj.dimension,
                    "doubly_even": obj.is_doubly_even,
                    "all_one": obj.contains_all_one,
                    "weights": obj.weight_distribution}, out)
            elif entry.kind == "lattice":
                rep = analyze(obj)
                reports[entry.name] = rep
                _pinned_checks(entry, _lattice_got(rep), out,
                               "got {got}, want {want}")
            elif entry.kind == "odd":
                orep = odd_split(obj)
                out(entry.name + ".even_part_even", orep.even_part.is_even,
                    "even part is odd")
                _pinned_checks(entry, {"rank": orep.lattice.rank,
                                       "even_part_det": orep.even_part.det},
                               out)
        except VoaplusError as exc:
            out(entry.name + ".run", False, "%s: %s" % (type(exc).__name__, exc))

    for name, rep in reports.items():
        want = len(rep.frame_coset_set.cosets) > 0 or rep.cond_c
        out(name + ".exceeds_iff_construction_or_e8",
            rep.exceeds_stabilizer == want,
            "exceeds=%s, construction/e8=%s" % (rep.exceeds_stabilizer, want))
        if not (rep.cond_a or rep.cond_b or rep.cond_c):
            size = 2 + 2 * len(rep.frame_coset_set.cosets)
            out(name + ".fusion_power_of_two", size & (size - 1) == 0,
                "size %d" % size)
        try:
            a = twisted_character_count(rep.lattice)
            b = twisted_character_count_mod2(rep.lattice)
            out(name + ".twisted_count_routes_agree", a == b,
                "index route %d, mod-2 route %d" % (a, b))
        except VoaplusError as exc:
            out(name + ".twisted_count_routes_agree", False, str(exc))
        lat = rep.lattice
        n = lat.rank
        sweep = lat.torsion2_norm2_records
        bad = []
        for c in lat.discriminant.torsion2_reps:
            k = 2 // c.den      # w = 2 x + k nums, as den divides 2
            own = [tuple(2 * x + k * r for x, r in zip(off, c.nums)) for off
                   in kernels.enumerate_offsets(lat.gram, c.den, c.nums, 2)]
            if [r[:n] for r in signed_records(sweep[c])] != own:
                bad.append(c.label())
        out(name + ".torsion2_routes_agree", not bad,
            "sweep and per-coset enumeration differ on %s" % ", ".join(bad))

    return checks
