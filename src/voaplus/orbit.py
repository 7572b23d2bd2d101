"""Module-class bookkeeping and the orbit of the distinguished class.

Irreducible module classes of the fixed-point algebra attached to an even
lattice come in three shapes: plain untwisted classes [mu] for dual cosets
identified with their negatives, signed untwisted classes [lambda]^+/- for
order-<=2 cosets, and twisted classes [chi]^+/-, counted per sign but never
individually constructed.  The orbit of [0]^- consists of [0]^- itself,
both signed classes over every coset meeting the norm-2 bound, and -- only
when one of the three structural conditions below holds -- all twisted
classes of one sign.  Each condition is a plain bool; (a) and (b) are read
off the Construction-B decompositions by one cross-checked loop.

There are |(L meet 2L*)/2L| twisted classes per sign.  Halving identifies
that group with the order-<=2 cosets that carry the signed classes:
|(L meet 2L*)/2L| = #{x in L*/L : 2x = 0} = 2^(number of even invariant
factors of the Gram matrix).
"""

from collections import namedtuple

from .codes import _f2_rank, rm14_subcode
from .constrb import decompose, frame_cosets, structural_cosets
from .errors import ConditionABC, CrossCheckFailed, NotPowerOfTwo
from .lattice import require_even


class ModuleClass(namedtuple("ModuleClass", "kind coset sign count",
                             defaults=(None, None, 1))):
    """kind: "plain" | "signed" | "twisted"; coset: for plain/signed;
    sign: "+" or "-" for signed/twisted; count: multiplicity, since twisted
    classes are pooled."""
    __slots__ = ()

    def label(self):
        if self.kind == "plain":
            return "[%s]" % self.coset.label()
        if self.kind == "signed":
            return "[%s]^%s" % (self.coset.label(), self.sign)
        return "[chi]^%s x%d" % (self.sign, self.count)


class OrbitReport(namedtuple("OrbitReport", "classes frame_coset_set "
                             "twisted_sign twisted_count cond_a cond_b cond_c")):
    """twisted_sign: "+", "-" or None; twisted_count: 0 when no twisted
    classes are in the orbit; cond_a: length-8 construction with all-one
    word; cond_b: length-16 construction with RM(1,4) subcode; cond_c: the
    even unimodular rank-8 lattice."""
    __slots__ = ()

    @property
    def size(self):
        return 1 + 2 * len(self.frame_coset_set.cosets) + self.twisted_count


def twisted_character_count(lat):
    """Number of twisted classes per sign: the index |(L meet 2L*)/2L|.

    v -> v/2 identifies (L meet 2L*)/2L with {x in L*/L : 2x = 0}, and L*/L
    is the direct sum of the Z/d_i over the invariant factors d_i of the
    Gram matrix, so |(L meet 2L*)/2L| = #{x in L*/L : 2x = 0} =
    2^(number of even d_i), the number of order-<=2 cosets.
    """
    require_even(lat)
    return 2 ** sum(1 for d in lat.discriminant.invariant_factors
                    if d % 2 == 0)


def twisted_character_count_mod2(lat):
    """Cross-check route: 2^(n - rank of G over F_2).

    (L meet 2L*)/2L is the kernel of G mod 2 on F_2^n, so this counts the
    same |(L meet 2L*)/2L| = #{x in L*/L : 2x = 0} = 2^(number of even
    invariant factors), by GF(2) elimination instead of the Smith form.
    The package's only GF(2) route: all else, M's basis included, reads
    the 2-torsion off the Smith form, so the two routes stay independent.
    """
    require_even(lat)
    rows = [sum(1 << j for j, x in enumerate(r) if x % 2) for r in lat.gram]
    return 2 ** (lat.rank - _f2_rank(rows))


def _frame_condition(lat, rank, has_code, twist, disagree):
    """Whether lat has rank `rank` and some decomposition's code passes
    `has_code`.  On every decomposition the answer must match whether the
    structural coset named `twist` is a frame coset; if not, raises
    CrossCheckFailed(disagree).  Each distinct code is decided once: all
    135 decompositions of lb(rm14) share one."""
    require_even(lat)
    if lat.rank != rank:
        return False
    cosets = set(frame_cosets(lat).cosets)
    decs = decompose(lat)
    passes = {c: has_code(c) for c in dict.fromkeys(d.code for d in decs)}
    for dec in decs:
        marker = getattr(structural_cosets(lat, dec), twist)
        if passes[dec.code] != (marker is not None and marker in cosets):
            raise CrossCheckFailed(disagree)
    return any(passes.values())


def condition_a(lat):
    """(a): L comes from a length-8 doubly even code with the all-one word.

    Cross-checked against the quarter-offset coset on every decomposition;
    a hit must be a 2-elementary totally even lattice."""
    holds = _frame_condition(
        lat, 8, lambda code: code.contains_all_one, "twist_minus",
        "all-one membership and quarter-offset coset disagree")
    if holds and not (lat.is_2_elementary and lat.is_totally_even):
        raise CrossCheckFailed(
            "all-one construction on a lattice that is not "
            "2-elementary totally even")
    return holds


def condition_b(lat):
    """(b): L comes from a length-16 doubly even code with an RM(1,4)
    subcode, cross-checked against the quarter-sum coset on every
    decomposition."""
    return _frame_condition(
        lat, 16, lambda code: rm14_subcode(code) is not None, "twist_plus",
        "Reed-Muller subcode and quarter-sum coset disagree")


def condition_c(lat):
    """(c): L is the even unimodular rank-8 lattice (by rank and det)."""
    require_even(lat)
    return lat.rank == 8 and lat.det == 1


def module_orbit(lat):
    """The orbit of the distinguished class [0]^- as an OrbitReport."""
    require_even(lat)
    fc = frame_cosets(lat)
    cond_a = condition_a(lat)
    cond_b = condition_b(lat)
    cond_c = condition_c(lat)

    classes = [ModuleClass(kind="signed", coset=lat.trivial_coset, sign="-")]
    for coset in fc.cosets:
        classes.append(ModuleClass(kind="signed", coset=coset, sign="+"))
        classes.append(ModuleClass(kind="signed", coset=coset, sign="-"))

    twisted_sign = None
    twisted_count = 0
    if cond_a or cond_c:
        twisted_sign = "-"
    elif cond_b:
        twisted_sign = "+"
    if twisted_sign is not None:
        twisted_count = twisted_character_count(lat)
        classes.append(ModuleClass(kind="twisted", sign=twisted_sign,
                                   count=twisted_count))
    return OrbitReport(classes=tuple(classes), frame_coset_set=fc,
                       twisted_sign=twisted_sign, twisted_count=twisted_count,
                       cond_a=cond_a, cond_b=cond_b, cond_c=cond_c)


class FusionSpace(namedtuple("FusionSpace", "size dim gl_order")):
    __slots__ = ()


def gl2_order(dim):
    order = 1
    for i in range(dim):
        order *= 2 ** dim - 2 ** i
    return order


def fusion_space(lat, orbit=None):
    """Size data of {[0]^+} plus the orbit, as an elementary abelian 2-group.

    Only defined when none of the three structural conditions holds; the
    size 2 + 2|R| must then be a power of two, asserted loudly.
    """
    orbit = module_orbit(lat) if orbit is None else orbit
    if orbit.cond_a or orbit.cond_b or orbit.cond_c:
        raise ConditionABC(
            "fusion 2-group route needs all structural conditions to fail")
    size = 2 + 2 * len(orbit.frame_coset_set.cosets)
    if size & (size - 1):
        raise NotPowerOfTwo("fusion set size %d is not a power of two" % size)
    dim = size.bit_length() - 1
    return FusionSpace(size=size, dim=dim, gl_order=gl2_order(dim))
