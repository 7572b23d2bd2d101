"""Group-order conclusions assembled into reports.

The stabilizer of the distinguished module class has index equal to the
orbit size, so the full automorphism-group order of the fixed-point
algebra is (stabilizer order) x (orbit size) whenever the stabilizer order
itself is known.  For rootless even lattices that order is 2^(n-1) |O(L)|
-- a derived formula, validated against the two worked rank-<=2 cases and
recorded as derived in every report that uses it.  Lattices with roots get
no order claim at all: the stabilizer then contains continuous factors
this tool does not model.

The search for |O(L)| is exponential in principle, so this module alone
decides when to run it: up to rank ``bound`` (DEFAULT_RANK_BOUND unless
given).  Above it a report has no isometry order, reason "rank bound".
"""

from collections import namedtuple

from .constrb import decompose, frame_cosets
from .errors import NotOdd, SplitCheckFailed
from .lattice import (Lattice, orthogonal_group_order, parity_key,
                      require_even, sublattice_gram)
from .orbit import fusion_space, module_orbit
from . import intmat

DEFAULT_RANK_BOUND = 4
NOTE_STABILIZER = ("stabilizer order for rootless lattices uses the derived "
                   "formula 2^(rank-1) * |O(L)|")
NOTE_TWISTED = ("twisted class multiplicities use the derived index "
                "|(L meet 2L*) / 2L|")


class AutReport(namedtuple("AutReport", (
        "lattice rank det root_count is_2_elementary is_totally_even "
        "frame_coset_set decompositions orbit fusion orbit_size "
        "index_over_stabilizer isometry_order stabilizer_order "
        "stabilizer_reason aut_order exceeds_stabilizer notes"))):
    """fusion: a FusionSpace, None when a structural condition holds;
    index_over_stabilizer equals orbit_size (orbit-stabilizer);
    isometry_order: |O(L)|, None above the rank bound (not searched for);
    stabilizer_order: None, with stabilizer_reason, when unavailable;
    aut_order: None when stabilizer_order is."""
    __slots__ = ()

    @property
    def cond_a(self):
        return self.orbit.cond_a

    @property
    def cond_b(self):
        return self.orbit.cond_b

    @property
    def cond_c(self):
        return self.orbit.cond_c


def _isometry_order(lat, bound):
    """|O(L)|, or None, without a search, above the rank bound."""
    if lat.rank > (DEFAULT_RANK_BOUND if bound is None else bound):
        return None
    return orthogonal_group_order(lat)


def _stabilizer_from_isometry(lat, isometry):
    if lat.root_count > 0:
        return None, "roots present"
    if isometry is None:
        return None, "rank bound"
    return 2 ** (lat.rank - 1) * isometry, None


def stabilizer_order(lat, bound=None):
    """Order of the distinguished-class stabilizer, or (None, reason).

    Returns (order, None) for rootless lattices within the isometry rank
    bound, else (None, "roots present" | "rank bound").
    """
    require_even(lat)
    # with roots no order is claimed, so the search is skipped
    isometry = None if lat.root_count else _isometry_order(lat, bound)
    return _stabilizer_from_isometry(lat, isometry)


def analyze(lat, bound=None):
    """Run the full even-lattice pipeline and assemble an AutReport."""
    require_even(lat)
    fc = frame_cosets(lat)
    decs = decompose(lat)
    orbit = module_orbit(lat)
    fusion = None
    if not (orbit.cond_a or orbit.cond_b or orbit.cond_c):
        fusion = fusion_space(lat, orbit)
    isometry = _isometry_order(lat, bound)
    h, reason = _stabilizer_from_isometry(lat, isometry)
    notes = [NOTE_TWISTED]
    if h is not None:
        notes.append(NOTE_STABILIZER)
    q = orbit.size
    return AutReport(
        lattice=lat,
        rank=lat.rank,
        det=lat.det,
        root_count=lat.root_count,
        is_2_elementary=lat.is_2_elementary,
        is_totally_even=lat.is_totally_even,
        frame_coset_set=fc,
        decompositions=decs,
        orbit=orbit,
        fusion=fusion,
        orbit_size=q,
        index_over_stabilizer=q,
        isometry_order=isometry,
        stabilizer_order=h,
        stabilizer_reason=reason,
        aut_order=None if h is None else h * q,
        exceeds_stabilizer=q > 1,
        notes=tuple(notes),
    )


class OddReport(namedtuple("OddReport", (
        "lattice even_part even_basis odd_rep odd_rep_norm odd_coset "
        "odd_coset_in_orbit even_report aut_order"))):
    """even_basis: rows over the original basis; odd_rep: an integer vector
    of odd norm odd_rep_norm, in original coordinates; odd_coset: its class
    over the even part; aut_order: 2 * aut(even)/orbit when computable."""
    __slots__ = ()


def even_sublattice(lat):
    """The index-2 even sublattice of an odd integral lattice.

    Returns (sublattice, basis rows over lat's basis, odd representative).
    """
    if lat.is_even:
        raise NotOdd("lattice is even; no odd part to split off")
    n = lat.rank
    odd_idx = [i for i in range(n) if lat.gram[i][i] % 2]
    i0 = odd_idx[0]
    rows = []
    for i in range(n):
        if i == i0:
            continue
        r = [0] * n
        r[i] = 1
        if i in odd_idx:
            r[i0] = 1
        rows.append(r)
    r = [0] * n
    r[i0] = 2
    rows.append(r)
    basis = intmat.hnf(rows, n)
    sub = Lattice(sublattice_gram(lat, basis))
    alpha = tuple(int(i == i0) for i in range(n))
    return sub, tuple(tuple(x) for x in basis), alpha


def odd_split(lat, bound=None):
    """Report on an odd lattice through its even sublattice.

    Verifies the split structurally (even part of index 2, hence doubled
    vectors inside it; odd norm), runs the even pipeline on the even part
    and, when the odd representative's class lies in the orbit and the even
    order is known, reports 2 * aut(even) / orbit as the total order.
    """
    sub, basis, alpha = even_sublattice(lat)
    if not sub.is_even:
        raise SplitCheckFailed("the even part is odd")
    if sub.det != 4 * lat.det:
        raise SplitCheckFailed("the even part does not have index 2")
    # index 2 puts 2L inside the even part: twice each row of B^-1 =
    # adj / det is integral, so no separate check is needed
    adj, det = intmat.adjugate(basis)
    alpha_norm = intmat.dot(alpha, lat.gram_times(alpha))
    if alpha_norm % 2 != 1:
        raise SplitCheckFailed("the odd representative has norm %d"
                               % alpha_norm)
    # alpha = e_i0 is row i0 of B^-1 over the even part; its order-2 class
    # is named by the parity key of twice that row
    coset = sub.discriminant.torsion2_index.get(
        parity_key([2 * x // det for x in adj[alpha.index(1)]]))
    if coset is None:
        raise SplitCheckFailed("alpha is not in the even part's dual")
    rep = analyze(sub, bound)
    in_orbit = coset in rep.frame_coset_set.cosets
    total = None
    if in_orbit and rep.aut_order is not None:
        total = 2 * rep.aut_order // rep.orbit_size
    return OddReport(lattice=lat, even_part=sub, even_basis=basis,
                     odd_rep=alpha, odd_rep_norm=alpha_norm, odd_coset=coset,
                     odd_coset_in_orbit=in_orbit, even_report=rep,
                     aut_order=total)
