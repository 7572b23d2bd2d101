"""Short-vector enumeration kernel.

Given an integer Gram matrix G, a coset representative rep = r/q (integer
numerators over one denominator, as a lattice.Coset holds it) and a target
norm m = mn/md (an int or a Fraction), enumerate every integer offset x with
(x + rep)' G (x + rep) == m.  The search is Fincke-Pohst pruning on the
fraction-free LDL data of G (intmat.ldl) and runs on Python ints alone, so
it is exact whatever the size of the entries: no vector is missed and
none is returned that fails the norm identity.

For rep = 0 the vectors come in pairs x, -x, and the tree is walked for
one of each (Fincke and Pohst, Math. Comp. 44, 1985): while every higher
coordinate is 0, x_k is kept >= 0, and the zero vector is skipped.  Of each
pair this keeps the vector whose last nonzero coordinate is positive, so
the walk visits about half the nodes.  enumerate_offsets mirrors that half
back (the zero vector joins at norm 0); half=True hands it over as is.

Cached centers.  A node at level k needs its center sum
c_k = sum_{j>k} lam[j][k] y_j, which costs n-1-k products when summed
afresh.  The walk keeps the partial sums instead, the sigma table of Gama,
Nguyen and Regev (EUROCRYPT 2010, Alg. 2, after Schnorr and Euchner, Math.
Programming 66, 1994): sig[k][j] = sum_{i>=j} lam[i][k] y_i, with stale[k]
the highest level whose y has changed since row k was last brought up to
date.  A node recomputes only the entries of its row from stale[k] down,
one product when only its parent has moved.  The sums are the same exact
integers, so the pruning, the tree it walks, the leaf identity and every
vector returned are unchanged; only the cost of a node falls.
"""

from math import isqrt

from .intmat import ldl


def _enumerate(gram, q, rnum, mnum, mden, half):
    """Depth-first fixed-norm enumeration, unsorted; see module docstring.

    With y = q x + r, d the leading minors and lam the LDL entries of G,
    y' G y = sum_i w_i^2 / (d[i] d[i+1]) where
    w_i = d[i+1] y_i + sum_{j>i} lam[j][i] y_j.  The tail budget
    p_i = (d[i] p_{i+1} + w_i^2) / d[i+1] (p_n = 0) is an exact integer,
    d[i] times the norm of y's projection away from the first i basis
    vectors, and y' G y = p_0.  Levels run n-1 .. 0.  Once the levels above
    i are fixed, the tail fits the target norm mn q^2 / md exactly when
    md w_i^2 <= bound = d[i] (d[i+1] mn q^2 - md p_{i+1}), which gives x_i
    an integer range.  At level 0 a vector is kept only if
    md w_0^2 == bound, which is the identity y' G y * md == mn * q^2.
    half (r = 0 only) keeps one vector of each +- pair and not the zero
    vector: ``lead`` says that every level above is 0, and then x_k >= 0.
    """
    n = len(gram)
    if mnum < 0:
        return []
    d, lam = ldl(gram)
    target = mnum * q * q
    x = [0] * n
    y = [0] * n
    # the sigma table (module docstring): sig[k][j] = sum_{i>=j} lam[i][k] y_i
    # holds for j > stale[k]; sig[k][n] = 0
    sig = [[0] * (n + 1) for _ in range(n)]
    stale = [n - 1] * n
    out = []

    def descend(k, p, lead):
        # levels above k are fixed, p = p_{k+1}; run x_k over its range
        dk1 = d[k + 1]
        bound = d[k] * (dk1 * target - mden * p)
        r = isqrt(bound // mden)
        a = dk1 * q
        row = sig[k]
        top = stale[k]
        for j in range(top, k, -1):
            row[j] = row[j + 1] + lam[j][k] * y[j]
        stale[k] = k
        b = dk1 * rnum[k] + row[k + 1]
        lo, hi = -((r + b) // a), (r - b) // a
        if lead:
            # b = 0 here, so the range is symmetric; 0 leads on to the
            # levels below, and at level 0 it is the zero vector
            lo = 1 if k == 0 else 0
        if k == 0:
            # only the ends of the range can reach w_0^2 == bound / md
            for xk in {lo, hi} if lo <= hi else ():
                w = a * xk + b
                if mden * w * w == bound:
                    x[0] = xk
                    out.append(tuple(x))
            return
        # row k - 1 is stale wherever row k was (top >= k also covers y_k,
        # which the loop moves); after each child, y_k alone moves on
        below = k - 1
        if stale[below] < top:
            stale[below] = top
        dk = d[k]
        for xk in range(lo, hi + 1):
            w = a * xk + b
            x[k] = xk
            y[k] = q * xk + rnum[k]
            descend(below, (dk * p + w * w) // dk1, lead and not xk)
            stale[below] = k

    descend(n - 1, 0, half)
    return out


def enumerate_offsets(gram_rows, den, nums, m, half=False):
    """All integer offsets x with (x + rep)' G (x + rep) == m, sorted lex.

    gram_rows: integer Gram rows; rep = nums / den, nums integers and
    den > 0; m: an int or a Fraction.  half=True needs nums = 0 and
    returns, unsorted, one vector of each pair x, -x, never the zero
    vector; see the module docstring.
    """
    pairs = not any(nums)
    if half and not pairs:
        raise ValueError("half an enumeration needs the representative 0")
    out = _enumerate(gram_rows, den, nums, m.numerator, m.denominator, pairs)
    if half:
        return out
    if pairs:
        out += [tuple(-c for c in x) for x in out]
        if m == 0:
            out.append(tuple(nums))
    out.sort()
    return out
