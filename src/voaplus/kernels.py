"""Short-vector enumeration kernel.

Given an integer Gram matrix G, a coset representative rep = r/q and a
rational target norm m = mn/md, enumerate every integer offset x such that
(x + rep)' G (x + rep) == m.  The search is Fincke-Pohst pruning on the
fraction-free LDL data of G (intmat.ldl) and runs on Python ints alone, so
it is exact whatever the size of the entries: no vector is missed and
none is returned that fails the norm identity.
"""

from math import isqrt

from .intmat import ldl, scaled_integer_rows


def _enumerate(gram, q, rnum, mnum, mden):
    """Depth-first fixed-norm enumeration; see module docstring.

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
    """
    n = len(gram)
    if mnum < 0:
        return []
    d, lam = ldl(gram)
    target = mnum * q * q
    x = [0] * n
    y = [0] * n
    out = []

    def descend(k, p):
        # levels above k are fixed, p = p_{k+1}; run x_k over its range
        dk1 = d[k + 1]
        bound = d[k] * (dk1 * target - mden * p)
        r = isqrt(bound // mden)
        a = dk1 * q
        b = dk1 * rnum[k]
        for j in range(k + 1, n):
            b += lam[j][k] * y[j]
        lo, hi = -((r + b) // a), (r - b) // a
        if k == 0:
            # only the ends of the range can reach w_0^2 == bound / md
            for xk in {lo, hi} if lo <= hi else ():
                w = a * xk + b
                if mden * w * w == bound:
                    x[0] = xk
                    out.append(tuple(x))
            return
        dk = d[k]
        for xk in range(lo, hi + 1):
            w = a * xk + b
            x[k] = xk
            y[k] = q * xk + rnum[k]
            descend(k - 1, (dk * p + w * w) // dk1)

    descend(n - 1, 0)
    out.sort()
    return out


def enumerate_offsets(gram_rows, rep, m):
    """All integer offsets x with (x + rep)' G (x + rep) == m, sorted lex.

    gram_rows: integer Gram rows; rep: rational coordinates (int or
    Fraction); m: rational norm (int or Fraction).
    """
    (rnum,), q = scaled_integer_rows([rep])
    return _enumerate(gram_rows, q, rnum, m.numerator, m.denominator)
