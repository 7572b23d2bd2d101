"""Short-vector enumeration kernel.

Given an integer Gram matrix G, a coset representative rep = r/q and a
rational target norm m = mn/md, enumerate every integer offset x such that
(x + rep)' G (x + rep) == m.  Float arithmetic (an LDL decomposition of G)
only prunes the search tree; every surviving candidate is confirmed with an
exact integer identity on Python ints, which are unbounded, so the output
is exact whatever the size of the entries.
"""

import math

from .intmat import scaled_integer_rows


def ldl_decompose(gram):
    """Float LDL data for the pruning recursion.

    Returns lists (d, u) with
    norm(v) = sum_i d[i] * (v[i] + sum_{j>i} u[i][j] v[j])^2.
    """
    n = len(gram)
    q = [[float(x) for x in row] for row in gram]
    for i in range(n - 1):
        for j in range(i + 1, n):
            q[j][i] = q[i][j]
            q[i][j] = q[i][j] / q[i][i]
        for k in range(i + 1, n):
            for l in range(k, n):
                q[k][l] -= q[k][i] * q[i][l]
    d = [q[i][i] for i in range(n)]
    u = [[q[i][j] if j > i else 0.0 for j in range(n)] for i in range(n)]
    return d, u


def _enumerate(gram, q, rnum, mnum, mden):
    """Depth-first fixed-norm enumeration; see module docstring.

    Levels run n-1 .. 0.  At each level the float budget left over from the
    levels above bounds the integer coordinate range (with slack eps).  A
    child whose budget is already below -eps, or whose range is empty, is
    not entered: the budget only shrinks on the way down, so its subtree
    holds no candidate.  Next to the floats each call carries, exactly, the
    norm of the scaled tail y_j = q x_j + r_j (j above the level), so a
    complete assignment is kept only if y' G y * md == mn * q^2 holds in
    integers.
    """
    n = len(gram)
    d, u = ldl_decompose(gram)
    repf = [r / q for r in rnum]
    mfloat = float(mnum) / float(mden)
    eps = 1e-6 * (mfloat + 1.0)
    target = mnum * q * q
    x = [0] * n
    y = [0] * n
    v = [0.0] * n
    out = []

    def descend(lvl, budget, c, lo, hi, exact):
        # c: float centre of this level; [lo, hi]: its nonempty range;
        # exact: y' G y over the coordinates above this level
        dl = d[lvl]
        rf = repf[lvl]
        rl = rnum[lvl]
        gl = gram[lvl]
        gll = gl[lvl]
        twice = 0
        if lvl == 0:
            for j in range(1, n):
                twice += gl[j] * y[j]
            twice *= 2
            for xi in range(lo, hi + 1):
                w = rf + xi + c
                if budget - dl * w * w > -eps:
                    yi = q * xi + rl
                    if (exact + yi * (gll * yi + twice)) * mden == target:
                        x[0] = xi
                        out.append(tuple(x))
            return
        k = lvl - 1
        uk = u[k]
        ukl = uk[lvl]
        dk = d[k]
        rk = repf[k]
        base = 0.0
        for j in range(lvl + 1, n):
            twice += gl[j] * y[j]
            base += uk[j] * v[j]
        twice *= 2
        for xi in range(lo, hi + 1):
            vl = rf + xi
            w = vl + c
            t = budget - dl * w * w
            if t <= -eps:
                continue
            ck = base + ukl * vl
            rad = math.sqrt(max(t, 0.0) / dk)
            ctr = ck + rk
            klo = math.ceil(-ctr - rad - eps)
            khi = math.floor(-ctr + rad + eps)
            if klo > khi:
                continue
            x[lvl] = xi
            v[lvl] = vl
            yi = q * xi + rl
            y[lvl] = yi
            descend(k, t, ck, klo, khi, exact + yi * (gll * yi + twice))

    top = n - 1
    budget = mfloat + eps
    rad = math.sqrt(max(budget, 0.0) / d[top])
    lo = math.ceil(-repf[top] - rad - eps)
    hi = math.floor(-repf[top] + rad + eps)
    if lo <= hi:
        descend(top, budget, 0.0, lo, hi, 0)
    out.sort()
    return out


def enumerate_offsets(gram_rows, rep, m):
    """All integer offsets x with (x + rep)' G (x + rep) == m, sorted lex.

    gram_rows: integer Gram rows; rep: rational coordinates (int or
    Fraction); m: rational norm (int or Fraction).
    """
    (rnum,), q = scaled_integer_rows([rep])
    return _enumerate(gram_rows, q, rnum, m.numerator, m.denominator)
