"""Stable text and JSON rendering of report objects.

JSON field names are frozen; see docs/json_schema.md (schema_version 1,
additive evolution only).  Every rational is rendered as the string "p/q"
with q > 0 and gcd(p, q) = 1; integers stay JSON numbers.

Integers are written out in full at any length.  The interpreter refuses
str() of an int over 4300 digits; that limit guards the parsing of input,
but a report may hold products of accepted entries beyond it (the
determinant of a Gram matrix with 3000-digit entries), so the numbers
that grow with the input go through int_str, and JSON through dumps.
One renderer writes every vector, an integer row over one denominator,
as JSON (scaled_vec_json) or text (scaled_vec_text): no Fraction is made.
"""

from functools import lru_cache
from itertools import repeat
from math import gcd

try:
    # the C escaper that json.encoder uses, without importing the json
    # package (about 4 ms of a cold start)
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

SCHEMA_VERSION = 1


def int_str(n):
    """Decimal digits of the int n, past the str() digit limit too."""
    try:
        return "%d" % n
    except ValueError:
        pass
    if n < 0:
        return "-" + int_str(-n)
    k = n.bit_length() * 3 // 20        # about half of n's digits
    hi, lo = divmod(n, 10 ** k)
    return int_str(hi) + int_str(lo).zfill(k)


def frac_str(x):
    return _ratio_str(x.numerator, x.denominator)


def num_text(x):
    """An int or Fraction as str(Fraction) prints it: "p/q", or "p"."""
    return _ratio_str(x.numerator, x.denominator).removesuffix("/1")


@lru_cache(maxsize=1024)
def _ratio_str(num, den):
    """num / den (den > 0) in lowest terms as "p/q".  Frame rows repeat a
    few small entries, so each string is made once."""
    g = gcd(num, den)
    return int_str(num // g) + "/" + int_str(den // g)


def scaled_vec_json(scale, row):
    """The vector row / scale (integer row, scale > 0) as "p/q" strings."""
    return list(map(_ratio_str, row, repeat(scale)))


class _Ratios(dict):
    """num -> _ratio_str(num, den) for one den, each string made once."""
    __slots__ = ("den",)

    def __init__(self, den):
        super().__init__()
        self.den = den

    def __missing__(self, num):
        text = self[num] = _ratio_str(num, self.den)
        return text


def scaled_vec_text(scale, row):
    """The vector row / scale as text, "(p/q, p, ...)" (num_text entries)."""
    return "(" + ", ".join(_ratio_str(c, scale).removesuffix("/1")
                           for c in row) + ")"


def dumps(doc):
    """doc as JSON text: json.dumps(doc, indent=2, sort_keys=True), byte
    for byte, with every int written by int_str.

    doc is built of dicts with str keys, lists, tuples, str, int, bool and
    None.  json.dumps with an indent runs its pure-Python encoder and fails
    on an int over the str() digit limit; this writes each list of scalars
    (a frame row, a Gram row) with one join.
    """
    out = []
    _write(doc, "\n", out)
    return "".join(out)


_SCALARS = frozenset((str, int, bool, type(None)))


def _scalar(x):
    if isinstance(x, str):
        return encode_basestring_ascii(x)
    if x is None:
        return "null"
    if x is True:
        return "true"
    if x is False:
        return "false"
    if isinstance(x, int):
        return int_str(x)
    raise TypeError("Object of type %s is not JSON serializable"
                    % type(x).__name__)


def _write(x, nl, out):
    """Append the JSON text of x to out; nl is the newline and indent
    of x's own line."""
    if isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for key in sorted(x):
            out.append(sep + encode_basestring_ascii(key) + ": ")
            _write(x[key], inner, out)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = nl + "  "
        try:
            # a list of strings (a frame row) in one join; the first
            # entry of another type leads to the general path
            out.append("[" + inner + ("," + inner).join(
                map(encode_basestring_ascii, x)) + nl + "]")
            return
        except TypeError:
            pass
        types = set(map(type, x))
        if types <= _SCALARS:
            encode = int_str if types == {int} else _scalar
            out.append("[" + inner + ("," + inner).join(map(encode, x))
                       + nl + "]")
        else:
            sep = "[" + inner
            for v in x:
                out.append(sep)
                _write(v, inner, out)
                sep = "," + inner
            out.append(nl + "]")
    else:
        out.append(_scalar(x))


def document(kind, **fields):
    """The JSON document of one kind: its fields, schema_version and kind."""
    return {"schema_version": SCHEMA_VERSION, "kind": kind, **fields}


def coset_json(coset):
    return scaled_vec_json(coset.den, coset.nums)


def code_json(code):
    return {"length": code.length, "generators": code.basis_strings()}


def frame_cosets_json(fc):
    return {
        "bound": fc.bound,
        "cosets": [{"rep": coset_json(c), "count": n}
                   for c, n in zip(fc.cosets, fc.counts)],
    }


def decompositions_json(decs):
    """The JSON of each FrameDecomposition, the frame entries rendered
    through one table of strings: frame rows repeat a few small entries."""
    text = _Ratios(2).__getitem__
    return [{"coset": coset_json(d.coset),
             "frame": [list(map(text, row)) for row in d.rows],
             "code": code_json(d.code),
             "signs": list(d.signs)} for d in decs]


def orbit_json(orbit):
    return {
        "size": orbit.size,
        "classes": [c.label() for c in orbit.classes],
        "twisted_sign": orbit.twisted_sign,
        "twisted_count": orbit.twisted_count,
        "conditions": {"len8_all_one": orbit.cond_a,
                       "len16_rm14": orbit.cond_b,
                       "e8": orbit.cond_c},
    }


def fusion_json(fusion):
    if fusion is None:
        return None
    return {"size": fusion.size, "dim": fusion.dim, "gl_order": fusion.gl_order}


def lattice_json(lat):
    return {
        "rank": lat.rank,
        "det": lat.det,
        "gram": [list(r) for r in lat.gram],
        "even": lat.is_even,
        "roots": lat.root_count if lat.is_even else None,
        "two_elementary": lat.is_2_elementary,
        "totally_even": lat.is_totally_even,
        "invariant_factors": list(lat.discriminant.invariant_factors),
    }


def aut_report_json(rep):
    return document(
        "aut_report",
        lattice=lattice_json(rep.lattice),
        frame_cosets=frame_cosets_json(rep.frame_coset_set),
        decompositions=decompositions_json(rep.decompositions),
        conditions={"len8_all_one": rep.cond_a,
                    "len16_rm14": rep.cond_b,
                    "e8": rep.cond_c},
        orbit=orbit_json(rep.orbit),
        fusion=fusion_json(rep.fusion),
        orbit_size=rep.orbit_size,
        index_over_stabilizer=rep.index_over_stabilizer,
        isometry_order=rep.isometry_order,
        stabilizer_order=rep.stabilizer_order,
        stabilizer_reason=rep.stabilizer_reason,
        aut_order=rep.aut_order,
        exceeds_stabilizer=rep.exceeds_stabilizer,
        notes=list(rep.notes),
    )


def odd_report_json(rep):
    return document(
        "odd_report",
        lattice={"rank": rep.lattice.rank, "det": rep.lattice.det,
                 "gram": [list(r) for r in rep.lattice.gram]},
        even_part=lattice_json(rep.even_part),
        even_basis=[list(r) for r in rep.even_basis],
        odd_rep=scaled_vec_json(1, rep.odd_rep),
        odd_rep_norm=frac_str(rep.odd_rep_norm),
        odd_coset=coset_json(rep.odd_coset),
        odd_coset_in_orbit=rep.odd_coset_in_orbit,
        aut_order=rep.aut_order,
        even_report=aut_report_json(rep.even_report),
    )


def aut_report_text(rep):
    out = []
    w = out.append
    w("rank %d lattice, det %s, %d roots"
      % (rep.rank, int_str(rep.det), rep.root_count))
    w("  2-elementary: %s   totally even: %s"
      % (rep.is_2_elementary, rep.is_totally_even))
    fc = rep.frame_coset_set
    w("frame cosets (norm-2 count == %d): %d" % (fc.bound, len(fc.cosets)))
    for c, n in zip(fc.cosets, fc.counts):
        w("  %s  count %d" % (c.label(), n))
    w("construction decompositions: %d" % len(rep.decompositions))
    for d in rep.decompositions:
        w("  coset %s -> code [%d,%d], signs %s"
          % (d.coset.label(), d.code.length, d.code.dimension,
             "".join("+" if s > 0 else "-" for s in d.signs)))
    w("conditions: len8-all-one=%s  len16-rm14=%s  e8=%s"
      % (rep.cond_a, rep.cond_b, rep.cond_c))
    w("orbit of [0]^-: size %d" % rep.orbit_size)
    for c in rep.orbit.classes:
        w("  " + c.label())
    if rep.fusion is not None:
        w("fusion 2-group: size %d, dim %d, |GL| %d"
          % (rep.fusion.size, rep.fusion.dim, rep.fusion.gl_order))
    w("index [Aut : Stab] = %d" % rep.index_over_stabilizer)
    if rep.isometry_order is not None:
        w("|O(L)| = %s" % int_str(rep.isometry_order))
    if rep.stabilizer_order is not None:
        w("stabilizer order = %s" % int_str(rep.stabilizer_order))
        w("aut order = %s" % int_str(rep.aut_order))
    else:
        w("stabilizer order unavailable: %s" % rep.stabilizer_reason)
    w("exceeds stabilizer: %s" % rep.exceeds_stabilizer)
    for note in rep.notes:
        w("note: %s" % note)
    return "\n".join(out)


def odd_report_text(rep):
    out = []
    w = out.append
    w("odd lattice, rank %d, det %s"
      % (rep.lattice.rank, int_str(rep.lattice.det)))
    w("even part: det %s, basis rows %s"
      % (int_str(rep.even_part.det), [list(r) for r in rep.even_basis]))
    w("odd representative %s, norm %s"
      % (scaled_vec_text(1, rep.odd_rep), num_text(rep.odd_rep_norm)))
    w("its class over the even part: %s (in orbit: %s)"
      % (rep.odd_coset.label(), rep.odd_coset_in_orbit))
    w("aut order unavailable (needs the even-part order and an in-orbit class)")
    w("--- even part report ---")
    w(aut_report_text(rep.even_report))
    return "\n".join(out)
