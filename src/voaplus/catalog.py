"""Named lattices and codes, and the small constructor expression language.

Grammar:

    expr   := term ('+' term)*              direct sum
    term   := scalar '*' term | factor
    scalar := 'sqrt2' | integer             Gram x2, Gram x k^2
    factor := atom | '(' expr ')'
    atom   := A<n> | D<n> | E8 | Z<n> | Gamma16 | 2A1
            | gram([[...], ...])
            | zero(n) | rep(n) | hamming8 | rm14 | code(n, 0101...)
            | lb(<code expr>)               Construction B over the code

The atoms that a name alone fixes (2A1, E8, Gamma16, hamming8, rm14) come
from one table, _NAMED, A<n>, D<n>, Z<n> from a second one, _SIZED, keyed
by the letter, and what a call builds from its argument from a third,
_CALLS.  The parser reads every token through one typed rule (take), every
comma list through one (listed) and every call through one (factor).  E8
is built as D8 extended by the all-half glue vector, Gamma16 as D16
extended the same way.  The catalog below ships every object the reports
and the acceptance suite need, each with its pinned invariants.
"""

import re
from collections import namedtuple

from . import intmat
from .codes import BinaryCode, hamming8, make_code, repetition_code, rm14, zero_code
from .constrb import _construction_b
from .errors import ParseError, UnknownName, quoted
from .lattice import Lattice, direct_sum, rescale

# Largest size argument of A<n>, D<n>, Z<n>, zero(n), rep(n), code(n, ...),
# and largest rank of a direct sum, a gram(...) literal or a file's Gram
# matrix.  A cold ``analyze`` of a root lattice grows about as n^4: on a
# 2-core machine A128 took 5 s and D128 8 s, while D144 took 10 s and D160
# 15 s.
SIZE_LIMIT = 128
# Deepest nesting of parentheses, scalings and lb(...): each level costs
# the parser a few stack frames, and Python allows about a thousand.
DEPTH_LIMIT = 100

_TOKEN_RE = re.compile(r"\s*(?:(?P<word>[0-9]*[A-Za-z][A-Za-z0-9]*)"
                       r"|(?P<int>-?[0-9]+)"
                       r"|(?P<sym>[+*(),\[\]]))")


def _tokenize(text):
    """(kind, text, position) for each token, then ("end", None, len(text)).
    A symbol is its own kind; an int keeps its digits as written, so that
    a code word keeps its leading zeros."""
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            raise ParseError("unexpected character %r" % stripped[0],
                             position=len(text) - len(stripped))
        kind, tok = m.lastgroup, m.group(m.lastgroup)
        tokens.append((tok if kind == "sym" else kind, tok, m.start(kind)))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


def _int(digits, pos):
    """int(digits), or a ParseError above int()'s limit (4300 digits)."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError("integer literal too long", position=pos) from None


def _check_rank(rank, pos=None):
    """Refuse a lattice of rank above SIZE_LIMIT before it is built."""
    if rank > SIZE_LIMIT:
        raise ParseError("rank %d exceeds the limit %d" % (rank, SIZE_LIMIT),
                         position=pos)


def _size(digits, pos):
    """The integer written as ``digits``, refused above SIZE_LIMIT."""
    if (len(digits.lstrip("0")) > len(str(SIZE_LIMIT))
            or int(digits) > SIZE_LIMIT):
        raise ParseError("size argument exceeds the limit %d" % SIZE_LIMIT,
                         position=pos)
    return int(digits)


def _cartan_a(n):
    g = [[0] * n for _ in range(n)]
    for i in range(n):
        g[i][i] = 2
        if i + 1 < n:
            g[i][i + 1] = g[i + 1][i] = -1
    return Lattice(g)


def _embedding_lattice(rows, den=1):
    """Lattice of the span of the integer rows / den under the dot product."""
    basis = intmat.hnf(rows, len(rows[0]))
    return Lattice([[intmat.dot(bi, bj) // (den * den)
                     for bj in basis] for bi in basis])


def _d_rows(n):
    rows = []
    for i in range(n - 1):
        r = [0] * n
        r[i], r[i + 1] = 1, -1
        rows.append(r)
    r = [0] * n
    r[n - 2], r[n - 1] = 1, 1
    rows.append(r)
    return rows


def _d_lattice(n):
    if n < 2:
        raise UnknownName("D%d is not defined" % n)
    return _embedding_lattice(_d_rows(n))


def _glued_d(n):
    rows = [[2 * x for x in r] for r in _d_rows(n)]
    rows.append([1] * n)
    return _embedding_lattice(rows, 2)


def _z_lattice(n):
    return Lattice([[int(i == j) for j in range(n)] for i in range(n)])


_NAMED = {"2A1": lambda: Lattice([[8]]), "E8": lambda: _glued_d(8),
          "Gamma16": lambda: _glued_d(16), "hamming8": hamming8, "rm14": rm14}
_SIZED = {"A": _cartan_a, "D": _d_lattice, "Z": _z_lattice}


def _atom_from_word(word, pos):
    if word in _NAMED:
        return _NAMED[word]()
    m = re.fullmatch(r"([ADZ])([0-9]+)", word)
    if m:
        return _SIZED[m.group(1)](_size(m.group(2), pos))
    raise UnknownName("unknown name %s" % quoted(word), position=pos)


def _lb(code, pos):
    if not isinstance(code, BinaryCode):
        raise ParseError("lb(...) needs a code", position=pos)
    return _construction_b(code)[0]


# What each call builds from its argument once its ')' is read, naming pos
# in its errors; "(" is the group (expr).
_CALLS = {"(": lambda value, pos: value, "lb": _lb,
          "gram": lambda rows, pos: Lattice(rows),
          "zero": lambda digits, pos: zero_code(_size(digits, pos)),
          "rep": lambda digits, pos: repetition_code(_size(digits, pos)),
          "code": lambda args, pos: make_code(args[0], args[1:])}


class _Parser:
    """Recursive descent: take() reads a token of a wanted kind, listed()
    a comma list, factor() a call; self.pos is the last token's position."""

    def __init__(self, text):
        self.tokens = _tokenize(text)
        self.i = 0
        self.depth = 0

    def skip(self, kind):
        """Read the next token if it is of this kind; whether it was."""
        found = self.tokens[self.i][0] == kind
        if found:
            self.take(None, kind)
        return found

    def take(self, message, *kinds):
        """The next token's text, refused with message unless its kind is
        one of kinds."""
        kind, text, self.pos = self.tokens[self.i]
        if kind not in kinds:
            raise ParseError(message, position=self.pos)
        self.i += 1
        return text

    def listed(self, item, close, first=None):
        """Yield first() (item() by default), then item() after each ',',
        reading the list through its close symbol."""
        yield (first or item)()
        while self.take("expected ',' or %r" % close, ",", close) == ",":
            yield item()

    def nested(self, parse, pos):
        """parse() one level deeper, refused past DEPTH_LIMIT levels."""
        if self.depth == DEPTH_LIMIT:
            raise ParseError("nesting deeper than %d levels" % DEPTH_LIMIT,
                             position=pos)
        self.depth += 1
        value = parse()
        self.depth -= 1
        return value

    def parse(self):
        value = self.expr()
        self.take("trailing input", "end")
        return value

    def expr(self):
        terms = [self.term()]
        while self.skip("+"):
            pos = self.pos
            rhs = self.term()
            if not isinstance(terms[-1], Lattice) or not isinstance(rhs, Lattice):
                raise ParseError("direct sum needs two lattices", position=pos)
            terms.append(rhs)
            # the summands are built, their sum only once the ranks fit
            _check_rank(sum(t.rank for t in terms), pos)
        return terms[0] if len(terms) == 1 else direct_sum(*terms)

    def term(self):
        kind, val, pos = self.tokens[self.i]
        if (kind == "int" or val == "sqrt2") and (
                self.tokens[self.i + 1][0] == "*"):
            self.i += 2
            inner = self.nested(self.term, pos)
            if not isinstance(inner, Lattice):
                raise ParseError("scaling needs a lattice", position=pos)
            if kind == "word":
                return rescale(inner, 2)
            k = _int(val, pos)
            if k <= 0:
                raise ParseError("scale factor must be positive", position=pos)
            return rescale(inner, k * k)
        return self.factor()

    def factor(self):
        """A name, or a call of _CALLS: its '(', its argument, its ')'."""
        name = self.take("expected a name or '('", "word", "(")
        pos = self.pos
        if name != "(" and not self.skip("("):
            if name == "gram":      # not a name: a bare gram wants its '('
                self.take("expected '('", "(")
            return _atom_from_word(name, pos)
        if name not in _CALLS:
            raise ParseError("%s is not a constructor" % quoted(name),
                             position=pos)
        if name in ("(", "lb"):
            arg = self.nested(self.expr, pos)
        elif name == "gram":
            self.take("expected '['", "[")
            arg = []
            for row in self.listed(self.row, "]"):
                arg.append(row)
                _check_rank(len(arg), self.pos)     # at the row's ']'
        elif name == "code":    # its list reads the call's ')'
            return _CALLS[name](list(self.listed(self.word, ")", self.length)),
                                pos)
        else:
            arg = self.take("expected an integer", "int")
            pos = self.pos
        self.take("expected ')'", ")")
        return _CALLS[name](arg, pos)

    def row(self):
        self.take("expected '['", "[")
        return list(self.listed(lambda: _int(
            self.take("expected an integer entry", "int"), self.pos), "]"))

    def length(self):
        return _size(self.take("expected the code length", "int"), self.pos)

    def word(self):
        word = self.take("expected a 0/1 word", "int")
        if set(word) - {"0", "1"}:
            raise ParseError("expected a 0/1 word", position=self.pos)
        return word


def parse_spec(text):
    """Evaluate a constructor expression to a Lattice or BinaryCode."""
    return _Parser(text).parse()


def lattice_from_file(path):
    import json     # only here: a spec that is an expression needs no json

    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:
        # unreadable, not UTF-8 (UnicodeDecodeError), not JSON or nested
        # past the decoder's depth
        raise ParseError("cannot read %s: %s" % (path, exc)) from exc
    if not isinstance(doc, dict):
        raise ParseError("input file must hold a JSON object")
    if "gram" not in doc:
        raise ParseError("input file needs a 'gram' field")
    gram = doc["gram"]
    if not (isinstance(gram, list)
            and all(isinstance(row, list) for row in gram)):
        raise ParseError("'gram' must be a list of integer lists")
    _check_rank(len(gram))
    return Lattice(gram)


class CatalogEntry(namedtuple("CatalogEntry",
                              "name kind constructor expected")):
    """kind: "lattice" | "code" | "odd"; expected: the pinned invariants."""
    __slots__ = ()

    def build(self):
        return parse_spec(self.constructor)


CATALOG = (
    # even lattices, ranks 1..16
    CatalogEntry("A1", "lattice", "A1",
                 {"rank": 1, "det": 2, "roots": 2, "frame_cosets": 0,
                  "orbit_size": 1, "exceeds": False}),
    CatalogEntry("2A1", "lattice", "2A1",
                 {"rank": 1, "det": 8, "roots": 0, "frame_cosets": 1,
                  "orbit_size": 3, "stabilizer_order": 2, "aut_order": 6,
                  "exceeds": True}),
    CatalogEntry("sqrt2A1", "lattice", "sqrt2*A1",
                 {"rank": 1, "det": 4, "roots": 0, "frame_cosets": 0,
                  "orbit_size": 1, "stabilizer_order": 2, "aut_order": 2,
                  "exceeds": False}),
    CatalogEntry("A2", "lattice", "A2",
                 {"rank": 2, "det": 3, "roots": 6, "frame_cosets": 0,
                  "orbit_size": 1, "exceeds": False}),
    CatalogEntry("sqrt2A1A1", "lattice", "sqrt2*(A1+A1)",
                 {"rank": 2, "det": 16, "roots": 0, "frame_cosets": 1,
                  "orbit_size": 3, "stabilizer_order": 16, "aut_order": 48,
                  "exceeds": True}),
    CatalogEntry("A3", "lattice", "A3",
                 {"rank": 3, "det": 4, "roots": 12, "frame_cosets": 0,
                  "orbit_size": 1, "exceeds": False}),
    CatalogEntry("sqrt2A3", "lattice", "sqrt2*A3",
                 {"rank": 3, "det": 32, "roots": 0, "frame_cosets": 1,
                  "orbit_size": 3, "stabilizer_order": 192, "aut_order": 576,
                  "exceeds": True}),
    CatalogEntry("D4", "lattice", "D4",
                 {"rank": 4, "det": 4, "roots": 24, "frame_cosets": 0,
                  "orbit_size": 1, "exceeds": False}),
    CatalogEntry("A2A2", "lattice", "A2+A2",
                 {"rank": 4, "det": 9, "roots": 12, "frame_cosets": 0,
                  "orbit_size": 1, "exceeds": False}),
    CatalogEntry("lbzero4", "lattice", "lb(zero(4))",
                 {"rank": 4, "det": 64, "roots": 0, "exceeds": True,
                  "cond_a": False, "cond_b": False, "cond_c": False}),
    CatalogEntry("D8", "lattice", "D8",
                 {"rank": 8, "det": 4, "roots": 112, "exceeds": True,
                  "cond_a": True, "twisted_sign": "-"}),
    CatalogEntry("lbhamming8", "lattice", "lb(hamming8)",
                 {"rank": 8, "det": 4, "roots": 112, "exceeds": True,
                  "cond_a": True, "twisted_sign": "-"}),
    CatalogEntry("lbrep8", "lattice", "lb(rep(8))",
                 {"rank": 8, "det": 256, "roots": 0, "exceeds": True,
                  "cond_a": True, "twisted_sign": "-", "twisted_count": 256}),
    CatalogEntry("E8", "lattice", "E8",
                 {"rank": 8, "det": 1, "roots": 240, "frame_cosets": 0,
                  "orbit_size": 2, "exceeds": True, "cond_a": False,
                  "cond_b": False, "cond_c": True, "twisted_sign": "-",
                  "twisted_count": 1}),
    CatalogEntry("D16", "lattice", "D16",
                 {"rank": 16, "det": 4, "roots": 480, "frame_cosets": 0,
                  "orbit_size": 1, "exceeds": False}),
    CatalogEntry("lbrm14", "lattice", "lb(rm14)",
                 {"rank": 16, "det": 256, "roots": 0, "exceeds": True,
                  "cond_a": False, "cond_b": True, "cond_c": False,
                  "twisted_sign": "+"}),
    CatalogEntry("E8E8", "lattice", "E8+E8",
                 {"rank": 16, "det": 1, "roots": 480, "frame_cosets": 0,
                  "orbit_size": 1, "exceeds": False}),
    CatalogEntry("Gamma16", "lattice", "Gamma16",
                 {"rank": 16, "det": 1, "roots": 480, "frame_cosets": 0,
                  "orbit_size": 1, "exceeds": False}),
    # odd lattices, reported through their even part
    CatalogEntry("Z1", "odd", "Z1", {"rank": 1, "even_part_det": 4}),
    CatalogEntry("Z2", "odd", "Z2", {"rank": 2, "even_part_det": 4}),
    # codes
    CatalogEntry("zero1", "code", "zero(1)",
                 {"dim": 0, "doubly_even": True, "all_one": False}),
    CatalogEntry("zero4", "code", "zero(4)",
                 {"dim": 0, "doubly_even": True, "all_one": False}),
    CatalogEntry("rep4", "code", "rep(4)",
                 {"dim": 1, "doubly_even": True, "all_one": True}),
    CatalogEntry("rep8", "code", "rep(8)",
                 {"dim": 1, "doubly_even": True, "all_one": True,
                  "weights": {0: 1, 8: 1}}),
    CatalogEntry("hamming8", "code", "hamming8",
                 {"dim": 4, "doubly_even": True, "all_one": True,
                  "weights": {0: 1, 4: 14, 8: 1}}),
    CatalogEntry("rm14", "code", "rm14",
                 {"dim": 5, "doubly_even": True, "all_one": True,
                  "weights": {0: 1, 8: 30, 16: 1}}),
)
