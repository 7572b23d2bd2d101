"""The value types: immutable, compared and hashed by value, built by keyword
with their defaults."""

import copy
import math
import pickle
from fractions import Fraction

import pytest

from voaplus import hamming8, parse_spec
from voaplus.catalog import CatalogEntry
from voaplus.codes import BinaryCode
from voaplus.constrb import (Frame, FrameCosets, FrameDecomposition,
                             StructuralCosets)
from voaplus.lattice import Coset
from voaplus.orbit import FusionSpace, ModuleClass, OrbitReport
from voaplus.report import AutReport, OddReport
from voaplus.selftest import Check


def _coset(*rep):
    rep = [Fraction(x) for x in rep]
    den = math.lcm(*(x.denominator for x in rep))
    return Coset(den=den, nums=tuple(int(x * den) for x in rep), order2=True)


def _frame_cosets():
    return FrameCosets(cosets=(_coset("1/2", 0),), counts=(4,), bound=4)


def _orbit():
    return OrbitReport(classes=(ModuleClass("signed", _coset(0, 0), "-"),),
                       frame_coset_set=_frame_cosets(), twisted_sign=None,
                       twisted_count=0, cond_a=False, cond_b=False,
                       cond_c=False)


def _aut_report():
    return AutReport(
        lattice=parse_spec("2A1"), rank=1, det=8, root_count=0,
        is_2_elementary=False, is_totally_even=True,
        frame_coset_set=_frame_cosets(), decompositions=(), orbit=_orbit(),
        fusion=None, orbit_size=3, index_over_stabilizer=3, isometry_order=2,
        stabilizer_order=2, stabilizer_reason=None, aut_order=6,
        exceeds_stabilizer=True, notes=("a note",))


# every value type with field values that build equal, distinct instances
SAMPLES = {
    "Coset": lambda: _coset("1/2", 0),
    "BinaryCode": lambda: BinaryCode(length=8, basis=(255,)),
    "FrameCosets": _frame_cosets,
    "Frame": lambda: Frame(rows=((1,),), pairings=((4,),)),
    "FrameDecomposition": lambda: FrameDecomposition(
        coset=_coset("1/2"), rows=((1,),), code=BinaryCode(1, ()),
        signs=(1,)),
    "StructuralCosets": lambda: StructuralCosets(twist_plus=_coset(0),
                                                 twist_minus=None),
    "ModuleClass": lambda: ModuleClass(kind="plain", coset=_coset("1/3")),
    "OrbitReport": _orbit,
    "FusionSpace": lambda: FusionSpace(size=4, dim=2, gl_order=6),
    "AutReport": _aut_report,
    "OddReport": lambda: OddReport(
        lattice=parse_spec("Z1"), even_part=parse_spec("2A1"),
        even_basis=((2,),), odd_rep=(1,), odd_rep_norm=1,
        odd_coset=_coset("1/2"), odd_coset_in_orbit=True,
        even_report=_aut_report(), aut_order=4),
    "CatalogEntry": lambda: CatalogEntry("A1", "lattice", "A1", {"rank": 1}),
    "Check": lambda: Check(name="x.rank", ok=False, detail="got 2"),
}

FIELDS = {
    "Coset": ("den", "nums", "order2"),
    "BinaryCode": ("length", "basis"),
    "FrameCosets": ("cosets", "counts", "bound"),
    "Frame": ("rows", "pairings"),
    "FrameDecomposition": ("coset", "rows", "code", "signs"),
    "StructuralCosets": ("twist_plus", "twist_minus"),
    "ModuleClass": ("kind", "coset", "sign", "count"),
    "OrbitReport": ("classes", "frame_coset_set", "twisted_sign",
                    "twisted_count", "cond_a", "cond_b", "cond_c"),
    "FusionSpace": ("size", "dim", "gl_order"),
    "AutReport": ("lattice", "rank", "det", "root_count", "is_2_elementary",
                  "is_totally_even", "frame_coset_set", "decompositions",
                  "orbit", "fusion", "orbit_size", "index_over_stabilizer",
                  "isometry_order", "stabilizer_order", "stabilizer_reason",
                  "aut_order", "exceeds_stabilizer", "notes"),
    "OddReport": ("lattice", "even_part", "even_basis", "odd_rep",
                  "odd_rep_norm", "odd_coset", "odd_coset_in_orbit",
                  "even_report", "aut_order"),
    "CatalogEntry": ("name", "kind", "constructor", "expected"),
    "Check": ("name", "ok", "detail"),
}


@pytest.mark.parametrize("name", sorted(SAMPLES))
def test_value_type_contract(name):
    a, b = SAMPLES[name](), SAMPLES[name]()
    assert type(a).__name__ == name and a is not b
    assert a == b and not a != b
    if name == "CatalogEntry":
        # its expected field is a dict, so it never was hashable
        with pytest.raises(TypeError):
            hash(a)
    else:
        assert hash(a) == hash(b)
        assert {a: 1}[b] == 1 and len({a, b}) == 1
    # keyword construction with every field, in declared order
    kwargs = {f: getattr(a, f) for f in FIELDS[name]}
    assert type(a)(**kwargs) == a
    assert type(a)(*kwargs.values()) == a
    assert pickle.loads(pickle.dumps(a)) == a and copy.copy(a) == a
    for field in FIELDS[name]:
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        assert getattr(a, field) == getattr(b, field)


def test_value_types_differing_in_one_field_are_unequal():
    assert _coset("1/2", 0) != _coset(0, "1/2")
    assert Check("x", True) != Check("x", False)
    assert ModuleClass("twisted", sign="+") != ModuleClass("twisted", sign="-")
    other = FrameCosets(cosets=(_coset("1/2", 0),), counts=(4,), bound=6)
    assert _frame_cosets() != other
    assert len({_frame_cosets(), other}) == 2


def test_value_type_defaults_and_repr():
    m = ModuleClass(kind="twisted", sign="-", count=4)
    assert (m.kind, m.coset, m.sign, m.count) == ("twisted", None, "-", 4)
    assert m.label() == "[chi]^- x4"
    assert ModuleClass("plain", _coset(0)).count == 1
    c = Check("x", True)
    assert (c.name, c.ok, c.detail) == ("x", True, "")
    assert repr(_coset("1/2", 0)) == "Coset(den=2, nums=(1, 0), order2=True)"
    assert repr(Check("x", True)) == "Check(name='x', ok=True, detail='')"
    assert repr(BinaryCode(8, (255,))) == "BinaryCode(n=8, k=1)"
    assert repr(_frame_cosets()) == (
        "FrameCosets(cosets=(Coset(den=2, nums=(1, 0), order2=True),), "
        "counts=(4,), bound=4)")


def test_binary_code_properties_cache():
    code = hamming8()
    assert "weight_distribution" not in vars(code)
    dist = code.weight_distribution
    assert dist == {0: 1, 4: 14, 8: 1}
    assert code.weight_distribution is dist
    assert "weight_distribution" in vars(code)
    assert "is_doubly_even" not in vars(code)
    assert code.is_doubly_even is True
    assert vars(code)["is_doubly_even"] is True
    # a second, equal code computes its own values
    again = hamming8()
    assert again == code and "weight_distribution" not in vars(again)
