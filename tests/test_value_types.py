"""The value types subclass ``errors.Value``, one small tuple base, and
behave as the ``typing.NamedTuple`` classes and the frozen dataclasses
before it did: the hash of their field tuple (which keeps set and dict
orders), the same repr text, immutable fields and no other attributes, the
same conversion when built, copies and pickles of the same type and value,
and ``_replace``.  The checks that ``Chain`` and ``HeckeDatum`` run when
built are pinned in test_engine.py and test_hecke.py."""

import copy
import math
import pickle

import pytest

from siegelstrata import (ClassTerm, GradedVirtualRep, GroupContext, GSp,
                          HeckeDatum, HeckeMatrixStructure, InputError,
                          ParabolicData, Summand, SymbolicClass, Weight,
                          build_context, parabolic_data)
from siegelstrata.arith import GroupKind
from siegelstrata.engine import Chain

SUMMAND = Summand(0, Weight((2, 1), 0))
MODULE = GradedVirtualRep((SUMMAND,))
SUMMAND_REPR = "Summand(degree=0, levi=Weight(a=(2, 1), m0=0), mult=1)"
MODULE_REPR = f"GradedVirtualRep(summands=({SUMMAND_REPR},))"
TERM_REPR = f"ClassTerm(coefficient=1, S=(0,), module={MODULE_REPR})"

# One instance of each type, with the repr the dataclasses printed.
CASES = [
    (GroupKind, GSp(4), "GroupKind(family='GSp', param=4)"),
    (Chain, Chain(((1, 3), (0, -math.inf))), "Chain(entries=((1, 3), (0, -inf)))"),
    (ClassTerm, ClassTerm(1, (0,), MODULE), TERM_REPR),
    (SymbolicClass, SymbolicClass((ClassTerm(1, (0,), MODULE),)),
     f"SymbolicClass(terms=({TERM_REPR},))"),
    (GroupContext, build_context(1, 3),
     "GroupContext(d=1, n=3, positiveRoots=(Weight(a=(2,), m0=-1),), "
     "rho=Weight(a=(1,), m0=0), weylOrder=2, dimG=4, c=1, stratumDims=(1, 0))"),
    (ParabolicData, parabolic_data(build_context(1, 3), (0,)),
     "ParabolicData(S=(0,), r=0, leviBlocks=(1,), "
     "blockRanges=((0, 1),), nRoots=(Weight(a=(2,), m0=-1),), dimN=1)"),
    (HeckeDatum, HeckeDatum(1, 3, 6), "HeckeDatum(d=1, n=3, m=6)"),
    (HeckeMatrixStructure, HeckeMatrixStructure(((((1, 0), (0, 1)),),), ((0, 0, 1),)),
     "HeckeMatrixStructure(classes=((((1, 0), (0, 1)),),), entries=((0, 0, 1),))"),
    (Weight, Weight((1, 2), 3), "Weight(a=(1, 2), m0=3)"),
    (Summand, SUMMAND, SUMMAND_REPR),
    (GradedVirtualRep, MODULE, MODULE_REPR),
]


EACH_CASE = pytest.mark.parametrize("cls, value, text", CASES,
                                    ids=[c[0].__name__ for c in CASES])


@EACH_CASE
def test_value_type_contract(cls, value, text):
    assert type(value) is cls
    assert hash(value) == hash(tuple(value))
    assert repr(value) == text
    with pytest.raises(AttributeError):
        setattr(value, value._fields[0], None)
    with pytest.raises(AttributeError):
        value.not_a_field = None


@EACH_CASE
def test_copies_and_pickles_are_the_same_value(cls, value, text):
    for twin in (copy.copy(value), copy.deepcopy(value),
                 pickle.loads(pickle.dumps(value))):
        assert type(twin) is cls and twin == value and repr(twin) == text


@EACH_CASE
def test_constructor_takes_the_fields_in_order_or_by_name(cls, value, text):
    assert cls(*value) == cls(**dict(zip(cls._fields, value))) == value
    with pytest.raises(TypeError):
        cls(*value, None)
    with pytest.raises(TypeError):
        cls()


@EACH_CASE
def test_replace(cls, value, text):
    first, last = cls._fields[0], cls._fields[-1]
    same = value._replace(**{last: getattr(value, last)})
    assert type(same) is cls and same == value
    assert value._replace(**{first: getattr(value, first)}) == value
    with pytest.raises(ValueError):
        value._replace(not_a_field=None)


def test_every_value_type_is_covered():
    assert len({c[0] for c in CASES}) == 11


def test_weight_coerces_entries_to_int():
    w = Weight([2, 1], 1)
    assert w.a == (2, 1)
    assert all(type(x) is int for x in w.a)
    assert Weight([1]) == Weight((1,), 0)
    # a float or a bool is refused, not truncated (1.7 -> 1) or read as 0/1
    for a, m0 in [((1.7, 0.2), 0), ((1,), 0.5), ((2, True), 1), ((1,), False)]:
        with pytest.raises(InputError):
            Weight(a, m0)

