"""The library's value types are immutable records compared by value.

Each case is a record class, its fields by name with valid values, other
valid values for the first field, and the exact repr of the record.
"""

import copy
import pickle
from fractions import Fraction
from types import SimpleNamespace

import pytest

from segrecm.cohomo import DepthReport, TwistInterval, Witness
from segrecm.errors import NotStandardGraded
from segrecm.oracle import Factor, FriendlinessReport
from segrecm.series import HilbertSeries
from segrecm.toric import ToricPresentation

CASES = [
    (ToricPresentation, {"matrix": ((1, 1),), "grading": (Fraction(1),)}, ((1, 1, 1),),
     "ToricPresentation(matrix=((1, 1),), grading=(Fraction(1, 1),))"),
    (Factor, {"name": "K[x]/(x^3)", "gens": ((1,),), "relations": ((3,),)}, "K[x]",
     "Factor(name='K[x]/(x^3)', gens=((1,),), relations=((3,),))"),
    (FriendlinessReport, {"i_lo": -1, "left_dims": (0, 1), "right_dims": (0, 2)}, 0,
     "FriendlinessReport(i_lo=-1, left_dims=(0, 1), right_dims=(0, 2))"),
    (DepthReport, {"dim": 3, "depth": 2, "witnesses": (Witness(2, (1,), None, 0),)}, 4,
     "DepthReport(dim=3, depth=2, witnesses=(Witness(q=2, subset=(1,), lo=None, hi=0),))"),
    (TwistInterval, {"lo": Fraction(-1), "hi": Fraction(2)}, Fraction(1, 2),
     "TwistInterval(lo=Fraction(-1, 1), hi=Fraction(2, 1))"),
    (HilbertSeries, {"numerator": ((0, 1), (1, 1)), "denom_power": 2}, ((0, 2),),
     "HilbertSeries(numerator=((0, 1), (1, 1)), denom_power=2)"),
]
IDS = [case[0].__name__ for case in CASES]

# the validated classes, with fields that break their invariant and the error
INVALID = {
    ToricPresentation: ({"matrix": ((2, 1),), "grading": (Fraction(1),)}, NotStandardGraded),
    DepthReport: ({"dim": 2, "depth": 3, "witnesses": ()}, ValueError),
    TwistInterval: ({"lo": Fraction(2), "hi": Fraction(1)}, ValueError),
    HilbertSeries: ({"numerator": ((0, 1),), "denom_power": -1}, ValueError),
}


def unchecked(cls, fields):
    """An instance of cls holding fields, built without running its checks."""
    record = object.__new__(cls)
    record.__dict__.update(fields)
    return record


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_repr_is_the_class_and_its_fields(cls, fields, other, text):
    assert repr(cls(*fields.values())) == text


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_equal_and_hashed_by_value(cls, fields, other, text):
    record, twin = cls(*fields.values()), cls(*fields.values())
    changed = cls(other, *list(fields.values())[1:])
    assert record == twin and not record != twin
    assert hash(record) == hash(twin) == hash(tuple(fields.values()))
    assert len({record, twin, changed}) == 2
    assert record != changed and not record == changed
    assert tuple(getattr(record, name) for name in fields) == tuple(fields.values())


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_unequal_to_another_class_with_the_same_fields(cls, fields, other, text):
    record = cls(*fields.values())
    subclass = type("Subclass", (cls,), {})
    for stranger in (subclass(*fields.values()), SimpleNamespace(**fields),
                     tuple(fields.values())):
        assert record != stranger and stranger != record
        assert not record == stranger and not stranger == record


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_fields_cannot_be_assigned_or_deleted(cls, fields, other, text):
    record = cls(*fields.values())
    for name, value in fields.items():
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert record == cls(*fields.values())


@pytest.mark.parametrize("cls, fields, other, text", CASES, ids=IDS)
def test_copy_and_pickle_round_trip(cls, fields, other, text):
    record = cls(*fields.values())
    for clone in (copy.copy(record), copy.deepcopy(record), pickle.loads(pickle.dumps(record))):
        assert type(clone) is cls and clone == record


@pytest.mark.parametrize("cls", INVALID, ids=[cls.__name__ for cls in INVALID])
def test_copy_and_pickle_run_the_checks(cls):
    fields, error = INVALID[cls]
    with pytest.raises(error):
        cls(*fields.values())
    bad = unchecked(cls, fields)
    for clone in (copy.copy, copy.deepcopy, lambda r: pickle.loads(pickle.dumps(r))):
        with pytest.raises(error):
            clone(bad)


@pytest.mark.parametrize("cls", INVALID, ids=[cls.__name__ for cls in INVALID])
def test_validated_classes_take_keywords(cls):
    fields = next(case[1] for case in CASES if case[0] is cls)
    assert cls(**fields) == cls(*fields.values())
    bad, error = INVALID[cls]
    with pytest.raises(error):
        cls(**bad)


def test_twist_interval_defaults_to_all_integers():
    interval = TwistInterval()
    assert (interval.lo, interval.hi) == (None, None)
    assert interval == TwistInterval(None, None) == TwistInterval(hi=None)
