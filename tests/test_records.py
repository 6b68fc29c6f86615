"""Value semantics of the package's immutable records.

One table row per record class: how to build it, a second value that
differs in one field, the field tuple and the repr.  Every row is checked
for equality (type-strict), hashing (the hash of the field tuple, which
is what the caches key on), repr, pickling and copying, and immutability.
"""

import copy
import pickle

import numpy as np
import pytest

from ippp import Direction, Domain, EventSet, Interval, NthPointQuery, RateModel
from ippp.rate_expr import Binary, Call, Num, Step, Token, Unary, Var
from ippp.rate_model import ExpressionRate

_SRC = ExpressionRate(Num(2.0, 0), "constant rate 2")
_SRC_REPR = "ExpressionRate(expr=Num(value=2.0, position=0), description='constant rate 2')"

# class -> (arguments, arguments of an unequal value, fields, repr)
RECORDS = {
    Token: (
        ("number", "2.5", 3),
        ("number", "2.5", 4),
        ("kind", "lexeme", "position"),
        "Token(kind='number', lexeme='2.5', position=3)",
    ),
    Num: ((2.5, 0), (2.5, 1), ("value", "position"), "Num(value=2.5, position=0)"),
    Var: ((4,), (5,), ("position",), "Var(position=4)"),
    Unary: (
        ("-", Var(1), 0),
        ("-", Var(2), 0),
        ("op", "operand", "position"),
        "Unary(op='-', operand=Var(position=1), position=0)",
    ),
    Binary: (
        ("+", Num(1.0, 0), Var(4), 2),
        ("*", Num(1.0, 0), Var(4), 2),
        ("op", "left", "right", "position"),
        "Binary(op='+', left=Num(value=1.0, position=0), right=Var(position=4), position=2)",
    ),
    Call: (
        ("sin", (Var(4),), 0),
        ("cos", (Var(4),), 0),
        ("func", "args", "position"),
        "Call(func='sin', args=(Var(position=4),), position=0)",
    ),
    Step: (
        ((0.0, 1.0, 2.5), (3.0, 1.0)),
        ((0.0, 1.0, 2.5), (3.0, 2.0)),
        ("breaks", "levels"),
        "Step(breaks=(0.0, 1.0, 2.5), levels=(3.0, 1.0))",
    ),
    Interval: ((0.0, 2.5), (0.0, 3.0), ("lo", "hi"), "Interval(lo=0.0, hi=2.5)"),
    Domain: ((0.0, 5.0), (-1.0, 5.0), ("lo", "hi"), "Domain(lo=0.0, hi=5.0)"),
    ExpressionRate: (
        (Num(2.0, 0), "constant rate 2"),
        (Num(2.0, 0), "constant rate two"),
        ("expr", "description"),
        _SRC_REPR,
    ),
    RateModel: (
        (_SRC, Domain(0.0, 5.0), 4.0),
        (_SRC, Domain(0.0, 5.0), 5.0),
        ("source", "domain", "declared_bound"),
        f"RateModel(source={_SRC_REPR}, domain=Domain(lo=0.0, hi=5.0), declared_bound=4.0)",
    ),
    EventSet: (
        (Interval(0.0, 1.0), [0.5, 0.25], {"method": "demo"}),
        (Interval(0.0, 1.0), [0.5], {"method": "demo"}),
        ("window", "points", "meta"),
        "EventSet(window=[0, 1], n=2, method='demo')",
    ),
    NthPointQuery: (
        (1.0, 3, Direction.BELOW),
        (1.0, 3, Direction.ABOVE),
        ("anchor", "n", "direction"),
        "NthPointQuery(anchor=1.0, n=3, direction=<Direction.BELOW: 'below'>)",
    ),
}
CLASSES = list(RECORDS)
IDS = [cls.__name__ for cls in CLASSES]


def _fields(value):
    return tuple(getattr(value, name) for name in RECORDS[type(value)][2])


def _same(a, b):
    # field by field, arrays by value; the records' own == for the rest
    assert type(a) is type(b)
    for x, y in zip(_fields(a), _fields(b)):
        if isinstance(x, np.ndarray):
            assert np.array_equal(x, y)
        else:
            assert x == y


@pytest.mark.parametrize("cls", CLASSES, ids=IDS)
class TestRecord:
    def test_equality_is_by_value_and_type(self, cls):
        args, other, _, _ = RECORDS[cls]
        a, b = cls(*args), cls(*args)
        assert a is not b and a == b and not a != b
        assert a != cls(*other) and not a == cls(*other)
        # the same values in another class, or in the field tuple, are not equal
        assert a != _fields(a) and a.__eq__(_fields(a)) is NotImplemented
        if cls is not EventSet:
            twin = type("Twin", (cls,), {})(*args)
            assert a != twin and a.__eq__(twin) is NotImplemented

    def test_hash_is_the_hash_of_the_field_tuple(self, cls):
        a = cls(*RECORDS[cls][0])
        if cls is EventSet:
            with pytest.raises(TypeError):
                hash(a)
        else:
            assert hash(a) == hash(_fields(a)) == hash(cls(*RECORDS[cls][0]))

    def test_repr(self, cls):
        args, _, _, text = RECORDS[cls]
        assert repr(cls(*args)) == text

    @pytest.mark.parametrize(
        "clone",
        [lambda v: pickle.loads(pickle.dumps(v)), copy.copy, copy.deepcopy],
        ids=["pickle", "copy", "deepcopy"],
    )
    def test_round_trip(self, cls, clone):
        a = cls(*RECORDS[cls][0])
        b = clone(a)
        _same(a, b)
        assert repr(b) == repr(a)
        if cls is not EventSet:
            assert b == a and hash(b) == hash(a)

    def test_fields_cannot_be_set_or_deleted(self, cls):
        a = cls(*RECORDS[cls][0])
        for name in (*RECORDS[cls][2], "extra"):
            with pytest.raises(AttributeError):
                setattr(a, name, 1)
        for name in RECORDS[cls][2]:
            with pytest.raises(AttributeError):
                delattr(a, name)
        _same(a, cls(*RECORDS[cls][0]))


def test_step_keeps_its_arrays_out_of_equality_and_through_copies():
    a = Step((0.0, 1.0, 2.5), (3.0, 1.0))
    for b in (a, pickle.loads(pickle.dumps(a)), copy.copy(a), copy.deepcopy(a)):
        assert np.array_equal(b.edges, [0.0, 1.0, 2.5])
        assert np.array_equal(b.padded, [0.0, 3.0, 1.0, 0.0])
    with pytest.raises(AttributeError):
        a.edges = np.zeros(3)
    assert hash(a) == hash(((0.0, 1.0, 2.5), (3.0, 1.0)))


def test_event_set_gets_its_own_meta_and_sorted_read_only_points():
    w = Interval(0.0, 1.0)
    a, b = EventSet(w, []), EventSet(w, [])
    assert a.meta == {} and a.meta is not b.meta
    a.meta["seed"] = 1
    assert b.meta == {}
    es = EventSet(w, [0.5, 0.25], {"method": "demo"})
    assert es.points.tolist() == [0.25, 0.5] and not es.points.flags.writeable
    assert copy.deepcopy(es).meta is not es.meta
    assert copy.deepcopy(es) == es


def test_keyword_forms():
    assert RateModel(source=_SRC) == RateModel(_SRC, Domain(), None)
    assert RateModel(source=_SRC).domain == Domain() == Domain(-np.inf, np.inf)
    assert RateModel(_SRC, domain=Domain(0.0, 5.0), declared_bound=4) == RateModel(*RECORDS[RateModel][0])
    assert Domain(0.0, 5.0) == Domain(lo=0.0, hi=5.0)
    assert Interval(lo=0.0, hi=2.5) == Interval(0.0, 2.5)
    assert NthPointQuery(1.0, 3, "below") == NthPointQuery(anchor=1.0, n=3, direction=Direction.BELOW)
    assert Token(kind="number", lexeme="2.5", position=3) == Token("number", "2.5", 3)
    assert EventSet(window=Interval(0.0, 1.0), points=[0.5]).meta == {}
    assert Step(breaks=(0.0, 1.0), levels=(2.0,)) == Step((0.0, 1.0), (2.0,))


def test_validation_normalizes_fields():
    assert type(Interval(0, 1).lo) is float and type(Domain(0, 1).hi) is float
    assert RateModel(_SRC, declared_bound=4).declared_bound == 4.0
    q = NthPointQuery(np.float64(1.0), np.int64(3), "above")
    assert type(q.anchor) is float and type(q.n) is int and q.direction is Direction.ABOVE
