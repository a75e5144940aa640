"""Value semantics of the package's immutable classes.

Expression nodes, equations, maps and reports are compared, hashed and
printed by their class and fields, and refuse assignment.
"""

import copy
import pickle
from fractions import Fraction as F

import pytest

from hyperode.cli import CorpusEntry
from hyperode.exactalg import RatFunc
from hyperode.invariants import Mobius
from hyperode.numverify import EvalPoint
from hyperode.odeio import (
    Add,
    Const,
    Hyp,
    LinearODE,
    Num,
    ONE,
    Pow,
    Sym,
    X,
    mul,
)
from hyperode.solutions import SolutionPair


def test_equality_is_by_class_and_fields():
    assert Num(F(1)) != Const(1)
    assert Num(F(1)) == Num(F(1))
    assert Sym() == Sym() == X
    assert Pow(X, F(1, 2)) != Pow(X, F(1, 3))
    assert EvalPoint(0.5j, 0.25) == EvalPoint(0.5j, 0.25)
    assert Mobius.from_ints(1, 2, 3, 4) != (F(1), F(2), F(3), F(4))


def test_equal_values_hash_alike_and_merge_in_mul():
    a, b = Add((X, ONE)), Add((X, ONE))
    assert a is not b and hash(a) == hash(b)
    assert len({a: 0, b: 1}) == 1
    assert hash(Sym()) == hash(X)
    assert mul(a, b) == Pow(a, F(2))
    assert mul(Pow(b, F(1, 2)), a) == Pow(a, F(3, 2))


@pytest.mark.parametrize("value, field", [
    (Num(F(1)), "value"),
    (Const(1), "index"),
    (Pow(X, F(2)), "exponent"),
    (Mobius.from_ints(1, 0, 0, 1), "a"),
    (LinearODE(RatFunc.const(0), RatFunc.const(1)), "B"),
    (EvalPoint(1j, 0.5), "z"),
])
def test_assignment_raises(value, field):
    with pytest.raises(AttributeError):
        setattr(value, field, 0)
    with pytest.raises(AttributeError):
        delattr(value, field)


def test_keyword_construction_and_defaults():
    h = Hyp(kind="1F1", upper=(F(1),), lower=(F(2),), arg=X)
    assert h == Hyp("1F1", (F(1),), (F(2),), X, False)
    assert not h.degenerate
    assert Hyp("1F1", (F(1),), (F(2),), X, degenerate=True).degenerate
    pair = SolutionPair(y1=X, y2=ONE, integral_free=True,
                        derivation_note="g1")
    assert not pair.degenerate
    assert SolutionPair(X, ONE, True, "g1", True).degenerate
    entry = CorpusEntry("c1", "y'' + y = 0")
    assert entry.expected_class is None
    assert entry.expected_integral_free is None
    entry = CorpusEntry(id="c2", ode_text="y'' = 0", expected_class="2F1")
    assert (entry.expected_class, entry.expected_integral_free) == \
        ("2F1", None)


def test_degenerate_mobius_still_rejected():
    with pytest.raises(ValueError):
        Mobius(a=F(1), b=F(2), c=F(2), d=F(4))


def test_repr_keeps_the_dataclass_text():
    assert repr(Pow(X, F(1, 2))) == \
        "Pow(base=Sym(), exponent=Fraction(1, 2))"
    assert repr(Mobius.from_ints(2, 0, 1, -1)) == (
        "Mobius(a=Fraction(2, 1), b=Fraction(0, 1), c=Fraction(1, 1), "
        "d=Fraction(-1, 1))")
    assert repr(CorpusEntry("a", "y''=0")) == (
        "CorpusEntry(id='a', ode_text=\"y''=0\", expected_class=None, "
        "expected_integral_free=None)")


def test_copy_and_pickle_rebuild_through_the_constructor():
    h = Hyp("2F1", (F(1), F(2)), (F(3),), Pow(X, F(2)), degenerate=True)
    assert copy.deepcopy(h) == h
    assert pickle.loads(pickle.dumps(h)) == h
    m = Mobius.from_ints(1, 2, 3, 4)
    assert copy.copy(m) == m
