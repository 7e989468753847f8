import pytest

from czfkit import hf
from czfkit.formula import parse
from czfkit.hf import EMPTY, hfset, kpair
from czfkit.semantics import UnassignedVariable, comprehension, satisfies


ONE = hfset(EMPTY)
V3 = hf.v_stage(3)


def test_satisfies_atoms():
    assert satisfies(V3, parse("x = y"), {"x": EMPTY, "y": EMPTY})
    assert not satisfies(V3, parse("x = y"), {"x": EMPTY, "y": ONE})
    assert satisfies(V3, parse("x in y"), {"x": EMPTY, "y": ONE})
    assert not satisfies(V3, parse("false"), {})


def test_satisfies_connectives():
    env = {"x": EMPTY, "y": ONE}
    assert satisfies(V3, parse("x in y & x = x"), env)
    assert satisfies(V3, parse("y in x | x in y"), env)
    assert satisfies(V3, parse("y in x -> false"), env)
    assert satisfies(V3, parse("~(y in x)"), env)


def test_satisfies_quantifiers_range_over_universe():
    assert satisfies(V3, parse("ex x. x in y"), {"y": ONE})
    assert not satisfies(V3, parse("ex x. x in y"), {"y": EMPTY})
    assert satisfies(V3, parse("all x. ~(x in y)"), {"y": EMPTY})
    assert satisfies(ONE, parse("all x. x = {}"), {})
    assert not satisfies(V3, parse("all x. x = {}"), {})


def test_satisfies_bounded_quantifiers_ignore_universe():
    # bounded ranges come from the bound, not the ambient universe
    assert satisfies(EMPTY, parse("all x in y. x = x"), {"y": ONE})
    assert satisfies(EMPTY, parse("ex x in y. x = x"), {"y": ONE})


def test_satisfies_literals():
    assert satisfies(V3, parse("{} in {{}}"), {})
    assert not satisfies(V3, parse("{{}} in {}"), {})


def test_unassigned_variable():
    with pytest.raises(UnassignedVariable) as e:
        satisfies(V3, parse("x = x"), {})
    assert isinstance(e.value, KeyError)
    assert str(e.value) == "unassigned variable x"


def test_comprehension_single_argument():
    a = hfset(EMPTY, ONE)
    assert comprehension(parse("x1 = x1"), [a]) == a
    assert comprehension(parse("x1 in x1"), [a]) == EMPTY
    assert comprehension(parse("x1 = {}"), [a]) == ONE


def test_comprehension_tuple_order():
    # members are right-nested tuples <x_n,...,x_1> drawn from a_n x ... x a_1
    a1, a2 = hfset(ONE), ONE
    out = comprehension(parse("x2 in x1"), [a1, a2])
    assert out == hfset(kpair(EMPTY, ONE))
