import itertools

import pytest

from czfkit import corpus, hf
from czfkit.formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq, Ex, Falsum,
    Imp, Lit, Mem, Or, Var, free_vars, parse,
)
from czfkit.hf import EMPTY, HFSet, hfset, kpair
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


def _comprehension_reference(f, args):
    """comprehension as it was written before it built its variable names
    once per call: a fresh environment dict per tuple, from copied args."""
    n = len(args)
    out = []
    for combo in itertools.product(*(list(a) for a in args)):
        env = {f"x{i + 1}": combo[i] for i in range(n)}
        if satisfies(hf.EMPTY, f, env):
            out.append(hf.tuple_right([combo[i] for i in reversed(range(n))]))
    return HFSet(out)


def _quantified_atoms(scope):
    """Every ``all/ex y1 in x. atom`` with x in scope, whose atom compares
    two of scope, y1 and {} (one at least a variable), with free variables
    exactly scope."""
    terms = [Var(v) for v in scope] + [Var("y1"), Lit(EMPTY)]
    out = []
    for quantifier, bound, atom in itertools.product(
            (BoundedAll, BoundedEx), scope, (Eq, Mem)):
        for left, right in itertools.product(terms, repeat=2):
            if isinstance(left, Var) or isinstance(right, Var):
                f = quantifier("y1", Var(bound), atom(left, right))
                if free_vars(f) == set(scope):
                    out.append(f)
    return out


def test_comprehension_matches_reference():
    unary = [f for f in corpus.bounded_formulas(1, 3, 250)
             if free_vars(f) == {"x1"}]
    binary = _quantified_atoms(["x1", "x2"])
    assert (len(unary), len(binary)) == (222, 56)
    for f in unary:
        for a1 in V3:
            assert comprehension(f, [a1]) is \
                _comprehension_reference(f, [a1]), f
    for f in binary:
        for a1, a2 in itertools.product(V3, repeat=2):
            assert comprehension(f, [a1, a2]) is \
                _comprehension_reference(f, [a1, a2]), f


def test_comprehension_errors_match_reference():
    # arity 0 is refused up front, for a true and a false sentence alike
    for text in ("{} = {}", "{} in {}"):
        with pytest.raises(ValueError, match="arity must be at least 1"):
            comprehension(parse(text), [])
    for run in (comprehension, _comprehension_reference):
        with pytest.raises(UnassignedVariable, match="x2"):
            run(parse("x2 in x1"), [ONE])


def _eval_term_reference(t, env):
    if isinstance(t, Lit):
        return t.value
    try:
        return env[t.name]
    except KeyError:
        raise UnassignedVariable(t.name) from None


def _satisfies_reference(universe, f, env=None):
    """satisfies as it was before it dispatched by node class: one 13-case
    match, and a fresh environment dict per quantifier instance."""
    env = env or {}
    go = _satisfies_reference
    match f:
        case Falsum():
            return False
        case Eq(l, r):
            return _eval_term_reference(l, env) == _eval_term_reference(r, env)
        case Mem(l, r):
            return _eval_term_reference(l, env) in _eval_term_reference(r, env)
        case ClassMem():
            raise ValueError("class atoms have no first-order satisfaction")
        case And(l, r):
            return go(universe, l, env) and go(universe, r, env)
        case Or(l, r):
            return go(universe, l, env) or go(universe, r, env)
        case Imp(l, r):
            return (not go(universe, l, env)) or go(universe, r, env)
        case BigAnd(parts):
            return all(go(universe, p, env) for p in parts)
        case BigOr(parts):
            return any(go(universe, p, env) for p in parts)
        case BoundedAll(v, b, body):
            return all(go(universe, body, {**env, v: x})
                       for x in _eval_term_reference(b, env))
        case BoundedEx(v, b, body):
            return any(go(universe, body, {**env, v: x})
                       for x in _eval_term_reference(b, env))
        case All(v, body):
            return all(go(universe, body, {**env, v: x}) for x in universe)
        case Ex(v, body):
            return any(go(universe, body, {**env, v: x}) for x in universe)
    raise TypeError(f"not a formula: {f!r}")


def _outcome(check, universe, f, env):
    """check's verdict, or the type of what it raised; env must be left as
    it was."""
    before = dict(env)
    try:
        out = check(universe, f, env)
    except (UnassignedVariable, ValueError, TypeError) as e:
        out = type(e)
    assert env == before, f
    return out


def test_satisfies_matches_the_match_reference():
    unary = [f for f in corpus.bounded_formulas(1, 3, 250)
             if free_vars(f) == {"x1"}]
    binary = [f for f in corpus.bounded_formulas(2, 2, 120)
              if free_vars(f) <= {"x1", "x2"}]
    atoms = [parse(t) for t in ("x1 in x2", "x2 in x1", "x1 = x2", "false")]
    big = [c(tuple(atoms[:n])) for c in (BigAnd, BigOr) for n in (2, 3, 4)]
    big += [BigOr((BigAnd(tuple(atoms[:2])),
                   Ex("y", BigAnd((parse("y in x1"), *atoms[1:3])))))]
    unbounded = [parse(t) for t in (
        "ex y. y in x1", "all y. y in x1 -> y in x2",
        "all y. ex z. y in z & z in x2", "ex y. all z. z in y -> z = x1",
        "all x1. ex x2. x1 in x2", "ex x1. x1 = x2 & all x2. x2 in x1")]
    shadowing = [parse(t) for t in (
        "ex x1 in x1. x1 = x1", "all x1 in x1. false",
        "ex x1 in x2. all x2 in x1. x2 in x1", "all x2 in x1. x2 = x1",
        "(ex x1 in x2. x1 = x1) & x1 in x2")]
    assert (len(unary), len(binary)) == (222, 120)
    checked = 0
    for f in unary + binary + big + unbounded + shadowing:
        for a1, a2 in itertools.product(V3, repeat=2):
            env = {"x1": a1} if f in unary else {"x1": a1, "x2": a2}
            assert _outcome(satisfies, V3, f, env) \
                is _outcome(_satisfies_reference, V3, f, env), f
            checked += 1
    assert checked == 16 * (222 + 120 + len(big) + 6 + 5)


def test_satisfies_raises_as_the_match_reference():
    cases = [
        (parse("x = x"), {}),
        (parse("ex y in x. y = y"), {}),
        (parse("x1 = x1 -> x9 = x1"), {"x1": EMPTY}),
        (BigOr((parse("x1 in x1"), parse("x9 = x1"))), {"x1": EMPTY}),
        (parse("x1 in M"), {"x1": EMPTY}),
        (And(parse("x1 = x1"), parse("x1 in M")), {"x1": EMPTY}),
        (Var("x1"), {"x1": EMPTY}),
        ("x1 = x1", {}),
    ]
    for f, env in cases:
        want = _outcome(_satisfies_reference, V3, f, env)
        assert want in (UnassignedVariable, ValueError, TypeError), f
        assert _outcome(satisfies, V3, f, env) is want, f
    # a short-circuited operand raises nothing, in both
    f = parse("x1 = x1 | x9 = x1")
    assert _outcome(satisfies, V3, f, {"x1": EMPTY}) is True
    assert _outcome(_satisfies_reference, V3, f, {"x1": EMPTY}) is True
