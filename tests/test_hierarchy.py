import time

import pytest
from hypothesis import given, settings

from czfkit.corpus import bounded_formulas
from czfkit.formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Ex, Imp, Or,
    is_bounded, neg, parse, subformulas,
)
from czfkit.hierarchy import (
    HierarchyError, Side, _check_atoms, classify, in_level,
)
from test_formula import self_conjunctions, walk_corpus
from test_properties import formulas


def levels(text, extra=frozenset()):
    sigma, pi = classify(parse(text), extra)
    return sigma.level, pi.level


def test_bounded_is_level_zero():
    assert in_level(parse("x in y"), Side.SIGMA, 0)
    assert in_level(parse("x in y"), Side.PI, 0)
    assert levels("x in y") == (0, 0)
    assert levels("false") == (0, 0)


def test_unbounded_exists():
    f = parse("ex x. x in y")
    assert in_level(f, Side.SIGMA, 1)
    assert not in_level(f, Side.PI, 1)
    assert levels("ex x. x in y") == (1, 2)


def test_unbounded_forall():
    assert levels("all x. x in y") == (2, 1)


def test_alternation_classifications():
    # nested alternations
    assert levels("all x. ex y. x in y")[1] == 2
    assert levels("ex x. all y. y in x -> y = y")[0] == 2


def test_negated_exists():
    # the antecedent clause forces the Sigma side up by two
    assert levels("~(ex x. x in y)") == (3, 2)


def test_implication_clause():
    # Sigma_1 antecedent with bounded consequent is Pi_2
    assert levels("(ex x. x in y) -> y = y")[1] == 2


def test_upward_closure():
    for text in ["x in y", "ex x. x in y", "all x. ex y. x in y",
                 "~(ex x. x in y)"]:
        f = parse(text)
        sigma, pi = classify(f)
        for n in range(sigma.level, sigma.level + 3):
            assert in_level(f, Side.SIGMA, n)
        for n in range(pi.level, pi.level + 3):
            assert in_level(f, Side.PI, n)
        if sigma.level > 0:
            assert not in_level(f, Side.SIGMA, sigma.level - 1)
        if pi.level > 0:
            assert not in_level(f, Side.PI, pi.level - 1)


def test_delta0_coincides_with_is_bounded():
    corpus = bounded_formulas(2, 2, limit=150)
    corpus += [parse("ex x. x in y"), parse("all x. x = x"),
               parse("all x in y. ex z. z in x")]
    for f in corpus:
        assert in_level(f, Side.SIGMA, 0) == is_bounded(f)
        assert in_level(f, Side.PI, 0) == is_bounded(f)


def test_totality_on_corpus():
    for f in bounded_formulas(2, 2, limit=100):
        sigma, pi = classify(f)
        assert sigma.level == 0 and pi.level == 0


def test_big_connectives_rejected():
    with pytest.raises(HierarchyError):
        classify(parse("bigand [x = x, false]"))


def test_class_atoms_need_declaration():
    f = parse("x in M")
    with pytest.raises(HierarchyError):
        classify(f)
    assert levels("x in M", extra=frozenset({"M"})) == (0, 0)


def test_bounded_quantifier_transparency():
    assert levels("all y in z. ex x. x in y") == (1, 2)
    assert levels("ex y in z. all x. x in y") == (2, 1)


# The two mirrored recursions the single one replaced, kept as the reference.
def _ref_in_sigma(f, n, memo):
    key = (f, Side.SIGMA, n)
    if key in memo:
        return memo[key]
    if n == 0:
        result = is_bounded(f)
    elif _ref_in_pi(f, n - 1, memo):
        result = True
    else:
        match f:
            case And(l, r) | Or(l, r):
                result = _ref_in_sigma(l, n, memo) and _ref_in_sigma(r, n, memo)
            case BoundedAll(_, _, body) | BoundedEx(_, _, body):
                result = _ref_in_sigma(body, n, memo)
            case Ex(_, body):
                result = _ref_in_sigma(body, n, memo)
            case _:
                result = False
    memo[key] = result
    return result


def _ref_in_pi(f, n, memo):
    key = (f, Side.PI, n)
    if key in memo:
        return memo[key]
    if n == 0:
        result = is_bounded(f)
    elif _ref_in_sigma(f, n - 1, memo):
        result = True
    else:
        match f:
            case And(l, r) | Or(l, r):
                result = _ref_in_pi(l, n, memo) and _ref_in_pi(r, n, memo)
            case Imp(l, r):
                result = _ref_in_sigma(l, n - 1, memo) and _ref_in_pi(r, n, memo)
            case BoundedAll(_, _, body) | BoundedEx(_, _, body):
                result = _ref_in_pi(body, n, memo)
            case All(_, body):
                result = _ref_in_pi(body, n, memo)
            case _:
                result = False
    memo[key] = result
    return result


_REF = {Side.SIGMA: _ref_in_sigma, Side.PI: _ref_in_pi}


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_one_recursion_matches_the_mirrored_reference(f):
    if any(isinstance(g, (BigAnd, BigOr)) for g in subformulas(f)):
        with pytest.raises(HierarchyError):
            classify(f)
        for side in Side:
            with pytest.raises(HierarchyError):
                in_level(f, side, 1)
        return
    memo = {}
    for result in classify(f):
        member = _REF[result.side]
        assert member(f, result.level, memo)
        assert result.level == 0 or not member(f, result.level - 1, memo)
    for side in Side:
        for n in range(4):
            assert in_level(f, side, n) == _REF[side](f, n, memo)


# The memoized three-argument recursion and upward level search that the
# one-pass fold replaced, kept as the reference for the levels it computes.
_DUAL = {Side.SIGMA: Side.PI, Side.PI: Side.SIGMA}


def _ref_in(f, side, n, memo):
    key = (f, side, n)
    if key in memo:
        return memo[key]
    if n == 0:
        result = is_bounded(f)
    elif _ref_in(f, _DUAL[side], n - 1, memo):
        result = True
    else:
        match f:
            case And(l, r) | Or(l, r):
                result = (_ref_in(l, side, n, memo)
                          and _ref_in(r, side, n, memo))
            case BoundedAll(_, _, body) | BoundedEx(_, _, body):
                result = _ref_in(body, side, n, memo)
            case Ex(_, body) if side is Side.SIGMA:
                result = _ref_in(body, side, n, memo)
            case All(_, body) if side is Side.PI:
                result = _ref_in(body, side, n, memo)
            case Imp(l, r) if side is Side.PI:
                result = (_ref_in(l, Side.SIGMA, n - 1, memo)
                          and _ref_in(r, side, n, memo))
            case _:
                result = False
    memo[key] = result
    return result


def _ref_levels(f, memo):
    cap = 1 + sum(1 for _ in subformulas(f))
    return tuple(next(n for n in range(cap + 1) if _ref_in(f, side, n, memo))
                 for side in Side)


def _assert_matches_reference(f, memo):
    levels = _ref_levels(f, memo)
    sigma, pi = classify(f)
    assert (sigma.level, pi.level) == levels, f
    for side, level in zip(Side, levels):
        for n in range(level + 3):
            assert in_level(f, side, n) == _ref_in(f, side, n, memo), (f, n)


def test_fold_matches_reference_on_criterion_7_population():
    corpus = bounded_formulas(2, 3, limit=150)
    corpus += [Ex("z", f) for f in corpus[:40]]
    corpus += [All("z", f) for f in corpus[:40]]
    corpus += [neg(Ex("z", f)) for f in corpus[:20]]
    memo = {}
    for f in corpus:
        _assert_matches_reference(f, memo)


@settings(max_examples=300, deadline=None)
@given(formulas)
def test_fold_matches_reference_on_random_formulas(f):
    if not any(isinstance(g, (BigAnd, BigOr)) for g in subformulas(f)):
        _assert_matches_reference(f, {})


def test_negated_exists_levels():
    f = parse("ex x. x = x")
    memo = {}
    _assert_matches_reference(f, memo)
    for n in range(1, 51):
        f = neg(f)
        sigma, pi = classify(f)
        assert (sigma.level, pi.level) == (2 * n + 1, 2 * n)
        _assert_matches_reference(f, memo)


def test_deep_negations_without_recursion():
    f = parse("ex x. x = x")
    for _ in range(600):
        f = neg(f)
    sigma, pi = classify(f)
    assert (sigma.level, pi.level) == (1201, 1200)
    assert in_level(f, Side.PI, 1200) and not in_level(f, Side.PI, 1199)


def _check_atoms_reference(f, extra):
    """The first error of a walk over every occurrence, or None."""
    for g in subformulas(f):
        if isinstance(g, (BigAnd, BigOr)):
            return "hierarchy is defined for finitary formulas only"
        if isinstance(g, ClassMem) and g.cls not in extra:
            return (f"class atom over undeclared symbol {g.cls}; "
                    "pass it in extra")
    return None


def test_check_atoms_matches_the_walk_over_every_occurrence():
    seen = set()
    for f in walk_corpus():
        for extra in (frozenset(), frozenset({"C"}), frozenset({"C", "D"})):
            want = _check_atoms_reference(f, extra)
            seen.add(want)
            if want is None:
                _check_atoms(f, extra)
            else:
                with pytest.raises(HierarchyError) as e:
                    _check_atoms(f, extra)
                assert str(e.value) == want
    assert len(seen) == 4  # no error, a big connective, C and D undeclared


def test_check_atoms_and_classify_cost_the_distinct_nodes():
    f = self_conjunctions(parse("ex x. x = x"), 20)
    started = time.perf_counter()
    _check_atoms(f, frozenset())
    assert time.perf_counter() - started < 0.5
    started = time.perf_counter()
    sigma, pi = classify(f)
    assert time.perf_counter() - started < 0.5
    assert (sigma.level, pi.level) == (1, 2)
