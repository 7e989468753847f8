"""The formula rewriters against references written case by case.

``substitute``, ``alpha_canonical``, ``relativize``, ``prover.desugar``,
``prover._skeleton`` and the bounded-quantifier case of the Goedel compiler
rebuild nodes through ``_map`` and read a bounded quantifier through
``formula.unbounded``.  The references below spell out each node kind's
fields by hand, and each builds its own guard for a bounded quantifier.
Formulas are hash-consed, so agreement is checked as identity.
"""

import gc

import pytest
from hypothesis import given

from czfkit import formula, godel, hf
from czfkit.corpus import bounded_formulas
from czfkit.formula import (
    QUANTIFIERS, All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem,
    Eq, Ex, Imp, Lit, Mem, Or, Var, alpha_canonical, class_ids, free_vars,
    is_bounded, parse, relativize, render, subformulas, substitute,
)
from czfkit.prover import _skeleton, desugar, eliminate_classes
from czfkit.translate import dn_translate
from test_formula import _concrete_formula_classes
from test_properties import PROPERTY, binders, formulas, terms


# -- the references --------------------------------------------------------


def _rebuild(g, subs):
    """The node of g's kind and other fields over the formula children
    subs."""
    match g:
        case And() | Or() | Imp():
            return type(g)(*subs)
        case BigAnd() | BigOr():
            return type(g)(tuple(subs))
        case BoundedAll() | BoundedEx():
            return type(g)(g.var, g.bound, subs[0])
        case All() | Ex():
            return type(g)(g.var, subs[0])
    return g


def _children(g, go):
    return _rebuild(g, [go(c) for c in g._subs()])


def _subst_term(t, v, r):
    return r if isinstance(t, Var) and t.name == v else t


def _rename_binder_reference(q, avoid):
    new = formula._fresh(q.var, q.body._fv | avoid)
    body = _substitute_reference(q.body, q.var, Var(new))
    if isinstance(q, (BoundedAll, BoundedEx)):
        return type(q)(new, q.bound, body)
    return type(q)(new, body)


def _substitute_reference(f, v, t):
    def go(g):
        if v not in g._fv:
            return g
        if isinstance(g, (Eq, Mem)):
            return type(g)(_subst_term(g.left, v, t),
                           _subst_term(g.right, v, t))
        if isinstance(g, ClassMem):
            return ClassMem(t, g.cls)
        if isinstance(g, (BoundedAll, BoundedEx)) and g.var == v:
            return type(g)(v, _subst_term(g.bound, v, t), g.body)
        if isinstance(g, QUANTIFIERS):
            if g.var in t._fv and v in g.body._fv:
                g = _rename_binder_reference(g, t._fv | {v})
            if isinstance(g, (BoundedAll, BoundedEx)):
                return type(g)(g.var, _subst_term(g.bound, v, t), go(g.body))
        return _children(g, go)

    return go(f)


def _alpha_canonical_reference(f):
    def go(g, depth, ren):
        def term(t):
            if isinstance(t, Var) and t.name in ren:
                return Var(ren[t.name])
            return t

        if isinstance(g, (Eq, Mem)):
            return type(g)(term(g.left), term(g.right))
        if isinstance(g, ClassMem):
            return ClassMem(term(g.element), g.cls)
        if isinstance(g, QUANTIFIERS):
            nv = f"v{depth}"
            if nv in f._fv:
                nv = formula._fresh(nv, f._fv)
            body = go(g.body, depth + 1, {**ren, g.var: nv})
            if isinstance(g, (BoundedAll, BoundedEx)):
                return type(g)(nv, term(g.bound), body)
            return type(g)(nv, body)
        return _children(g, lambda c: go(c, depth, ren))

    return go(f, 0, {})


def _relativize_reference(f, bound):
    by_class = isinstance(bound, str)
    avoid = frozenset() if by_class else bound._fv

    def go(g):
        if not isinstance(g, QUANTIFIERS):
            return _children(g, go)
        if g.var in avoid and not is_bounded(g.body):
            g = _rename_binder_reference(g, avoid)
        v, body = g.var, go(g.body)
        if isinstance(g, (BoundedAll, BoundedEx)):
            return type(g)(v, g.bound, body)
        if by_class:
            guard = ClassMem(Var(v), bound)
            if isinstance(g, All):
                return All(v, Imp(guard, body))
            return Ex(v, And(guard, body))
        quantifier = BoundedAll if isinstance(g, All) else BoundedEx
        return quantifier(v, bound, body)

    return go(f)


def _desugar_reference(f):
    if isinstance(f, (BoundedAll, BoundedEx)):
        if f.var in f.bound._fv:
            f = _rename_binder_reference(f, f.bound._fv)
        guard = Mem(Var(f.var), f.bound)
        if isinstance(f, BoundedAll):
            return All(f.var, Imp(guard, _desugar_reference(f.body)))
        return Ex(f.var, And(guard, _desugar_reference(f.body)))
    return _children(f, _desugar_reference)


_HOLE = Var("_")


def _skeleton_reference(f):
    if isinstance(f, (Eq, Mem)):
        return type(f)(_HOLE, _HOLE)
    if isinstance(f, ClassMem):
        return ClassMem(_HOLE, f.cls)
    if isinstance(f, (BoundedAll, BoundedEx)):
        return type(f)("_", _HOLE, _skeleton_reference(f.body))
    if isinstance(f, (All, Ex)):
        return type(f)("_", _skeleton_reference(f.body))
    return _children(f, _skeleton_reference)


class _CompilerReference(godel._Compiler):
    """The compiler with its bounded-quantifier case building the guard
    itself; every other case is the compiler's own."""

    def compile(self, f, slots, ctx):
        if not isinstance(f, (BoundedAll, BoundedEx)):
            return super().compile(f, slots, ctx)
        v, b, body = f.var, f.bound, f.body
        if v in b._fv:
            f = _rename_binder_reference(f, b._fv)
            v, body = f.var, f.body
        if isinstance(b, Lit):
            slot, inner = self.literal(b.value), body
        else:
            slot = godel._app("cup", slots[ctx[b.name] - 1])
            guard = Mem(Var(v), b)
            inner = And(guard, body) if isinstance(f, BoundedEx) \
                else Imp(guard, body)
        s = self.compile(inner, slots + [slot], {**ctx, v: len(slots) + 1})
        if isinstance(f, BoundedEx):
            return godel._rant(s)
        return godel._app("cap", self.prod(slots),
                          godel._app("forall", s, slot))


# -- the population --------------------------------------------------------

# Binders that occur in their own bound or in the substituted term, a
# binder the canonical numbering meets free, and class atoms.
CAPTURE = [
    "all x. x = y & x' = x'", "ex x in x. x = x'",
    "all x in x. ex y in x. y in x", "all x. ex y. x = y",
    "ex v0. v0 = v1 & all v1. v1 in v0", "all x in y. ex y in x. x = y",
    "ex y. y in C & all x in y. x in y",
    "bigand [ex x1 in x1. x1 = x2, all x2. x2 in x1] | x1 in C",
    "all x1 in {}. ex y in {{}}. y in x1 -> x1 = x1",
]


def _population():
    base = (bounded_formulas(1, 3, 800, include_literals=True)
            + bounded_formulas(2, 3, 800) + bounded_formulas(3, 3, 500))
    unbounded = [g for g in map(_desugar_reference, base[::2])
                 if not is_bounded(g)]
    out = base + unbounded + [parse(t) for t in CAPTURE]
    out += [_relativize_reference(f, "C") for f in unbounded[::4]]
    out += [BigOr((f, g)) for f, g in zip(base[::7], unbounded[::2])]
    return list(dict.fromkeys(out))


POPULATION = _population()
SUBST_TERMS = [Var("x1"), Var("x2"), Var("y2"), Var("y3"), Var("v1"),
               Var("x"), Var("y"), Lit(hf.EMPTY)]


def _agree(f, v, t):
    """Every rewriter agrees with its reference on f; substitution of t for
    v, and relativization to Var(v), are the ones that take arguments."""
    assert substitute(f, v, t) is _substitute_reference(f, v, t), render(f)
    assert alpha_canonical(f) is _alpha_canonical_reference(f), render(f)
    assert desugar(f) is _desugar_reference(f), render(f)
    assert _skeleton(f) is _skeleton_reference(f), render(f)
    assert relativize(f, Var(v)) is _relativize_reference(f, Var(v))
    if "C" not in class_ids(f):
        assert relativize(f, "C") is _relativize_reference(f, "C")


def test_the_population_covers_every_kind_and_capture():
    kinds = {type(g) for f in POPULATION for g in subformulas(f)}
    assert kinds == _concrete_formula_classes()
    assert len(POPULATION) > 1000
    assert any(isinstance(g, (BoundedAll, BoundedEx))
               and g.var in g.bound._fv
               for f in POPULATION for g in subformulas(f))


def test_rewriters_match_their_references_on_the_population():
    for f in POPULATION:
        names = sorted(free_vars(f) | {g.var for g in subformulas(f)
                                       if isinstance(g, QUANTIFIERS)})
        for v in names[:3] or ["x1"]:
            for t in SUBST_TERMS:
                assert substitute(f, v, t) is \
                    _substitute_reference(f, v, t), (render(f), v, t)
        _agree(f, (names or ["x1"])[0], SUBST_TERMS[0])


@PROPERTY
@given(formulas, binders, terms)
def test_rewriters_match_their_references_on_random_formulas(f, v, t):
    _agree(f, v, t)


@pytest.mark.parametrize("arity", [1, 2, 3])
def test_compiled_terms_match_the_reference(arity):
    expected = {f"x{i}" for i in range(1, arity + 1)}
    accepted = [f for f in POPULATION
                if free_vars(f) == expected and is_bounded(f)
                and not class_ids(f)]
    assert len(accepted) > 100
    slots = [godel.Arg(i) for i in range(1, arity + 1)]
    ctx = {f"x{i}": i for i in range(1, arity + 1)}
    for f in accepted:
        want = _CompilerReference().compile(f, slots, ctx)
        assert godel.opterm_render(godel.compile_bounded(f, arity)) == \
            godel.opterm_render(want), render(f)


def test_capture_paths_render_as_pinned():
    assert render(substitute(parse("all x. x = y & x' = x'"), "y",
                             Var("x"))) == "all x''. x'' = x & x' = x'"
    assert render(desugar(parse("ex x in x. x = x'"))) == \
        "ex x''. x'' in x & x'' = x'"
    assert render(relativize(parse("all x. ex y. x = y"), "C")) == \
        "all x. x in C -> ex y. y in C & x = y"


def test_unbounded_is_the_guarded_reading():
    for text, want in [("all x in y. x = x", "all x. x in y -> x = x"),
                       ("ex x in y. x = x", "ex x. x in y & x = x"),
                       ("ex x in x. x = x'", "ex x''. x'' in x & x'' = x'")]:
        assert render(formula.unbounded(parse(text))) == want


def test_rewriters_leave_no_reference_cycles():
    """Each rewriter recurses through a closure that names itself; a call
    must still leave nothing for the cycle collector, so that the terms
    and formulas it held die by refcount when it returns."""
    f = parse("all y. (x in y -> ex x. x = y)")
    comprehension = parse("all x. ((x in C -> x = y) & (x = y -> x in C))")
    calls = [
        lambda: substitute(f, "x", Var("y")),
        lambda: relativize(f, Var("y")),
        lambda: relativize(f, "C"),
        lambda: alpha_canonical(f),
        lambda: dn_translate(f),
        lambda: eliminate_classes([comprehension], parse("all y. z in C")),
    ]
    gc.collect()
    gc.disable()
    try:
        for i, call in enumerate(calls):
            call()
            assert gc.collect() == 0, i
    finally:
        gc.enable()
