"""Property tests of the formula transformers against the Tarskian oracle.

Random formulas over the variables x, y, z and literals from a transitive
stage V_3 are rewritten by each transformer and both sides are evaluated by
``semantics.satisfies``.  Bounded quantifiers range over members of V_3, so
unbounded quantifiers over V_3 agree with their guarded forms.  The bounded
formula compiler is compared with ``semantics.comprehension`` likewise.
"""

import pytest
from hypothesis import HealthCheck, assume, given, settings, strategies as st

from czfkit import hf
from czfkit import topology as tp
from czfkit.formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, Eq, Ex, Falsum, Imp,
    Lit, Mem, Or, Var, free_vars, is_bounded, relativize, substitute,
)
from czfkit.godel import compile_bounded, eval_opterm
from czfkit.names import Interpreter, name_universe
from czfkit.prover import desugar
from czfkit.semantics import comprehension, satisfies
from czfkit.translate import dn_translate, semantic_translate

U = hf.v_stage(3)
VARS = ("x", "y", "z")
TERMS = [Var(v) for v in VARS] + [Lit(hf.EMPTY), Lit(hf.hfset(hf.EMPTY))]

terms = st.sampled_from(TERMS)
binders = st.sampled_from(VARS)
atoms = st.one_of(st.just(Falsum()), st.builds(Eq, terms, terms),
                  st.builds(Mem, terms, terms))


def _extend(sub):
    parts = st.lists(sub, min_size=1, max_size=3).map(tuple)
    return st.one_of(
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub), parts.map(BigAnd), parts.map(BigOr),
        st.builds(BoundedAll, binders, terms, sub),
        st.builds(BoundedEx, binders, terms, sub),
        st.builds(All, binders, sub), st.builds(Ex, binders, sub))


formulas = st.recursive(atoms, _extend, max_leaves=6)
envs = st.fixed_dictionaries({v: st.sampled_from(list(U)) for v in VARS})

PROPERTY = settings(max_examples=150, deadline=None,
                    suppress_health_check=[HealthCheck.too_slow])


def _value(t, env):
    return t.value if isinstance(t, Lit) else env[t.name]


@PROPERTY
@given(formulas, envs)
def test_desugar_keeps_truth(f, env):
    assert satisfies(U, desugar(f), env) == satisfies(U, f, env)


@PROPERTY
@given(formulas, envs)
def test_goedel_gentzen_keeps_classical_truth(f, env):
    assert satisfies(U, dn_translate(f), env) == satisfies(U, f, env)


@PROPERTY
@given(formulas, envs)
def test_relativize_to_a_variable_keeps_truth(f, env):
    g = relativize(f, Var("p"))
    assert is_bounded(g)
    # bounded, so the ambient universe no longer matters
    assert satisfies(hf.EMPTY, g, {**env, "p": U}) == satisfies(U, f, env)


@PROPERTY
@given(formulas, binders, envs)
def test_relativize_to_a_bound_name_keeps_truth(f, p, env):
    # p may be bound inside f, and those binders must not capture the bound
    assume(p not in free_vars(f))
    g = relativize(f, Var(p))
    assert is_bounded(g)
    assert satisfies(hf.EMPTY, g, {**env, p: U}) == satisfies(U, f, env)


@PROPERTY
@given(formulas, binders, terms, envs)
def test_substitute_obeys_the_free_variable_law(f, v, t, env):
    g = substitute(f, v, t)
    fv = free_vars(f)
    if v in fv:
        assert free_vars(g) == (fv - {v}) | free_vars(Eq(t, t))
    else:
        assert g is f
    assert satisfies(U, g, env) == satisfies(U, f, {**env, v: _value(t, env)})


# -- the semantic translation is the classical reading of forced atoms -----


def _classical_reading(f, env, it):
    """Atoms are true when forced with top value; connectives and
    quantifiers are read classically, bounded ones over the entries of full
    weight."""
    top = tp.top(it.t)
    match f:
        case Falsum():
            return False
        case Eq() | Mem():
            return it.value(f, env) == top
        case And(l, r):
            return _classical_reading(l, env, it) and _classical_reading(r, env, it)
        case Or(l, r):
            return _classical_reading(l, env, it) or _classical_reading(r, env, it)
        case Imp(l, r):
            return (not _classical_reading(l, env, it)) or _classical_reading(r, env, it)
        case BigAnd(parts):
            return all(_classical_reading(p, env, it) for p in parts)
        case BigOr(parts):
            return any(_classical_reading(p, env, it) for p in parts)
        case BoundedAll(v, b, body) | BoundedEx(v, b, body):
            found = (_classical_reading(body, {**env, v: x}, it)
                     for x, p in it.term_name(b, env).entries if p == top)
            return all(found) if isinstance(f, BoundedAll) else any(found)
        case All(v, body) | Ex(v, body):
            found = (_classical_reading(body, {**env, v: n}, it)
                     for n in it.u.names)
            return all(found) if isinstance(f, All) else any(found)


TOPOLOGIES = {
    "2-chain": tp.from_poset(["a", "b"], [("a", "b")]),
    "2-antichain": tp.from_poset(["a", "b"], []),
    "omega": tp.omega(),
}
UNIVERSES = {k: name_universe(t, 1) for k, t in TOPOLOGIES.items()}


# Over omega every value is top or bottom, so forcing the translation is the
# classical reading.  On the other frames a value strictly between them may
# be dense, and then the translation holds where the atom is not top.
@pytest.mark.parametrize("topology", ["omega"])
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(f=formulas, data=st.data())
def test_semantic_translate_is_the_classical_reading(topology, f, data):
    u = UNIVERSES[topology]
    env = {v: data.draw(st.sampled_from(u.names)) for v in VARS}
    it = Interpreter(u)
    assert semantic_translate(f, env, it) == _classical_reading(f, env, it)


@pytest.mark.parametrize("topology", sorted(TOPOLOGIES))
@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(f=formulas, data=st.data())
def test_semantic_translate_forces_the_translation(topology, f, data):
    u = UNIVERSES[topology]
    env = {v: data.draw(st.sampled_from(u.names)) for v in VARS}
    it = Interpreter(u)
    assert semantic_translate(f, env, it) == \
        (it.value(dn_translate(f), env) == tp.top(it.t))


# -- the Goedel compiler is the comprehension oracle ------------------------

X1, X2 = Var("x1"), Var("x2")
# binders reuse the free variables, so a quantifier may rebind its own bound
bounded_terms = st.sampled_from([X1, X2, Lit(hf.EMPTY),
                                 Lit(hf.hfset(hf.EMPTY))])
bounded_binders = st.sampled_from(["x1", "x2"])
bounded_atoms = st.one_of(st.just(Falsum()),
                          st.builds(Eq, bounded_terms, bounded_terms),
                          st.builds(Mem, bounded_terms, bounded_terms))


def _extend_bounded(sub):
    return st.one_of(
        st.builds(And, sub, sub), st.builds(Or, sub, sub),
        st.builds(Imp, sub, sub),
        st.builds(BoundedAll, bounded_binders, bounded_terms, sub),
        st.builds(BoundedEx, bounded_binders, bounded_terms, sub))


@settings(max_examples=100, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.recursive(bounded_atoms, _extend_bounded, max_leaves=4),
       st.sampled_from(list(U)), st.sampled_from(list(U)))
def test_compiled_formula_is_its_comprehension(f, a1, a2):
    # padded so that the free variables are exactly x1 and x2
    f = And(And(Eq(X1, X1), Eq(X2, X2)), f)
    term = compile_bounded(f, 2)
    assert eval_opterm(term, [a1, a2]) == comprehension(f, [a1, a2])
