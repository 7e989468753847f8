import itertools

import pytest

from czfkit.corpus import bounded_formulas
from czfkit.formula import (
    All, And, BoundedAll, BoundedEx, Ex, Falsum, Imp, Or, free_vars, neg,
    parse, render, subformulas,
)
from czfkit.names import (
    EMPTY_NAME, Interpreter, Name, check_name, make_name, name_universe,
)
from czfkit.prover import Logic, Outcome, prove_formula
from czfkit.translate import (
    dn_translate, semantic_coincidence_check, semantic_translate,
)
from czfkit.topology import FormalTopology, from_poset, omega, top, validate
from czfkit.semantics import satisfies
from czfkit import hf, names, topology as tp, unique


def gg(text):
    return dn_translate(parse(text))


def _node_count(f):
    return len(list(subformulas(f)))


def test_gg_atom():
    assert gg("x = y") == parse("~~(x = y)")
    assert gg("x in y") == parse("~~(x in y)")
    assert gg("false") == Falsum()


def test_gg_or_and_exists():
    f = gg("x = x | y = y")
    assert f == parse("~~(~~(x = x) | ~~(y = y))")
    g = gg("ex x. x in y")
    assert g == parse("~~(ex x. ~~(x in y))")


def test_gg_homomorphic_cases():
    assert gg("x = x & y = y") == And(gg("x = x"), gg("y = y"))
    assert gg("x = x -> y = y") == Imp(gg("x = x"), gg("y = y"))
    assert gg("all x. x = x") == parse("all x. ~~(x = x)")
    assert gg("all x in y. x = x") == parse("all x in y. ~~(x = x)")
    assert gg("ex x in y. x = x") == parse("~~(ex x in y. ~~(x = x))")


def test_gg_preserves_free_variables():
    for f in bounded_formulas(2, 2, limit=80):
        assert free_vars(dn_translate(f)) == free_vars(f)


def test_gg_size_bound():
    # each node gains at most two negations
    for f in bounded_formulas(2, 2, limit=80):
        assert _node_count(dn_translate(f)) <= 5 * _node_count(f)


def test_gg_double_negations_only_where_needed():
    f = dn_translate(parse("(x = x & y in x) -> x in y"))
    assert render(f) == "~(~(x = x)) & ~(~(y in x)) -> ~(~(x in y))"


def test_glivenko_on_propositional_samples():
    texts = ["x = x | ~(x = x)",
             "~~(x = x) -> x = x",
             "((x = x -> y = y) -> x = x) -> x = x"]
    for t in texts:
        f = parse(t)
        assert prove_formula(f, Logic.CLASSICAL).outcome is Outcome.PROVED
        assert prove_formula(neg(neg(f)), Logic.INTUITIONISTIC).outcome is Outcome.PROVED
        assert prove_formula(dn_translate(f), Logic.INTUITIONISTIC).outcome is Outcome.PROVED


def test_translation_provable_from_original_classically():
    for f in bounded_formulas(1, 2, limit=25):
        g = dn_translate(f)
        bi = And(Imp(f, g), Imp(g, f))
        assert prove_formula(bi, Logic.CLASSICAL).outcome is Outcome.PROVED


def test_semantic_mode_values():
    u = name_universe(omega(), 1)
    zero = check_name(hf.EMPTY, omega())
    one = check_name(hf.hfset(hf.EMPTY), omega())
    env = {"x": zero, "y": one}
    it = Interpreter(u)
    assert semantic_translate(parse("x in y"), env, it) is True
    assert semantic_translate(parse("y in x"), env, it) is False
    assert semantic_translate(parse("x = y | ~(x = y)"), env, it) is True
    assert semantic_translate(parse("ex z. z in y"), env, it) is True


def test_coincidence_on_corpus():
    u = name_universe(omega(), 1)
    names = u.names
    for f in bounded_formulas(1, 2, limit=60):
        for n in names:
            assert semantic_coincidence_check(f, {"x1": n}, u)
    for text in ["all x. x = x", "ex x. ~(x = x)",
                 "all x. ex y. x in y | x = y"]:
        assert semantic_coincidence_check(parse(text), None, u)


def test_coincidence_requires_dn_topology():
    chain = name_universe(from_poset(["a", "b"], [("a", "b")]), 1)
    with pytest.raises(ValueError):
        semantic_coincidence_check(parse("x = x"),
                                   {"x": chain.names[0]}, chain)


def test_coincidence_accepts_omega_spelled_sparsely():
    sparse = FormalTopology(("0",), frozenset({("0", "0")}),
                            {("0", frozenset({"0"})): True})
    u = name_universe(sparse, 1)
    for n in u.names:
        assert semantic_coincidence_check(parse("x = x"), {"x": n}, u)


def _denotation(n):
    """The HF set an omega name stands for: the denotations of its keys
    of top weight."""
    full = top(omega())
    return unique.fold(n, Name.keys, lambda m, members: hf.HFSet(
        x for x, (_, p) in zip(members, m.entries) if p == full))


def test_semantic_translate_is_satisfaction_of_the_denotations():
    """An oracle independent of the forcing interpreter: over omega, the
    classical reading of a formula is its truth in the HF sets the names
    denote, quantifiers ranging over the universe's denotations.  Run on
    the population of acceptance criterion 10."""
    u = name_universe(omega(), 2)
    universe = hf.HFSet(_denotation(n) for n in u.names)
    samples = name_universe(omega(), 1).names
    corpus = bounded_formulas(2, 2, limit=60)
    quantified = [Ex("z", f) for f in corpus[:10]]
    quantified += [All("z", f) for f in corpus[:10]]
    it = Interpreter(u)
    checks = 0
    for f in corpus + quantified:
        fv = sorted(free_vars(f))
        for combo in itertools.product(samples, repeat=len(fv)):
            env = dict(zip(fv, combo))
            denoted = {v: _denotation(n) for v, n in env.items()}
            assert (semantic_translate(f, env, it)
                    == satisfies(universe, f, denoted)), (f, env)
            checks += 1
    assert checks == 458


# one token covered by the empty set: bottom is top
TRIVIAL = FormalTopology(
    ("a",), frozenset({("a", "a")}),
    {("a", frozenset()): True, ("a", frozenset({"a"})): True})


def test_semantic_mode_holds_everywhere_in_the_trivial_frame():
    # every value is top, the translation's included, false and ~(x = x)
    # among them
    assert validate(TRIVIAL) == []
    u = name_universe(TRIVIAL, 1)
    env = {"x": u.names[0]}
    it = Interpreter(u)
    assert semantic_translate(parse("false"), env, it) is True
    assert semantic_translate(parse("~(x = x)"), env, it) is True
    assert semantic_translate(parse("x = x & ex y. y in x"), env, it) is True


def test_semantic_mode_is_forcing_not_rounding_on_the_chain():
    """[[x = y]] = {a} is not top on the 2-chain, but it is dense: its
    double negation is top, so the translation holds."""
    chain = from_poset(["a", "b"], [("a", "b")])
    u = name_universe(chain, 1)
    env = {"x": make_name([(EMPTY_NAME, {"a"})]),
           "y": make_name([(EMPTY_NAME, {"a", "b"})])}
    it = Interpreter(u)
    f = parse("x = y")
    assert it.value(f, env) == frozenset({"a"})
    assert semantic_translate(f, env, it) is True
    assert it.value(dn_translate(f), env) == top(chain)


def test_coincidence_reads_weights_on_the_carrier():
    """A weight with a token off the carrier reads as its tokens on it, on
    both sides of the coincidence: {0, zz} is top over omega."""
    u = name_universe(omega(), 1)
    x1 = make_name([(EMPTY_NAME, {"0", "zz"})])
    f = parse("ex z in x1. z = z")
    assert Interpreter(u).value(f, {"x1": x1}) == top(omega())
    assert semantic_coincidence_check(f, {"x1": x1}, u) is True


def _quantified(f):
    return any(isinstance(g, (BoundedAll, BoundedEx)) for g in subformulas(f))


def test_translation_is_the_double_negation_on_every_small_frame():
    """[[dn_translate(f)]] = not not [[f]] in every finite frame, and
    semantic_translate asks whether that value is top.  Over every poset
    frame on at most 3 points and the trivial frame, depth-1 universes:
    the (2, 2, 120) stratum, the quantified formulas of (1, 3, 250), and
    unbounded closures of the stratum over x2."""
    from test_acceptance import _all_posets_up_to_3
    stratum = bounded_formulas(2, 2, limit=120)
    closed = [g for g in stratum if "x2" in free_vars(g)][:5]
    formulas = stratum + [g for g in bounded_formulas(1, 3, limit=250)
                          if _quantified(g)]
    formulas += [Q("x2", g) for g in closed for Q in (Ex, All)]
    translated = [(f, dn_translate(f), sorted(free_vars(f)))
                  for f in formulas]
    checks = 0
    for t in _all_posets_up_to_3() + [TRIVIAL]:
        u = name_universe(t, 1)
        it = Interpreter(u)
        bottom, full = tp.bottom(t), top(t)
        dneg = {p: tp.implies(t, tp.implies(t, p, bottom), bottom)
                for p in tp.frame_elements(t)}
        for f, g, fv in translated:
            # g is valued by its step alone: its bindings are f's, which
            # value checks, and checking them again doubles the time
            step = names._STEPS[type(g)]
            for combo in itertools.product(u.names, repeat=len(fv)):
                env = dict(zip(fv, combo))
                p = it.value(f, env)
                value = t._as_set[step(it, g, env)]
                assert value == dneg[p], (t, f, env)
                assert semantic_translate(f, env, it) == (value == full)
                checks += 1
    print(f"{checks} checks")
    assert checks == 82036


def test_semantic_mode_checks_every_operand():
    u = name_universe(omega(), 1)
    env = {"x": u.names[0]}
    it = Interpreter(u)
    # the left operand alone decides the truth value, but the class symbol
    # in the right one is unbound
    with pytest.raises(ValueError, match="class symbol M"):
        semantic_translate(parse("x = x | x in M"), env, it)
