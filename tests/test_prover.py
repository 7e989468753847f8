import itertools

import pytest

from czfkit.corpus import bounded_formulas
from czfkit.formula import And, Eq, Imp, Or, Var, neg, parse
from czfkit.prover import (
    ClassEliminationError, Derivation, Logic, Outcome, Sequent,
    check_derivation, eliminate_classes, prove, prove_formula,
)
from czfkit.translate import dn_translate


INT = Logic.INTUITIONISTIC
CL = Logic.CLASSICAL


def ok_int(text):
    return prove_formula(parse(text), INT).outcome is Outcome.PROVED


def ok_cl(text):
    return prove_formula(parse(text), CL).outcome is Outcome.PROVED


def test_sequent_normal_form():
    a, b = parse("x = x"), parse("y = y")
    s = Sequent.make([b, a, a], [a, b, b])
    assert s == Sequent.make([a, b], [b, a])
    assert " => " in s.render()


def test_identity_and_falsum():
    assert ok_int("x = x -> x = x")
    assert ok_int("false -> x in y")
    assert prove(Sequent.make([parse("false")], []), INT).outcome \
        is Outcome.PROVED


def test_intuitionistic_theorems():
    assert ok_int("x = x & y = y -> y = y")
    assert ok_int("x = x -> x = x | y = y")
    assert ok_int("~(x = x | y = y) -> ~(x = x)")
    assert ok_int("(x = x -> y = y) -> (~(y = y) -> ~(x = x))")
    assert ok_int("~~(x = x | ~(x = x))")
    assert ok_int("(all x. x in a) -> {} in a")
    assert ok_int("{} in a -> (ex x. x in a)")
    assert ok_int("(all x. x in a & x in b) -> (all x. x in a)")


def test_classical_only_theorems():
    for text in ["x = x | ~(x = x)",
                 "~~(x = x) -> x = x",
                 "((x = x -> y = y) -> x = x) -> x = x"]:
        assert ok_cl(text)
        assert prove_formula(parse(text), INT).outcome is Outcome.NOT_PROVABLE


def test_not_provable_either_way():
    for text in ["x = y", "x = x -> y = y", "ex x. x in a"]:
        assert prove_formula(parse(text), INT).outcome is Outcome.NOT_PROVABLE
        assert prove_formula(parse(text), CL).outcome is Outcome.NOT_PROVABLE


def test_quantifier_interplay():
    assert ok_int("(ex x. all y. x in y) -> (all y. ex x. x in y)")
    # the converse is invalid; a small budget keeps the refutation fast
    r = prove_formula(parse("(all y. ex x. x in y) -> (ex x. all y. x in y)"),
                      CL, budget=400)
    assert r.outcome is not Outcome.PROVED


def test_bounded_quantifiers_desugared():
    assert ok_int("(all x in a. x in b) -> ({} in a -> {} in b)")
    assert ok_int("({} in a & {} in b) -> (ex x in a. x in b)")


def test_intuitionistic_implies_classical():
    pool = bounded_formulas(2, 2, limit=60)
    for f in pool:
        g = Imp(f, f) if f else f
        ri = prove_formula(g, INT)
        if ri.outcome is Outcome.PROVED:
            assert prove_formula(g, CL).outcome is Outcome.PROVED


def test_classical_matches_truth_tables():
    atoms = [parse("a = a"), parse("b = b"), parse("c = c")]

    def truth(f, val):
        if isinstance(f, Eq):
            return val[f.left.name]
        if isinstance(f, And):
            return truth(f.left, val) and truth(f.right, val)
        if isinstance(f, Or):
            return truth(f.left, val) or truth(f.right, val)
        if isinstance(f, Imp):
            return (not truth(f.left, val)) or truth(f.right, val)
        raise AssertionError

    level = list(atoms)
    rng_pool = list(atoms)
    for _ in range(2):
        nxt = []
        for l, r in itertools.product(level, rng_pool):
            nxt.extend([And(l, r), Or(l, r), Imp(l, r)])
        level = nxt[:12]
        rng_pool = (rng_pool + level)[:18]
    sample = rng_pool[:30]
    for f in sample:
        tautology = all(
            truth(f, dict(zip("abc", bits)))
            for bits in itertools.product([True, False], repeat=3))
        got = prove_formula(f, CL).outcome is Outcome.PROVED
        assert got == tautology, f


def test_glivenko():
    for f in bounded_formulas(1, 2, limit=15):
        cl = prove_formula(f, CL).outcome is Outcome.PROVED
        dn = prove_formula(neg(neg(f)), INT).outcome is Outcome.PROVED
        gg = prove_formula(dn_translate(f), INT).outcome is Outcome.PROVED
        assert cl == dn == gg, f


def test_budget_exceeded_is_distinct():
    r = prove_formula(parse("x = x | ~(x = x)"), CL, budget=1)
    assert r.outcome is Outcome.BUDGET_EXCEEDED
    assert r.outcome is not Outcome.NOT_PROVABLE
    # whereas an honest search failure reports not provable
    r2 = prove_formula(parse("x = x | ~(x = x)"), INT)
    assert r2.outcome is Outcome.NOT_PROVABLE


def test_derivation_render():
    r = prove_formula(parse("x = x -> x = x"), INT)
    text = r.derivation.render()
    assert "=>" in text and "\n" in text


def test_check_derivation_accepts_prover_output():
    for text in ["x = x -> x = x",
                 "~~(x = x | ~(x = x))",
                 "(all x. x in a) -> {} in a",
                 "x = x & y = y -> y = y | z = z",
                 "all y. (y in x -> y in x)",
                 "(ex y. y in x) -> ex y. y in x"]:
        r = prove_formula(parse(text), INT)
        report = check_derivation(r.derivation, INT)
        assert report.ok, report.reason
        assert report.subformula_property
    r = prove_formula(parse("x = x | ~(x = x)"), CL)
    report = check_derivation(r.derivation, CL)
    assert report.ok and report.subformula_property


def test_check_derivation_rejects_tampering():
    r = prove_formula(parse("x = x -> x = x"), INT)
    bogus = Derivation("ax", Sequent.make((), (parse("x = y"),)),
                       r.derivation.premises)
    report = check_derivation(bogus, INT)
    assert not report.ok
    assert report.invalid is not None


def _sequent(left, right):
    return Sequent.make([parse(t) for t in left], [parse(t) for t in right])


@pytest.mark.parametrize("logic", [INT, CL])
def test_check_derivation_rejects_eigenvariable_free_in_principal(logic):
    """x is free in the principal formula, so it cannot be the eigenvariable
    of the R-all or L-ex step, though it is fresh for the side formulas."""
    steps = [
        ("R-all", _sequent([], ["x in x -> x in x"]),
         _sequent([], ["all y. (x in x -> y in x)"])),
        ("L-ex", _sequent(["(x in x -> c in c) & x in x"], ["c in c"]),
         _sequent(["ex y. (x in y -> c in c) & y in x"], ["c in c"])),
    ]
    for rule, premise, conclusion in steps:
        below = prove(premise, logic)
        assert below.outcome is Outcome.PROVED
        bogus = Derivation(rule, conclusion, (below.derivation,))
        report = check_derivation(bogus, logic)
        assert not report.ok
        assert report.invalid == conclusion


def test_check_derivation_cut():
    a, b = parse("x = x"), parse("y = y")
    leaf = Derivation("init", Sequent.make([a], [a]), ())
    cut = Derivation("cut", Sequent.make([a], [a]),
                     (Derivation("init", Sequent.make([a], [a, b]), ()),
                      Derivation("init", Sequent.make([a, b], [a]), ())))
    assert check_derivation(leaf, INT).ok
    assert not check_derivation(cut, INT).ok
    assert check_derivation(cut, INT, allow_cut=True).ok


def test_cut_option_does_not_change_verdicts():
    for f in bounded_formulas(1, 2, limit=30):
        plain = prove_formula(f, INT).outcome
        with_cut = prove_formula(f, INT, allow_cut=True).outcome
        if with_cut is Outcome.PROVED:
            assert plain is Outcome.PROVED


def test_eliminate_classes_defined():
    comp = parse("all v. (v in M -> v in a) & (v in a -> v in M)")
    goal = parse("x in M -> x in a")
    axioms, g = eliminate_classes([comp], goal)
    assert g == parse("x in a -> x in a")
    assert prove_formula(g, INT).outcome is Outcome.PROVED


def test_eliminate_classes_renames_capturing_binder():
    comp = parse("all v. (v in M -> v in a) & (v in a -> v in M)")
    _, g = eliminate_classes([comp], parse("all a. x in M"))
    assert g == parse("all a'. x in a")
    _, g = eliminate_classes([comp], parse("ex a in x. a in M"))
    assert g == parse("ex a' in x. a' in a")


def test_eliminate_classes_undefined_symbol():
    _, g = eliminate_classes([], parse("x in M"))
    assert g == Eq(Var("x"), Var("x"))


def test_eliminate_classes_rejects_nested_class():
    comp = parse("all v. (v in M -> v in N) & (v in N -> v in M)")
    with pytest.raises(ClassEliminationError):
        eliminate_classes([comp], parse("x in M"))


def test_eliminate_classes_no_classes_is_identity():
    axioms, g = eliminate_classes([parse("x = x")], parse("y = y"))
    assert axioms == [parse("x = x")] and g == parse("y = y")
