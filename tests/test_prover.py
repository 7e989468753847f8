import collections
import gc
import hashlib
import itertools
import pickle
import random
import sys

import pytest

from czfkit import formula, prover
from czfkit.corpus import bounded_formulas
from czfkit.formula import (
    QUANTIFIERS, All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem,
    Eq, Ex, Falsum, Imp, Mem, Or, Var, free_vars, neg, parse, render,
    subformulas, substitute,
)
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


def test_sequent_is_an_immutable_value():
    """Separately built equal sequents are equal and hash alike, also after
    pickling, and a sequent cannot be changed."""
    a, b = parse("x = x"), parse("y = y")
    s = Sequent.make([a], [b, a])
    t = Sequent((a,), (a, b))
    assert s == t and hash(s) == hash(t) and s is not t
    assert pickle.loads(pickle.dumps(s)) == s
    with pytest.raises(AttributeError):
        s.left = ()
    with pytest.raises(AttributeError):
        del s.right


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


@pytest.mark.parametrize("text, outcome", [
    ("x = x -> x = x", Outcome.PROVED),
    ("x = x | ~(x = x)", Outcome.NOT_PROVABLE),
], ids=["proved", "refuted"])
def test_prove_restores_recursion_limit(text, outcome):
    saved = sys.getrecursionlimit()
    # below the 10000 that prove asks for, so a raise left in place shows
    sys.setrecursionlimit(1500)
    try:
        assert prove_formula(parse(text), INT).outcome is outcome
        assert sys.getrecursionlimit() == 1500
    finally:
        sys.setrecursionlimit(saved)


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


def _chain(*steps):
    """A one-branch derivation from (rule, sequent) steps, root first; the
    last step has no premises."""
    d = None
    for rule, s in reversed(steps):
        d = Derivation(rule, s, (d,) if d else ())
    return d


@pytest.mark.parametrize("logic", [INT, CL])
def test_check_derivation_accepts_instances_the_search_never_makes(logic):
    """The checker accepts every instance of the calculus, not only the
    search's choices: a witness that is in no formula of the conclusion, an
    eigenvariable other than the first fresh one, and an L-bigand that adds
    a conjunct already present."""
    ex_a = "ex y. y in a"
    proofs = [
        _chain(("R-imp", _sequent([], [f"(all x. x in a) -> {ex_a}"])),
               ("L-all", _sequent(["all x. x in a"], [ex_a])),
               ("R-ex", _sequent(["all x. x in a", "{{}} in a"], [ex_a])),
               ("init", _sequent(["all x. x in a", "{{}} in a"],
                                 [ex_a, "{{}} in a"]))),
        _chain(("R-imp", _sequent([], [f"(ex x. x in a) -> {ex_a}"])),
               ("L-ex", _sequent(["ex x. x in a"], [ex_a])),
               ("R-ex", _sequent(["v7 in a"], [ex_a])),
               ("init", _sequent(["v7 in a"], [ex_a, "v7 in a"]))),
        _chain(("L-bigand", _sequent(["bigand [x = x, y = y]", "x = x"],
                                     ["x = x"])),
               ("init", _sequent(["bigand [x = x, y = y]", "x = x"],
                                 ["x = x"]))),
    ]
    for d in proofs:
        report = check_derivation(d, logic)
        assert report.ok, (report.reason, report.invalid)


def test_check_derivation_cut():
    a, b = parse("x = x"), parse("y = y")
    leaf = Derivation("init", Sequent.make([a], [a]), ())
    cut = Derivation("cut", Sequent.make([a], [a]),
                     (Derivation("init", Sequent.make([a], [a, b]), ()),
                      Derivation("init", Sequent.make([a, b], [a]), ())))
    assert check_derivation(leaf, INT).ok
    assert not check_derivation(cut, INT).ok
    assert check_derivation(cut, INT, allow_cut=True).ok


def test_check_derivation_rejects_malformed_cuts():
    a, b = parse("x = x"), parse("y = y")
    one = Derivation("cut", Sequent.make([a], [a]),
                     (Derivation("init", Sequent.make([a], [a, b]), ()),))
    report = check_derivation(one, INT, allow_cut=True)
    assert (report.ok, report.reason) == (False, "cut needs two premises")
    swapped = Derivation("cut", Sequent.make([a], [a]),
                         (Derivation("init", Sequent.make([a, b], [a]), ()),
                          Derivation("init", Sequent.make([a], [a, b]), ())))
    report = check_derivation(swapped, INT, allow_cut=True)
    assert (report.ok, report.reason) == (
        False, "premises do not match a cut on any formula")


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


def test_eliminate_classes_renames_for_every_class_in_scope():
    m = parse("all v. (v in M -> v in a) & (v in a -> v in M)")
    n = parse("all w. (w in N -> w in b) & (w in b -> w in N)")
    _, g = eliminate_classes([m, n], parse("all a. x in M & x in N"))
    assert g == parse("all a'. x in a & x in b")
    _, g = eliminate_classes([m, n], parse("all b. ex a. a in M -> x in N"))
    assert g == parse("all b'. ex a'. a' in a -> x in b")


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


# -- search counters ----------------------------------------------------------


def test_result_names_the_node_budget():
    r = prove_formula(parse("x = x | ~(x = x)"), CL, budget=1)
    assert (r.outcome, r.limit, r.expanded) == \
        (Outcome.BUDGET_EXCEEDED, "nodes", 1)


def test_result_names_the_depth_limit(monkeypatch):
    monkeypatch.setattr(prover._Search, "MAX_DEPTH", 3)
    r = prove_formula(parse("(all y. ex x. x in y) -> (ex x. all y. x in y)"),
                      CL, budget=400)
    assert (r.outcome, r.limit) == (Outcome.BUDGET_EXCEEDED, "depth")
    assert r.expanded < 400


def test_result_counts_loop_and_memo_hits():
    proved = prove_formula(parse("x = x -> x = x"), INT)
    assert (proved.limit, proved.loop_hits, proved.memo_hits) == (None, 0, 0)
    refuted = prove_formula(parse("((x = x -> y = y) -> x = x) -> x = x"),
                            INT)
    assert refuted.outcome is Outcome.NOT_PROVABLE
    assert refuted.limit is None and refuted.loop_hits > 0
    r = prove_formula(parse("~(d = d) -> ~(b = b)"), CL)
    assert (r.outcome, r.limit, r.loop_hits, r.memo_hits) == \
        (Outcome.NOT_PROVABLE, None, 0, 1)


# -- the search is the one the render-keyed sequents gave ---------------------

PREFIX = {
    "AA": "all x. all y. x in y", "EA": "ex x. all y. x in y",
    "AE": "all y. ex x. x in y", "EAr": "ex y. all x. x in y",
    "AEr": "all x. ex y. x in y", "EE": "ex x. ex y. x in y",
}
PAIRS = [("AA", "EE"), ("EA", "AE"), ("AE", "EA"), ("EAr", "AEr"),
         ("AEr", "EAr"), ("EE", "AA"), ("AA", "EAr"), ("EA", "EE")]
PROPS = ["(a = a -> b = b) -> ~b = b -> ~a = a",
         "a = a | ~a = a",
         "((a = a -> b = b) -> a = a) -> a = a",
         "~(a = a & b = b) -> ~a = a | ~b = b",
         "(a = a -> b = b | c = c) -> (a = a -> b = b) | (a = a -> c = c)",
         "~~(a = a) -> a = a"]


def _pinned_targets():
    """Quantifier-prefix implications under both logics (node budget 64)
    and Glivenko triples (budget 200), as the benchmark's prover items."""
    for a, b in PAIRS:
        f = parse(f"({PREFIX[a]}) -> ({PREFIX[b]})")
        for logic in Logic:
            yield f"{a}->{b} {logic.value}", f, logic, 64
    for text in PROPS:
        f = parse(text)
        yield f"{text} cl", f, CL, 200
        yield f"{text} nn", neg(neg(f)), INT, 200
        yield f"{text} dn", dn_translate(f), INT, 200


# (outcome, nodes expanded, sha256 of derivation.render() or of "", limit,
# loop hits, memo hits) per target; the first three were recorded with the
# render-keyed Sequent.make these replaced.
PINNED = {
    'AA->EE intuitionistic': ('proved', 5, 'bff2c7e4c82779cb', None, 0, 0),
    'AA->EE classical': ('proved', 5, 'bff2c7e4c82779cb', None, 0, 0),
    'EA->AE intuitionistic': ('proved', 7, '365c0e490866afa6', None, 0, 0),
    'EA->AE classical': ('proved', 7, '365c0e490866afa6', None, 0, 0),
    'AE->EA intuitionistic': ('budget-exceeded', 64, 'e3b0c44298fc1c14', 'nodes', 0, 0),
    'AE->EA classical': ('budget-exceeded', 64, 'e3b0c44298fc1c14', 'nodes', 0, 0),
    'EAr->AEr intuitionistic': ('proved', 7, '4f6b25552bf4d43c', None, 0, 0),
    'EAr->AEr classical': ('proved', 7, '4f6b25552bf4d43c', None, 0, 0),
    'AEr->EAr intuitionistic': ('budget-exceeded', 64, 'e3b0c44298fc1c14', 'nodes', 0, 0),
    'AEr->EAr classical': ('budget-exceeded', 64, 'e3b0c44298fc1c14', 'nodes', 0, 0),
    'EE->AA intuitionistic': ('not-provable', 6, 'e3b0c44298fc1c14', None, 0, 0),
    'EE->AA classical': ('not-provable', 6, 'e3b0c44298fc1c14', None, 0, 0),
    'AA->EAr intuitionistic': ('proved', 8, 'fca5b7392e4073a2', None, 0, 0),
    'AA->EAr classical': ('budget-exceeded', 64, 'e3b0c44298fc1c14', 'nodes', 0, 0),
    'EA->EE intuitionistic': ('proved', 5, '7957911460b160e5', None, 0, 0),
    'EA->EE classical': ('proved', 5, '7957911460b160e5', None, 0, 0),
    '(a = a -> b = b) -> ~b = b -> ~a = a cl': ('proved', 5, '8a217617194bc490', None, 0, 0),
    '(a = a -> b = b) -> ~b = b -> ~a = a nn': ('proved', 12, '86e62bbb41404b50', None, 4, 0),
    '(a = a -> b = b) -> ~b = b -> ~a = a dn': ('proved', 17, '0a25b530001a0350', None, 12, 0),
    'a = a | ~a = a cl': ('proved', 2, '32db83874ee3f3a8', None, 0, 0),
    'a = a | ~a = a nn': ('proved', 6, '7b95d38b3addc84b', None, 0, 0),
    'a = a | ~a = a dn': ('proved', 12, 'fdc483750ae8603a', None, 3, 0),
    '((a = a -> b = b) -> a = a) -> a = a cl': ('proved', 3, '7da06eea33a2ff59', None, 0, 0),
    '((a = a -> b = b) -> a = a) -> a = a nn': ('proved', 10, 'ca3ff6053f829594', None, 2, 0),
    '((a = a -> b = b) -> a = a) -> a = a dn': ('proved', 34, '8b7bcade970958e7', None, 24, 0),
    '~(a = a & b = b) -> ~a = a | ~b = b cl': ('proved', 6, '2b8210fba97b5aaf', None, 0, 0),
    '~(a = a & b = b) -> ~a = a | ~b = b nn': ('proved', 14, '2e253a814f9e2c4e', None, 2, 0),
    '~(a = a & b = b) -> ~a = a | ~b = b dn': ('proved', 140, 'ee7b8dca13d72429', None, 118, 0),
    '(a = a -> b = b | c = c) -> (a = a -> b = b) | (a = a -> c = c) cl': ('proved', 6, '964371b5692d066f', None, 0, 0),
    '(a = a -> b = b | c = c) -> (a = a -> b = b) | (a = a -> c = c) nn': ('proved', 15, 'ad90a3e7df9b50de', None, 4, 0),
    '(a = a -> b = b | c = c) -> (a = a -> b = b) | (a = a -> c = c) dn': ('proved', 128, '6f0a1472de4e781b', None, 149, 0),
    '~~(a = a) -> a = a cl': ('proved', 3, '586c8969d5476b14', None, 0, 0),
    '~~(a = a) -> a = a nn': ('proved', 8, '64abcfe0e2156382', None, 3, 0),
    '~~(a = a) -> a = a dn': ('proved', 9, '1c88062e9229d9a0', None, 2, 0),
}


def test_pinned_searches():
    got = {}
    for label, f, logic, budget in _pinned_targets():
        r = prove_formula(f, logic, budget=budget)
        text = r.derivation.render() if r.derivation else ""
        got[label] = (r.outcome.value, r.expanded,
                      hashlib.sha256(text.encode()).hexdigest()[:16],
                      r.limit, r.loop_hits, r.memo_hits)
    assert got == PINNED


def _random_prop(rng, depth):
    if depth == 0:
        return parse(rng.choice(["a = a", "b = b", "c = c", "d = d", "false"]))
    if rng.random() < 0.2:
        return neg(_random_prop(rng, depth - 1))
    kind = rng.choice([And, Or, Imp, Imp])
    return kind(_random_prop(rng, depth - 1),
                _random_prop(rng, rng.randrange(depth)))


def _tautology(f):
    def value(g, val):
        if isinstance(g, Falsum):
            return False
        if isinstance(g, Eq):
            return val[g.left.name]
        left, right = value(g.left, val), value(g.right, val)
        return {And: left and right, Or: left or right,
                Imp: not left or right}[type(g)]
    return all(value(f, dict(zip("abcd", bits)))
               for bits in itertools.product([True, False], repeat=4))


def _population():
    """Every quantifier-prefix implication under both logics (budget 64),
    seeded propositional Glivenko triples, tautologies and not in turn
    (budget 200), and ~^n (x = x) for n = 8 and 25 (budget 2000)."""
    for a, b in itertools.product(PREFIX, repeat=2):
        f = parse(f"({PREFIX[a]}) -> ({PREFIX[b]})")
        for logic in Logic:
            yield f, logic, 64
    rng = random.Random(13)
    for i in range(100):
        f = _random_prop(rng, rng.choice([2, 3]))
        while _tautology(f) != (i % 2 == 0):
            f = _random_prop(rng, rng.choice([2, 3]))
        yield f, CL, 200
        yield neg(neg(f)), INT, 200
        yield dn_translate(f), INT, 200
    for n in (8, 25):
        f = parse("x = x")
        for _ in range(n):
            f = neg(f)
        yield f, INT, 2000


# sha256 over (outcome, expanded, limit, loop hits, memo hits, sha256 of
# derivation.render() or of "") per target of _population, in order.
POPULATION_DIGEST = (
    "1478f55826402c73146ed924279283cb7e35780df85ac20d7d7c0fb41d6a2e61")


def test_search_population_is_unchanged():
    digest = hashlib.sha256()
    for f, logic, budget in _population():
        r = prove_formula(f, logic, budget=budget)
        text = r.derivation.render() if r.derivation else ""
        digest.update(repr((
            r.outcome.value, r.expanded, r.limit, r.loop_hits, r.memo_hits,
            hashlib.sha256(text.encode()).hexdigest())).encode())
    assert digest.hexdigest() == POPULATION_DIGEST


# -- the node table searches as the failed and ancestor sets did -------------


class _ReferenceSearch(prover._Search):
    """_Search.prove as it was: a set of failed sequents and a set of the
    sequents on the branch, with each expansion building its steps anew.
    ``seen`` collects the distinct sequents expanded."""

    def __init__(self, logic, budget, allow_cut):
        super().__init__(logic, budget, allow_cut)
        self.failed, self.ancestors, self.seen = set(), set(), set()

    def prove(self, s):
        right = s.right
        for f in s.left:
            if isinstance(f, prover._ATOMS) and f in right:
                return Derivation("init", s)
        if prover._FALSE in s.left:
            return Derivation("L-false", s)
        if s in self.failed:
            self.memo_hits += 1
            return None
        ancestors = self.ancestors
        if s in ancestors:
            self.loop_hits += 1
            return None
        if self.expanded >= self.budget:
            self.limit = "nodes"
            return None
        if len(ancestors) >= self.MAX_DEPTH:
            self.limit = self.limit or "depth"
            return None
        self.expanded += 1
        self.seen.add(s)
        loops_before = self.loop_hits
        ancestors.add(s)
        try:
            for rule, premises in self._steps(s):
                subs = []
                for p in premises:
                    d = self.prove(p)
                    if d is None:
                        break
                    subs.append(d)
                else:
                    return Derivation(rule, s, tuple(subs))
        finally:
            ancestors.discard(s)
        if self.loop_hits == loops_before and self.limit is None:
            self.failed.add(s)
        return None


def _prove_reference(f, logic, budget, allow_cut=False):
    """prove_formula through _ReferenceSearch: the fields of its
    ProveResult, with revisits counted as the expansions beyond the
    distinct sequents expanded."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000))
    try:
        search = _ReferenceSearch(logic, budget, allow_cut)
        d = search.prove(Sequent.make((), (prover.desugar(f),)))
    finally:
        sys.setrecursionlimit(limit)
    outcome = (Outcome.PROVED if d is not None else
               Outcome.BUDGET_EXCEEDED if search.limit else
               Outcome.NOT_PROVABLE)
    return (outcome, search.expanded, search.limit, search.loop_hits,
            search.memo_hits, d.render() if d else "",
            search.expanded - len(search.seen))


def _differential_targets(kind):
    if kind == "population":
        for f, logic, budget in _population():
            yield f, logic, budget, False
    elif kind == "cut":
        # every seventh target, with cut admitted
        for f, logic, budget in itertools.islice(_population(), 0, None, 7):
            yield f, logic, budget, True
    elif kind == "depth-3":
        for f, logic, budget in _population():
            yield f, logic, budget, False
    else:
        # every quantifier-prefix implication at budget 400, where the
        # sequents grow widest; classically too would take 10 s more
        for a, b in itertools.product(PREFIX, repeat=2):
            f = parse(f"({PREFIX[a]}) -> ({PREFIX[b]})")
            yield f, INT, 400, False


@pytest.mark.parametrize("kind", ["population", "cut", "depth-3",
                                  "prefix-400"])
def test_search_matches_the_set_based_reference(kind, monkeypatch):
    """The node table, which keeps a revisited sequent's steps, searches
    exactly as the failed and ancestor sets did: the same outcome, nodes,
    limit, loop and memo hits and derivation.  Its revisits are the
    expansions beyond the distinct sequents the reference expanded."""
    if kind == "depth-3":
        monkeypatch.setattr(prover._Search, "MAX_DEPTH", 3)
    count = revisits = 0
    for f, logic, budget, cut in _differential_targets(kind):
        r = prove_formula(f, logic, budget=budget, allow_cut=cut)
        got = (r.outcome, r.expanded, r.limit, r.loop_hits, r.memo_hits,
               r.derivation.render() if r.derivation else "", r.revisits)
        assert got == _prove_reference(f, logic, budget, cut), \
            (render(f), logic, budget, cut)
        count += 1
        revisits += r.revisits
    assert count >= 36
    # kept steps are replayed here; depth 3 cuts every branch short, and
    # the budget-400 searches expand no sequent twice
    assert (revisits > 0) == (kind in ("population", "cut"))


def test_revisits_count_expansions_of_expanded_sequents():
    f = parse("x = x")
    for _ in range(8):
        f = neg(f)
    r = prove_formula(f, INT, budget=2000)
    assert (r.outcome, r.expanded, r.loop_hits) == \
        (Outcome.BUDGET_EXCEEDED, 2000, 10439)
    distinct = r.expanded - r.revisits
    assert distinct == _prove_reference(f, INT, 2000)[1] - \
        _prove_reference(f, INT, 2000)[-1]
    assert 0 < distinct < 100
    # a search that meets no sequent twice revisits none
    assert prove_formula(parse("x = x -> x = x"), INT).revisits == 0


def test_search_state_is_scoped_to_one_search():
    """With the cycle collector off, a search leaves nothing behind: its
    node table, kept generators and the formulas it built die with it.  A
    proof found with revisited sequents leaves their generators
    suspended."""
    refuted = parse("(ex x. ex y. x in y) -> (all x. all y. x in y)")
    wide = parse("x = x")
    for _ in range(8):
        wide = neg(wide)
    proved = dn_translate(parse(PROPS[3]))

    def alive():
        return sum(isinstance(o, (prover._Search, prover._Node))
                   for o in gc.get_objects())

    gc.collect()
    gc.disable()
    try:
        before = len(formula._table)
        r = prove_formula(refuted, INT)
        assert r.outcome is Outcome.NOT_PROVABLE
        del r
        assert len(formula._table) == before
        assert alive() == 0
        r = prove_formula(wide, INT, budget=2000)
        assert r.outcome is Outcome.BUDGET_EXCEEDED and r.revisits > 0
        del r
        assert len(formula._table) == before
        assert alive() == 0
        r = prove_formula(proved, INT, budget=200)
        assert r.outcome is Outcome.PROVED and r.revisits > 0
        del r
        assert alive() == 0
    finally:
        gc.enable()


def _render_make_reference(left, right):
    """Sequent.make as it was: dedup by rendering, sorted by rendering."""
    def dedup(fs):
        seen = {}
        for f in fs:
            seen.setdefault(render(f), f)
        return tuple(seen[k] for k in sorted(seen))
    return Sequent(dedup(left), dedup(right))


def _free_vars_reference(f):
    """free_vars as it was: a recursion over the formula."""
    def term(t):
        return {t.name} if isinstance(t, Var) else set()

    match f:
        case Falsum():
            return set()
        case Eq(l, r) | Mem(l, r):
            return term(l) | term(r)
        case ClassMem(e, _):
            return term(e)
        case And(l, r) | Or(l, r) | Imp(l, r):
            return _free_vars_reference(l) | _free_vars_reference(r)
        case BigAnd(parts) | BigOr(parts):
            return set().union(*map(_free_vars_reference, parts))
        case BoundedAll(v, b, body) | BoundedEx(v, b, body):
            return term(b) | (_free_vars_reference(body) - {v})
        case All(v, body) | Ex(v, body):
            return _free_vars_reference(body) - {v}


def test_sequents_match_the_render_keyed_reference(monkeypatch):
    """Every sequent the search builds, the endsequent from Sequent.make
    and each premise merged into its parent's order, including the
    premises of cuts, has the sides the render-keyed make gives for its
    formulas."""
    made = []
    new = Sequent.__new__

    def recording(cls, left, right):
        s = new(cls, left, right)
        made.append(s)
        return s

    monkeypatch.setattr(Sequent, "__new__", recording)
    for label, f, logic, budget in _pinned_targets():
        prove_formula(f, logic, budget=budget)
    for f in bounded_formulas(1, 2, limit=40):
        prove_formula(Imp(f, f), INT, budget=100)
    for text in PROPS:
        prove_formula(parse(text), INT, budget=100, allow_cut=True)
    monkeypatch.undo()
    assert len(made) > 5000
    formulas = set()
    for s in made:
        ref = _render_make_reference(s.left, s.right)
        assert s.left == ref.left and s.right == ref.right
        formulas.update(s.left + s.right)
    for f in formulas:
        for g in subformulas(f):
            assert free_vars(g) == _free_vars_reference(g)


# -- mutation test for check_derivation ---------------------------------------

RULE_ARITY = {
    "init": 0, "L-false": 0, "L-and": 1, "R-or": 1, "R-imp": 1,
    "L-bigand": 1, "R-bigor": 1, "L-all": 1, "R-all": 1, "L-ex": 1, "R-ex": 1,
    "R-and": 2, "L-or": 2, "L-imp": 2, "cut": 2,
    "L-bigor": None, "R-bigand": None,  # one premise per part
}
CHECKED_TARGETS = [
    "x = x -> x = x", "false -> x in y", "x = x & y = y -> y = y",
    "x = x -> x = x | y = y", "~(x = x | y = y) -> ~(x = x)",
    "(x = x -> y = y) -> (~(y = y) -> ~(x = x))", "~~(x = x | ~(x = x))",
    "(all x. x in a) -> {} in a", "{} in a -> (ex x. x in a)",
    "(all x. x in a & x in b) -> (all x. x in a)", "x = x | ~(x = x)",
    "~~(x = x) -> x = x", "((x = x -> y = y) -> x = x) -> x = x",
    "(ex x. all y. x in y) -> (all y. ex x. x in y)",
    "(all x in a. x in b) -> ({} in a -> {} in b)",
    "({} in a & {} in b) -> (ex x in a. x in b)",
    "x = x & y = y -> y = y | z = z", "all y. (y in x -> y in x)",
    "(ex y. y in x) -> ex y. y in x",
]


def _prover_derivations():
    """Every proof the prover finds for the targets of this file and for a
    seeded sample of corpus formulas (as f -> f and as ~~(f | ~f), so that
    most are provable), under both logics."""
    pool = bounded_formulas(1, 2, limit=250)
    quantified = [f for f in pool
                  if any(isinstance(g, QUANTIFIERS) for g in subformulas(f))]
    rng = random.Random(5)
    sample = rng.sample(pool, 10) + rng.sample(quantified, 14)
    targets = [parse(t) for t in CHECKED_TARGETS]
    targets += [Imp(f, f) for f in sample]
    targets += [neg(neg(Or(f, neg(f)))) for f in sample]
    for f in targets:
        for logic in Logic:
            r = prove_formula(f, logic, budget=300)
            if r.outcome is Outcome.PROVED:
                yield r.derivation, logic


def _nodes(d, path=()):
    yield path, d
    for i, p in enumerate(d.premises):
        yield from _nodes(p, path + (i,))


def _replace(d, path, node):
    if not path:
        return node
    premises = list(d.premises)
    premises[path[0]] = _replace(premises[path[0]], path[1:], node)
    return Derivation(d.rule, d.conclusion, tuple(premises))


def _axiom_applies(rule, s):
    if rule == "init":
        return any(isinstance(f, (Eq, Mem, ClassMem)) and f in s.right
                   for f in s.left)
    return any(isinstance(f, Falsum) for f in s.left)


def _sequent_vars(s):
    return set().union(*map(free_vars, s.left + s.right))


def test_check_derivation_mutations():
    """Each proof is accepted; each copy with one node corrupted (its rule
    renamed, a premise dropped, or its eigenvariable swapped for a variable
    free in its conclusion) is rejected at that node."""
    derivations = list(_prover_derivations())
    assert len(derivations) > 100
    counts = {"rename": 0, "drop": 0, "eigen": 0}
    for n, (d, logic) in enumerate(derivations):
        report = check_derivation(d, logic)
        assert report.ok, (report.reason, d.conclusion.render())
        rng = random.Random(n)
        nodes = list(_nodes(d))
        corrupted = []
        for path, node in rng.sample(nodes, min(3, len(nodes))):
            for rule in RULE_ARITY:
                if rule != node.rule \
                        and RULE_ARITY[rule] in (None, len(node.premises)) \
                        and not (RULE_ARITY[rule] == 0
                                 and _axiom_applies(rule, node.conclusion)):
                    corrupted.append(("rename", path, Derivation(
                        rule, node.conclusion, node.premises)))
        branching = [(path, node) for path, node in nodes if node.premises]
        for path, node in rng.sample(branching, min(3, len(branching))):
            for i in range(len(node.premises)):
                corrupted.append(("drop", path, Derivation(
                    node.rule, node.conclusion,
                    node.premises[:i] + node.premises[i + 1:])))
        for path, node in nodes:
            if node.rule not in ("R-all", "L-ex"):
                continue
            (above,) = node.premises
            outside = _sequent_vars(node.conclusion)
            (eigen,) = _sequent_vars(above.conclusion) - outside
            for x in sorted(outside)[:2]:
                p = above.conclusion
                swapped = Sequent.make(
                    [substitute(f, eigen, Var(x)) for f in p.left],
                    [substitute(f, eigen, Var(x)) for f in p.right])
                corrupted.append(("eigen", path, Derivation(
                    node.rule, node.conclusion,
                    (Derivation(above.rule, swapped, above.premises),))))
        for kind, path, bad in corrupted:
            report = check_derivation(_replace(d, path, bad), logic)
            assert not report.ok, (kind, bad.rule, bad.conclusion.render())
            assert report.invalid == bad.conclusion
            counts[kind] += 1
    assert counts["rename"] > 2000
    assert counts["drop"] > 300
    assert counts["eigen"] > 200


BIG_SEQUENTS = [
    (["x = x"], ["bigor [y = y, x = x]"], "R-bigor"),
    ([], ["bigand [x = x -> x = x, y = y -> y = y]"], "R-bigand"),
    (["bigor [x = x, y = y]"], ["bigor [y = y, x = x]"], "L-bigor"),
    (["bigand [x = x, y = y]"], ["bigand [y = y, x = x]"], "R-bigand"),
]


@pytest.mark.parametrize("logic", Logic)
@pytest.mark.parametrize("left, right, rule", BIG_SEQUENTS)
def test_big_connective_rules_are_checked(logic, left, right, rule):
    """A proof through each big-connective rule is accepted, and each copy
    with one node renamed to another rule of its premise count, or with a
    premise dropped, is rejected at that node."""
    r = prove(_sequent(left, right), logic)
    assert r.outcome is Outcome.PROVED
    d = r.derivation
    nodes = list(_nodes(d))
    assert rule in {node.rule for _, node in nodes}
    # every big formula here has two parts, and these rules one premise each
    assert all(len(node.premises) == 2 for _, node in nodes
               if node.rule in ("L-bigor", "R-bigand"))
    assert check_derivation(d, logic).ok
    corrupted = []
    for path, node in nodes:
        for other in RULE_ARITY:
            if other != node.rule \
                    and RULE_ARITY[other] in (None, len(node.premises)) \
                    and not (RULE_ARITY[other] == 0
                             and _axiom_applies(other, node.conclusion)):
                corrupted.append((path, Derivation(
                    other, node.conclusion, node.premises)))
        for i in range(len(node.premises)):
            corrupted.append((path, Derivation(
                node.rule, node.conclusion,
                node.premises[:i] + node.premises[i + 1:])))
    for path, bad in corrupted:
        report = check_derivation(_replace(d, path, bad), logic)
        assert not report.ok, (bad.rule, bad.conclusion.render())
        assert report.invalid == bad.conclusion


def test_check_derivation_walks_each_formula_at_most_twice(monkeypatch):
    """Within one check, a formula is walked once for its scan and at most
    once more for the endsequent's skeleton set, however many nodes it
    occurs in."""
    proofs = [(r.derivation, logic) for text in CHECKED_TARGETS
              for logic in Logic
              if (r := prove_formula(parse(text), logic, budget=300)).outcome
              is Outcome.PROVED]
    assert len(proofs) > 30
    walks = collections.Counter()

    def counting(f):
        walks[f] += 1
        return subformulas(f)

    monkeypatch.setattr(prover, "subformulas", counting)
    for d, logic in proofs:
        walks.clear()
        assert check_derivation(d, logic).ok
        assert max(walks.values()) <= 2, d.conclusion.render()
