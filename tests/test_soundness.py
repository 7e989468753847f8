"""The forcing model as an independent oracle for the prover and for
satisfaction.

Soundness of Heyting-valued models (Grayson, "Heyting-valued models for
intuitionistic set theory", LNM 753, 1979): a formula the intuitionistic
search proves is forced with top value in every frame under every
assignment, and a classically proved one in the two-element frame.  Delta0
absoluteness: a bounded formula has value top or bottom under canonical
names, as it holds or fails of the sets they name.  Forcing shares no code
with the prover or with ``semantics``.  Below the whole formula, every node
of a propositional proof is checked locally sound in the frames, with an
evaluator written here on the frame operations.
"""

import itertools

import pytest

from czfkit import hf, prover, semantics, topology as tp
from czfkit.corpus import bounded_formulas
from czfkit.formula import (
    And, BigAnd, BigOr, BoundedAll, BoundedEx, Eq, Falsum, Imp, Mem, Or, Var,
    free_vars, parse, render, subformulas,
)
from czfkit.names import Interpreter, check_name, name_universe
from test_acceptance import _all_posets_up_to_3

TOPOLOGIES = _all_posets_up_to_3()


def _assignments(f, names):
    variables = sorted(free_vars(f))
    return [dict(zip(variables, combo))
            for combo in itertools.product(names, repeat=len(variables))]


@pytest.fixture(scope="module")
def proved():
    corpus = bounded_formulas(1, 3, 250) + bounded_formulas(2, 2, 120)
    assert len(corpus) == 370
    return {logic: [f for f in corpus if prover.prove_formula(
                f, logic, budget=2000).outcome is prover.Outcome.PROVED]
            for logic in prover.Logic}


def test_intuitionistic_proofs_are_forced_in_every_frame(proved):
    formulas = proved[prover.Logic.INTUITIONISTIC]
    assert len(formulas) == 95
    assert len(TOPOLOGIES) == 23
    checked = 0
    for t in TOPOLOGIES:
        u = name_universe(t, 1)
        it, top = Interpreter(u), tp.top(t)
        for f in formulas:
            for env in _assignments(f, u.names):
                assert it.value(f, env) == top, (t, f, env)
                checked += 1
    assert checked == 14685


def test_classical_proofs_are_true_in_the_two_element_frame(proved):
    formulas = proved[prover.Logic.CLASSICAL]
    assert len(formulas) == 95
    u = name_universe(tp.omega(), 1)
    it, top = Interpreter(u), tp.top(u.topology)
    checked = 0
    for f in formulas:
        for env in _assignments(f, u.names):
            assert it.value(f, env) == top, (f, env)
            checked += 1
    assert checked == 291


def _big_connective_implications():
    """(formula, valid) over corpus atoms in x1, x2: for each list ps of two
    or three of them, the valid BigOr(ps) -> BigOr(reversed ps),
    BigAnd(ps) -> BigAnd(reversed ps), BigAnd(ps) -> p and p -> BigOr(ps),
    and the converses BigOr(ps) -> p and p -> BigAnd(ps), which are not."""
    atoms = [f for f in bounded_formulas(2, 1, 50)
             if render(f) in ("x1 = x2", "x1 in x2", "x2 in x1")]
    assert len(atoms) == 3
    out = []
    for ps in [*itertools.combinations(atoms, 2), tuple(atoms)]:
        for big in (BigOr, BigAnd):
            out.append((Imp(big(ps), big(ps[::-1])), True))
        for p in ps:
            out += [(Imp(BigAnd(ps), p), True), (Imp(p, BigOr(ps)), True),
                    (Imp(BigOr(ps), p), False), (Imp(p, BigAnd(ps)), False)]
    return out


def test_big_connective_proofs_are_forced_in_every_frame():
    """The prover's big-connective rules under the soundness net: every
    valid implication is proved, no converse is, and each proved one is
    forced with top value in every frame under every assignment."""
    candidates = _big_connective_implications()
    assert len(candidates) == 44
    proved = [f for f, _ in candidates if prover.prove_formula(
        f, prover.Logic.INTUITIONISTIC, budget=2000).outcome
        is prover.Outcome.PROVED]
    checked = 0
    for t in TOPOLOGIES:
        u = name_universe(t, 1)
        it, top = Interpreter(u), tp.top(t)
        for f in proved:
            for env in _assignments(f, u.names):
                assert it.value(f, env) == top, (t, f, env)
                checked += 1
    assert proved == [f for f, valid in candidates if valid]
    assert checked == 26 * 807


def test_bounded_formulas_are_absolute_for_canonical_names():
    quantified = [f for f in bounded_formulas(1, 3, 250)
                  if any(isinstance(g, (BoundedAll, BoundedEx))
                         for g in subformulas(f))]
    assert len(quantified) == 72
    sets = list(hf.v_stage(3))
    assert len(sets) == 4
    checked = 0
    for t in TOPOLOGIES:
        # a bounded formula ranges over the entries of names only
        it = Interpreter(name_universe(t, 0))
        top, bottom = tp.top(t), tp.bottom(t)
        for a in sets:
            env = {"x1": check_name(a, t)}
            for f in quantified:
                holds = semantics.satisfies(hf.EMPTY, f, {"x1": a})
                assert it.value(f, env) == (top if holds else bottom), \
                    (t, f, a)
                checked += 1
    assert checked == 6624


def _stratum():
    """Every one-variable quantifier-free formula of at most 5 nodes over
    the atoms false, x1 = x1 and x1 in x1, smallest first."""
    x = Var("x1")
    by_size = {1: [Falsum(), Eq(x, x), Mem(x, x)]}
    for n in (3, 5):
        by_size[n] = [conn(left, right)
                      for k in range(1, n - 1, 2)
                      for left in by_size[k] for right in by_size[n - 1 - k]
                      for conn in (And, Or, Imp)]
    return by_size[1] + by_size[3] + by_size[5]


def _big_connective_stratum():
    """For each big connective over two distinct atoms of the stratum: the
    formula implying or implied by an atom, or by the connective over the
    atoms reversed.  Not all are valid, so that a big-connective rule that
    drops a premise proves one and fails at its node."""
    atoms = _stratum()[:3]
    out = []
    for big in (BigAnd, BigOr):
        for ps in itertools.permutations(atoms, 2):
            out.append(Imp(big(ps), big(ps[::-1])))
            for a in atoms:
                out += [Imp(big(ps), a), Imp(a, big(ps))]
    return out


# L-imp occurs in no proof of the two strata
L_IMP = "x1 = x1 & (x1 = x1 -> x1 in x1) -> x1 in x1"
PROPOSITIONAL_RULES = {
    "init", "L-false", "L-and", "R-and", "L-or", "R-or", "L-imp", "R-imp",
    "L-bigand", "R-bigand", "L-bigor", "R-bigor",
}


def _frame_value(t, f, valuation):
    """f's value in t's frame, each atom taking its value in valuation."""
    match f:
        case Falsum():
            return tp.bottom(t)
        case And(left, right):
            return tp.meet(t, _frame_value(t, left, valuation),
                           _frame_value(t, right, valuation))
        case Or(left, right):
            return tp.join(t, _frame_value(t, left, valuation),
                           _frame_value(t, right, valuation))
        case Imp(left, right):
            return tp.implies(t, _frame_value(t, left, valuation),
                              _frame_value(t, right, valuation))
        case BigAnd(parts):
            return tp.big_meet(t, [_frame_value(t, p, valuation)
                                   for p in parts])
        case BigOr(parts):
            return tp.big_join(t, [_frame_value(t, p, valuation)
                                   for p in parts])
    return valuation[f]


def _sequent_value(t, s, valuation):
    """Gamma => Delta read as the meet of Gamma implying the join of
    Delta."""
    return tp.implies(
        t, tp.big_meet(t, [_frame_value(t, f, valuation) for f in s.left]),
        tp.big_join(t, [_frame_value(t, f, valuation) for f in s.right]))


def _locally_sound(conclusion, premises, frames):
    """In every frame, for every valuation of the node's atoms, the meet of
    the premises' values is below the conclusion's value."""
    sequents = (conclusion, *premises)
    atoms = sorted({g for s in sequents for f in s.left + s.right
                    for g in subformulas(f) if isinstance(g, (Eq, Mem))},
                   key=render)
    for t in frames:
        for values in itertools.product(tp.frame_elements(t),
                                        repeat=len(atoms)):
            valuation = dict(zip(atoms, values))
            have = tp.big_meet(t, [_sequent_value(t, p, valuation)
                                   for p in premises])
            if not tp.leq(t, have, _sequent_value(t, conclusion, valuation)):
                return False
    return True


def _nodes(d, out):
    out.add((d.rule, d.conclusion, tuple(p.conclusion for p in d.premises)))
    for p in d.premises:
        _nodes(p, out)
    return out


def test_propositional_proof_nodes_are_locally_sound():
    """Every node of every proof found for the complete one-variable
    stratum of size <= 5 is locally sound: intuitionistic nodes in every
    frame of at most 3 points, classical ones in the two-element frame.  A
    rule that drops a premise passes the whole-formula check whenever no
    formula of a corpus needs that premise; here it fails at its node."""
    stratum = _stratum()
    assert len(stratum) == 3 + 27 + 486
    big = _big_connective_stratum()
    assert len(big) == 2 * 6 * (1 + 2 * 3)
    formulas = stratum + big + [parse(L_IMP)]
    frames = {prover.Logic.INTUITIONISTIC: TOPOLOGIES,
              prover.Logic.CLASSICAL: [tp.omega()]}
    for logic, logic_frames in frames.items():
        nodes = set()
        for f in formulas:
            result = prover.prove_formula(f, logic, budget=2000)
            if result.outcome is prover.Outcome.PROVED:
                _nodes(result.derivation, nodes)
        assert {rule for rule, _, _ in nodes} == PROPOSITIONAL_RULES, logic
        for rule, conclusion, premises in nodes:
            assert _locally_sound(conclusion, premises, logic_frames), \
                (logic, rule, conclusion.render())
