"""The forcing model as an independent oracle for the prover and for
satisfaction.

Soundness of Heyting-valued models (Grayson, "Heyting-valued models for
intuitionistic set theory", LNM 753, 1979): a formula the intuitionistic
search proves is forced with top value in every frame under every
assignment, and a classically proved one in the two-element frame.  Delta0
absoluteness: a bounded formula has value top or bottom under canonical
names, as it holds or fails of the sets they name.  Forcing shares no code
with the prover or with ``semantics``.
"""

import itertools

import pytest

from czfkit import hf, prover, semantics, topology as tp
from czfkit.corpus import bounded_formulas
from czfkit.formula import (
    BigAnd, BigOr, BoundedAll, BoundedEx, Imp, free_vars, render, subformulas,
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
