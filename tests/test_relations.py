import collections
import itertools

import pytest

from czfkit import hf
from czfkit.checks import RegularityLevel, check_regular
from czfkit.hf import EMPTY, BudgetExceeded, hfset, kpair
from czfkit.relations import (
    Direction, InductiveDef, MVRelation, adjust_mv, fullness_witness,
    is_closed, is_full, is_mv, lfp_inductive, lfp_stages, mv_relations,
)


ONE = hfset(EMPTY)
TWO = hfset(EMPTY, ONE)


def test_mv_relation_validates_sources():
    with pytest.raises(ValueError):
        MVRelation(frozenset({(ONE, EMPTY)}), domain=ONE, codomain=ONE)


def test_is_mv_forward():
    r = MVRelation(frozenset({(EMPTY, EMPTY)}), domain=ONE, codomain=TWO)
    assert is_mv(r)
    # misses a domain point
    r2 = MVRelation(frozenset(), domain=ONE, codomain=ONE)
    assert not is_mv(r2)
    # value outside the codomain
    r3 = MVRelation(frozenset({(EMPTY, ONE)}), domain=ONE, codomain=ONE)
    assert not is_mv(r3)


def test_is_mv_both():
    r = MVRelation(frozenset({(EMPTY, EMPTY)}), domain=ONE, codomain=TWO)
    assert is_mv(r, Direction.FORWARD)
    assert not is_mv(r, Direction.BOTH)
    r2 = MVRelation(frozenset({(EMPTY, EMPTY), (EMPTY, ONE)}),
                    domain=ONE, codomain=TWO)
    assert is_mv(r2, Direction.BOTH)


def _is_mv_scanning(r, direction=Direction.FORWARD):
    """The reference: nested scans over the domain, range and codomain."""
    dom = {x for x, _ in r.pairs}
    ran = {y for _, y in r.pairs}
    if not all(x in dom for x in r.domain):
        return False
    if not all(y in r.codomain for y in ran):
        return False
    if direction is Direction.BOTH:
        return all(any(y == b for y in ran) for b in r.codomain)
    return True


def test_is_mv_matches_the_scanning_reference():
    """Domains and codomains of at most two members of V_3; values range
    over the codomain and one member of V_3 outside it, when there is one."""
    v3 = list(hf.v_stage(3))
    small = [hfset(*c) for n in range(3) for c in itertools.combinations(v3, n)]
    seen = collections.Counter()
    for domain, codomain in itertools.product(small, repeat=2):
        values = list(codomain) + [x for x in v3 if x not in codomain][:1]
        slots = list(itertools.product(domain, values))
        for bits in range(1 << len(slots)):
            r = MVRelation(frozenset(p for i, p in enumerate(slots)
                                     if bits >> i & 1), domain, codomain)
            for direction in Direction:
                got = is_mv(r, direction)
                assert got == _is_mv_scanning(r, direction), (r, direction)
                seen[got] += 1
    assert seen[True] > 0 and seen[False] > 0


def test_adjust_mv():
    r = MVRelation(frozenset({(EMPTY, ONE)}), domain=ONE, codomain=TWO)
    out = adjust_mv(r)
    assert out.pairs == frozenset({(EMPTY, kpair(EMPTY, ONE))})
    assert out.domain == ONE
    assert out.codomain == hf.product(ONE, TWO)
    assert is_mv(out)


def test_adjust_mv_preserves_totality():
    for pair_set in mv_relations(TWO, TWO):
        pairs = frozenset(hf.unpair(p) for p in pair_set)
        r = MVRelation(pairs, domain=TWO, codomain=TWO)
        assert is_mv(adjust_mv(r))


def test_mv_relations_count():
    # per point, any inhabited subset of the codomain: (2^|b| - 1)^|a|
    assert len(list(mv_relations(ONE, TWO))) == 3
    assert len(list(mv_relations(TWO, TWO))) == 9
    assert list(mv_relations(EMPTY, TWO)) == [EMPTY]
    with pytest.raises(BudgetExceeded):
        list(mv_relations(TWO, TWO, max_count=5))


def test_mv_relations_are_mv():
    for pair_set in mv_relations(TWO, ONE):
        pairs = frozenset(hf.unpair(p) for p in pair_set)
        assert is_mv(MVRelation(pairs, domain=TWO, codomain=ONE))


def test_is_full_examples():
    # the full collection of all mv-functions is trivially full
    c = hfset(*mv_relations(ONE, ONE))
    assert is_full(c, ONE, ONE)
    assert not is_full(EMPTY, ONE, ONE)
    # a member that is not an mv-function disqualifies c
    assert not is_full(hfset(ONE), ONE, ONE)
    # a single total function refines everything from 1 to 1
    single = hfset(kpair(EMPTY, EMPTY))
    assert is_full(hfset(single), ONE, ONE)
    # but one choice per point is not enough when values can differ
    single2 = hfset(kpair(EMPTY, EMPTY))
    assert not is_full(hfset(single2), ONE, TWO)
    full2 = hfset(*mv_relations(ONE, TWO))
    assert is_full(full2, ONE, TWO)


def _is_full_reference(c, a, b, max_count=65536):
    """is_full as it was before the enumeration was shared."""
    all_mv = list(mv_relations(a, b, max_count))
    if not all(s in set(all_mv) for s in c):
        return False
    return all(any(s.is_subset(r) for s in c) for r in all_mv)


# transitive sets drawn from V_3, V_3 itself among them
TRANSITIVE = [ONE, TWO, hfset(EMPTY, ONE, hfset(ONE)), hf.v_stage(3)]


def test_fullness_witness_agrees_with_each_candidate():
    hits = 0
    for a_set in TRANSITIVE:
        for a, b in itertools.product(a_set, repeat=2):
            all_mv = list(mv_relations(a, b))
            candidates = list(a_set) + [hfset(*all_mv)] \
                + [hfset(r) for r in all_mv]
            full = [c for c in candidates if _is_full_reference(c, a, b)]
            assert [c for c in candidates if is_full(c, a, b)] == full
            assert fullness_witness(candidates, a, b) is \
                (full[0] if full else None)
            hits += bool(full)
    assert hits > 0


def test_fullness_witness_keeps_the_budget():
    with pytest.raises(BudgetExceeded):
        fullness_witness([EMPTY], TWO, TWO, max_count=5)
    with pytest.raises(BudgetExceeded):
        is_full(EMPTY, TWO, TWO, max_count=5)


def _fullness_clause_reference(a_set, max_count):
    """check_regular's fullness clause with is_full asked per candidate."""
    for a, b in itertools.product(a_set, repeat=2):
        if not any(_is_full_reference(c, a, b, max_count) for c in a_set):
            return f"inaccessible: no fullness witness for a={a} b={b}"
    return None


@pytest.mark.parametrize("max_count", [0, 1, 3, 9, 65536])
def test_check_regular_fullness_clause_and_budget(max_count):
    for a_set in TRANSITIVE:
        try:
            want = _fullness_clause_reference(a_set, max_count)
        except BudgetExceeded:
            want = BudgetExceeded
        try:
            failures = check_regular(a_set, RegularityLevel.INACCESSIBLE,
                                     max_count).failures
            got = next((f for f in failures if "fullness" in f), None)
        except BudgetExceeded:
            got = BudgetExceeded
        assert got == want


def test_lfp_empty_rules():
    assert lfp_inductive(InductiveDef()) == EMPTY


def test_lfp_examples():
    phi = InductiveDef(frozenset({(EMPTY, EMPTY), (ONE, ONE)}))
    assert lfp_inductive(phi) == TWO
    # {<1,1>} alone never fires: the premise 1 = {0} is never reached
    phi2 = InductiveDef(frozenset({(ONE, ONE)}))
    assert lfp_inductive(phi2) == EMPTY


def test_lfp_stage_monotone():
    phi = InductiveDef(frozenset({(EMPTY, EMPTY), (ONE, ONE),
                                  (TWO, hfset(TWO))}))
    stages = lfp_stages(phi)
    for s1, s2 in zip(stages, stages[1:]):
        assert s1.is_subset(s2) and s1 != s2
    assert stages[-1] == hfset(EMPTY, ONE, hfset(TWO))


def test_lfp_is_least_closed():
    conclusions = [EMPTY, ONE, TWO, hfset(ONE)]
    rules = frozenset({(EMPTY, EMPTY), (ONE, ONE), (hfset(ONE), TWO)})
    phi = InductiveDef(rules)
    fix = lfp_inductive(phi)
    assert is_closed(phi, fix)
    universe = hfset(*conclusions)
    for k in range(len(conclusions) + 1):
        for combo in itertools.combinations(conclusions, k):
            c = hfset(*combo)
            if is_closed(phi, c):
                assert fix.is_subset(c)
    assert fix.is_subset(universe)
