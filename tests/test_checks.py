import itertools

import pytest

from czfkit import hf
from czfkit.checks import (
    ElementarityReport, EmbeddingMap, RegularityLevel, _is_regular,
    check_critical_point, check_elementary, check_regular,
)
from czfkit.corpus import bounded_formulas
from czfkit.formula import render
from czfkit.hf import EMPTY, HFSet, hfset, kpair, parse_hf


ONE = hfset(EMPTY)
TWO = hfset(EMPTY, ONE)
V3 = hf.v_stage(3)


def test_regular_requires_transitive():
    with pytest.raises(ValueError):
        check_regular(hfset(ONE), RegularityLevel.REGULAR)


def test_regular_small_sets():
    assert check_regular(EMPTY, RegularityLevel.REGULAR).ok
    assert check_regular(ONE, RegularityLevel.REGULAR).ok


def test_regular_counterexample():
    # R = {<0,1>} from the member 1 has no image inside {0,1}
    report = check_regular(TWO, RegularityLevel.REGULAR)
    assert not report.ok
    assert any("regularity" in msg for msg in report.failures)


def _is_regular_reference(a_set):
    """The regularity search over every inhabited subset of the set with at
    most |a| members, smallest first; a missing subset converts back to an
    explicit relation by cycling its elements over a."""
    members = list(a_set)
    sizes = sorted({len(a) for a in a_set if a})
    if not sizes:
        return None
    largest = sizes[-1]
    for r in range(1, min(largest, len(members)) + 1):
        for combo in itertools.combinations(members, r):
            s = hf.hfset(*combo)
            if s in a_set:
                continue
            for a in a_set:
                if len(a) >= r:
                    xs = list(a)
                    ran = list(s)
                    pairs = HFSet(hf.kpair(xs[i], ran[i % len(ran)])
                                  for i in range(len(xs)))
                    return f"no image in the set for a={a} R={pairs}"
    return None


def test_regularity_matches_the_full_search_on_v4():
    transitive = [s for s in hf.subsets(hf.v_stage(4)) if s.is_transitive()]
    assert len(transitive) == 4131
    regular = []
    for s in transitive:
        got = _is_regular(s)
        assert got == _is_regular_reference(s), s
        if got is None:
            regular.append(s)
    # on hereditarily finite sets regular holds for the empty set and {0}
    assert regular == [EMPTY, ONE]


def test_bcst_level():
    # the empty set misses the empty-set clause; inhabited sets break
    # pairing closure, which would force infinitely many members
    report = check_regular(EMPTY, RegularityLevel.BCST)
    assert not report.ok
    assert any("empty set" in msg for msg in report.failures)
    report = check_regular(ONE, RegularityLevel.BCST)
    assert not report.ok
    assert any("pair" in msg for msg in report.failures)


def test_bcst_union_and_intersection_failures():
    report = check_regular(parse_hf("{{{{{}}},{{}},{}},{{{}}},{{}},{}}"),
                           RegularityLevel.BCST)
    assert report.failures[1:] == (
        "bcst: pair of {{{{}}},{{}},{}} and {{{{}}},{{}},{}} missing",
        "bcst: union of {{{{}}},{{}},{}} missing")
    report = check_regular(parse_hf("{{{{{}},{}},{{}}},{{{}},{}},{{}},{}}"),
                           RegularityLevel.BCST)
    assert report.failures[1:] == (
        "bcst: pair of {{{{}},{}},{{}}} and {{{{}},{}},{{}}} missing",
        "bcst: intersection of {{{{}},{}},{{}}} and {{{}},{}} missing")


def test_inaccessible_intersection_failure():
    # the members of a = {m1, m2} meet in 2, which the set lacks
    m1 = hfset(EMPTY, ONE, hfset(hfset(ONE)))
    m2 = hfset(EMPTY, ONE, hfset(ONE))
    a = hfset(m1, m2)
    a_set = hfset(EMPTY, ONE, hfset(ONE), hfset(hfset(ONE)), m1, m2, a)
    assert a_set.is_transitive() and TWO not in a_set
    report = check_regular(a_set, RegularityLevel.INACCESSIBLE)
    assert f"inaccessible: intersection of {a} missing" in report.failures


def test_inaccessible_omega_clause_always_reported():
    for a in [EMPTY, ONE]:
        report = check_regular(a, RegularityLevel.INACCESSIBLE)
        assert not report.ok
        assert any("omega" in msg for msg in report.failures)


def test_embedding_validation():
    with pytest.raises(ValueError):
        EmbeddingMap(source=hfset(ONE), target=TWO, graph={ONE: ONE})
    with pytest.raises(ValueError):
        EmbeddingMap(source=TWO, target=TWO, graph={EMPTY: EMPTY})
    with pytest.raises(ValueError):
        EmbeddingMap(source=ONE, target=ONE, graph={EMPTY: ONE})
    with pytest.raises(ValueError, match="outside the source"):
        EmbeddingMap(source=ONE, target=TWO, graph={EMPTY: EMPTY, ONE: ONE})


def test_elementary_identity():
    j = EmbeddingMap(source=TWO, target=TWO,
                     graph={EMPTY: EMPTY, ONE: ONE})
    report = check_elementary(j, depth=2, limit=60)
    assert report.ok
    assert report.checked > 0


def test_elementary_refuses_a_negative_depth():
    j = EmbeddingMap(source=TWO, target=TWO,
                     graph={EMPTY: EMPTY, ONE: ONE})
    with pytest.raises(ValueError, match="^max_depth must be a natural"):
        check_elementary(j, -3)


def test_elementary_into_larger_target():
    j = EmbeddingMap(source=ONE, target=TWO, graph={EMPTY: EMPTY})
    assert check_elementary(j, depth=2, limit=60).ok


def test_elementary_failure_has_witness():
    # sending the empty set to an inhabited set breaks a bounded existential
    j = EmbeddingMap(source=ONE, target=TWO, graph={EMPTY: ONE})
    report = check_elementary(j, depth=2, limit=120)
    assert not report.ok
    assert report.formula is not None
    assert report.arguments == (EMPTY,)


def test_elementary_failure_needs_two_parameters():
    """j sends 1 to {1}, so it keeps every one-parameter formula at depth 1
    but not 0 in 1: only the two-parameter half of the check sees it."""
    j = EmbeddingMap(source=TWO, target=hfset(EMPTY, ONE, hfset(ONE)),
                     graph={EMPTY: EMPTY, ONE: hfset(ONE)})
    report = check_elementary(j, depth=1)
    assert not report.ok
    assert render(report.formula) == "x1 in x2"
    assert report.arguments == (EMPTY, ONE)
    assert report.checked > len(bounded_formulas(1, 1)) * len(TWO)


def test_critical_point_identity_fails():
    j = EmbeddingMap(source=TWO, target=TWO,
                     graph={EMPTY: EMPTY, ONE: ONE})
    assert not check_critical_point(j, ONE)


def test_critical_point_positive():
    j = EmbeddingMap(source=TWO, target=V3, graph={EMPTY: EMPTY, ONE: TWO})
    assert check_critical_point(j, ONE)


def test_critical_point_moved_member_fails():
    j = EmbeddingMap(source=TWO, target=V3, graph={EMPTY: ONE, ONE: TWO})
    assert not check_critical_point(j, ONE)


def test_critical_point_not_transitive_fails():
    j = EmbeddingMap(source=V3, target=V3, graph={x: x for x in V3})
    assert not check_critical_point(j, hfset(ONE))


def test_critical_point_outside_source():
    j = EmbeddingMap(source=ONE, target=ONE, graph={EMPTY: EMPTY})
    with pytest.raises(ValueError):
        check_critical_point(j, ONE)
