import itertools

import pytest

from czfkit import topology as tp
from czfkit.topology import (
    FormalTopology, SetPresentation, TopologyError, big_join, big_meet,
    bottom, check_presentation, frame_elements, from_poset, implies, join,
    leq, meet, nucleus, omega, parse_frame_element, parse_topology,
    render_frame_element, render_topology, top, validate,
)


def chain2():
    return from_poset(["a", "b"], [("a", "b")])


def antichain2():
    return from_poset(["a", "b"], [])


def test_omega_validates():
    assert validate(omega()) == []


def test_poset_topologies_validate():
    assert validate(chain2()) == []
    assert validate(antichain2()) == []
    assert validate(from_poset(["a", "b", "c"],
                               [("a", "b"), ("b", "c")])) == []


def test_broken_cover_reports_reflexivity():
    t = omega()
    cover = dict(t.cover)
    cover[("0", frozenset(["0"]))] = False
    broken = FormalTopology(t.carrier, t.order, cover)
    violations = validate(broken)
    assert any(v.axiom == "reflexivity" for v in violations)


def test_carrier_budget():
    with pytest.raises(TopologyError):
        FormalTopology(tuple(f"t{i}" for i in range(11)), frozenset(), {})


def test_nucleus_on_chain():
    t = chain2()
    assert nucleus(t, frozenset(["b"])) == frozenset(["a", "b"])
    assert nucleus(t, frozenset(["a"])) == frozenset(["a"])
    assert nucleus(t, frozenset()) == frozenset()


def test_frame_element_counts():
    assert frame_elements(omega()) == [frozenset(), frozenset(["0"])]
    assert len(frame_elements(from_poset(["a"], []))) == 2
    assert len(frame_elements(chain2())) == 3
    # the antichain gives the four-element Boolean algebra
    assert len(frame_elements(antichain2())) == 4


def test_lattice_operations():
    t = chain2()
    a = frozenset(["a"])
    ab = frozenset(["a", "b"])
    assert top(t) == ab
    assert bottom(t) == frozenset()
    assert meet(t, a, ab) == a
    assert join(t, a, nucleus(t, frozenset(["b"]))) == ab
    assert leq(t, a, ab) and not leq(t, ab, a)


def test_implies_examples():
    t = omega()
    zero = frozenset(["0"])
    assert implies(t, zero, frozenset()) == frozenset()
    assert implies(t, frozenset(), zero) == zero
    assert implies(t, zero, zero) == zero


def test_adjunction_on_small_frames():
    for t in reference_topologies():
        frame = frame_elements(t)
        for p, q, r in itertools.product(frame, repeat=3):
            lhs = leq(t, r, implies(t, p, q))
            rhs = leq(t, meet(t, r, p), q)
            assert lhs == rhs, (t.carrier, p, q, r)


def test_nucleus_laws():
    for t in [omega(), chain2(), antichain2()]:
        subs = list(t.subsets())
        for p in subs:
            jp = nucleus(t, p)
            assert t.down(p) <= jp or not validate(t)
            assert nucleus(t, jp) == jp
            for q in subs:
                if p <= q:
                    assert jp <= nucleus(t, q)


def test_big_meet_big_join():
    t = antichain2()
    frame = frame_elements(t)
    assert big_meet(t, []) == top(t)
    assert big_join(t, []) == bottom(t)
    assert big_join(t, frame) == top(t)
    assert big_meet(t, frame) == bottom(t)


def test_from_poset_rejects_cycles():
    with pytest.raises(TopologyError):
        from_poset(["a", "b"], [("a", "b"), ("b", "a")])


def _from_poset_rescanning(elements, order_pairs):
    """The reference: close the order by rescanning every pair of pairs
    until nothing changes."""
    elements = tuple(elements)
    order = set(order_pairs) | {(a, a) for a in elements}
    changed = True
    while changed:
        changed = False
        for (a, b), (c, d) in itertools.product(list(order), repeat=2):
            if b == c and (a, d) not in order:
                order.add((a, d))
                changed = True
    for a, b in order:
        if a != b and (b, a) in order:
            raise TopologyError(f"not antisymmetric: {a} and {b}")
    cover = {}
    for r in range(len(elements) + 1):
        for combo in itertools.combinations(elements, r):
            for a in elements:
                cover[(a, frozenset(combo))] = any((a, c) in order
                                                   for c in combo)
    return FormalTopology(elements, frozenset(order), cover)


def _poset_outcome(build, elements, pairs):
    """The topology, or the error with the tokens it names: with more than
    one cycle, which pair the error names depends on iteration order."""
    try:
        return build(elements, pairs)
    except TopologyError as e:
        head, _, tokens = str(e).partition(": ")
        return head, "cycle" if head == "not antisymmetric" else tokens


def test_from_poset_matches_the_rescanning_reference():
    cases = []
    for n in range(5):
        points = "abcd"[:n]
        strict = [(a, b) for a in points for b in points if a != b]
        for bits in range(1 << len(strict)):
            cases.append((points, [p for i, p in enumerate(strict)
                                   if bits >> i & 1]))
    assert len(cases) == 4166
    cases += [("a", [("a", "z")]), ("a", [("z", "y")]),
              ("ab", [("a", "z"), ("z", "b"), ("b", "a")])]
    for elements, pairs in cases:
        assert _poset_outcome(from_poset, elements, pairs) == _poset_outcome(
            _from_poset_rescanning, elements, pairs), (elements, pairs)


def test_from_poset_names_the_first_cycle_in_carrier_order():
    with pytest.raises(TopologyError, match="^not antisymmetric: b and c$"):
        from_poset("abcd", [("a", "b"), ("c", "b"), ("b", "c"), ("d", "c")])
    with pytest.raises(TopologyError, match="^not antisymmetric: a and b$"):
        from_poset("abc", [("a", "b"), ("b", "c"), ("c", "a")])


def test_topology_rejects_repeated_tokens_and_rows_off_the_carrier():
    with pytest.raises(TopologyError,
                       match="^carrier tokens must be distinct$"):
        FormalTopology(("a", "a"), frozenset(), {})
    for row in [("z", frozenset()), ("a", frozenset("z"))]:
        with pytest.raises(TopologyError, match="^cover row off the carrier$"):
            FormalTopology(("a",), frozenset(), {row: True})


def test_presentation():
    t = chain2()
    fams = {a: frozenset(u for u in t.subsets() if t.covers(a, u)
                         and all(not (v < u and t.covers(a, v))
                                 for v in t.subsets()))
            for a in t.carrier}
    assert check_presentation(t, SetPresentation(fams))
    assert not check_presentation(t, SetPresentation({"a": frozenset()}))


def test_parse_render_round_trip():
    for t in [chain2(), antichain2(), *reference_topologies()]:
        again = parse_topology(render_topology(t))
        assert again.carrier == t.carrier
        assert again.order == t.order
        assert again.cover == t.cover
        assert again == t


def test_sparse_cover_is_the_same_topology():
    zero = frozenset(["0"])
    sparse = FormalTopology(("0",), frozenset({("0", "0")}),
                            {("0", zero): True})
    assert sparse == omega()
    assert sparse.cover == omega().cover == {("0", zero): True}


def test_parse_topology_errors():
    with pytest.raises(TopologyError):
        parse_topology("order: a<=b\n")
    with pytest.raises(TopologyError):
        parse_topology("carrier: a\nnonsense here\n")
    with pytest.raises(TopologyError):
        parse_topology("carrier: a\ncover: a | {a}\n")


def test_parse_topology_bad_subset_comments_and_blank_lines():
    with pytest.raises(TopologyError, match="^bad cover subset 'a'$"):
        parse_topology("carrier: a\ncover: a <| a\n")
    commented = ("# a chain\n\ncarrier: a b\n   \norder: a<=b\n"
                 "# its covers\n" + render_topology(chain2()).split("\n", 2)[2])
    assert parse_topology(commented) == chain2()


def test_frame_element_text():
    p = frozenset(["b", "a"])
    assert render_frame_element(p) == "{a,b}"
    assert parse_frame_element("{a,b}") == p
    assert parse_frame_element("{}") == frozenset()
    with pytest.raises(TopologyError):
        parse_frame_element("a,b")


@pytest.mark.parametrize("text", ["{a,}", "{a,,b}", "{,}", "{ , a}"])
def test_an_empty_token_is_refused(text):
    """No carrier holds the token '' and no renderer writes one, so both
    readers of frame elements refuse it."""
    with pytest.raises(TopologyError) as e:
        parse_frame_element(text)
    assert str(e.value) == f"bad frame element {text!r}"
    with pytest.raises(TopologyError) as e:
        parse_topology(f"carrier: a b\ncover: a <| {text}\n")
    assert str(e.value) == f"bad cover subset {text!r}"


# -- the frame tables against the definitions ------------------------------


def ref_nucleus(t, p):
    """The saturation of p by scanning the cover: all tokens covered by p."""
    p = frozenset(p)
    return frozenset(a for a in t.carrier if t.covers(a, p))


def ref_frame_elements(t):
    out = [p for p in t.subsets()
           if t.down(p) == p and ref_nucleus(t, p) == p]
    return sorted(out, key=lambda p: (len(p), sorted(p)))


def ref_implies(t, p, q):
    """The join of the principal saturations whose meet with p is below q."""
    acc = frozenset()
    for s in t.carrier:
        g = ref_nucleus(t, frozenset([s]))
        if g & p <= q:
            acc |= g
    return ref_nucleus(t, acc)


def posets_up_to_3():
    """Every poset topology on at most 3 labeled points, once each."""
    seen = set()
    for n in range(1, 4):
        elems = ["a", "b", "c"][:n]
        strict = [(x, y) for x in elems for y in elems if x != y]
        for k in range(len(strict) + 1):
            for pairs in itertools.combinations(strict, k):
                try:
                    t = from_poset(elems, pairs)
                except TopologyError:
                    continue
                if (t.carrier, t.order) not in seen:
                    seen.add((t.carrier, t.order))
                    yield t


# b is covered by {a} although b is not below a: the dense cover on the
# 2-chain, whose frame is the two-element Boolean algebra.
DENSE_CHAIN = """\
carrier: a b
order: a<=b
cover: a <| {a}
cover: a <| {b}
cover: a <| {a,b}
cover: b <| {a}
cover: b <| {b}
cover: b <| {a,b}
"""


def reference_topologies():
    yield omega()
    yield from posets_up_to_3()
    yield parse_topology(DENSE_CHAIN)


def test_dense_chain_is_not_a_poset_topology():
    t = parse_topology(DENSE_CHAIN)
    assert validate(t) == []
    assert nucleus(t, frozenset(["a"])) != t.down(frozenset(["a"]))
    assert frame_elements(t) == [frozenset(), frozenset(["a", "b"])]


def assert_tables_match_definitions(t):
    for p in t.subsets():
        assert nucleus(t, p) == ref_nucleus(t, p), (t.carrier, p)
    assert top(t) == ref_nucleus(t, t.carrier)
    assert bottom(t) == ref_nucleus(t, ())
    frame = ref_frame_elements(t)
    assert frame_elements(t) == frame
    for p, q in itertools.product(frame, repeat=2):
        expected = ref_implies(t, p, q)
        assert implies(t, p, q) == expected, (t.carrier, p, q)
        assert implies(t, p, q) == expected  # again, from the memo


def test_tables_match_definitions():
    count = 0
    for t in reference_topologies():
        assert_tables_match_definitions(t)
        count += 1
    # omega, the 1 + 3 + 19 labeled posets on at most 3 points, the dense chain
    assert count == 1 + 23 + 1


def test_tables_match_definitions_off_the_carrier():
    """The comparison above with p and q ranging over every subset of the
    carrier, each also with a token off it: implies reads such sets as
    their tokens on the carrier, nucleus and join as empty."""
    for t in reference_topologies():
        subs = list(t.subsets())
        subs += [p | {"zz"} for p in subs]
        for p in subs:
            assert nucleus(t, p) == ref_nucleus(t, p), (t.carrier, p)
            for q in subs:
                assert implies(t, p, q) == ref_implies(t, p, q), (t.carrier,
                                                                  p, q)
                assert join(t, p, q) == ref_nucleus(t, p | q)


def test_nucleus_off_the_carrier_is_empty():
    t = chain2()
    assert nucleus(t, frozenset(["z"])) == frozenset()
    assert nucleus(t, frozenset(["a", "z"])) == frozenset()
    assert nucleus(t, ["b"]) == frozenset(["a", "b"])


def test_frame_elements_returns_a_copy():
    t = chain2()
    frame = frame_elements(t)
    frame.clear()
    assert len(frame_elements(t)) == 3


def test_edited_cover_gets_its_own_tables():
    t = omega()
    zero = frozenset(["0"])
    cover = dict(t.cover)
    cover[("0", zero)] = False
    broken = FormalTopology(t.carrier, t.order, cover)
    assert_tables_match_definitions(broken)
    assert nucleus(broken, zero) == frozenset()
    assert top(broken) == frozenset()
    assert frame_elements(broken) == [frozenset()]
    # the original keeps its own tables
    assert nucleus(t, zero) == zero
    assert top(t) == zero
    assert frame_elements(t) == [frozenset(), zero]
    assert implies(t, zero, frozenset()) == frozenset()


def _mutated_chain3(order_drop=(), cover_flip=()):
    t = from_poset(["a", "b", "c"], [("a", "b"), ("b", "c")])
    cover = dict(t.cover)
    for a, p in cover_flip:
        cover[(a, frozenset(p))] = not t.covers(a, frozenset(p))
    return FormalTopology(t.carrier, t.order - set(order_drop), cover)


@pytest.mark.parametrize("axiom, mutated", [
    ("order-reflexive", _mutated_chain3(order_drop=[("a", "a")])),
    ("order-transitive", _mutated_chain3(order_drop=[("a", "c")])),
    ("order-compat", _mutated_chain3(cover_flip=[("a", "b")])),
    ("transitivity", _mutated_chain3(cover_flip=[("c", "ab")])),
    ("stability", _mutated_chain3(cover_flip=[("c", "b")])),
])
def test_validate_reports_each_axiom(axiom, mutated):
    # a mutation may break a second axiom too, so only membership is checked
    assert axiom in {v.axiom for v in validate(mutated)}
