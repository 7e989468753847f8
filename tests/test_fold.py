"""unique.fold and the walks built on it: HFSet.rank, transitive_closure,
Name.depth and check_name, against the plain recursions they replaced."""

import collections
import sys

from czfkit import godel, hf, topology as tp, unique
from czfkit.formula import parse
from czfkit.hf import HFSet, parse_hf
from czfkit.names import check_name

OMEGA = tp.omega()


def _rank_reference(s):
    return max((_rank_reference(e) + 1 for e in s), default=0)


def _closure_reference(s):
    acc = []
    for e in s:
        acc.append(e)
        acc.extend(_closure_reference(e))
    return HFSet(acc)


def _depth_reference(n):
    if not n.entries:
        return 0
    return 1 + max(_depth_reference(x) for x, _ in n.entries)


def _distinct_nodes(t):
    """id -> node for every node of an operation term, by a plain walk."""
    seen = {}
    stack = [t]
    while stack:
        u = stack.pop()
        if id(u) not in seen:
            seen[id(u)] = u
            stack.extend(u.args)
    return seen


def test_fold_combines_each_distinct_node_once():
    t = godel.compile_bounded(parse("x1 = " + "{" * 20 + "}" * 20), 1)
    combined = collections.Counter()

    def count(node, values):
        combined[id(node)] += 1
        return len(values)

    unique.fold(t, lambda u: u.args, count)
    distinct = _distinct_nodes(t)
    assert set(combined) == set(distinct)
    assert set(combined.values()) == {1}
    assert len(distinct) < 100 < t.size


def test_fold_passes_child_values_in_order():
    leaf = ()
    mid = (leaf,)
    root = (mid, leaf, mid)
    order = []

    def combine(node, values):
        order.append(node)
        return values

    assert unique.fold(root, lambda n: n, combine) == [[[]], [], [[]]]
    assert order == [leaf, mid, root]


def test_fold_of_a_deep_chain_does_not_recurse():
    assert sys.getrecursionlimit() <= 10_000
    chain = ()
    for _ in range(100_000):
        chain = (chain,)
    assert unique.fold(chain, lambda n: n,
                       lambda n, depths: depths[0] + 1 if depths else 0) \
        == 100_000


def test_thousand_level_literal():
    x = parse_hf("{" * 1000 + "}" * 1000)
    assert x.rank() == 999
    assert len(x.transitive_closure()) == 999
    assert check_name(x, OMEGA).depth() == 999


def test_walks_match_the_recursions_they_replaced():
    # the members of V_4, that is every subset of V_3, and omega up to 14
    sets = list(hf.v_stage(4)) + [hf.von_neumann(n) for n in range(15)]
    for s in sets:
        assert s.rank() == _rank_reference(s), s
        assert s.transitive_closure() is _closure_reference(s), s
        assert check_name(s, OMEGA).depth() == _depth_reference(
            check_name(s, OMEGA)), s
