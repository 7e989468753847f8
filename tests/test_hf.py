import copy
import pickle
import sys
import threading

import pytest
from hypothesis import given, strategies as st

from czfkit import hf
from czfkit.hf import EMPTY, HFSet, hfset, parse_hf


def hf_strategy(max_depth=3):
    return st.recursive(
        st.just(EMPTY),
        lambda children: st.lists(children, max_size=4).map(HFSet),
        max_leaves=12,
    )


def test_empty_serialization():
    assert str(EMPTY) == "{}"
    assert len(EMPTY) == 0
    assert not EMPTY


def test_dedup_and_order():
    a = hfset(EMPTY, hfset(EMPTY), EMPTY)
    assert len(a) == 2
    assert str(a) == "{{{}},{}}"


def test_extensional_equality():
    assert hfset(EMPTY, hfset(EMPTY)) == hfset(hfset(EMPTY), EMPTY)
    assert hfset(EMPTY) != hfset(hfset(EMPTY))


def test_parse_round_trip_examples():
    for text in ["{}", "{{}}", "{{},{{}}}", "{{{}},{}}"]:
        assert str(parse_hf(text)) == str(HFSet(parse_hf(text)))


def test_parse_whitespace_and_errors():
    assert parse_hf(" { { } , { { } } } ") == hfset(EMPTY, hfset(EMPTY))
    with pytest.raises(ValueError):
        parse_hf("{")
    with pytest.raises(ValueError):
        parse_hf("{} {}")
    with pytest.raises(ValueError):
        parse_hf("{,}")


@given(hf_strategy())
def test_serialize_parse_inverse(s):
    assert parse_hf(str(s)) == s


def test_kpair_unpair():
    a, b = hfset(EMPTY), hfset(hfset(EMPTY))
    assert hf.unpair(hf.kpair(a, b)) == (a, b)
    assert hf.unpair(hf.kpair(a, a)) == (a, a)
    assert hf.unpair(hfset(EMPTY, hfset(EMPTY))) is None
    assert hf.unpair(EMPTY) is None


@given(hf_strategy(), hf_strategy())
def test_kpair_injective(a, b):
    assert hf.unpair(hf.kpair(a, b)) == (a, b)


def test_tuple_right():
    a, b, c = EMPTY, hfset(EMPTY), hfset(hfset(EMPTY))
    assert hf.tuple_right([a]) == a
    assert hf.tuple_right([a, b, c]) == hf.kpair(a, hf.kpair(b, c))
    with pytest.raises(ValueError):
        hf.tuple_right([])


def test_product_and_powerset():
    one = hfset(EMPTY)
    assert hf.product(one, one) == hfset(hf.kpair(EMPTY, EMPTY))
    assert len(hf.powerset(hfset(EMPTY, one))) == 4
    assert EMPTY in hf.powerset(EMPTY)


def test_union_intersection_difference():
    a = hfset(EMPTY, hfset(EMPTY))
    assert hf.union(hfset(a)) == a
    assert hf.intersection(a, hfset(EMPTY)) == hfset(EMPTY)
    assert hf.difference(a, hfset(EMPTY)) == hfset(hfset(EMPTY))
    assert hf.binary_union(hfset(EMPTY), hfset(hfset(EMPTY))) == a


def test_von_neumann_and_to_ordinal():
    assert hf.von_neumann(0) == EMPTY
    assert hf.von_neumann(2) == hfset(EMPTY, hfset(EMPTY))
    for n in range(5):
        assert hf.to_ordinal(hf.von_neumann(n)) == n
    assert hf.to_ordinal(hfset(hfset(EMPTY))) is None


def test_rank_and_transitivity():
    assert EMPTY.rank() == 0
    assert hf.von_neumann(3).rank() == 3
    assert hf.von_neumann(3).is_transitive()
    assert not hfset(hfset(EMPTY)).is_transitive()
    tc = hfset(hfset(EMPTY)).transitive_closure()
    assert tc == hfset(EMPTY, hfset(EMPTY))


def test_v_stage():
    assert hf.v_stage(0) == EMPTY
    assert hf.v_stage(1) == hfset(EMPTY)
    assert len(hf.v_stage(3)) == 4
    assert hf.v_stage(2).is_subset(hf.v_stage(3))
    assert hf.v_stage(3).is_transitive()


# -- the unique table --------------------------------------------------------


def test_equal_sets_are_one_object():
    xs = [EMPTY, hfset(EMPTY), hf.von_neumann(2), hf.von_neumann(3)]
    assert HFSet(xs) is HFSet(reversed(xs))
    assert HFSet(xs + xs) is HFSet(xs)
    assert hf.kpair(xs[1], xs[2]) is parse_hf(str(hf.kpair(xs[1], xs[2])))


def test_copy_and_pickle_return_the_same_set():
    s = hf.v_stage(3)
    for dup in (copy.copy, copy.deepcopy,
                lambda x: pickle.loads(pickle.dumps(x))):
        assert dup(s) is s
        assert dup(EMPTY) is EMPTY
    assert EMPTY == HFSet()
    assert EMPTY.serialize() == "{}"


def test_membership_of_non_sets_is_false():
    s = hfset(EMPTY)
    assert [] not in s
    assert "{}" not in s
    assert EMPTY in s


def test_non_set_elements_are_rejected():
    with pytest.raises(TypeError):
        HFSet([EMPTY, "{}"])
    with pytest.raises(TypeError):
        HFSet([[]])


def _canonical(tree) -> str:
    """Reference serialization of a set written as nested lists."""
    return "{" + ",".join(sorted({_canonical(t) for t in tree})) + "}"


def _build(tree) -> HFSet:
    return HFSet(_build(t) for t in tree)


@given(st.recursive(st.just([]), lambda ch: st.lists(ch, max_size=4),
                    max_leaves=16))
def test_serialization_matches_reference(tree):
    s = _build(tree)
    assert s.serialize() == _canonical(tree)
    assert parse_hf(_canonical(tree)) is s


def test_threads_share_one_set_per_value():
    """Threads that build the same new sets at once, and drop them, still
    get one object per value: every set a thread holds is the one in the
    table."""
    base = list(hf.v_stage(2))
    threads_n, rounds = 8, 100
    results: list = [None] * threads_n
    errors: list = []
    step = threading.Barrier(threads_n)

    def fresh(r):
        # sets no earlier round built: one tuple per binary numeral
        return [hf.tuple_right([base[int(d)] for d in f"{r * 8 + k:b}"])
                for k in range(8)]

    def work(i):
        try:
            for r in range(rounds):
                step.wait(timeout=10)
                built = fresh(r) + [hf.kpair(x, y) for x in base for y in base]
                lost = [s for s in built if hf._table[s._members]() is not s]
                if lost:
                    errors.append(f"round {r}: {lost[0]} is not in the table")
                    step.abort()
                    return
            results[i] = built
        except threading.BrokenBarrierError:
            pass  # another thread failed and said why
        except Exception as e:
            errors.append(repr(e))
            step.abort()

    old = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=work, args=(i,))
                   for i in range(threads_n)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(old)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    first = results[0]
    assert [s.serialize() for s in first] == \
        [str(s) for s in fresh(rounds - 1)] \
        + [str(hf.kpair(x, y)) for x in base for y in base]
    for other in results[1:]:
        assert all(a is b for a, b in zip(first, other, strict=True))
