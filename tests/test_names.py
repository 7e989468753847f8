import copy
import gc
import itertools
import pickle
import random
import sys
import threading
import weakref

import pytest

from czfkit import hf, names, topology as tp
from czfkit.formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq, Ex, Falsum,
    Imp, Lit, Mem, Or, Var, neg, parse,
)
from czfkit.hf import EMPTY, hfset
from czfkit.names import (
    EMPTY_NAME, Interpreter, Name, check_name, class_equal, collection_value,
    interpret, interpret_relativized, make_class_name, make_name,
    name_universe, op, parse_name, powerset_name, serialize_name,
    strong_collection_witness, subset_value, up,
)
from czfkit.topology import frame_elements, from_poset, omega
from czfkit.translate import semantic_translate


OMEGA = omega()
CHAIN = from_poset(["a", "b"], [("a", "b")])
TOP = tp.top(OMEGA)
BOT = tp.bottom(OMEGA)
ONE = hfset(EMPTY)


def u_omega(depth):
    return name_universe(OMEGA, depth)


def test_make_name_sorts_and_dedups():
    t = OMEGA
    n = make_name([(EMPTY_NAME, TOP), (EMPTY_NAME, TOP)])
    assert len(n.entries) == 1
    with pytest.raises(ValueError):
        make_name([(EMPTY_NAME, TOP), (EMPTY_NAME, BOT)])
    # bottom-weight entries are kept distinct from absence only textually
    assert serialize_name(n) == "(()->{0})"


def test_name_repr_shows_its_serialization():
    assert repr(check_name(ONE, OMEGA)) == "Name(()->{0})"
    assert repr(EMPTY_NAME) == "Name()"


def test_name_universes_hold_each_name_once():
    for t, depth in [(OMEGA, 0), (OMEGA, 1), (OMEGA, 2),
                     (CHAIN, 1), (CHAIN, 2)]:
        u = name_universe(t, depth)
        assert len(set(u.names)) == len(u.names)
        assert [serialize_name(n) for n in u.names] == sorted(
            serialize_name(n) for n in u.names)


def test_check_name_structure():
    assert check_name(EMPTY, OMEGA) == EMPTY_NAME
    n = check_name(ONE, OMEGA)
    assert n.entries == ((EMPTY_NAME, TOP),)
    assert n.depth() == 1


def test_check_name_injective_small_ranks():
    pool = list(hf.v_stage(3))
    names = [check_name(x, OMEGA) for x in pool]
    assert len(set(names)) == len(pool)


def _check_name_reference(x, t):
    """The recursive definition the iterative check_name must match."""
    return make_name((_check_name_reference(y, t), tp.top(t)) for y in x)


@pytest.mark.parametrize("t", [OMEGA, CHAIN], ids=["omega", "chain"])
def test_check_name_matches_the_recursive_definition(t):
    v4 = list(hf.v_stage(4))
    pool = (v4 + [hfset(a, b) for a, b in itertools.combinations(v4, 2)]
            + [hf.von_neumann(n) for n in range(13)])
    for x in pool:
        assert check_name(x, t) is _check_name_reference(x, t)


def test_check_name_of_a_deep_set_does_not_recurse():
    x = EMPTY
    for _ in range(1000):
        x = hfset(x)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        n = check_name(x, OMEGA)
    finally:
        sys.setrecursionlimit(limit)
    for _ in range(1000):
        ((n, p),) = n.entries
        assert p == TOP
    assert n is EMPTY_NAME


def test_up_and_op_structure():
    t = OMEGA
    a = EMPTY_NAME
    b = check_name(ONE, t)
    pair = up(a, b, t)
    assert set(pair.keys()) == {a, b}
    assert up(a, a, t).entries == ((a, TOP),)
    o = op(a, b, t)
    assert set(o.keys()) == {up(a, a, t), up(a, b, t)}


def test_up_agrees_with_pairing():
    u = u_omega(2)
    it = Interpreter(u)
    a = check_name(EMPTY, OMEGA)
    pair = up(a, a, OMEGA)
    assert it.eq(pair, check_name(ONE, OMEGA)) == TOP


def test_interpret_atoms():
    u = u_omega(2)
    zero = check_name(EMPTY, OMEGA)
    one = check_name(ONE, OMEGA)
    env = {"x": zero, "y": one}
    assert interpret(parse("x = x"), env, u) == TOP
    assert interpret(parse("x in y"), env, u) == TOP
    assert interpret(parse("x = y"), env, u) == BOT
    assert interpret(parse("y in x"), env, u) == BOT


def test_interpret_literals():
    u = u_omega(2)
    assert interpret(parse("{} in {{}}"), None, u) == TOP
    assert interpret(parse("{} = {{}}"), None, u) == BOT


def test_name_universe_sizes():
    # each level: (frame size + 1) ^ (names at the previous level)
    assert len(u_omega(0).names) == 1
    assert len(u_omega(1).names) == 3
    assert len(u_omega(2).names) == 27
    assert len(name_universe(CHAIN, 1).names) == 4


def test_name_universe_budget():
    with pytest.raises(hf.BudgetExceeded):
        name_universe(OMEGA, 4, max_count=1000)


def test_name_universe_closed_under_entries():
    u = u_omega(2)
    pool = set(u.names)
    shallow = set(u_omega(1).names)
    for n in u.names:
        for k in n.keys():
            assert k in shallow
    assert shallow <= {make_name(n.entries) for n in pool} | pool


def test_equality_laws():
    for t in [OMEGA, CHAIN]:
        u = name_universe(t, 1)
        it = Interpreter(u)
        for a in u.names:
            assert it.eq(a, a) == tp.top(t)
        for a, b in itertools.product(u.names, repeat=2):
            assert it.eq(a, b) == it.eq(b, a)
        for a, b, c in itertools.product(u.names, repeat=3):
            lhs = tp.meet(t, it.eq(a, b), it.eq(b, c))
            assert lhs <= it.eq(a, c)


def test_membership_respects_equality():
    for t in [OMEGA, CHAIN]:
        u = name_universe(t, 1)
        it = Interpreter(u)
        for a, b, c in itertools.product(u.names, repeat=3):
            lhs = tp.meet(t, it.eq(a, b), it.mem(a, c))
            assert lhs <= it.mem(b, c)


def test_extensionality_valid_at_truncation():
    u = u_omega(1)
    f = parse("all x. all y. ((all z. z in x <-> z in y) -> x = y)")
    assert interpret(f, None, u) == TOP


def test_pairing_valid_at_truncation():
    # for names one level below the universe depth
    u = u_omega(2)
    it = Interpreter(u)
    shallow = u_omega(1).names
    for a, b in itertools.product(shallow, repeat=2):
        pair = up(a, b, OMEGA)
        hit = tp.big_join(OMEGA, (it.eq(pair, c) for c in u.names))
        assert hit == TOP


def test_collection_value_and_witness():
    u = u_omega(2)
    it = Interpreter(u)
    a = check_name(ONE, OMEGA)
    r = check_name(hfset(hf.kpair(EMPTY, EMPTY)), OMEGA)
    assert collection_value(it, a, r) == TOP
    b = strong_collection_witness(a, r, TOP, u)
    assert collection_value(it, a, r, b) == TOP


def test_witness_empty_cases():
    u = u_omega(2)
    a = check_name(ONE, OMEGA)
    r = check_name(hfset(hf.kpair(EMPTY, EMPTY)), OMEGA)
    assert strong_collection_witness(EMPTY_NAME, EMPTY_NAME, TOP, u) == EMPTY_NAME
    assert strong_collection_witness(a, r, BOT, u) == EMPTY_NAME


def test_witness_requires_precondition():
    u = u_omega(2)
    a = check_name(ONE, OMEGA)
    with pytest.raises(ValueError):
        strong_collection_witness(a, EMPTY_NAME, TOP, u)


def test_powerset_name_budget():
    with pytest.raises(hf.BudgetExceeded,
                       match="^2 candidate subsets exceed 1$"):
        powerset_name(check_name(ONE, OMEGA), u_omega(2), max_count=1)


def test_powerset_name():
    u = u_omega(2)
    it = Interpreter(u)
    p0 = powerset_name(EMPTY_NAME, u)
    assert p0.entries == ((EMPTY_NAME, TOP),)
    p1 = powerset_name(check_name(ONE, OMEGA), u)
    assert len(p1.entries) == 2
    # every subset of a equals some member of the powerset name
    a = check_name(ONE, OMEGA)
    for c in u_omega(1).names:
        sub = subset_value(it, c, a)
        hit = tp.big_join(OMEGA, (tp.meet(OMEGA, q, it.eq(c, d))
                                  for d, q in p1.entries))
        assert sub <= hit


def test_interpret_relativized():
    sub = u_omega(1)
    full = u_omega(2)
    f = parse("all x. ex y. x in y")
    vs, vf = interpret_relativized(f, None, sub, full)
    assert vs in frame_elements(OMEGA) and vf in frame_elements(OMEGA)
    g = parse("{} = {}")
    assert interpret_relativized(g, None, sub, full) == (TOP, TOP)
    with pytest.raises(ValueError):
        interpret_relativized(f, None, name_universe(CHAIN, 1), full)


def test_interpret_relativized_compares_topologies_by_value():
    f = parse("all x. ex y. x in y")
    sub, full = name_universe(omega(), 1), name_universe(omega(), 2)
    assert sub.topology is not full.topology
    assert interpret_relativized(f, None, sub, full) == \
        interpret_relativized(f, None, u_omega(1), u_omega(2))
    unordered = tp.FormalTopology(CHAIN.carrier, frozenset(
        (x, x) for x in CHAIN.carrier), CHAIN.cover)
    sub = name_universe(unordered, 1)
    full = name_universe(CHAIN, 2)
    assert set(sub.names) <= set(full.names)
    with pytest.raises(ValueError, match="different topologies"):
        interpret_relativized(f, None, sub, full)


def test_class_names():
    u = u_omega(1)
    a = make_class_name([(EMPTY_NAME, TOP)])
    assert class_equal(a, a, u) == TOP
    assert class_equal(a, make_class_name([]), u) == BOT
    env = {"x": EMPTY_NAME, "M": a}
    assert interpret(parse("x in M"), env, u) == TOP


def test_class_atomic_transfer():
    # equal classes share their members
    u = u_omega(1)
    it = Interpreter(u)
    frames = frame_elements(OMEGA)
    singles = [make_class_name([(EMPTY_NAME, p)]) for p in frames]
    singles.append(make_class_name([]))
    for a, b in itertools.product(singles, repeat=2):
        if class_equal(a, b, u) != TOP:
            continue
        for n in u.names:
            if it.class_mem(n, a) == TOP:
                assert it.class_mem(n, b) == TOP


def test_class_name_not_a_term():
    u = u_omega(1)
    env = {"x": make_class_name([])}
    with pytest.raises(ValueError):
        interpret(parse("x = x"), env, u)


def test_parse_serialize_round_trip():
    u = u_omega(2)
    for n in u.names:
        assert parse_name(serialize_name(n)) == n
    with pytest.raises(ValueError):
        parse_name("()->{}")
    with pytest.raises(ValueError):
        parse_name("(() {0})")


# -- the unique table ----------------------------------------------------------


ANTICHAIN = from_poset(["a", "b"], [])


def test_equal_names_are_one_object():
    xs = [(n, p) for n, p in zip(u_omega(1).names, [TOP, BOT, TOP])]
    assert make_name(xs) is make_name(reversed(xs))
    assert make_name(xs + xs) is make_name(xs)
    assert Name(make_name(xs).entries) is make_name(xs)
    n = op(EMPTY_NAME, check_name(ONE, OMEGA), OMEGA)
    assert parse_name(serialize_name(n)) is n
    assert n.value(up(EMPTY_NAME, EMPTY_NAME, OMEGA)) == TOP
    assert n.value(EMPTY_NAME) == frozenset()


def test_copy_and_pickle_return_the_same_name():
    n = powerset_name(check_name(ONE, OMEGA), u_omega(2))
    for dup in (copy.copy, copy.deepcopy,
                lambda x: pickle.loads(pickle.dumps(x))):
        assert dup(n) is n
        assert dup(EMPTY_NAME) is EMPTY_NAME
    assert EMPTY_NAME is Name(()) is make_name([])
    assert serialize_name(EMPTY_NAME) == "()"
    assert EMPTY_NAME.entries == ()


def test_names_are_immutable():
    n = check_name(ONE, OMEGA)
    with pytest.raises(AttributeError):
        n.entries = ()
    assert n.entries == ((EMPTY_NAME, TOP),)


def test_non_name_keys_are_rejected():
    for key in ["()", EMPTY, ()]:
        with pytest.raises(TypeError):
            Name([(key, TOP)])
        with pytest.raises(TypeError):
            make_name([(EMPTY_NAME, TOP), (key, TOP)])


def test_conflicting_entries_are_rejected():
    a, b = EMPTY_NAME, check_name(ONE, OMEGA)
    with pytest.raises(ValueError):
        make_name([(a, TOP), (b, TOP), (a, BOT)])
    assert make_name([(a, {"0"}), (b, TOP), (a, TOP)]) is \
        make_name([(b, TOP), (a, TOP)])


def _serialize_reference(n: Name) -> str:
    """The recursive serialization that names stored before interning."""
    parts = [f"{_serialize_reference(x)}->{tp.render_frame_element(p)}"
             for x, p in n.entries]
    return "(" + ",".join(parts) + ")"


def _make_name_reference(entries) -> Name:
    """make_name as it was before interning: dedup by serialized key."""
    seen: dict[str, tuple[Name, frozenset]] = {}
    for x, p in entries:
        key = _serialize_reference(x)
        if key in seen and seen[key][1] != p:
            raise ValueError(f"conflicting values for entry {key}")
        seen[key] = (x, frozenset(p))
    return Name(tuple(v for _, v in sorted(seen.items())))


@pytest.mark.parametrize("t, size", [(CHAIN, 256), (ANTICHAIN, 3125)],
                         ids=["chain", "antichain"])
def test_serialization_matches_reference(t, size):
    u = name_universe(t, 2)
    assert len(u.names) == size
    for n in u.names:
        text = serialize_name(n)
        assert text == _serialize_reference(n)
        assert parse_name(text) is n
        assert _make_name_reference(reversed(n.entries)) is n
        assert make_name(reversed(n.entries)) is n
    assert [serialize_name(n) for n in u.names] == \
        sorted(_serialize_reference(n) for n in u.names)


def test_threads_share_one_name_per_value():
    """Threads that build the same new names at once, and drop them, still
    get one object per value: every name a thread holds is the one in the
    table."""
    base = list(u_omega(1).names)
    weights = frame_elements(OMEGA)
    threads_n, rounds = 8, 100
    results: list = [None] * threads_n
    errors: list = []
    step = threading.Barrier(threads_n)

    def fresh(r):
        # names no earlier round built: one chain per binary numeral
        out = []
        for k in range(8):
            n = EMPTY_NAME
            for d in f"{r * 8 + k:b}":
                n = make_name([(n, weights[int(d)]), (base[0], TOP)])
            out.append(n)
        return out

    def work(i):
        try:
            for r in range(rounds):
                step.wait(timeout=10)
                built = fresh(r) + [op(x, y, OMEGA) for x in base
                                    for y in base]
                lost = [n for n in built
                        if names._table[n.entries]() is not n]
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
    assert [serialize_name(n) for n in first] == \
        [_serialize_reference(n) for n in fresh(rounds - 1)] \
        + [_serialize_reference(op(x, y, OMEGA)) for x in base for y in base]
    for other in results[1:]:
        assert all(a is b for a, b in zip(first, other, strict=True))


# -- pair names, memoized per interpreter --------------------------------------


@pytest.mark.parametrize("t", [OMEGA, CHAIN], ids=["omega", "chain"])
def test_up_is_make_name(t):
    top = tp.top(t)
    pool = name_universe(t, 2).names
    for a, b in itertools.product(pool, repeat=2):
        assert up(a, b, t) is make_name([(a, top), (b, top)])


def test_interpreter_op_is_op():
    u = name_universe(CHAIN, 2)
    it = Interpreter(u)
    for a in name_universe(CHAIN, 1).names:
        for b in u.names:
            assert it.op(a, b) is op(a, b, CHAIN)
            assert it.op(a, b) is op(a, b, CHAIN)


def test_interpreters_do_not_share_pair_names(monkeypatch):
    built = []

    def counting_op(a, b, t):
        built.append((a, b))
        return op(a, b, t)

    monkeypatch.setattr(names, "op", counting_op)
    u = u_omega(2)
    first, second = Interpreter(u), Interpreter(u)
    x, y = u.names[:2]
    assert first.op(x, y) is first.op(x, y)
    assert built == [(x, y)]
    assert second.op(x, y) is first.op(x, y)
    assert built == [(x, y), (x, y)]


def test_pair_names_die_with_their_interpreter():
    u = u_omega(2)
    it = Interpreter(u)
    # a pair of two depth-2 names has depth 4: nothing else builds it
    pair = weakref.ref(it.op(u.names[-1], u.names[-2]))
    gc.collect()
    assert pair() is not None  # the memo holds it
    del it
    gc.collect()
    assert pair() is None


def test_witness_rejects_an_interpreter_over_another_universe():
    u = u_omega(2)
    a = check_name(ONE, OMEGA)
    r = check_name(hfset(hf.kpair(EMPTY, EMPTY)), OMEGA)
    with pytest.raises(ValueError, match="another universe"):
        strong_collection_witness(a, r, TOP, u, Interpreter(u_omega(1)))
    assert strong_collection_witness(a, r, TOP, u, Interpreter(u)) is \
        strong_collection_witness(a, r, TOP, u)


def _collection_value_reference(it, a, r, b=None):
    """collection_value as it was before the pair memo: module op."""
    t = it.t
    parts = []
    if b is None:
        for x, px in a.entries:
            hit = tp.big_join(t, (it.mem(op(x, y, t), r) for y in it.u.names))
            parts.append(tp.implies(t, px, hit))
        return tp.big_meet(t, parts)
    for x, px in a.entries:
        hit = tp.big_join(t, (tp.meet(t, qy, it.mem(op(x, y, t), r))
                              for y, qy in b.entries))
        parts.append(tp.implies(t, px, hit))
    for y, qy in b.entries:
        hit = tp.big_join(t, (tp.meet(t, px, it.mem(op(x, y, t), r))
                              for x, px in a.entries))
        parts.append(tp.implies(t, qy, hit))
    return tp.big_meet(t, parts)


def _witness_reference(a, r, p, u, it):
    """strong_collection_witness as it was before the pair memo."""
    t = u.topology
    if not p:
        return EMPTY_NAME
    collected = {}
    for x, px in a.entries:
        for y in u.names:
            weight = tp.big_meet(t, [p, px, it.mem(op(x, y, t), r)])
            for z in weight:
                collected.setdefault(y, set()).add(z)
    return make_name((y, tp.nucleus(t, frozenset(zs)))
                     for y, zs in collected.items() if zs)


@pytest.mark.parametrize("t", [OMEGA, CHAIN], ids=["omega", "chain"])
def test_collection_matches_reference(t):
    """Every depth-1 a, with relations r weighting pairs of a's key and
    depth-1 names at random."""
    rng = random.Random(9)
    u = name_universe(t, 2)
    shallow = name_universe(t, 1).names
    frames = frame_elements(t)
    compared = 0
    for a in shallow:
        slots = [op(x, y, t) for x in a.keys() for y in shallow]
        for _ in range(6):
            r = make_name((s, w) for s in slots
                          if (w := rng.choice([None, *frames])))
            it = Interpreter(u)
            pre = collection_value(it, a, r)
            assert pre == _collection_value_reference(it, a, r)
            for p in frames:
                if not p <= pre:
                    continue
                b = strong_collection_witness(a, r, p, u, it)
                assert b is _witness_reference(a, r, p, u, it)
                assert collection_value(it, a, r, b) == \
                    _collection_value_reference(it, a, r, b)
                compared += bool(b.entries)
    assert compared > 0


# -- pair membership by components ------------------------------------------


def _small_frames():
    from test_acceptance import _all_posets_up_to_3
    return [OMEGA] + _all_posets_up_to_3()


def test_pair_equality_is_equality_of_components():
    """[[op(a,b) = op(c,d)]] = [[a = c]] meet [[b = d]], the lemma
    ``Interpreter._pair_mem`` rests on: every quadruple of depth-1 names on
    every frame, and a seeded sample of depth-2 names on the 2-chain."""
    pools = [(t, name_universe(t, 1).names) for t in _small_frames()]
    pools.append((CHAIN, random.Random(28).sample(
        name_universe(CHAIN, 2).names, 8)))
    for t, pool in pools:
        it = Interpreter(name_universe(t, 1))
        pairs = {(a, b): op(a, b, t) for a in pool for b in pool}
        for (a, b), (c, d) in itertools.product(pairs, repeat=2):
            assert it.eq(pairs[a, b], pairs[c, d]) == \
                it.eq(a, c) & it.eq(b, d), (a, b, c, d)


def _collection_value_op_building(it, a, r, b=None):
    """collection_value as it was before pair membership compared
    components: every pair name built by ``it.op`` and looked up by
    ``it._mem``."""
    t = it.t
    nuclei, implies = t._mask_nuclei, tp._implies_mask
    mem, pair = it._mem, it.op
    acc = t._top_mask
    if b is None:
        for x, px in it._masked[a]:
            hit = 0
            for y in it.u.names:
                hit |= mem(pair(x, y), r)
            acc &= implies(t, px, nuclei[hit])
        return t._as_set[acc]
    for x, px in it._masked[a]:
        hit = 0
        for y, qy in it._masked[b]:
            hit |= qy & mem(pair(x, y), r)
        acc &= implies(t, px, nuclei[hit])
    for y, qy in it._masked[b]:
        hit = 0
        for x, px in it._masked[a]:
            hit |= px & mem(pair(x, y), r)
        acc &= implies(t, qy, nuclei[hit])
    return t._as_set[acc]


def _witness_op_building(a, r, p, u, it):
    """strong_collection_witness as it was before pair membership compared
    components, for a p below the totality value."""
    t = u.topology
    if not p:
        return EMPTY_NAME
    mem, pair = it._mem, it.op
    pm = t._mask[p]
    collected = {}
    for x, px in it._masked[a]:
        for y in u.names:
            weight = pm & px & mem(pair(x, y), r)
            if weight:
                collected[y] = collected.get(y, 0) | weight
    return make_name((y, t._as_set[t._mask_nuclei[w]])
                     for y, w in collected.items())


def _compare_collection(it, ref, a, r):
    """The totality value of r on a, then for every frame element p below
    it the witness and the value both ways at the witness, each against the
    op-building reference on its own interpreter ref.  Returns the number
    of witnesses compared."""
    u = it.u
    pre = collection_value(it, a, r)
    assert pre == _collection_value_op_building(ref, a, r), (a, r)
    witnesses = 0
    for p in frame_elements(it.t):
        if p <= pre:
            b = strong_collection_witness(a, r, p, u, it)
            assert b is _witness_op_building(a, r, p, u, ref), (a, r, p)
            assert collection_value(it, a, r, b) == \
                _collection_value_op_building(ref, a, r, b), (a, r, p)
            witnesses += 1
    return witnesses


def test_collection_matches_op_building_on_criterion_5_relations():
    from test_acceptance import _collection_relations
    relations = witnesses = 0
    for t in [OMEGA, CHAIN]:
        u = name_universe(t, 2)
        it, ref = Interpreter(u), Interpreter(u)
        shallow = name_universe(t, 1).names
        for a in shallow:
            for r in _collection_relations(t, a, shallow, frame_elements(t)):
                witnesses += _compare_collection(it, ref, a, r)
                relations += 1
    assert (relations, witnesses) == (824, 2280)


def _mixed_keys(t, c, d, rng):
    """Keys for the pair of c and d, one of each kind: the pair name; a
    pair with a token off the carrier added to a weight, which the
    interpreter reads as the pair; near-pairs, with one weight below top or
    an extra entry of empty weight; and names that are no pair."""
    top = tp.top(t)
    below = rng.choice([p for p in frame_elements(t) if p != top])
    odd = top | {"zz"}
    single, double = up(c, c, t), up(c, d, t)
    keys = [
        ("pair", op(c, d, t)),
        ("pair", make_name([(make_name([(c, odd)]), top), (double, odd)])),
        ("near", make_name([(make_name([(c, below)]), top), (double, top)])),
        ("near", make_name([(single, top),
                            (make_name([(c, top), (d, top),
                                        (double, frozenset())]), top)])),
        ("other", double),
        ("other", make_name([(double, top)])),
    ]
    if c is d:
        keys.append(("near", make_name([(single, below)])))
    else:
        other = up(d, d, t)
        keys += [
            ("near", make_name([(single, top), (double, below)])),
            ("near", make_name([(single, top),
                                (make_name([(c, top), (d, below)]), top)])),
            ("near", make_name([(single, top), (double, top),
                                (other, frozenset())])),
            ("other", make_name([(single, top), (other, top)])),
            ("other", make_name([(single, top), (up(double, d, t), top)])),
        ]
    return keys


def test_pair_mem_matches_mem_of_the_built_pair():
    """Each mixed key for c and d alone as a relation, on every frame,
    against every pair of a depth-1 name and a depth-1 name, {c, d} or {d}:
    the component comparison gives what membership of the built pair name
    gives."""
    rng = random.Random(28)
    compared = 0
    for t in _small_frames():
        shallow = name_universe(t, 1).names
        it = Interpreter(name_universe(t, 1))
        for _ in range(4):
            c, d = rng.choice(shallow), rng.choice(shallow)
            seconds = list(shallow) + [up(c, d, t), up(d, d, t)]
            for _, s in _mixed_keys(t, c, d, rng):
                r = make_name([(s, rng.choice(frame_elements(t)[1:]))])
                for a, b in itertools.product(shallow, seconds):
                    assert it._pair_mem(a, b, r) == \
                        it._mem(op(a, b, t), r), (a, b, s)
                    compared += 1
    assert compared > 10000


def test_collection_matches_op_building_on_mixed_keys():
    """Seeded relations over every frame whose keys mix pair names,
    near-pairs and names that are no pair, on depth-1 universes; a ranges
    over the inhabited depth-1 names and two-key depth-2 names."""
    rng = random.Random(28)
    kinds = {"pair": 0, "near": 0, "other": 0}
    relations = witnesses = 0
    for t in _small_frames():
        u = name_universe(t, 1)
        shallow = u.names
        frames = frame_elements(t)
        firsts = [n for n in shallow if any(p for _, p in n.entries)]
        firsts += [make_name([(x, rng.choice(frames[1:])),
                              (y, rng.choice(frames[1:]))])
                   for x, y in rng.sample(
                       list(itertools.combinations(shallow, 2)), 2)]
        it, ref = Interpreter(u), Interpreter(u)
        for a in firsts:
            for _ in range(3):
                entries = {}
                for x in a.keys():
                    for y in shallow:
                        c = x if rng.random() < 0.8 else rng.choice(shallow)
                        kind, key = rng.choice(_mixed_keys(t, c, y, rng))
                        w = rng.choice(frames[1:] + [None])
                        if w is not None and key not in entries:
                            entries[key] = w
                            kinds[kind] += 1
                witnesses += _compare_collection(it, ref, a,
                                                 make_name(entries.items()))
                relations += 1
    assert min(kinds.values()) > 100, kinds
    assert witnesses > relations > 0


def test_pair_membership_builds_pairs_only_for_keys_that_are_no_pair(
        monkeypatch):
    built = []

    def counting_op(a, b, t):
        built.append((a, b))
        return op(a, b, t)

    u = u_omega(2)
    shallow = u_omega(1).names
    a = check_name(ONE, OMEGA)
    r = make_name((op(EMPTY_NAME, y, OMEGA), TOP) for y in shallow)
    monkeypatch.setattr(names, "op", counting_op)
    it = Interpreter(u)
    assert collection_value(it, a, r) == TOP
    b = strong_collection_witness(a, r, TOP, u, it)
    assert collection_value(it, a, r, b) == TOP
    assert built == []
    # {{}} is the unordered pair of {} with itself, no ordered pair
    r = make_name([(up(EMPTY_NAME, EMPTY_NAME, OMEGA), TOP)])
    assert collection_value(it, a, r) == \
        _collection_value_op_building(Interpreter(u), a, r)
    assert built


# -- early exits in eq and mem ----------------------------------------------


class _FullFoldInterpreter:
    """eq and mem as full folds over every conjunct and disjunct, with no
    early exit: the reference the interpreter's shortcuts must match."""

    def __init__(self, t):
        self.t = t
        self._eq = {}
        self._mem = {}

    def eq(self, a, b):
        key = (a, b)
        if key in self._eq:
            return self._eq[key]
        t = self.t
        conjuncts = []
        for x, px in a.entries:
            conjuncts.append(tp.implies(t, px, self.mem(x, b)))
        for y, qy in b.entries:
            conjuncts.append(tp.implies(t, qy, self.mem(y, a)))
        out = tp.big_meet(t, conjuncts)
        self._eq[key] = out
        self._eq[(b, a)] = out
        return out

    def mem(self, a, b):
        key = (a, b)
        if key not in self._mem:
            self._mem[key] = self.class_mem(a, b)
        return self._mem[key]

    def class_mem(self, a, cls):
        t = self.t
        return tp.big_join(t, (tp.meet(t, q, self.eq(a, y))
                               for y, q in cls.entries))

    def subset(self, c, a):
        t = self.t
        return tp.big_meet(t, (tp.implies(t, px, self.mem(x, a))
                               for x, px in c.entries))


def _assert_matches_full_fold(t, pool, u):
    ref = _FullFoldInterpreter(t)
    pairs = list(itertools.product(pool, repeat=2))
    expected = {(a, b): (ref.eq(a, b), ref.mem(a, b), ref.subset(a, b))
                for a, b in pairs}
    for order in (pairs, pairs[::-1]):
        it = Interpreter(u)
        for a, b in order:
            assert (it.eq(a, b), it.mem(a, b), subset_value(it, a, b)) \
                == expected[(a, b)], (a, b)


@pytest.mark.parametrize("t, depth", [(OMEGA, 2), (CHAIN, 2), (ANTICHAIN, 1)],
                         ids=["omega-2", "chain-2", "antichain-1"])
def test_eq_and_mem_match_full_fold(t, depth):
    u = name_universe(t, depth)
    _assert_matches_full_fold(t, u.names, u)


def test_early_exits_do_not_need_frame_weights():
    """Weights that are not frame elements, tokens off the carrier among
    them, give the full fold's values too."""
    weights = [frozenset(), frozenset("a"), frozenset("b"), frozenset("ab"),
               frozenset("z"), frozenset("az"), frozenset("abz")]
    assert not {frozenset("b"), frozenset("z")} & set(frame_elements(CHAIN))
    shallow = [EMPTY_NAME] + [make_name([(EMPTY_NAME, w)])
                              for w in weights]
    pool = shallow + [make_name([(x, w), (y, v)])
                      for x, y in itertools.combinations(shallow[:4], 2)
                      for w, v in itertools.product(weights[::2], repeat=2)]
    _assert_matches_full_fold(CHAIN, pool, name_universe(CHAIN, 1))
    ref, it = _FullFoldInterpreter(CHAIN), Interpreter(name_universe(CHAIN, 1))
    cls = make_class_name((x, w) for x, w in zip(pool, itertools.cycle(weights)))
    for a in pool:
        assert it.class_mem(a, cls) == ref.class_mem(a, cls)


@pytest.mark.parametrize("t, weights", [
    (OMEGA, ["", "0", "z", "0z"]),
    (CHAIN, ["", "b", "ab", "z"]),
], ids=["omega", "chain"])
def test_class_equal_matches_the_full_fold(t, weights):
    """Every pair of class names with at most two entries over a depth-1
    universe, weights that are not frame elements among them."""
    u = name_universe(t, 1)
    weights = [frozenset(w) for w in weights]
    assert set(weights) - set(frame_elements(t))
    classes = [make_class_name(zip(keys, ws))
               for k in range(3)
               for keys in itertools.combinations(u.names, k)
               for ws in itertools.product(weights, repeat=k)]
    ref = _FullFoldInterpreter(t)
    for a, b in itertools.product(classes, repeat=2):
        assert class_equal(a, b, u) == ref.eq(a, b), (a, b)


def _count_outer_mem_calls(monkeypatch):
    """Records the internal mem calls (on masks, which the recursion makes)
    not made from inside another mem call."""
    calls, depth = [], [0]
    original = Interpreter._mem

    def counting(self, a, b):
        if not depth[0]:
            calls.append((a, b))
        depth[0] += 1
        try:
            return original(self, a, b)
        finally:
            depth[0] -= 1

    monkeypatch.setattr(Interpreter, "_mem", counting)
    return calls


def test_eq_stops_at_an_empty_conjunct(monkeypatch):
    calls = _count_outer_mem_calls(monkeypatch)
    two = check_name(hfset(EMPTY, ONE), OMEGA)
    one = check_name(ONE, OMEGA)
    first = two.entries[0][0]
    assert first is one  # {0} is not a member of 1: the first conjunct is empty
    assert Interpreter(u_omega(2)).eq(two, one) == BOT == frozenset()
    assert calls == [(one, one)]


def test_eq_of_a_name_with_itself_skips_the_mirror_and_empty_weights(
        monkeypatch):
    calls = _count_outer_mem_calls(monkeypatch)
    u = name_universe(CHAIN, 2)
    assert any(not p for a in u.names for _, p in a.entries)
    for a in u.names:
        calls.clear()
        assert Interpreter(u).eq(a, a) == tp.top(CHAIN)
        assert calls == [(x, a) for x, p in a.entries if p]


# -- masks inside, frozensets at the API ---------------------------------------


class _FrozensetInterpreter:
    """Interpreter as it was before it computed on masks: every value a
    frozenset, combined by ``topology``'s public operations, and ``value``
    one match over the node classes."""

    def __init__(self, universe):
        self.u = universe
        self.t = universe.topology
        self._eq = {}
        self._mem = {}
        self._check = {}

    def term_name(self, term, env):
        if isinstance(term, Lit):
            name = self._check.get(term.value)
            if name is None:
                name = self._check[term.value] = check_name(term.value,
                                                            self.t)
            return name
        try:
            val = env[term.name]
        except KeyError:
            raise ValueError(f"unassigned variable {term.name}") from None
        if not isinstance(val, Name):
            raise ValueError(f"{term.name} is bound to a class name")
        return val

    _bound_name = term_name

    def eq(self, a, b):
        key = (a, b)
        out = self._eq.get(key)
        if out is not None:
            return out
        out = self._included(a, b, tp.top(self.t))
        if a is not b:
            out = self._included(b, a, out)
        self._eq[key] = self._eq[(b, a)] = out
        return out

    def mem(self, a, b):
        key = (a, b)
        out = self._mem.get(key)
        if out is None:
            out = self._mem[key] = self._weighted_join(a, b.entries)
        return out

    def class_mem(self, a, cls):
        return self._weighted_join(a, cls.entries)

    def _included(self, a, b, acc):
        t = self.t
        for x, px in a.entries:
            if not acc:
                break
            q = self.mem(x, b) if px else frozenset()
            acc = acc & tp.implies(t, px, q)
        return acc

    def _weighted_join(self, a, entries):
        t = self.t
        top = tp.top(t)
        acc = frozenset()
        for y, q in entries:
            if q:
                acc = acc | (q & self.eq(a, y))
                if acc == top:
                    break
        return tp.nucleus(t, acc)

    def value(self, f, env=None):
        env = env or {}
        t = self.t
        match f:
            case Falsum():
                return tp.bottom(t)
            case Eq(l, r):
                return self.eq(self.term_name(l, env), self.term_name(r, env))
            case Mem(l, r):
                return self.mem(self.term_name(l, env), self.term_name(r, env))
            case ClassMem(term, cls):
                return self.class_mem(self.term_name(term, env), env[cls])
            case And(l, r):
                return tp.meet(t, self.value(l, env), self.value(r, env))
            case Or(l, r):
                return tp.join(t, self.value(l, env), self.value(r, env))
            case Imp(l, r):
                return tp.implies(t, self.value(l, env), self.value(r, env))
            case BigAnd(parts):
                return tp.big_meet(t, (self.value(p, env) for p in parts))
            case BigOr(parts):
                return tp.big_join(t, (self.value(p, env) for p in parts))
            case BoundedAll(v, b, body):
                return tp.big_meet(
                    t, (tp.implies(t, p, self.value(body, {**env, v: x}))
                        for x, p in self._bound_name(b, env).entries))
            case BoundedEx(v, b, body):
                return tp.big_join(
                    t, (tp.meet(t, p, self.value(body, {**env, v: x}))
                        for x, p in self._bound_name(b, env).entries))
            case All(v, body):
                return tp.big_meet(t, (self.value(body, {**env, v: n})
                                       for n in self.u.names))
            case Ex(v, body):
                return tp.big_join(t, (self.value(body, {**env, v: n})
                                       for n in self.u.names))
        raise TypeError(f"not a formula: {f!r}")


class _FrozensetRounded(_FrozensetInterpreter):
    """translate's fold into the two-element frame, over the frozenset
    interpreter: the reference for ``semantic_translate``."""

    def __init__(self, it):
        self.u, self.t, self._it, self._top = it.u, OMEGA, it, tp.top(it.t)

    def _round(self, p):
        return TOP if p == self._top else BOT

    def term_name(self, term, env):
        return self._it.term_name(term, env)

    def eq(self, a, b):
        return self._round(self._it.eq(a, b))

    def mem(self, a, b):
        return self._round(self._it.mem(a, b))

    def class_mem(self, a, cls):
        return self._round(self._it.class_mem(a, cls))

    def _bound_name(self, term, env):
        return Name((x, TOP) for x, p in self.term_name(term, env).entries
                    if p == self._top)


def _odd_names(t, tokens):
    """Depth-1 and depth-2 names whose weights are not frame elements of t,
    tokens off the carrier ("zz") among them."""
    weights = [frozenset(w) for w in tokens]
    assert set(weights) - set(frame_elements(t))
    shallow = [make_name([(EMPTY_NAME, w)]) for w in weights]
    return shallow + [make_name([(x, w), (y, v)])
                      for x, y in itertools.combinations(
                          [EMPTY_NAME] + shallow[:2], 2)
                      for w, v in zip(weights, weights[::-1])]


ODD_WEIGHTS = {
    "omega": (OMEGA, [("0", "zz"), ("zz",)]),
    "chain": (CHAIN, [("b",), ("a", "zz"), ("zz",)]),
    "antichain": (ANTICHAIN, [("a", "zz"), ("zz",), ("a", "b", "zz")]),
}


def test_tokens_off_the_carrier_are_ignored_inside():
    it = Interpreter(name_universe(CHAIN, 1))
    b = make_name([(EMPTY_NAME, {"a", "zz"})])
    assert it.mem(EMPTY_NAME, b) == frozenset({"a"})
    assert _FrozensetInterpreter(name_universe(CHAIN, 1)).mem(
        EMPTY_NAME, b) == frozenset({"a"})


def test_mask_tables_match_the_frozenset_operations():
    from test_acceptance import _all_posets_up_to_3
    for t in [OMEGA] + _all_posets_up_to_3():
        subs = list(t.subsets())
        mask, as_set, nuclei = t._mask, t._as_set, t._mask_nuclei
        assert as_set[t._top_mask] == tp.top(t)
        assert [as_set[g] for g in t._generator_masks] == list(t._generators)
        for p in subs:
            assert as_set[mask[p]] == p
            assert mask[p | {"zz"}] == mask[p]
            assert as_set[nuclei[mask[p]]] == tp.nucleus(t, p)
            for q in subs:
                mp, mq = mask[p], mask[q]
                assert as_set[mp & mq] == tp.meet(t, p, q)
                assert as_set[nuclei[mp | mq]] == tp.join(t, p, q)
                assert as_set[tp._implies_mask(t, mp, mq)] == \
                    tp.implies(t, p, q)


@pytest.mark.parametrize("key, pairs_of", [
    ("chain", lambda d1, d2: itertools.product(d2, d2)),
    ("antichain", lambda d1, d2: itertools.chain(
        itertools.product(d2, d1), itertools.product(d1, d2))),
], ids=["chain-2x2", "antichain-2x1-1x2"])
def test_eq_and_mem_match_the_frozenset_interpreter(key, pairs_of):
    """Every pair of depth-2 names on the chain; every depth-2 name against
    every depth-1 name, both ways, on the antichain; and every pair of odd
    and depth-1 names."""
    t, tokens = ODD_WEIGHTS[key]
    u = name_universe(t, 2)
    shallow = name_universe(t, 1).names
    pairs = list(pairs_of(shallow, u.names))
    pairs += itertools.product(_odd_names(t, tokens) + list(shallow),
                               repeat=2)
    ref, it = _FrozensetInterpreter(u), Interpreter(u)
    got = [(it.eq(a, b), it.mem(a, b)) for a, b in pairs]
    want = [(ref.eq(a, b), ref.mem(a, b)) for a, b in pairs]
    assert next((ab for ab, g, w in zip(pairs, got, want) if g != w),
                None) is None


QUANTIFIED = [
    "all z. (z in x1 -> ex y in x1. y = z)",
    "ex z. (z in x1 & ~(z = x1))",
    "all y in x1. (y in x1 | ~(y = y))",
    "ex y in x1. all z in y. z in x1",
    "~~(ex z. z in x1) -> all z. ~~(z in z | z = x1)",
    "(all z. z = x1) <-> x1 in x1",
    "ex y in x1. (y = {} | {} in y)",
    "all z. (z in M -> ex y in x1. z in y)",
]


@pytest.mark.parametrize("key", ["omega", "chain", "antichain"])
def test_value_matches_the_frozenset_interpreter(key):
    t, tokens = ODD_WEIGHTS[key]
    u = name_universe(t, 1)
    formulas = [parse(s) for s in QUANTIFIED]
    atoms = [parse("x1 in x1"), parse("ex z. z in x1"), parse("x1 = {}")]
    formulas += [BigAnd(tuple(atoms)), BigOr(tuple(atoms))]
    odd = _odd_names(t, tokens)
    cls = make_class_name(zip(odd, itertools.cycle(
        [frozenset(w) for w in tokens])))
    ref, it = _FrozensetInterpreter(u), Interpreter(u)
    for x1 in list(u.names) + odd:
        env = {"x1": x1, "M": cls}
        for f in formulas:
            assert it.value(f, env) == ref.value(f, env), (f, x1)
            if key == "omega":
                assert semantic_translate(f, env, it) == \
                    (_FrozensetRounded(ref).value(f, env) == TOP), (f, x1)


@pytest.mark.parametrize("key", ["omega", "chain"])
def test_collection_matches_the_frozenset_interpreter(key):
    """A relation per a, weighting pairs with odd weights too, a among the
    odd names; the frozenset side runs the reference collection_value and
    witness over the frozenset interpreter."""
    t, tokens = ODD_WEIGHTS[key]
    rng = random.Random(17)
    u = name_universe(t, 2)
    shallow = name_universe(t, 1).names
    weights = frame_elements(t) + [frozenset(w) for w in tokens]
    compared = 0
    for a in list(shallow) + _odd_names(t, tokens)[:len(tokens)]:
        slots = [op(x, y, t) for x in a.keys() for y in shallow]
        r = make_name((s, w) for s in slots
                      if (w := rng.choice([None, *weights])))
        ref, it = _FrozensetInterpreter(u), Interpreter(u)
        pre = collection_value(it, a, r)
        assert pre == _collection_value_reference(ref, a, r)
        for p in frame_elements(t):
            if not p <= pre:
                continue
            b = strong_collection_witness(a, r, p, u, it)
            assert b is _witness_reference(a, r, p, u, ref)
            assert collection_value(it, a, r, b) == \
                _collection_value_reference(ref, a, r, b)
            compared += bool(b.entries)
    assert compared > 0


def test_value_reaches_900_nested_negations():
    f = parse("x = x")
    for _ in range(900):
        f = neg(f)
    assert Interpreter(u_omega(1)).value(f, {"x": EMPTY_NAME}) == TOP


# -- settled values ------------------------------------------------------------

# one token covered by the empty set: bottom is top
TRIVIAL = tp.FormalTopology(
    ("a",), frozenset({("a", "a")}),
    {("a", frozenset()): True, ("a", frozenset({"a"})): True})

# each decided by its first operand, its first name or its first entry on
# some names; P and Q are operands a settled step skips
P = "(ex z. z in x1 & ~(z = z))"
Q = "x1 in M"
SETTLED = [
    f"x1 = x1 | {P}", f"false & {Q}", f"false -> {P}", f"~(x1 = x1) -> {Q}",
    "ex z. z = z", "all z. false", "all z. ~(z = z)", f"ex z. (z = z | {Q})",
    f"bigand [false, {P}]", f"bigor [x1 = x1, {Q}]",
    f"all y in x1. (false & {Q})", f"ex y in x1. (y = y | {P})",
    "all y in x1. y in y", "ex y in x1. ~(y in y)", "all y in x1. false",
    "ex y in x1. x1 = x1",
]


@pytest.mark.parametrize("key", ["omega", "chain", "antichain", "trivial"])
def test_settled_values_match_the_frozenset_interpreter(key):
    """On the odd-weight names, whose entries have weights off the frame
    and off the carrier, and on the trivial frame, where bottom is top."""
    if key == "trivial":
        t, odd = TRIVIAL, [make_name([(EMPTY_NAME, {"zz"})])]
        assert tp.bottom(t) == tp.top(t)
    else:
        t, tokens = ODD_WEIGHTS[key]
        odd = _odd_names(t, tokens)
    u = name_universe(t, 1)
    cls = make_class_name((x, p) for x, p in zip(odd, itertools.cycle(
        [frozenset(), *frame_elements(t)])))
    formulas = [parse(s) for s in SETTLED]
    ref, it = _FrozensetInterpreter(u), Interpreter(u)
    for x1 in list(u.names) + odd:
        env = {"x1": x1, "M": cls}
        for f in formulas:
            assert it.value(f, env) == ref.value(f, env), (f, x1)
            if t is OMEGA:
                assert semantic_translate(f, env, it) == \
                    (_FrozensetRounded(ref).value(f, env) == TOP), (f, x1)


def _count_eq_atoms(monkeypatch):
    """Records the environment of every equality atom value evaluates."""
    calls, step = [], names._STEPS[Eq]

    def counting(it, f, env):
        calls.append(dict(env))
        return step(it, f, env)

    monkeypatch.setitem(names._STEPS, Eq, counting)
    return calls


@pytest.mark.parametrize("text, want", [
    ("ex z. z = z", tp.top), ("all z. ~(z = z)", tp.bottom),
])
def test_a_settled_quantifier_evaluates_its_body_once(monkeypatch, text,
                                                       want):
    calls = _count_eq_atoms(monkeypatch)
    u = name_universe(CHAIN, 2)
    assert len(u.names) > 1
    assert Interpreter(u).value(parse(text)) == want(CHAIN)
    assert calls == [{"z": u.names[0]}]


def test_settled_steps_skip_their_other_operands(monkeypatch):
    calls = _count_eq_atoms(monkeypatch)
    u = name_universe(CHAIN, 1)
    one = check_name(ONE, CHAIN)
    it = Interpreter(u)
    for text in ["false & x1 = x1", "false -> x1 = x1", "x1 in x1 & x1 = x1",
                 "bigand [false, x1 = x1]", "all y in x1. (x1 = x1)"]:
        assert it.value(parse(text), {"x1": EMPTY_NAME}) in (
            tp.top(CHAIN), tp.bottom(CHAIN))
    assert calls == []
    for text in ["x1 = x1 | ex z. z = x1", "bigor [x1 = x1, x1 = x1]",
                 "ex y in x1. (y = y | x1 = x1)"]:
        calls.clear()
        assert it.value(parse(text), {"x1": one}) == tp.top(CHAIN)
        assert len(calls) == 1, text


@pytest.mark.parametrize("text, message", [
    ("false & y = y", "unassigned variable y"),
    ("x = x | y in x", "unassigned variable y"),
    ("false -> y = y", "unassigned variable y"),
    ("bigand [false, x in y]", "unassigned variable y"),
    ("bigor [x = x, y = y]", "unassigned variable y"),
    ("ex z. (z = z | z in y)", "unassigned variable y"),
    ("all z in x. y = y", "unassigned variable y"),
    ("ex z in y. false", "unassigned variable y"),
    ("false & c = x", "c is bound to a class name"),
    ("x = x | x in M", "class symbol M is not bound to a class name"),
    ("x = x | x in N", "class symbol N is not bound to a class name"),
])
def test_a_skipped_operand_still_raises(text, message):
    u = u_omega(1)
    env = {"x": EMPTY_NAME, "c": make_class_name([]), "N": EMPTY_NAME}
    it = Interpreter(u)
    for evaluate in (it.value, lambda f, env: semantic_translate(f, env, it)):
        with pytest.raises(ValueError) as e:
            evaluate(parse(text), env)
        assert str(e.value).startswith(message)
    with pytest.raises(TypeError, match="not a formula: a Var object"):
        it.value(Var("x"), env)


def test_a_class_symbol_a_quantifier_rebinds_is_refused():
    """Formulas no parser makes: the binder M rebinds the class symbol M to
    a name, skipped operand or not."""
    env = {"x": EMPTY_NAME, "M": make_class_name([])}
    atom = ClassMem(Var("x"), "M")
    for f in (Ex("M", atom), Ex("M", And(Falsum(), atom))):
        with pytest.raises(ValueError, match="class symbol M is not bound"):
            Interpreter(u_omega(1)).value(f, env)
