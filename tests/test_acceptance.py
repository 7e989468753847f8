"""End-to-end acceptance suite.

Each test checks one headline property exhaustively at desk scale, prints a
single pass/fail line, and enforces a wall-clock limit.
"""

import itertools
import random
import time

from czfkit import checks, godel, hf, relations, topology as tp
from czfkit.corpus import bounded_formulas
from czfkit.formula import (
    All, And, Eq, Ex, Falsum, Imp, Or, Var, free_vars, is_bounded, neg,
    parse, render,
)
from czfkit.hf import EMPTY, BudgetExceeded, HFSet, hfset
from czfkit.hierarchy import Side, classify, in_level
from czfkit.names import (
    Interpreter, check_name, collection_value, make_name, name_universe,
    op, serialize_name, strong_collection_witness,
)
from czfkit.prover import Logic, Outcome, prove_formula
from czfkit.semantics import comprehension
from czfkit.translate import dn_translate, semantic_coincidence_check


OMEGA = tp.omega()
CHAIN = tp.from_poset(["a", "b"], [("a", "b")])


def _finish(num, label, ok, started, limit):
    elapsed = time.monotonic() - started
    print(f"criterion {num} ({label}): {'PASS' if ok else 'FAIL'} "
          f"({elapsed:.1f} s)")
    assert ok
    assert elapsed < limit, f"criterion {num} took {elapsed:.1f}s"


def test_criterion_1_compiler_oracle_equivalence():
    started = time.monotonic()
    args_pool = list(hf.v_stage(4))  # every set of rank <= 3
    checked = 0
    ok = True
    for f in bounded_formulas(2, 3, limit=250):
        fv = free_vars(f)
        if fv == {"x1"}:
            arity = 1
        elif fv == {"x1", "x2"}:
            arity = 2
        else:
            continue
        term = godel.compile_bounded(f, arity)
        for args in itertools.product(args_pool, repeat=arity):
            if godel.eval_opterm(term, list(args)) != comprehension(f, list(args)):
                ok = False
                break
        checked += 1
        if not ok:
            break
    ok = ok and checked >= 200
    _finish(1, "compiler-oracle equivalence", ok, started, 120)


def _all_posets_up_to_3():
    """Every poset topology on at most 3 labeled points, deduplicated."""
    seen = set()
    out = []
    for n in range(1, 4):
        elems = ["a", "b", "c"][:n]
        strict = [(x, y) for x in elems for y in elems if x != y]
        for k in range(len(strict) + 1):
            for combo in itertools.combinations(strict, k):
                try:
                    t = tp.from_poset(elems, combo)
                except tp.TopologyError:
                    continue
                key = (t.carrier, t.order)
                if key in seen:
                    continue
                seen.add(key)
                out.append(t)
    return out


def test_criterion_2_frame_laws():
    started = time.monotonic()
    ok = True
    for t in [OMEGA] + _all_posets_up_to_3():
        if tp.validate(t):
            ok = False
            break
        subs = list(t.subsets())
        for p in subs:
            jp = tp.nucleus(t, p)
            if not (p <= jp and tp.nucleus(t, jp) == jp):
                ok = False
            for q in subs:
                if p <= q and not jp <= tp.nucleus(t, q):
                    ok = False
        frame = tp.frame_elements(t)
        bot, topel = tp.bottom(t), tp.top(t)
        for p, q in itertools.product(frame, repeat=2):
            if tp.meet(t, p, q) != tp.meet(t, q, p):
                ok = False
            if tp.join(t, p, q) != tp.join(t, q, p):
                ok = False
            if tp.meet(t, p, tp.join(t, p, q)) != p:
                ok = False
            if tp.join(t, p, tp.meet(t, p, q)) != p:
                ok = False
            if tp.nucleus(t, tp.meet(t, p, q)) != tp.meet(t, p, q):
                ok = False
        for p, q, r in itertools.product(frame, repeat=3):
            if tp.meet(t, p, tp.meet(t, q, r)) != tp.meet(t, tp.meet(t, p, q), r):
                ok = False
            if tp.join(t, p, tp.join(t, q, r)) != tp.join(t, tp.join(t, p, q), r):
                ok = False
            lhs = tp.meet(t, p, tp.join(t, q, r))
            rhs = tp.join(t, tp.meet(t, p, q), tp.meet(t, p, r))
            if lhs != rhs:
                ok = False
            if tp.leq(t, r, tp.implies(t, p, q)) != tp.leq(t, tp.meet(t, r, p), q):
                ok = False
        for p in frame:
            if tp.meet(t, p, topel) != p or tp.join(t, p, bot) != p:
                ok = False
        if not ok:
            break
    _finish(2, "frame laws", ok, started, 60)


def test_criterion_3_lem_forced_over_dn_topology():
    started = time.monotonic()
    u = name_universe(OMEGA, 2)
    it = Interpreter(u)
    topel = tp.top(OMEGA)
    samples = name_universe(OMEGA, 1).names
    corpus = bounded_formulas(2, 2, limit=120)
    ok = len(corpus) >= 100
    for f in corpus:
        fv = sorted(free_vars(f))
        for combo in itertools.product(samples, repeat=len(fv)):
            env = dict(zip(fv, combo))
            value = it.value(Or(f, neg(f)), env)
            if value != topel:
                ok = False
                break
        if not ok:
            break
    _finish(3, "excluded middle forced over the double-negation topology",
            ok, started, 60)


def test_criterion_4_check_name_faithfulness():
    started = time.monotonic()
    pool = list(hf.v_stage(4))
    ok = True
    for t in [OMEGA, CHAIN]:
        it = Interpreter(name_universe(t, 1))
        topel, bot = tp.top(t), tp.bottom(t)
        named = {x: check_name(x, t) for x in pool}
        for x, y in itertools.product(pool, repeat=2):
            want_eq = topel if x == y else bot
            want_mem = topel if x in y else bot
            if it.eq(named[x], named[y]) != want_eq:
                ok = False
            if it.mem(named[x], named[y]) != want_mem:
                ok = False
        if not ok:
            break
    _finish(4, "canonical names track equality and membership", ok,
            started, 60)


def _collection_relations(t, a, shallow, frames):
    """All relation names whose keys are ordered pairs of a key of a with a
    depth-1 name."""
    slots = sorted({op(x, y, t) for x in a.keys() for y in shallow},
                   key=serialize_name)
    weight_choices = [[None] + frames for _ in slots]
    for combo in itertools.product(*weight_choices):
        entries = [(slots[i], w) for i, w in enumerate(combo)
                   if w is not None and w]
        yield make_name(entries)


def _witness_of_built_pairs(a, r, p, u, it):
    """The witness of strong collection from [[op(x, y) in r]] asked of
    the built pair name (it.op builds op(x, y, t) once per interpreter):
    each y in the universe weighted by the saturated join over a's entries
    (x, px) of p meet px meet [[op(x, y) in r]]."""
    t = u.topology
    collected = {}
    for x, px in a.entries:
        for y in u.names:
            w = p & px & it.mem(it.op(x, y), r)
            if w:
                collected[y] = collected.get(y, frozenset()) | w
    return make_name((y, tp.nucleus(t, w)) for y, w in collected.items())


def test_criterion_5_strong_collection_witness():
    started = time.monotonic()
    ok = True
    tried = 0
    for t in [OMEGA, CHAIN]:
        u = name_universe(t, 2)
        it = Interpreter(u)
        shallow = name_universe(t, 1).names
        frames = tp.frame_elements(t)
        # join of equality values per candidate pair key; joining first and
        # meeting after is sound by frame distributivity, and the resulting
        # precondition is cross-checked against the direct interpretation
        # on the one-token topology below
        hit_join = {}
        for a in shallow:
            for x in a.keys():
                for y in shallow:
                    k = op(x, y, t)
                    if (x, k) not in hit_join:
                        hit_join[(x, k)] = tp.big_join(
                            t, (it.eq(op(x, z, t), k) for z in u.names))
        for a in shallow:
            for r in _collection_relations(t, a, shallow, frames):
                pre = tp.big_meet(
                    t, (tp.implies(t, px, tp.big_join(
                        t, (tp.meet(t, q, hit_join[(x, k)])
                            for k, q in r.entries)))
                        for x, px in a.entries))
                if len(t.carrier) == 1 and pre != collection_value(it, a, r):
                    ok = False
                    break
                for p in frames:
                    if not p <= pre:
                        continue
                    b = strong_collection_witness(a, r, p, u, it)
                    tried += 1
                    if not p <= collection_value(it, a, r, b) or \
                            b is not _witness_of_built_pairs(a, r, p, u, it):
                        ok = False
                        break
                if not ok:
                    break
            if not ok:
                break
        if not ok:
            break
    ok = ok and tried > 0
    _finish(5, "strong collection witness construction", ok, started, 120)


def _collection_sample(t, a, shallow, rng):
    """The relations of criterion 5 on a, each pair of a's key with a
    depth-1 name weighted or left out: all of them when there are at most
    81, as on the frames of at most 3 elements, else a seeded 32."""
    slots = [op(x, y, t) for x in a.keys() for y in shallow]
    weights = [None] + [p for p in tp.frame_elements(t) if p]
    if len(weights) ** len(slots) <= 81:
        combos = itertools.product(weights, repeat=len(slots))
    else:
        combos = ([rng.choice(weights) for _ in slots] for _ in range(32))
    for combo in combos:
        yield make_name((s, w) for s, w in zip(slots, combo) if w)


def test_strong_collection_over_every_small_frame():
    """The theorem of criterion 5 on every poset topology with at most 3
    points: for each frame element p below the value of "r is total on a",
    p forces r total from a onto the witness and back.  Universes of depth
    1, and of depth 2 where that has at most 256 names; depth 2 on the
    frames of 4 elements has 3125 names and is left out."""
    rng = random.Random(5)
    witnesses = 0
    for t in _all_posets_up_to_3():
        frames = tp.frame_elements(t)
        shallow = name_universe(t, 1).names
        depths = [1, 2] if len(shallow) ** len(shallow) <= 256 else [1]
        for depth in depths:
            u = name_universe(t, depth)
            it = Interpreter(u)
            for a in shallow:
                if not any(p for _, p in a.entries):
                    continue
                for r in _collection_sample(t, a, shallow, rng):
                    pre = collection_value(it, a, r)
                    for p in frames:
                        if p and p <= pre:
                            b = strong_collection_witness(a, r, p, u, it)
                            assert p <= collection_value(it, a, r, b), \
                                (t.carrier, t.order, a, r, p)
                            assert b is _witness_of_built_pairs(a, r, p, u, it)
                            witnesses += 1
    assert witnesses == 12483


def _propositional_corpus(limit=100):
    atoms = [parse("a = a"), parse("b = b"), parse("c = c")]
    level = list(atoms) + [Falsum()]
    pool = list(level)
    for _ in range(2):
        nxt = []
        for f, g in itertools.product(level, pool):
            nxt.extend([And(f, g), Or(f, g), Imp(f, g)])
        level = nxt[:24]
        pool.extend(level)
    seen = set()
    out = []
    for f in pool:
        key = render(f)
        if key not in seen:
            seen.add(key)
            out.append(f)
        if len(out) >= limit:
            break
    return atoms, out


def _truth(f, val):
    match f:
        case Falsum():
            return False
        case Eq():
            return val[f.left.name]
        case And(l, r):
            return _truth(l, val) and _truth(r, val)
        case Or(l, r):
            return _truth(l, val) or _truth(r, val)
        case Imp(l, r):
            return (not _truth(l, val)) or _truth(r, val)
    raise AssertionError


def test_criterion_6_prover_calibration():
    started = time.monotonic()
    _, corpus = _propositional_corpus()
    ok = True
    for f in corpus:
        tautology = all(_truth(f, dict(zip("abc", bits)))
                        for bits in itertools.product([True, False], repeat=3))
        cl = prove_formula(f, Logic.CLASSICAL).outcome is Outcome.PROVED
        if cl != tautology:
            ok = False
            break
        dn = prove_formula(neg(neg(f)),
                           Logic.INTUITIONISTIC).outcome is Outcome.PROVED
        gg = prove_formula(dn_translate(f),
                           Logic.INTUITIONISTIC).outcome is Outcome.PROVED
        if not cl == dn == gg:
            ok = False
            break
    for text in ["a = a | ~(a = a)",
                 "~~(a = a) -> a = a",
                 "((a = a -> b = b) -> a = a) -> a = a"]:
        r = prove_formula(parse(text), Logic.INTUITIONISTIC)
        if r.outcome is not Outcome.NOT_PROVABLE:
            ok = False
    _finish(6, "prover calibration and the Glivenko equivalences", ok,
            started, 180)


def test_criterion_7_hierarchy_totality():
    started = time.monotonic()
    corpus = bounded_formulas(2, 3, limit=150)
    corpus += [Ex("z", f) for f in corpus[:40]]
    corpus += [All("z", f) for f in corpus[:40]]
    corpus += [neg(Ex("z", f)) for f in corpus[:20]]
    ok = True
    for f in corpus:
        sigma, pi = classify(f)
        if sigma.level < 0 or pi.level < 0:
            ok = False
        for side, res in [(Side.SIGMA, sigma), (Side.PI, pi)]:
            for n in range(res.level, res.level + 3):
                if not in_level(f, side, n):
                    ok = False
            if res.level > 0 and in_level(f, side, res.level - 1):
                ok = False
        delta0 = in_level(f, Side.SIGMA, 0) and in_level(f, Side.PI, 0)
        if delta0 != is_bounded(f):
            ok = False
        if not ok:
            break
    _finish(7, "hierarchy totality, cumulativity and the bounded base",
            ok, started, 30)


def test_criterion_8_relation_adjustment_lemma():
    started = time.monotonic()
    ok = True
    for na, nb in itertools.product(range(1, 4), repeat=2):
        A, B = hf.von_neumann(na), hf.von_neumann(nb)
        pairlist = [hf.kpair(a, b) for a in A for b in B]
        index = {p: i for i, p in enumerate(pairlist)}
        src = {}
        for a in A:
            src[a] = 0
            for b in B:
                src[a] |= 1 << index[hf.kpair(a, b)]
        for r_pairs in relations.mv_relations(A, B):
            unpaired = frozenset(hf.unpair(p) for p in r_pairs)
            r = relations.MVRelation(unpaired, A, B)
            ar = relations.adjust_mv(r)
            rmask = 0
            for p in r_pairs:
                rmask |= 1 << index[p]
            targets = {a: 0 for a in A}
            ranmask = 0
            for a, s in ar.pairs:
                targets[a] |= 1 << index[s]
                ranmask |= 1 << index[s]
            for smask in range(1 << len(pairlist)):
                fwd_adjusted = all(targets[a] & smask for a in A)
                fwd_restricted = all(rmask & smask & src[a] for a in A)
                if fwd_adjusted != fwd_restricted:
                    ok = False
                back_adjusted = smask & ~ranmask == 0
                subset = smask & ~rmask == 0
                if back_adjusted != subset:
                    ok = False
            if not ok:
                break
        if not ok:
            break
    _finish(8, "pairing-adjustment biconditionals", ok, started, 60)


def _transitive_population():
    pool = list(hf.v_stage(4))
    out = []
    for k in range(9):
        for combo in itertools.combinations(pool, k):
            elems = set(combo)
            if all(set(x.elements()) <= elems for x in combo):
                out.append(hfset(*combo))
    return out


def test_criterion_9_regularity_implications():
    started = time.monotonic()
    two = hf.von_neumann(2)
    ok = True
    population = _transitive_population()
    assert population, "no transitive sets found"
    for a_set in population:
        regular = checks.check_regular(
            a_set, checks.RegularityLevel.REGULAR).ok
        if regular and two in a_set:
            for x, y in itertools.product(a_set, repeat=2):
                if hfset(x, y) not in a_set:
                    ok = False
        try:
            inaccessible = checks.check_regular(
                a_set, checks.RegularityLevel.INACCESSIBLE, max_count=512).ok
        except BudgetExceeded:
            inaccessible = False
        if inaccessible:
            if not checks.check_regular(
                    a_set, checks.RegularityLevel.BCST).ok:
                ok = False
        if not ok:
            break
    _finish(9, "regularity closure implications", ok, started, 120)


def test_criterion_10_translation_coincidence():
    started = time.monotonic()
    u = name_universe(OMEGA, 2)
    samples = name_universe(OMEGA, 1).names
    corpus = bounded_formulas(2, 2, limit=60)
    quantified = [Ex("z", f) for f in corpus[:10]]
    quantified += [All("z", f) for f in corpus[:10]]
    ok = True
    for f in corpus + quantified:
        fv = sorted(free_vars(f))
        for combo in itertools.product(samples, repeat=len(fv)):
            env = dict(zip(fv, combo))
            if not semantic_coincidence_check(f, env, u):
                ok = False
                break
        if not ok:
            break
    _finish(10, "translation coincidence over the double-negation topology",
            ok, started, 60)
