import itertools
import sys
import time

import pytest

from czfkit import corpus, godel, hf
from czfkit.formula import (
    BoundedAll, BoundedEx, Eq, Lit, Mem, Var, free_vars, parse,
)
from czfkit.godel import (
    App, Arg, CompileError, compile_bounded, def_stage, eval_opterm,
    fundamental_op, hereditary_add, l_stage, max_placeholder, opterm_render,
)
from czfkit.hf import EMPTY, HFSet, hfset, kpair, parse_hf
from czfkit.semantics import comprehension


ONE = hfset(EMPTY)


def test_pairing():
    assert fundamental_op("p", [EMPTY, EMPTY]) == ONE
    assert fundamental_op("p", [EMPTY, ONE]) == hfset(EMPTY, ONE)


def test_big_union():
    assert fundamental_op("cup", [hfset(ONE)]) == ONE


def test_intersection_with_convention():
    # x cap (big intersection of y); empty y absorbs to x
    assert fundamental_op("cap", [hfset(EMPTY, ONE), hfset(ONE)]) == ONE
    assert fundamental_op("cap", [ONE, EMPTY]) == ONE


def test_difference_product():
    assert fundamental_op("diff", [hfset(EMPTY, ONE), ONE]) == hfset(ONE)
    assert fundamental_op("times", [ONE, ONE]) == hfset(kpair(EMPTY, EMPTY))


def test_imp_op():
    a = hfset(EMPTY, ONE)
    # guarded by y being an ordered pair; z in 1st -> z in 2nd
    y = kpair(ONE, hfset(EMPTY, ONE))
    assert fundamental_op("imp", [a, y]) == a
    y2 = kpair(hfset(EMPTY, ONE), ONE)
    assert fundamental_op("imp", [a, y2]) == ONE
    assert fundamental_op("imp", [a, EMPTY]) == EMPTY


def test_forall_op():
    # x"{z} for z in y, collected as a set
    r = hfset(kpair(EMPTY, EMPTY), kpair(EMPTY, ONE), kpair(ONE, EMPTY))
    out = fundamental_op("forall", [r, hfset(EMPTY, ONE)])
    assert out == hfset(hfset(EMPTY, ONE), ONE)
    assert fundamental_op("forall", [r, EMPTY]) == EMPTY


def test_dom_ran():
    r = hfset(kpair(EMPTY, ONE))
    assert fundamental_op("dom", [r, EMPTY]) == ONE
    assert fundamental_op("ran", [r, EMPTY]) == hfset(ONE)


def test_insertion_ops():
    r = hfset(kpair(EMPTY, ONE))
    out = godel.fundamental_op("123", [r, hfset(EMPTY)])
    assert out == hfset(hf.tuple_right([EMPTY, ONE, EMPTY]))
    out = godel.fundamental_op("132", [r, hfset(EMPTY)])
    assert out == hfset(hf.tuple_right([EMPTY, EMPTY, ONE]))


def test_eq_mem_ops():
    a, b = hfset(EMPTY, ONE), hfset(EMPTY, ONE)
    eq = fundamental_op("eq", [a, b])
    assert eq == hfset(kpair(EMPTY, EMPTY), kpair(ONE, ONE))
    mem = fundamental_op("mem", [a, b])
    # pairs <v,u> with u in v
    assert mem == hfset(kpair(ONE, EMPTY))


def test_arity_errors():
    with pytest.raises(ValueError):
        fundamental_op("cup", [EMPTY, EMPTY])
    with pytest.raises(ValueError):
        fundamental_op("p", [EMPTY])


def test_opterm_eval_and_render():
    t = App("p", (Arg(1), Arg(1)))
    assert eval_opterm(t, [EMPTY]) == ONE
    assert eval_opterm(Arg(1), [ONE]) == ONE
    assert opterm_render(t) == "F_p(#1,#1)"
    assert t.size == 3 and Arg(1).size == 1
    assert max_placeholder(t) == 1
    with pytest.raises(ValueError):
        eval_opterm(Arg(2), [EMPTY])


def test_compile_small_cases():
    t = compile_bounded(parse("x1 in x1"), 1)
    assert eval_opterm(t, [hfset(EMPTY, ONE)]) == EMPTY
    t = compile_bounded(parse("x2 in x1"), 2)
    assert eval_opterm(t, [hfset(ONE), ONE]) == hfset(kpair(EMPTY, ONE))
    t = compile_bounded(parse("x1 = x1"), 1)
    assert eval_opterm(t, [ONE]) == ONE


def test_compile_requires_bounded():
    with pytest.raises(CompileError):
        compile_bounded(parse("ex y. y in x1"), 1)
    with pytest.raises(ValueError):
        compile_bounded(parse("x1 in x3"), 2)


def test_compile_matches_oracle_sample():
    args_pool = list(hf.v_stage(3))
    formulas = [
        "x1 = x2", "x1 in x2", "x2 in x1",
        "x1 in x2 & x2 in x1", "x1 in x2 | x1 = x2",
        "x1 in x2 -> x2 in x1",
        "ex y in x1. y in x2", "all y in x1. y in x2",
        "ex y in x2. all z in y. z in x1",
        "bigand [x1 = x1, ex y in x1. y = y, x1 in x2]",
        "bigor [x1 in x2, x2 in x1, x1 = x2]",
    ]
    for text in formulas:
        f = parse(text)
        t = compile_bounded(f, 2)
        for a1, a2 in itertools.product(args_pool, repeat=2):
            assert eval_opterm(t, [a1, a2]) == comprehension(f, [a1, a2]), text
    for text in ["x1 = {}", "{} in x1", "all y in x1. y = {}",
                 "x1 = {{},{{}}}", "x1 in {{},{{}},{{{}}}}", "{{},{{}}} in x1"]:
        f = parse(text)
        t = compile_bounded(f, 1)
        for a1 in args_pool:
            assert eval_opterm(t, [a1]) == comprehension(f, [a1]), text


def test_compile_binder_that_is_its_own_bound():
    """The guard x1' in x1 must not be read in the scope of the new x1."""
    for text in ["ex x1 in x1. x1 = x1", "all x1 in x1. false"]:
        f = parse(text)
        t = compile_bounded(f, 1)
        for a1 in hf.v_stage(3):
            assert eval_opterm(t, [a1]) == comprehension(f, [a1]), text


def _eval_reference(t, args):
    """The recursive tree walk that eval_opterm was before its memo."""
    if isinstance(t, Arg):
        if t.index > len(args):
            raise ValueError(f"argument index {t.index} out of range")
        return args[t.index - 1]
    return fundamental_op(t.op, [_eval_reference(a, args) for a in t.args])


def _quantified_atoms(scope):
    """Every ``all/ex y1 in x. atom`` with x in scope, whose atom compares
    two of scope, y1 and {} (one at least a variable), with free variables
    exactly scope."""
    terms = [Var(v) for v in scope] + [Var("y1"), Lit(EMPTY)]
    out = []
    for quantifier, bound, atom in itertools.product(
            (BoundedAll, BoundedEx), scope, (Eq, Mem)):
        for left, right in itertools.product(terms, repeat=2):
            if isinstance(left, Var) or isinstance(right, Var):
                f = quantifier("y1", Var(bound), atom(left, right))
                if free_vars(f) == set(scope):
                    out.append(f)
    return out


def _reference_corpus():
    """(arity, formula) for every formula that test_eval_matches_reference
    compiles."""
    out = []
    for arity, count in ((1, 222), (2, 196)):
        scope = {f"x{i}" for i in range(1, arity + 1)}
        formulas = [f for f in corpus.bounded_formulas(arity, 3, limit=250)
                    if free_vars(f) == scope]
        assert len(formulas) == count
        formulas += _quantified_atoms(sorted(scope))
        if arity == 1:
            formulas += [parse("ex x1 in x1. x1 = x1"),
                         parse("all x1 in x1. false")]
        out += [(arity, f) for f in formulas]
    return out


def test_eval_matches_reference():
    pool = list(hf.v_stage(3))
    for arity, f in _reference_corpus():
        t = compile_bounded(f, arity)
        for args in itertools.product(pool, repeat=arity):
            assert eval_opterm(t, list(args)) \
                is _eval_reference(t, list(args)), f
    assert len(_quantified_atoms(["x1"])) == 32
    assert len(_quantified_atoms(["x1", "x2"])) == 56
    with pytest.raises(ValueError):
        eval_opterm(Arg(2), [EMPTY])


def _swap_reference(r, a, b):
    """The value of the compiler's _swap(r, a, b), by fundamental_op."""
    shape = fundamental_op("132", [fundamental_op("eq", [a, a]), b])
    rel = fundamental_op("123", [r, a])
    return fundamental_op("ran", [fundamental_op("cap", [rel, hfset(shape)]),
                                  EMPTY])


def _capall_reference(x, s, y):
    return fundamental_op("cap", [x, fundamental_op("forall", [s, y])])


def test_ops_on_normal_forms_match_fundamental_op():
    """Every operation, and the shapes that the evaluator reads whole
    (conjunction, disjunction, bounded universal and swap), on normal-form
    values against fundamental_op."""
    square = hf.product(hf.v_stage(2), hf.v_stage(2))
    # pairs off every square of small sets, and members that are no pair
    mixed = hf.binary_union(hf.product(hf.v_stage(3), hf.v_stage(1)),
                            hfset(EMPTY, hfset(EMPTY, ONE)))
    # every section z"{z} a pair: <z, {}> for z in V_2
    sections = HFSet(kpair(z, w) for z in hf.v_stage(2)
                     for w in kpair(z, EMPTY))
    pool = list(hf.v_stage(4)) + [square, hfset(kpair(EMPTY, EMPTY)), mixed,
                                  sections]
    call = godel._Eval([])
    assert set(godel._OPS) == {*godel.OP_SYMBOLS, "inter", "union", "capall",
                               "swap"}

    def apply(symbol, *sets):
        values = [call.set_in(s) for s in sets]
        return call.set_out(godel._OPS[symbol](call, *values))

    for x, y in itertools.product(pool, repeat=2):
        assert apply("cup", x) is fundamental_op("cup", [x])
        for symbol in godel.OP_SYMBOLS:
            if symbol != "cup":
                assert apply(symbol, x, y) is fundamental_op(symbol, [x, y])
        assert apply("union", x, y) is hf.union(hfset(x, y))
        for z in (x, y, square):
            assert apply("inter", x, y, z) \
                is fundamental_op("cap", [x, hfset(y, z)])
        for z in pool:
            assert apply("capall", x, y, z) is _capall_reference(x, y, z)
            assert apply("swap", x, y, z) is _swap_reference(x, y, z)
    assert apply("capall", square, square, EMPTY) is square
    # the sections by {} and {{}} are <{}, {}> = {{{}}} and <{{}}, {}>
    assert apply("capall", hf.v_stage(4), sections, hf.v_stage(1)) \
        is hfset(ONE)
    assert apply("capall", hf.v_stage(4), sections, hf.v_stage(2)) is EMPTY
    assert apply("swap", mixed, hf.v_stage(2), hf.v_stage(1)) \
        is hfset(kpair(EMPTY, EMPTY), kpair(EMPTY, ONE))


def test_eval_memo_is_scoped_to_one_call():
    f = parse("all y in x2. y in x1 -> x2 in x1")
    t = compile_bounded(f, 2)
    args = [hf.v_stage(3), parse_hf("{{}, {{}}, {{{}}}}")]
    before = len(hf._table)
    result = eval_opterm(t, args)
    assert len(hf._table) > before
    assert result is comprehension(f, args)
    del result
    assert len(hf._table) == before


def test_eval_applies_each_node_once(monkeypatch):
    t = compile_bounded(parse("all y in x2. y in x1 -> x2 in x1"), 2)
    args = [hf.v_stage(3), parse_hf("{{}, {{}}, {{{}}}}")]
    tree = []  # one (op, *args) per operation of t's tree, read as eval does
    nodes = set()  # ids of the App nodes evaluation reaches

    def walk(u):
        if isinstance(u, Arg):
            return args[u.index - 1]
        nodes.add(id(u))
        last = u.args[-1]
        inner = last.op if isinstance(last, App) else None
        if (u.op, inner) in (("cap", "p"), ("cup", "p"), ("cap", "forall")):
            # cap(x, p(y, z)) is inter(x, y, z); cup(p(y, z)) is union(y, z);
            # cap(x, forall(s, y)) is capall(x, s, y); the inner node itself
            # is not evaluated
            values = [walk(a) for a in (*u.args[:-1], *last.args)]
            op = {("cap", "p"): "inter", ("cup", "p"): "union",
                  ("cap", "forall"): "capall"}[u.op, inner]
            value = fundamental_op(u.op, [
                *values[:-2], fundamental_op(inner, values[-2:])])
        elif u.op == "ran" and (operands := swapped(u.args[0])):
            # the compiler's _swap(r, a, b) is swap(r, a, b); its cap, 123,
            # p, 132 and eq nodes are not evaluated
            values = [walk(a) for a in operands]
            op, value = "swap", _swap_reference(*values)
        else:
            values = [walk(a) for a in u.args]
            op, value = u.op, fundamental_op(u.op, values)
        tree.append((op, *values))
        return value

    def swapped(x):
        """(r, a, b) if x is cap(123(r, a), p(S, S)) with S the node
        132(eq(a, a), b), else None."""
        def op(u):
            return getattr(u, "op", None)
        if op(x) != "cap" or [*map(op, x.args)] != ["123", "p"]:
            return None
        (r, a), (s, s2) = x.args[0].args, x.args[1].args
        if s is s2 and op(s) == "132" and op(s.args[0]) == "eq" \
                and all(e is a for e in s.args[0].args):
            return r, a, s.args[1]
        return None

    want = walk(t)
    calls = []

    def counting(symbol, apply):
        def op(call, *values):
            calls.append((symbol, *values))
            return apply(call, *values)
        return op

    for symbol, apply in list(godel._OPS.items()):
        monkeypatch.setitem(godel._OPS, symbol, counting(symbol, apply))
    assert eval_opterm(t, args) is want
    assert len(calls) == len(nodes)
    out = godel._Eval([]).set_out
    assert {(op, *map(out, values)) for op, *values in calls} == set(tree)
    assert len(calls) < len(tree)


def _steps_of(t, symbol):
    """How many steps of t's program run the _OPS entry symbol."""
    return sum(fn is godel._OPS[symbol] for fn, *_ in t._program[1])


def test_quantified_atoms_run_swap_and_capall_steps():
    """Each bounded all runs as one capall step, and each membership whose
    member is the later variable (the quantifier's guard y1 in xk among
    them) as one swap step, so that neither fast path can be lost without
    notice."""
    for scope in (["x1"], ["x1", "x2"]):
        index = {v: i for i, v in enumerate([*scope, "y1"], 1)}
        for f in _quantified_atoms(scope):
            atom = f.body
            swaps = 1 + (isinstance(atom, Mem) and isinstance(atom.left, Var)
                         and isinstance(atom.right, Var)
                         and index[atom.left.name] > index[atom.right.name])
            t = compile_bounded(f, len(scope))
            assert _steps_of(t, "swap") == swaps, f
            assert _steps_of(t, "capall") == isinstance(f, BoundedAll), f
            assert _steps_of(t, "forall") == 0, f


def test_fused_shapes_whose_inner_nodes_are_used_elsewhere():
    """A node inside a swap or capall shape that another node reads runs as
    its own step too, and every value is the tree walk's; so do shapes that
    miss the swap by one node."""
    r, a, b = Arg(1), Arg(2), Arg(3)

    def app(op, *args):
        return App(op, args)

    def union(x, y):
        return app("cup", app("p", x, y))

    diag = app("eq", a, a)
    shape = app("132", diag, b)
    rel = app("123", r, a)
    family = app("p", shape, shape)
    meet = app("cap", rel, family)
    swap = app("ran", meet, r)
    inside = [diag, shape, rel, family, meet]
    sections = app("forall", r, b)
    capall = app("cap", a, sections)
    terms = [swap, capall, app("cap", capall, sections),
             app("diff", swap, app("ran", meet, b)),
             union(app("cap", a, app("forall", swap, b)), capall)]
    terms += [union(swap, u) for u in inside]
    terms += [union(capall, sections), app("times", sections, capall)]
    # a diagonal over another a, one 132 node in p's first place and
    # another in its second: not swap shapes
    terms += [app("ran", app("cap", rel, app("p", s, s)), r)
              for s in (app("132", app("eq", a, b), b),
                        app("132", app("eq", Arg(2), Arg(2)), b))]
    terms.append(app("ran", app("cap", rel, app("p", shape,
                                                app("132", diag, b))), r))
    assert [_steps_of(t, "swap") for t in terms] \
        == [1, 0, 0, 2, 1, 1, 1, 1, 1, 1, 0, 0, 0, 0, 0]
    assert [_steps_of(t, "capall") for t in terms] \
        == [0, 1, 2, 0, 2, 0, 0, 0, 0, 0, 1, 1, 0, 0, 0]
    square = hf.product(hf.v_stage(2), hf.v_stage(2))
    pool = [*hf.v_stage(3), square,
            hf.binary_union(square, hf.v_stage(2))]
    for t in terms:
        for args in itertools.product(pool, repeat=3):
            assert eval_opterm(t, list(args)) \
                is _eval_reference(t, list(args)), t


def _fold_reference(t, leaf, node):
    """The tree walk that rendering and max_placeholder made before they
    were folds over distinct nodes: leaf(a) at each Arg and node(app, child
    values) at each App, once per occurrence."""
    done: list = []
    stack: list = [t]
    while stack:
        u = stack.pop()
        if isinstance(u, Arg):
            done.append(leaf(u))
        elif isinstance(u, App):
            stack.append((u,))
            stack.extend(reversed(u.args))
        else:
            app, n = u[0], len(u[0].args)
            values = done[-n:]
            del done[-n:]
            done.append(node(app, values))
    return done[0]


def test_render_and_max_placeholder_match_the_tree_walk():
    for arity, f in _reference_corpus():
        t = compile_bounded(f, arity)
        assert opterm_render(t) == _fold_reference(
            t, lambda a: f"#{a.index}",
            lambda app, parts: f"F_{app.op}(" + ",".join(parts) + ")"), f
        assert max_placeholder(t) == _fold_reference(
            t, lambda a: a.index, lambda app, indices: max(indices)), f


def test_deep_terms_render_and_evaluate():
    """Rendering and evaluation walk without recursion.  Nested quantifiers
    once compiled to a tree of about 4^n nodes, as each level wrote its body
    twice; 100 of them over x1 hold iff x1 is not empty."""
    t = compile_bounded(parse("~" * 900 + "x1 = x1"), 1)
    assert max_placeholder(t) == 1
    assert opterm_render(t).startswith("F_")
    t = compile_bounded(parse("ex y in x1. " * 100 + "x1 = x1"), 1)
    assert t.size < 40_000
    assert opterm_render(t).startswith("F_")
    for a1 in hf.v_stage(2):
        want = hfset(a1) if a1 else EMPTY
        assert eval_opterm(t, [hfset(a1)]) is want
    f = parse("~" * 200 + "x1 = x1")  # a term 601 deep
    t = compile_bounded(f, 1)
    for a1 in hf.v_stage(2):
        assert eval_opterm(t, [hfset(a1)]) is comprehension(f, [hfset(a1)])


def test_evaluation_reaches_400_negations():
    """A term twice as deep as the 200-negation case above evaluates under
    the default recursion limit; evaluation, run as a straight-line
    program, takes no frame per term level."""
    f = parse("~" * 400 + "x1 = x1")
    t = compile_bounded(f, 1)
    for a1 in hf.v_stage(2):
        assert eval_opterm(t, [hfset(a1)]) is comprehension(f, [hfset(a1)])


def test_evaluation_reaches_900_negations():
    """The 900-negation term of test_deep_terms_render_and_evaluate, which
    evaluation once reached only to about 500, evaluates as the oracle says."""
    f = parse("~" * 900 + "x1 = x1")
    t = compile_bounded(f, 1)
    for a1 in hf.v_stage(2):
        assert eval_opterm(t, [hfset(a1)]) is comprehension(f, [hfset(a1)])


def test_evaluation_takes_no_frame_per_term_level():
    """A term 1000 levels deep, built from App directly (compile_bounded
    recurses), evaluates under a recursion limit of 200.  Each level is
    #1 minus the level below, or the union of the level below with the
    empty set (the union shape that a program runs as one step); the
    value alternates between a and the empty set at each diff."""
    a = hf.v_stage(3)
    empty = App("diff", (Arg(1), Arg(1)))
    t, diffs = Arg(1), 0
    for level in range(1000):
        if level % 3:
            t, diffs = App("diff", (Arg(1), t)), diffs + 1
        else:
            t = App("cup", (App("p", (t, empty)),))
    assert max_placeholder(t) == 1
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        value = eval_opterm(t, [a])
    finally:
        sys.setrecursionlimit(limit)
    assert value is (EMPTY if diffs % 2 else a)


def test_deep_literal_evaluates_each_shared_subterm_once():
    """A singleton is p(e, e) with one e, so the 20-deep literal's term is
    a tree of 8 388 609 nodes over a few dozen objects."""
    text = "{" * 20 + "}" * 20
    f = parse(f"x1 = {text}")
    t = compile_bounded(f, 1)
    assert t.size == 8_388_609
    started = time.monotonic()
    for a1 in (parse_hf(text), hf.v_stage(2)):
        args = [hfset(a1, EMPTY)]
        assert eval_opterm(t, args) is comprehension(f, args)
    assert time.monotonic() - started < 0.5


def test_render_refuses_a_term_past_its_bound():
    """x1 = c for a literal c of rank r compiles to 2^(r + 4) + 1 tree
    nodes; past MAX_RENDER_SIZE the render raises before it writes any
    text."""
    for rank in (22, 26):
        text = "{" * (rank + 1) + "}" * (rank + 1)
        t = compile_bounded(parse(f"x1 = {text}"), 1)
        assert t.size == 2 ** (rank + 4) + 1 > godel.MAX_RENDER_SIZE
        with pytest.raises(hf.BudgetExceeded, match="to render$"):
            opterm_render(t)


def test_def_stage_examples():
    assert def_stage(EMPTY, 0) == EMPTY
    assert def_stage(EMPTY, 1) == hfset(EMPTY, ONE)
    a = hfset(ONE)
    for k in range(2):
        s1, s2 = def_stage(a, k), def_stage(a, k + 1)
        assert s1.is_subset(s2)
    assert a in def_stage(a, 1)
    for x in a:
        assert x in def_stage(a, 1)


def test_def_stage_budget():
    with pytest.raises(hf.BudgetExceeded):
        def_stage(hf.v_stage(3), 3, max_size=10)


def _expand_appending_past_the_budget(a, max_size):
    """The reference expansion: append each value, stop a symbol's values
    once the list passes 8 * max_size, and check the budget on the set at
    the end."""
    out = list(a)
    for symbol in godel.OP_SYMBOLS:
        for args in godel._arg_tuples(a, symbol):
            out.append(fundamental_op(symbol, args))
            if len(out) > max_size * 8:
                break
    result = hf.HFSet(out)
    if len(result) > max_size:
        raise hf.BudgetExceeded(f"expansion exceeds {max_size} elements")
    return result


def test_expand_matches_appending_past_the_budget():
    v3 = list(hf.v_stage(3))
    sets = [hf.v_stage(n) for n in range(4)]
    sets += [hf.von_neumann(n) for n in range(7)]
    sets += [hfset(x, y) for x in v3 for y in v3]
    for a in sets:
        for max_size in [2 ** i for i in range(9)] + [4096]:
            assert _outcome(godel.expand, a, max_size) == _outcome(
                _expand_appending_past_the_budget, a, max_size)


def test_expand_stops_at_the_budget(monkeypatch):
    calls = 0

    def counted(symbol, args):
        nonlocal calls
        calls += 1
        return fundamental_op(symbol, args)

    monkeypatch.setattr(godel, "fundamental_op", counted)
    with pytest.raises(hf.BudgetExceeded,
                       match="^expansion exceeds 4096 elements$"):
        l_stage(4, 1)
    assert calls < 10_000


def test_l_stage():
    assert l_stage(0, 1) == EMPTY
    assert l_stage(1, 1) == hfset(EMPTY, ONE)
    for beta in range(3):
        assert l_stage(beta, 1).is_subset(l_stage(beta + 1, 1))


def _l_stage_from_every_earlier_stage(alpha, k, max_size):
    """Stage n as the union of def_stage over every stage below it."""
    stages = [EMPTY]
    for _ in range(alpha):
        cur = EMPTY
        for prev in stages:
            cur = hf.binary_union(cur, def_stage(prev, k, max_size))
        if len(cur) > max_size:
            raise hf.BudgetExceeded(f"stage exceeds {max_size} elements")
        stages.append(cur)
    return stages[alpha]


def _outcome(stage, *args):
    try:
        return stage(*args)
    except hf.BudgetExceeded as e:
        return f"BudgetExceeded: {e}"


def test_l_stage_matches_the_union_over_every_earlier_stage():
    for alpha, k, max_size in itertools.product(range(4), range(2),
                                                (10, 64, 4096)):
        assert _outcome(l_stage, alpha, k, max_size) == _outcome(
            _l_stage_from_every_earlier_stage, alpha, k, max_size)


def test_l_stage_closes_each_stage_once(monkeypatch):
    calls = []

    def counted(a, k, max_size=4096):
        calls.append(a)
        return def_stage(a, k, max_size)

    monkeypatch.setattr(godel, "def_stage", counted)
    for alpha in range(4):
        calls.clear()
        l_stage(alpha, 1)
        assert len(calls) == alpha


def test_stages_reject_negative_arguments():
    with pytest.raises(ValueError, match="^finite ordinals only$"):
        l_stage(-1, 1)
    for stage in (lambda: l_stage(0, -1), lambda: def_stage(EMPTY, -1)):
        with pytest.raises(ValueError, match="^k must be a natural number$"):
            stage()


def test_hereditary_add_values():
    assert hereditary_add(0, 0) == 1
    assert hereditary_add(0, 2) == 3
    assert hereditary_add(1, 1) == 3


def _hereditary_add_on_sets(alpha, gamma):
    """Hereditary addition by its definition, on von Neumann ordinals.  The
    ordinal n stores a canonical string of about 2**(n + 1) characters, so
    keep the sums small."""
    memo = {}

    def go(a):
        if a not in memo:
            inner = EMPTY
            for beta in range(a):
                inner = hf.binary_union(inner, hf.von_neumann(go(beta)))
            inner = hf.binary_union(inner, hfset(hf.von_neumann(a)))
            base = hf.to_ordinal(inner)
            assert base is not None
            memo[a] = base + gamma
        return memo[a]

    return go(alpha)


def test_hereditary_add_matches_the_set_construction():
    for a in range(4):
        for g in range(4):
            assert hereditary_add(a, g) == _hereditary_add_on_sets(a, g)


def test_hereditary_add_laws():
    for a in range(5):
        for g in range(5):
            v = hereditary_add(a, g)
            assert v >= a + g
            assert hereditary_add(a + 1, g) >= v
            assert hereditary_add(a, g + 1) >= v


def test_parse_hf_literal_in_compile():
    f = parse("x1 = {{}}")
    t = compile_bounded(f, 1)
    dom = hfset(EMPTY, ONE, hfset(ONE))
    assert eval_opterm(t, [dom]) == hfset(ONE)
    assert parse_hf("{{}}") == ONE
