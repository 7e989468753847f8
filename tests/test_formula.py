import copy
import pickle
import sys
import threading
import time

import pytest

from czfkit import formula, hf
from czfkit.corpus import bounded_formulas
from czfkit.formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq, Ex, Falsum,
    FormulaSyntaxError, Imp, Lit, Mem, Or, Var, _FormulaNode, alpha_canonical,
    alpha_eq, class_ids, distinct_subformulas, free_vars, is_bounded, neg,
    parse, relativize, render, subformulas, substitute,
)


def test_parse_base_cases():
    assert parse("x in y") == Mem(Var("x"), Var("y"))
    assert parse("x = y") == Eq(Var("x"), Var("y"))
    assert parse("false") == Falsum()
    assert parse("x in M") == ClassMem(Var("x"), "M")


def test_parse_quantifiers():
    assert parse("all x in y. x = x") == BoundedAll(
        "x", Var("y"), Eq(Var("x"), Var("x")))
    assert parse("ex x. x in y") == Ex("x", Mem(Var("x"), Var("y")))


def test_negation_is_sugar():
    assert parse("~(p = q)") == Imp(Eq(Var("p"), Var("q")), Falsum())
    assert render(parse("~(x = x)")) == "~(x = x)"


def test_biconditional_is_sugar():
    f = parse("x = y <-> y = x")
    assert f == And(Imp(Eq(Var("x"), Var("y")), Eq(Var("y"), Var("x"))),
                    Imp(Eq(Var("y"), Var("x")), Eq(Var("x"), Var("y"))))


def test_hf_literals():
    f = parse("x = {{},{{}}}")
    assert isinstance(f.right, Lit)
    assert str(f.right.value) == "{{{}},{}}"


def test_precedence():
    f = parse("a in b & c in d | e in f -> g in h")
    assert isinstance(f, Imp)
    assert isinstance(f.left, Or)
    assert isinstance(f.left.left, And)
    # right-associative implication
    g = parse("a = a -> b = b -> c = c")
    assert isinstance(g, Imp) and isinstance(g.right, Imp)


def test_big_connectives():
    f = parse("bigand [x = x, x in y]")
    assert len(f.parts) == 2
    g = parse("bigor [false]")
    assert len(g.parts) == 1


def test_syntax_errors_have_position():
    with pytest.raises(FormulaSyntaxError):
        parse("x in")
    with pytest.raises(FormulaSyntaxError):
        parse("all X. x = x")
    with pytest.raises(FormulaSyntaxError):
        parse("")


def test_render_parse_identity_on_examples():
    texts = [
        "false",
        "x in y",
        "~(x = x)",
        "ex x in a. x in b",
        "all x. ex y. x in y",
        "x = {} & (y in z | ~(y = z))",
        "bigand [x = x, false]",
    ]
    for t in texts:
        f = parse(t)
        assert parse(render(f)) == f


def test_render_parse_identity_on_corpus():
    for f in bounded_formulas(2, 2, limit=120, include_literals=True):
        assert parse(render(f)) == f


def test_free_vars():
    assert free_vars(parse("x = y")) == {"x", "y"}
    assert free_vars(parse("all x. x in y")) == {"y"}
    assert free_vars(parse("all x in y. x in x")) == {"y"}
    assert free_vars(parse("x in M")) == {"x"}


def test_substitute_basic():
    f = parse("x in y")
    assert substitute(f, "x", Lit(hf.EMPTY)) == Mem(Lit(hf.EMPTY), Var("y"))
    g = parse("all x. x in y")
    assert substitute(g, "x", Var("z")) == g


def test_substitute_capture_avoidance():
    f = All("y", Eq(Var("x"), Var("y")))
    out = substitute(f, "x", Var("y"))
    assert isinstance(out, All)
    assert out.var != "y"
    assert out.body == Eq(Var("y"), Var(out.var))


def test_substitute_free_var_law():
    f = parse("x in y & (ex z. z = x)")
    out = substitute(f, "x", Var("w"))
    assert free_vars(out) == {"w", "y"}


def test_relativize_term():
    f = All("x", Eq(Var("x"), Var("x")))
    assert relativize(f, Var("a")) == BoundedAll("x", Var("a"),
                                                 Eq(Var("x"), Var("x")))
    assert is_bounded(relativize(parse("all x. ex y. x in y"), Var("a")))


def test_relativize_class():
    f = Ex("x", Mem(Var("x"), Var("y")))
    out = relativize(f, "M")
    assert out == Ex("x", And(ClassMem(Var("x"), "M"),
                              Mem(Var("x"), Var("y"))))
    with pytest.raises(ValueError):
        relativize(parse("all x. x in M"), "M")


def test_relativize_bounded_identity():
    f = parse("all x in y. x = x")
    assert relativize(f, Var("a")) == f


def test_is_bounded():
    assert is_bounded(parse("false"))
    assert is_bounded(parse("all x in y. x = x"))
    assert not is_bounded(parse("ex x. x in y"))


def test_class_ids():
    assert class_ids(parse("x in M & y in N")) == {"M", "N"}
    assert class_ids(parse("x in y")) == set()


def test_alpha_eq():
    assert alpha_eq(parse("all x. x = x"), parse("all y. y = y"))
    assert not alpha_eq(parse("all x. x = x"), parse("all y. y in y"))
    assert alpha_eq(parse("ex x in a. all y in x. y in b"),
                    parse("ex u in a. all v in u. v in b"))
    assert not alpha_eq(parse("all x. x = v0"), parse("all y. y = y"))


def test_alpha_canonical_names_avoid_free_variables():
    assert alpha_canonical(parse("all x. x = v0")) == \
        parse("all v0'. v0' = v0")
    assert alpha_canonical(parse("ex x in v1. all y. y in x")) == \
        parse("ex v0 in v1. all v1'. v1' in v0")


def test_relativize_renames_binders_of_the_bound_term():
    assert relativize(parse("all x. all y. y in x"), Var("x")) == \
        parse("all x' in x. all y in x. y in x'")
    assert relativize(parse("ex x in a. all y. y in x"), Var("x")) == \
        parse("ex x' in a. all y in x. y in x'")
    # no unbounded quantifier in scope: the binder keeps its name
    assert relativize(parse("all x. x in x"), Var("x")) == \
        parse("all x in x. x in x")


# -- hash-consing ------------------------------------------------------------

EXAMPLES = [
    "false",
    "x in M",
    "~(x = x)",
    "x = {} & (y in z | ~(y = z))",
    "all x in a. ex y. x in y -> y = {{}}",
    "bigand [x = x, bigor [false, y in x]]",
    "(a = a -> b = b) <-> ~~(c = c)",
]


@pytest.mark.parametrize("text", EXAMPLES)
def test_equal_formulas_are_one_node(text):
    f = parse(text)
    assert parse(text) is f
    assert parse(render(f)) is f
    assert hash(f) == object.__hash__(f)
    assert type(f).__eq__ is object.__eq__


def test_constructors_intern():
    assert Var("x") is Var("x")
    assert Lit(hf.EMPTY) is Lit(hf.hfset())
    assert Falsum() is Falsum()
    assert Eq(Var("x"), Var("y")) is not Mem(Var("x"), Var("y"))
    assert And(Falsum(), Falsum()) is not Or(Falsum(), Falsum())
    assert Ex(var="x", body=Falsum()) is Ex("x", Falsum())
    assert ClassMem(element=Var("x"), cls="M") is parse("x in M")
    assert BigAnd((Falsum(),)) is not BigOr((Falsum(),))


def test_construction_checks_unchanged():
    with pytest.raises(ValueError):
        Var("")
    with pytest.raises(ValueError):
        BigAnd(())
    with pytest.raises(ValueError):
        BigOr(())
    with pytest.raises(TypeError):
        Eq(Var("x"))
    with pytest.raises(TypeError):
        All("x", Falsum(), Falsum())


@pytest.mark.parametrize("text", EXAMPLES)
def test_copies_go_back_through_the_table(text):
    f = parse(text)
    assert copy.copy(f) is f
    assert copy.deepcopy(f) is f
    assert pickle.loads(pickle.dumps(f)) is f
    assert Falsum() is copy.copy(Falsum()) is pickle.loads(
        pickle.dumps(Falsum()))
    assert render(Falsum()) == "false"


def test_nodes_are_immutable():
    f = parse("x in y & y = x")
    for node, attr in [(f, "left"), (f.left, "right"), (Var("x"), "name"),
                       (f, "_text"), (f, "_fv"), (f, "extra")]:
        with pytest.raises(AttributeError):
            setattr(node, attr, Falsum())
        with pytest.raises(AttributeError):
            delattr(node, attr)
    assert f is parse("x in y & y = x")


def test_repr_names_the_fields():
    assert repr(parse("ex x. x = y")) == (
        "Ex(var='x', body=Eq(left=Var(name='x'), right=Var(name='y')))")


def test_stored_free_vars_are_a_fresh_set():
    f = parse("all x. x in y & z = x")
    fv = free_vars(f)
    assert fv == {"y", "z"}
    fv.add("w")
    assert free_vars(f) == {"y", "z"}
    with pytest.raises(TypeError):
        free_vars(Var("x"))
    with pytest.raises(TypeError):
        render(Var("x"))


def _render_reference(f, level=0):
    """The recursive renderer the stored text replaced."""
    def term(t):
        return t.name if isinstance(t, Var) else t.value.serialize()

    def wrap(s, binds):
        return f"({s})" if level > binds else s

    if isinstance(f, Imp) and isinstance(f.right, Falsum):
        return "~(" + _render_reference(f.left) + ")"
    match f:
        case Falsum():
            return "false"
        case Eq(l, r):
            return f"{term(l)} = {term(r)}"
        case Mem(l, r):
            return f"{term(l)} in {term(r)}"
        case ClassMem(e, c):
            return f"{term(e)} in {c}"
        case And(l, r):
            return wrap(f"{_render_reference(l, 2)} & "
                        f"{_render_reference(r, 3)}", 2)
        case Or(l, r):
            return wrap(f"{_render_reference(l, 1)} | "
                        f"{_render_reference(r, 2)}", 1)
        case Imp(l, r):
            return wrap(f"{_render_reference(l, 1)} -> "
                        f"{_render_reference(r)}", 0)
        case BigAnd(ps) | BigOr(ps):
            word = "bigand" if isinstance(f, BigAnd) else "bigor"
            return f"{word} [" + ", ".join(map(_render_reference, ps)) + "]"
        case BoundedAll(v, b, body) | BoundedEx(v, b, body):
            word = "all" if isinstance(f, BoundedAll) else "ex"
            return wrap(f"{word} {v} in {term(b)}. "
                        f"{_render_reference(body)}", 0)
        case All(v, body) | Ex(v, body):
            word = "all" if isinstance(f, All) else "ex"
            return wrap(f"{word} {v}. {_render_reference(body)}", 0)


def test_stored_text_matches_reference_renderer():
    pool = bounded_formulas(2, 3, limit=250, include_literals=True)
    pool += [neg(f) for f in pool[:60]] + [All("z", f) for f in pool[:60]]
    pool += [BigAnd(tuple(pool[i:i + 3])) for i in range(0, 60, 3)]
    pool += [parse(t) for t in EXAMPLES]
    for f in pool:
        assert render(f) == _render_reference(f)


def test_deep_formulas_render_and_parse_errors():
    f = Eq(Var("x"), Var("x"))
    for _ in range(3000):
        f = neg(f)
    assert render(f) == "~(" * 3000 + "x = x" + ")" * 3000
    assert free_vars(f) == {"x"}
    with pytest.raises(FormulaSyntaxError, match="^nested too deeply$"):
        parse("~" * 3000 + "x = x")
    with pytest.raises(FormulaSyntaxError, match="^nested too deeply$"):
        parse("x = " + "{" * 3000 + "}" * 3000)


def test_malformed_hf_literal_is_a_syntax_error():
    for text, message in [("x = {,}", "expected '{' at position 5"),
                          ("x in {{}", "unterminated set literal")]:
        with pytest.raises(FormulaSyntaxError) as e:
            parse(text)
        assert str(e.value) == message


def test_deep_formulas_walk():
    f = Eq(Var("x"), Var("x"))
    for i in range(3000):
        f = And(f, ClassMem(Var("x"), f"C{i % 3}"))
    assert sum(1 for _ in subformulas(f)) == 6001
    assert is_bounded(f)
    assert class_ids(f) == {"C0", "C1", "C2"}


# -- the traversal protocol --------------------------------------------------

PROTOCOL_EXAMPLE = parse(
    "bigand [x = y, x in {}, x in C, false] | bigor [false] "
    "& (false -> all z. ex w. all u in z. ex v in u. v = w)")


def _concrete_formula_classes():
    out, todo = set(), [_FormulaNode]
    while todo:
        cls = todo.pop()
        if not cls.__name__.startswith("_"):
            out.add(cls)
        todo += cls.__subclasses__()
    return out


def _mapped_field(value):
    """What mapping every term to Var("hole"), every formula child to
    false and the binder to var makes of one field."""
    if isinstance(value, (Var, Lit)):
        return Var("hole")
    if isinstance(value, _FormulaNode):
        return Falsum()
    if isinstance(value, tuple):
        return tuple(Falsum() for _ in value)
    return value


def test_every_node_kind_rebuilds_from_its_children():
    nodes = list(subformulas(PROTOCOL_EXAMPLE))
    # a new node kind needs an example here, and _subs/_map
    assert {type(g) for g in nodes} == _concrete_formula_classes()
    seen_terms, seen_children = [], []

    def term(t):
        seen_terms.append(t)
        return Var("hole")

    def go(c):
        seen_children.append(c)
        return Falsum()

    for g in nodes:
        assert g._map(lambda t: t, lambda c: c) is g
        fields = getattr(g, "__match_args__", ())
        for var in (None, "w'"):
            seen_terms.clear()
            seen_children.clear()
            mapped = g._map(term, go, var)
            assert type(mapped) is type(g)
            assert seen_children == list(g._subs())
            assert seen_terms == [getattr(g, a) for a in fields
                                  if isinstance(getattr(g, a), (Var, Lit))]
            for a in fields:
                expected = (var or g.var) if a == "var" \
                    else _mapped_field(getattr(g, a))
                assert getattr(mapped, a) == expected, (render(g), a)


def test_every_node_kind_holds_its_text_once_built():
    # names no other test uses, so every node here is new
    x, y = Var("text_probe"), Lit(hf.hfset(hf.hfset(hf.hfset(hf.EMPTY))))
    a = Eq(x, y)
    nodes = [Falsum(), a, Mem(y, x), ClassMem(x, "TextProbe"), And(a, a),
             Or(a, a), Imp(a, a), neg(a), BigAnd((a, a)), BigOr((a,)),
             BoundedAll("text_z", x, a), BoundedEx("text_z", y, a),
             All("text_z", a), Ex("text_z", a)]
    assert {type(g) for g in nodes} == _concrete_formula_classes()
    for g in nodes:
        assert g._text is not None
        assert g._text == _render_reference(g)


def test_subformulas_is_preorder():
    f = parse("(x = x -> y = y) & ~(ex z. z in x)")
    assert [render(g) for g in subformulas(f)] == [
        "(x = x -> y = y) & ~(ex z. z in x)", "x = x -> y = y", "x = x",
        "y = y", "~(ex z. z in x)", "ex z. z in x", "z in x", "false"]
    with pytest.raises(TypeError):
        list(subformulas(Var("x")))


def walk_corpus():
    """Bounded formulas, and each of them under an unbounded quantifier, a
    class guard, a big conjunction, and conjoined with itself beside a class
    atom, so that nodes repeat."""
    corpus = bounded_formulas(1, 3, 250) + bounded_formulas(2, 2, 120)
    guard = ClassMem(Var("x1"), "C")
    return corpus + [g for f in corpus for g in (
        Ex("z", f), All("z", Imp(guard, f)), BigAnd((f, guard)),
        And(f, Or(f, ClassMem(Var("x1"), "D"))))]


def test_distinct_subformulas_is_subformulas_without_repeats():
    assert list(distinct_subformulas(parse("x = x & x = x"))) == [
        parse("x = x & x = x"), parse("x = x")]
    for f in walk_corpus():
        subs = list(subformulas(f))
        assert list(distinct_subformulas(f)) == list(dict.fromkeys(subs))
        assert class_ids(f) == {g.cls for g in subs
                                if isinstance(g, ClassMem)}
        assert is_bounded(f) == \
            (not any(isinstance(g, (All, Ex)) for g in subs))
    with pytest.raises(TypeError):
        list(distinct_subformulas(Var("x")))


def self_conjunctions(h, n):
    """h conjoined with itself n times over: n + 1 distinct nodes, a tree of
    2^n copies of h."""
    for _ in range(n):
        h = And(h, h)
    return h


def test_walks_cost_the_distinct_nodes():
    for call, h, want in [(class_ids, parse("ex x. x = x"), set()),
                          (is_bounded, parse("x = x"), True)]:
        f = self_conjunctions(h, 20)
        started = time.perf_counter()
        assert call(f) == want
        assert time.perf_counter() - started < 0.5, call


def _key(f):
    return (type(f), *f.__reduce__()[1])


def test_threads_share_one_node_per_formula():
    """Threads that build, render and drop the same new formulas at once
    still get one object per formula, each the one in the table, with its
    text."""
    threads_n, rounds = 8, 100
    results: list = [None] * threads_n
    errors: list = []
    step = threading.Barrier(threads_n)

    def fresh(r):
        # formulas no earlier round built: variables named by the round
        out = []
        for k in range(8):
            x, y = Var(f"x{r}_{k}"), Var(f"y{r}")
            f = Imp(And(Eq(x, y), Mem(y, x)), neg(ClassMem(x, "M")))
            out += [f, All(x.name, f), BoundedEx("z", y, Or(f, Falsum()))]
        return out

    def work(i):
        try:
            for r in range(rounds):
                step.wait(timeout=10)
                built = fresh(r) + [parse(t) for t in EXAMPLES]
                texts = [render(f) for f in built]
                lost = [f for f in built
                        if formula._table[_key(f)]() is not f]
                if lost:
                    errors.append(f"round {r}: {lost[0]} is not in the table")
                    step.abort()
                    return
            results[i] = (built, texts)
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
    first, texts = results[0]
    assert texts == [_render_reference(f) for f in first]
    for other, _ in results[1:]:
        assert all(a is b for a, b in zip(first, other, strict=True))
