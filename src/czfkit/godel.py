"""The thirteen fundamental set operations, term evaluation, the bounded
formula compiler, and the truncated definability/constructible stages.

The compiler turns a bounded formula with free variables x1..xn into a term
over the fundamental operations that computes, for any arguments a1..an,
the comprehension {<x_n,...,x_1> in a_n x ... x a_1 | phi(x1..xn)} (tuples
right-nested, 1-tuples being the element itself).

fundamental_op applies one operation to HFSets; it is the definition, which
expand and the CLI use and the tests compare against.  eval_opterm computes
the same values in a normal form that keeps Kuratowski pairs as Python
tuples (<a, b> is (a, b)), so relations are not built as HFSets between one
operation and the next; it builds an HFSet where an operation needs the
members of an element, and for the result.  A term's first evaluation
schedules its distinct nodes once, children first, as a straight-line
program of functions from _OPS (operation symbol -> function on normal
forms) over registers, stored on the term; each call runs it in one loop,
so each shared subterm is evaluated once per call and depth costs no
recursion.  The program holds no set: nothing outlives the call.  Four
shapes of the compiler run as one step each (see _step): conjunction,
disjunction, the bounded universal cap(P, forall(s, B)), which intersects
the sections of s as sets of normal forms, and the swap of a membership
relation, one pass over the relation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

from . import hf, unique
from .formula import (
    And, BigAnd, BigOr, BoundedAll, BoundedEx, Eq, Falsum, Formula, Imp, Lit,
    Mem, Or, Term, Var, class_ids, free_vars, is_bounded, unbounded,
)
from .hf import EMPTY, HFSet, BudgetExceeded

OP_SYMBOLS = (
    "p", "cap", "cup", "diff", "times", "imp", "forall",
    "dom", "ran", "123", "132", "eq", "mem",
)

_ARITY = {sym: (1 if sym == "cup" else 2) for sym in OP_SYMBOLS}


def _dom(x: HFSet) -> HFSet:
    return HFSet(p[0] for e in x if (p := hf.unpair(e)))


def _ran(x: HFSet) -> HFSet:
    return HFSet(p[1] for e in x if (p := hf.unpair(e)))


def _image_singleton(y: HFSet, z: HFSet) -> HFSet:
    """y"{z} = {u | <z,u> in y}."""
    return HFSet(p[1] for e in y if (p := hf.unpair(e)) and p[0] == z)


def fundamental_op(symbol: str, args: list[HFSet]) -> HFSet:
    """Apply one fundamental operation."""
    if symbol not in _ARITY:
        raise ValueError(f"unknown operation {symbol!r}")
    if len(args) != _ARITY[symbol]:
        raise ValueError(
            f"operation {symbol!r} takes {_ARITY[symbol]} arguments, got {len(args)}")
    match symbol:
        case "p":
            return hf.hfset(args[0], args[1])
        case "cap":
            # x cap bigcap y; bigcap of the empty family absorbs: result x
            x, y = args
            if not y:
                return x
            result = x
            for e in y:
                result = hf.intersection(result, e)
            return result
        case "cup":
            return hf.union(args[0])
        case "diff":
            return hf.difference(args[0], args[1])
        case "times":
            return hf.product(args[0], args[1])
        case "imp":
            x, y = args
            p = hf.unpair(y)
            if p is None:
                return HFSet()
            fst, snd = p
            return HFSet(z for z in x if z not in fst or z in snd)
        case "forall":
            x, y = args
            return HFSet(_image_singleton(x, z) for z in y)
        case "dom":
            return _dom(args[0])
        case "ran":
            return _ran(args[0])
        case "123":
            x, y = args
            return HFSet(
                hf.kpair(p[0], hf.kpair(p[1], w))
                for e in x if (p := hf.unpair(e)) for w in y)
        case "132":
            x, y = args
            return HFSet(
                hf.kpair(p[0], hf.kpair(w, p[1]))
                for e in x if (p := hf.unpair(e)) for w in y)
        case "eq":
            x, y = args
            return HFSet(hf.kpair(v, u) for v in y for u in x if u == v)
        case "mem":
            x, y = args
            return HFSet(hf.kpair(v, u) for v in y for u in x if u in v)
    raise AssertionError


# -- operation terms -------------------------------------------------------


@dataclass(frozen=True)
class Arg:
    """Placeholder for the i-th argument (1-based)."""
    index: int
    size = 1  # nodes in the term's tree, as for App
    args = ()  # its subterms, as for App

    def __post_init__(self):
        if self.index < 1:
            raise ValueError("argument indices start at 1")


@dataclass(frozen=True)
class App:
    op: str
    args: tuple["OpTerm", ...]
    size: int = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.op not in _ARITY:
            raise ValueError(f"unknown operation {self.op!r}")
        if len(self.args) != _ARITY[self.op]:
            raise ValueError(f"operation {self.op!r} arity mismatch")
        object.__setattr__(self, "size", 1 + sum(a.size for a in self.args))

    @cached_property
    def _program(self) -> tuple[int, tuple]:
        return _schedule(self)


OpTerm = Arg | App


def _render(t: OpTerm, parts: list[str]) -> str:
    if isinstance(t, Arg):
        return f"#{t.index}"
    # one join, so a long text is copied once, not once per piece
    pieces = [f"F_{t.op}("] + [s for part in parts for s in (part, ",")]
    pieces[-1] = ")"
    return "".join(pieces)


# The most tree nodes opterm_render writes out.  The text grows with the
# tree, and a literal's tree doubles with each level of nesting.
MAX_RENDER_SIZE = 1 << 26


def opterm_render(t: OpTerm) -> str:
    """t in full: a shared subterm is rendered once, written at each use.
    A term of more than MAX_RENDER_SIZE tree nodes raises BudgetExceeded."""
    if t.size > MAX_RENDER_SIZE:
        raise BudgetExceeded(f"term of {t.size} nodes, more than "
                             f"{MAX_RENDER_SIZE} to render")
    return unique.fold(t, lambda u: u.args, _render)


def eval_opterm(t: OpTerm, args: list[HFSet]) -> HFSet:
    """The value of t at args, where Arg(i) stands for args[i-1].

    Inside the call a set is a frozenset of normal-form elements (see
    _Eval), so the pairs that one operation builds and the next takes apart
    are never made into HFSets.  t runs as its program (see _schedule), one
    step per node, without recursion.  All of it dies with the call, so the
    unique table can free what was built."""
    # a bare Arg is a program of no steps: its register is the last one
    top, program = (t.index, ()) if isinstance(t, Arg) else t._program
    if top > len(args):
        raise ValueError(f"argument index {top} out of range")
    call = _Eval(args[:top])
    regs = call.args
    for fn, i, j, k in program:
        if k is None:
            regs.append(fn(call, regs[i]) if j is None
                        else fn(call, regs[i], regs[j]))
        else:
            regs.append(fn(call, regs[i], regs[j], regs[k]))
    return call.set_out(regs[-1])


class _Eval:
    """The state of one eval_opterm call.

    A set is held as the frozenset of the normal forms of its elements.  The
    normal form of a Kuratowski pair <a, b> is the tuple (a', b') of the
    normal forms of a and b; the normal form of any other set is the HFSet
    itself.  Every set has one normal form, so equal sets have equal normal
    forms: tuples compare by parts, HFSets by identity.  HFSets are built
    where an operation needs the members of an element (p, cup, cap over a
    family, imp, forall, mem) and for the result.  Conversions between sets
    and normal forms are memoized for the call.  args holds the program's
    registers: the arguments' values, then each step's.
    """

    __slots__ = ("args", "nfs", "sets")

    def __init__(self, args: list[HFSet]):
        self.nfs: dict[HFSet, object] = {}     # set -> its normal form
        self.sets: dict[tuple, HFSet] = {}     # pair normal form -> set
        self.args = [self.set_in(a) for a in args]

    def nf(self, s: HFSet):
        e = self.nfs.get(s)
        if e is None:
            p = hf.unpair(s)
            e = s if p is None else (self.nf(p[0]), self.nf(p[1]))
            self.nfs[s] = e
        return e

    def to_set(self, e) -> HFSet:
        if type(e) is not tuple:
            return e
        s = self.sets.get(e)
        if s is None:
            s = self.sets[e] = hf.kpair(self.to_set(e[0]), self.to_set(e[1]))
            self.nfs[s] = e
        return s

    def members(self, e) -> frozenset:
        """The members of the set with normal form e."""
        return self.set_in(self.to_set(e))

    def element(self, x: frozenset):
        """The normal form of the set x, as an element of another set."""
        return self.nf(self.set_out(x))

    def set_in(self, s: HFSet) -> frozenset:
        return frozenset(map(self.nf, s))

    def set_out(self, x: frozenset) -> HFSet:
        return HFSet(map(self.to_set, x))


def _nf_p(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    return frozenset((call.element(x), call.element(y)))


def _nf_cap(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    # x cap bigcap y; bigcap of the empty family absorbs: result x
    for e in y:
        x = x & call.members(e)
    return x


def _nf_inter(call: _Eval, x: frozenset, y: frozenset,
              z: frozenset) -> frozenset:
    return x & y & z


def _nf_cup(call: _Eval, x: frozenset) -> frozenset:
    return frozenset().union(*map(call.members, x))


def _nf_union(call: _Eval, y: frozenset, z: frozenset) -> frozenset:
    return y | z


def _nf_diff(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    return x - y


def _nf_times(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    return frozenset([(u, v) for u in x for v in y])


def _nf_imp(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    p = call.element(y)
    if type(p) is not tuple:
        return frozenset()
    # {z in x | z in p[0] -> z in p[1]}
    return x - (call.members(p[0]) - call.members(p[1]))


def _image(x: frozenset) -> dict:
    """x's pairs grouped by first coordinate: z -> the members of x"{z}."""
    image: dict = {}
    for e in x:
        if type(e) is tuple:
            image.setdefault(e[0], []).append(e[1])
    return image


def _nf_forall(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    # {x"{z} | z in y}, grouping x's pairs by first coordinate once
    image = _image(x)
    return frozenset([call.element(frozenset(image.get(z, ()))) for z in y])


def _nf_capall(call: _Eval, x: frozenset, s: frozenset,
               y: frozenset) -> frozenset:
    # x cap bigcap forall(s, y) = x cap bigcap {s"{z} | z in y}, with the
    # sections kept as members, never made into sets; an empty y leaves x
    image = _image(s)
    for z in y:
        x = x.intersection(image.get(z, ()))
    return x


def _nf_dom(call: _Eval, x: frozenset, _: frozenset) -> frozenset:
    return frozenset([e[0] for e in x if type(e) is tuple])


def _nf_ran(call: _Eval, x: frozenset, _: frozenset) -> frozenset:
    return frozenset([e[1] for e in x if type(e) is tuple])


def _nf_123(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    return frozenset([(e[0], (e[1], w))
                      for e in x if type(e) is tuple for w in y])


def _nf_132(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    return frozenset([(e[0], (w, e[1]))
                      for e in x if type(e) is tuple for w in y])


def _nf_eq(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    return frozenset([(v, v) for v in x & y])


def _nf_mem(call: _Eval, x: frozenset, y: frozenset) -> frozenset:
    return frozenset([(v, u) for v in y for u in call.members(v) & x])


def _nf_swap(call: _Eval, r: frozenset, a: frozenset,
             b: frozenset) -> frozenset:
    # the value of _swap(r, a, b), in one pass over r
    return frozenset([(e[1], e[0]) for e in r
                      if type(e) is tuple and e[0] in a and e[1] in b])


# fundamental_op on normal-form values, one entry per symbol, plus the four
# shapes that a program runs whole (see _step).  Each entry takes the call
# and the argument values.
_OPS = {
    "p": _nf_p, "cap": _nf_cap, "cup": _nf_cup, "diff": _nf_diff,
    "times": _nf_times, "imp": _nf_imp, "forall": _nf_forall,
    "dom": _nf_dom, "ran": _nf_ran, "123": _nf_123, "132": _nf_132,
    "eq": _nf_eq, "mem": _nf_mem, "inter": _nf_inter, "union": _nf_union,
    "capall": _nf_capall, "swap": _nf_swap,
}


def _step(u: App) -> tuple[str, tuple]:
    """The entry of _OPS that runs u, and the operands it reads.  Four
    shapes run whole, and the nodes inside them run only if another node
    reads them:
    - cap(x, p(y, z)) reads x, y, z as inter, x cap y cap z;
    - cup(p(y, z)) reads y, z as union, y cup z;
    - cap(x, forall(s, y)) reads x, s, y as capall;
    - ran(cap(123(r, a), p(S, S)), _) with S = 132(eq(a, a), b), the term
      of _swap, reads r, a, b as swap, {<v, u> | <u, v> in r, u in a,
      v in b}.
    Each identity holds for every operand value, so the shapes need not
    come from the compiler."""
    match u:
        case App("cap", (x, App("p", (y, z)))):
            return "inter", (x, y, z)
        case App("cup", (App("p", (y, z)),)):
            return "union", (y, z)
        case App("cap", (x, App("forall", (s, y)))):
            return "capall", (x, s, y)
        case App("ran", (App("cap", (
                App("123", (r, a)),
                App("p", (App("132", (App("eq", (a1, a2)), b)) as s1, s2)),
                )), _)) if a1 is a and a2 is a and s1 is s2:
            return "swap", (r, a, b)
    return u.op, u.args


def _operands(u: OpTerm) -> tuple:
    return u.args if isinstance(u, Arg) else _step(u)[1]


def _schedule(t: App) -> tuple[int, tuple]:
    """(m, steps): t as a program over registers, where 0..m-1 hold the
    arguments #1..#m and m + k the value of step k.  A step (f, i, j, k)
    applies f, the entry of _OPS for one node (see _step), to its
    operands' registers, None filling the places of missing ones.  One
    fold over the distinct nodes, operands first, orders the steps, so the
    last one computes t.  The program depends on t alone: it holds
    functions and ints, no set."""
    m = max_placeholder(t)
    steps: list = []

    def node(u: OpTerm, regs: list) -> int:
        if isinstance(u, Arg):
            return u.index - 1
        steps.append((_OPS[_step(u)[0]], *regs, *(None,) * (3 - len(regs))))
        return m + len(steps) - 1

    unique.fold(t, _operands, node)
    return m, tuple(steps)


def max_placeholder(t: OpTerm) -> int:
    return unique.fold(t, lambda u: u.args, lambda u, indices: (
        u.index if isinstance(u, Arg) else max(indices)))


# -- compiler --------------------------------------------------------------

# term-building shorthands


def _app(op: str, *args: OpTerm) -> App:
    return App(op, args)


def _pair(a: OpTerm, b: OpTerm) -> App:
    return _app("p", a, b)


def _inter(a: OpTerm, b: OpTerm) -> App:
    # x cap bigcap {y} = x cap y; y is written twice, so the smaller term
    # goes there, or the tree would double at every conjunction
    if b.size > a.size:
        a, b = b, a
    return _app("cap", a, _pair(b, b))


def _bunion(a: OpTerm, b: OpTerm) -> App:
    return _app("cup", _pair(a, b))


def _diff(a: OpTerm, b: OpTerm) -> App:
    return _app("diff", a, b)


def _rant(x: OpTerm) -> App:
    # ran/dom are binary with an ignored second argument; #1 fills it, as
    # repeating x would double the term's tree at every quantifier
    return _app("ran", x, Arg(1))


def _domt(x: OpTerm) -> App:
    return _app("dom", x, Arg(1))


def _swap(r: OpTerm, a: OpTerm, b: OpTerm) -> App:
    """Invert a pair relation r <= a x b.

    Append a copy of the first coordinate (op 123 over r), intersect with
    the shape {<u,<w,u>>} (op 132 over the diagonal of a), and project to
    the range: ran{<u,<v,u>> | <u,v> in r} = {<v,u>}.
    """
    shape = _app("132", _app("eq", a, a), b)
    return _rant(_inter(_app("123", r, a), shape))


class CompileError(ValueError):
    pass


class _Compiler:
    def __init__(self):
        self.anchor = Arg(1)

    def empty(self) -> OpTerm:
        return _diff(self.anchor, self.anchor)

    def literal(self, value: HFSet) -> OpTerm:
        """A term denoting a fixed hereditarily finite set."""
        elems = [self.literal(e) for e in value]
        if not elems:
            return self.empty()
        acc = _pair(elems[0], elems[0])
        for e in elems[1:]:
            acc = _bunion(acc, _pair(e, e))
        return acc

    def prod(self, slots: list[OpTerm]) -> OpTerm:
        # slots[i-1] is the range of x_i; product a_m x (... x a_1)
        acc = slots[0]
        for s in slots[1:]:
            acc = _app("times", s, acc)
        return acc

    def single_var_atom(self, f: Formula, slot: OpTerm) -> OpTerm:
        """{x in slot | atom(x)} for an atom over one variable and literals."""
        match f:
            case Eq(Var(), Var()):
                return slot
            case Mem(Var(), Var()):
                return self.empty()  # x in x fails by foundation
            case Eq(Var(), Lit(c)) | Eq(Lit(c), Var()):
                single = self.literal(hf.hfset(c))
                return _app("cap", slot, _pair(single, single))
            case Mem(Var(), Lit(c)):
                return _inter(slot, self.literal(c))
            case Mem(Lit(c), Var()):
                # {x | c in x} = dom{<x,c> | c in x}
                return _domt(_app("mem", self.literal(hf.hfset(c)), slot))
        raise AssertionError(f"not a single-variable atom: {f!r}")

    def atom(self, f: Formula, slots: list[OpTerm], ctx: dict[str, int]) -> OpTerm:
        def index(t: Term) -> int:
            # 0 for literals
            if isinstance(t, Lit):
                return 0
            return ctx[t.name]

        left, right = f.left, f.right
        i, j = index(left), index(right)
        m = len(slots)
        if i == 0 and j == 0:
            truth = (left.value == right.value) if isinstance(f, Eq) \
                else (left.value in right.value)
            return self.prod(slots) if truth else self.empty()
        top = max(i, j)
        if top < m:
            # x_m unconstrained: strip it and pad with its slot
            inner = self.atom(f, slots[:-1], ctx)
            return _app("times", slots[-1], inner)
        low = min(i, j)
        if low in (0, top):
            # x_m against itself or a literal
            rel = self.single_var_atom(f, slots[-1])
            return rel if m == 1 else _app("times", rel, self.prod(slots[:-1]))
        # x_m against x_low: build the pair relation {<x_m, x_low>}
        s_top, s_low = slots[top - 1], slots[low - 1]
        if isinstance(f, Eq):
            r2 = _app("eq", s_low, s_top)
        elif i == low:
            # member is the inner variable: container first, directly buildable
            r2 = _app("mem", s_low, s_top)
        else:
            # member is the outer variable: build the good orientation and swap
            r2 = _swap(_app("mem", s_top, s_low), s_low, s_top)
        t = r2 if low == 1 else _app("123", r2, self.prod(slots[:low - 1]))
        for k in range(low + 1, top):
            t = _app("132", t, slots[k - 1])
        return t

    def compile(self, f: Formula, slots: list[OpTerm], ctx: dict[str, int]) -> OpTerm:
        match f:
            case Falsum():
                return self.empty()
            case Eq() | Mem():
                return self.atom(f, slots, ctx)
            case And() | BigAnd() | Or() | BigOr():
                # a loop, not reduce over a map: one frame per formula level
                join = _inter if isinstance(f, (And, BigAnd)) else _bunion
                first, *rest = f._subs()
                acc = self.compile(first, slots, ctx)
                for g in rest:
                    acc = join(acc, self.compile(g, slots, ctx))
                return acc
            case Imp(l, r):
                holds = self.compile(r, slots, ctx)
                fails = _diff(self.prod(slots), self.compile(l, slots, ctx))
                return _bunion(fails, holds)
            case BoundedEx(v, b, body) | BoundedAll(v, b, body):
                if isinstance(b, Lit):
                    slot, inner = self.literal(b.value), body
                else:
                    slot = _app("cup", slots[ctx[b.name] - 1])
                    guarded = unbounded(f)
                    v, inner = guarded.var, guarded.body
                new_ctx = {**ctx, v: len(slots) + 1}
                s = self.compile(inner, slots + [slot], new_ctx)
                if isinstance(f, BoundedEx):
                    return _rant(s)
                # P_m cap bigcap of the sections of s by the bound's elements;
                # an empty bound makes the bigcap absorb, leaving P_m
                return _app("cap", self.prod(slots), _app("forall", s, slot))
        raise AssertionError(f"not a bounded set formula: {f!r}")


def compile_bounded(f: Formula, arity: int) -> OpTerm:
    """Compile a bounded formula over free variables x1..x<arity>."""
    if arity < 1:
        raise CompileError("arity must be at least 1")
    if not is_bounded(f):
        raise CompileError("formula contains an unbounded quantifier")
    if classes := class_ids(f):
        raise CompileError(
            f"formula contains a class atom over {', '.join(sorted(classes))}")
    expected = {f"x{i}" for i in range(1, arity + 1)}
    fv = free_vars(f)
    if fv != expected:
        raise CompileError(
            f"free variables {sorted(fv)} do not match x1..x{arity}")
    ctx = {f"x{i}": i for i in range(1, arity + 1)}
    slots: list[OpTerm] = [Arg(i) for i in range(1, arity + 1)]
    # note: variables shadowed by inner quantifiers are handled by ctx override
    return _Compiler().compile(f, slots, ctx)


# -- definability and constructible stages ---------------------------------


def _arg_tuples(a: HFSet, symbol: str):
    elems = list(a)
    if _ARITY[symbol] == 1:
        return ([x] for x in elems)
    return ([x, y] for x in elems for y in elems)


def expand(a: HFSet, max_size: int) -> HFSet:
    """a plus every fundamental-operation value on argument tuples from a;
    BudgetExceeded as soon as that holds more than max_size elements."""
    hf._check_naturals(max_size=max_size)
    out = set(a)
    for symbol in OP_SYMBOLS:
        for args in _arg_tuples(a, symbol):
            out.add(fundamental_op(symbol, args))
            if len(out) > max_size:
                raise BudgetExceeded(f"expansion exceeds {max_size} elements")
    return HFSet(out)


def define_step(a: HFSet, max_size: int) -> HFSet:
    """One definability step: expand(a with a itself adjoined)."""
    return expand(hf.binary_union(a, hf.hfset(a)), max_size)


def def_stage(a: HFSet, k: int, max_size: int = 4096) -> HFSet:
    """The union of the first k definability iterates of a (a truncation of
    the full omega-union).  As expand(x) contains x, the iterates only grow,
    so the union is the k-th iterate, and expand has checked its size."""
    hf._check_naturals(k=k, max_size=max_size)
    for _ in range(k):
        a = define_step(a, max_size)
    return a


def l_stage(alpha: int, k: int, max_size: int = 4096) -> HFSet:
    """Truncated constructible stage: union over beta < alpha of the
    truncated definability closure of the previous stage.  Stage n + 1 is
    stage n joined with def_stage(stage n), which contains it, so stage
    alpha is the (alpha * k)-th iterate of define_step from the empty set,
    and expand has checked its size."""
    if alpha < 0:
        raise ValueError("finite ordinals only")
    hf._check_naturals(k=k, max_size=max_size)
    stage = EMPTY
    for _ in range(alpha):
        stage = def_stage(stage, k, max_size)
    return stage


def hereditary_add(alpha: int, gamma: int) -> int:
    """Hereditary ordinal addition on finite ordinals: go(alpha), where
    go(a) is the ordinal (union of go(b) for b < a) cup {a}, plus gamma.

    On ints: a union of finite ordinals is their maximum m, and m cup {a}
    is an ordinal exactly when a <= m, and then it is max(m, a + 1).  As
    go only grows, m = go(a - 1) (0 for a = 0), so go(a) = max(go(a - 1),
    a + 1) + gamma.  For gamma = 0 that is a + 1.  For gamma >= 1,
    go(0) = 1 + gamma, and go(a - 1) = 1 + a*gamma >= a + 1 makes
    go(a) = 1 + (a + 1)*gamma.  Either way go(a - 1) >= a, so every step
    is an ordinal, and the result is max(alpha + 1, 1 + (alpha + 1)*gamma)
    in O(1)."""
    if alpha < 0 or gamma < 0:
        raise ValueError("finite ordinals only")
    return max(alpha + 1, 1 + (alpha + 1) * gamma)
