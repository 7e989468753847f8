"""Heyting-valued names over a finite formal topology and the forcing
interpretation of set-theoretic formulas.

A name is a finite function from previously built names to frame elements;
the value records how strongly the key is a member.  Names are hash-consed
like ``HFSet``: a module-level unique table maps each entries tuple to its
one live ``Name``, so equal names are the same object, and equality and
hashing are object identity.  A name stores its serialization, built once
when the name is new from its keys' stored serializations.  Interpretation
follows the usual recursion: equality unfolds to mutual inclusion weighted
by membership degrees, membership to a weighted join over the candidate's
entries, and quantifiers range over a finite universe of names built up to
a fixed depth.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import topology as tp, unique
from .formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq, Ex, Falsum,
    Formula, Imp, Lit, Mem, Or, Term, Var,
)
from .hf import BudgetExceeded, HFSet, _skip_ws
from .topology import FormalTopology, FrameElement


# entries tuple -> entry for the one live Name with those entries.
_table, _drop = unique.new_table()


class Name:
    """A name: a tuple of (key name, frame element) entries.

    ``Name(entries)`` returns the existing name with these entries when
    there is one.  Equality and hashing are inherited from ``object``:
    identity.  ``make_name`` puts entries in canonical form (one per key,
    sorted by the keys' serializations); ``Name`` keeps the order given.
    """

    __slots__ = ("entries", "_repr", "__weakref__")

    def __new__(cls, entries=()):
        entries = tuple(entries)
        ref = _table.get(entries)
        if ref is not None:
            n = ref()
            if n is not None:
                return n
        for x, _ in entries:
            if not isinstance(x, Name):
                raise TypeError(f"Name keys must be Names, got {x!r}")
        n = object.__new__(cls)
        set_slot = object.__setattr__
        set_slot(n, "entries", entries)
        set_slot(n, "_repr", "(" + ",".join(
            [f"{x._repr}->{tp.render_frame_element(p)}" for x, p in entries])
            + ")")
        return unique.insert(_table, _drop, entries, n)

    def __setattr__(self, attr, value):
        raise AttributeError(f"Name is immutable; cannot set {attr}")

    def __delattr__(self, attr):
        raise AttributeError(f"Name is immutable; cannot delete {attr}")

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the unique table.
        return Name, (self.entries,)

    def __repr__(self) -> str:
        return f"Name{self._repr}"

    def keys(self):
        return [x for x, _ in self.entries]

    def value(self, key: "Name") -> FrameElement:
        for x, p in self.entries:
            if x is key:
                return p
        return frozenset()

    def depth(self) -> int:
        if not self.entries:
            return 0
        return 1 + max(x.depth() for x, _ in self.entries)


def serialize_name(n: Name) -> str:
    return n._repr


def _key_serialization(entry: tuple[Name, FrameElement]) -> str:
    return entry[0]._repr


def make_name(entries) -> Name:
    """Builds a name with sorted, functional entries.  Identical duplicate
    entries collapse; conflicting values for one key are an error."""
    seen: dict[Name, FrameElement] = {}
    for x, p in entries:
        if not isinstance(x, Name):
            raise TypeError(f"Name keys must be Names, got {x!r}")
        p = frozenset(p)
        if seen.setdefault(x, p) != p:
            raise ValueError(f"conflicting values for entry {x._repr}")
    return Name(sorted(seen.items(), key=_key_serialization))


EMPTY_NAME = Name(())


@dataclass(frozen=True)
class ClassName:
    """A class-sized name: same shape as a name but never a quantifier
    range and never a member of anything."""
    entries: tuple[tuple[Name, FrameElement], ...]


def make_class_name(entries) -> ClassName:
    return ClassName(make_name(entries).entries)


@dataclass(frozen=True)
class NameUniverse:
    topology: FormalTopology
    depth: int
    names: tuple[Name, ...]


def name_universe(t: FormalTopology, depth: int,
                  max_count: int = 100000) -> NameUniverse:
    """All names over t of the given depth or less."""
    frames = tp.frame_elements(t)
    current: list[Name] = [EMPTY_NAME]
    for _ in range(depth):
        per_key = len(frames) + 1
        total = per_key ** len(current)
        if total > max_count:
            raise BudgetExceeded(
                f"{total} names at the next depth exceed {max_count}")
        nxt = []
        for combo in itertools.product(range(per_key), repeat=len(current)):
            entries = [(current[i], frames[c - 1])
                       for i, c in enumerate(combo) if c > 0]
            nxt.append(make_name(entries))
        current = nxt
    ordered = sorted(set(current), key=serialize_name)
    return NameUniverse(t, depth, tuple(ordered))


def check_name(x: HFSet, t: FormalTopology) -> Name:
    """The canonical name of a hereditarily finite set: every hereditary
    member appears with full weight.  Built members first from an explicit
    stack, so depth costs no recursion, and each distinct member once."""
    top = tp.top(t)
    built: dict[HFSet, Name] = {}
    stack = [x]
    while stack:
        s = stack.pop()
        if s in built:
            continue
        missing = [y for y in s if y not in built]
        if missing:
            stack += [s, *missing]
        else:
            built[s] = make_name((built[y], top) for y in s)
    return built[x]


def up(a: Name, b: Name, t: FormalTopology) -> Name:
    """The unordered pair name {a,b} with full membership weights.

    Builds ``make_name([(a, top), (b, top)])`` directly: the keys ordered
    by serialization, one entry when a is b."""
    top = tp.top(t)
    if a is b:
        return Name(((a, top),))
    if b._repr < a._repr:
        a, b = b, a
    return Name(((a, top), (b, top)))


def op(a: Name, b: Name, t: FormalTopology) -> Name:
    """The ordered pair name {{a},{a,b}}."""
    return up(up(a, a, t), up(a, b, t), t)


class Interpreter:
    """Forcing values of formulas over a fixed finite name universe.

    Equality values are memoized; the recursion is well founded because
    entries of a name are strictly shallower than the name.  Equality stops
    at the first empty conjunct and membership once its join reaches top,
    since no later operand can change the value.  Ordered-pair names are
    memoized too, so each is built once per interpreter; the memos die
    with it, and the weak unique table can free their names."""

    def __init__(self, universe: NameUniverse):
        self.u = universe
        self.t = universe.topology
        self._eq: dict[tuple[Name, Name], FrameElement] = {}
        self._mem: dict[tuple[Name, Name], FrameElement] = {}
        self._check: dict[HFSet, Name] = {}
        self._op: dict[tuple[Name, Name], Name] = {}

    def op(self, a: Name, b: Name) -> Name:
        """The ordered pair name ``op(a, b, self.t)``."""
        key = (a, b)
        pair = self._op.get(key)
        if pair is None:
            pair = self._op[key] = op(a, b, self.t)
        return pair

    def term_name(self, term: Term, env: dict) -> Name:
        if isinstance(term, Lit):
            name = self._check.get(term.value)
            if name is None:
                name = check_name(term.value, self.t)
                self._check[term.value] = name
            return name
        try:
            val = env[term.name]
        except KeyError:
            raise ValueError(f"unassigned variable {term.name}") from None
        if not isinstance(val, Name):
            raise ValueError(f"{term.name} is bound to a class name; class "
                             "names cannot appear in term position here")
        return val

    # The name a bounded quantifier ranges over; a subclass may reweigh its
    # entries.  An alias, so plain valuation pays no extra call.
    _bound_name = term_name

    def eq(self, a: Name, b: Name) -> FrameElement:
        key = (a, b)
        out = self._eq.get(key)
        if out is not None:
            return out
        out = self._included(a, b, tp.top(self.t))
        if a is not b:  # for a is b the mirrored half repeats the first
            out = self._included(b, a, out)
        self._eq[key] = out
        self._eq[(b, a)] = out
        return out

    def mem(self, a: Name, b: Name) -> FrameElement:
        key = (a, b)
        out = self._mem.get(key)
        if out is None:
            out = self._mem[key] = self._weighted_join(a, b.entries)
        return out

    def class_mem(self, a: Name, cls: ClassName) -> FrameElement:
        return self._weighted_join(a, cls.entries)

    def _included(self, a: Name, b: Name, acc: FrameElement) -> FrameElement:
        """acc met with px -> mem(x, b) for every entry (x, px) of a.

        Stops once the meet is empty.  For an empty px, px -> q is the same
        whatever q is, so that conjunct makes no mem call."""
        t = self.t
        for x, px in a.entries:
            if not acc:
                break
            q = self.mem(x, b) if px else frozenset()
            acc = acc & tp.implies(t, px, q)
        return acc

    def _weighted_join(self, a: Name, entries) -> FrameElement:
        """The join of q meet eq(a, y) over the entries (y, q).

        Entries of empty weight add nothing and make no eq call.  Stops once
        the union reaches top: every eq value lies below top, so the rest
        cannot add to it."""
        t = self.t
        top = tp.top(t)
        acc = frozenset()
        for y, q in entries:
            if q:
                acc = acc | (q & self.eq(a, y))
                if acc == top:
                    break
        return tp.nucleus(t, acc)

    def value(self, f: Formula, env: dict | None = None) -> FrameElement:
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
                binding = env.get(cls)
                if not isinstance(binding, ClassName):
                    raise ValueError(f"class symbol {cls} is not bound to a "
                                     "class name")
                return self.class_mem(self.term_name(term, env), binding)
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
                bn = self._bound_name(b, env)
                return tp.big_meet(
                    t, (tp.implies(t, p, self.value(body, {**env, v: x}))
                        for x, p in bn.entries))
            case BoundedEx(v, b, body):
                bn = self._bound_name(b, env)
                return tp.big_join(
                    t, (tp.meet(t, p, self.value(body, {**env, v: x}))
                        for x, p in bn.entries))
            case All(v, body):
                return tp.big_meet(t, (self.value(body, {**env, v: n})
                                       for n in self.u.names))
            case Ex(v, body):
                return tp.big_join(t, (self.value(body, {**env, v: n})
                                       for n in self.u.names))
        raise TypeError(f"not a formula: {f!r}")


def interpret(f: Formula, env: dict | None, u: NameUniverse) -> FrameElement:
    return Interpreter(u).value(f, env)


def interpret_relativized(f: Formula, env: dict | None, sub: NameUniverse,
                          full: NameUniverse):
    """Forcing values with quantifiers ranging over a subuniverse versus the
    full universe; the subuniverse must be included in the full one."""
    if not set(sub.names) <= set(full.names):
        raise ValueError("subuniverse is not included in the full universe")
    if sub.topology != full.topology:
        raise ValueError("universes live over different topologies")
    return interpret(f, env, sub), interpret(f, env, full)


def class_equal(a: ClassName, b: ClassName, u: NameUniverse) -> FrameElement:
    """Extensional equality of two class names, by the same two-inclusion
    recipe as name equality."""
    it = Interpreter(u)
    return it._included(b, a, it._included(a, b, tp.top(u.topology)))


# -- constructions with verified properties --------------------------------


def collection_value(it: Interpreter, a: Name, r: Name,
                     b: Name | None = None) -> FrameElement:
    """Forcing value of "r is a multi-valued function from a onto b", with
    pairs spelled as ordered-pair names inside r.  With b omitted the
    target is the whole universe and only totality is measured."""
    t = it.t
    parts = []
    if b is None:
        for x, px in a.entries:
            hit = tp.big_join(t, (it.mem(it.op(x, y), r) for y in it.u.names))
            parts.append(tp.implies(t, px, hit))
        return tp.big_meet(t, parts)
    for x, px in a.entries:
        hit = tp.big_join(t, (tp.meet(t, qy, it.mem(it.op(x, y), r))
                              for y, qy in b.entries))
        parts.append(tp.implies(t, px, hit))
    for y, qy in b.entries:
        hit = tp.big_join(t, (tp.meet(t, px, it.mem(it.op(x, y), r))
                              for x, px in a.entries))
        parts.append(tp.implies(t, qy, hit))
    return tp.big_meet(t, parts)


def strong_collection_witness(a: Name, r: Name, p: FrameElement,
                              u: NameUniverse,
                              it: Interpreter | None = None) -> Name:
    """Builds the image name for strong collection.

    Requires p to force that r is total on a over the universe; collects
    the triples (entry of a, candidate name, token) whose token lies under
    the combined weight, and returns the name assembling the candidates
    with saturated token sets as weights.  Forcing totality both ways from
    p onto the result is a theorem checked in the test suite; an empty p
    yields the empty name.  An interpreter passed in must range over u.
    """
    if it is None:
        it = Interpreter(u)
    elif it.u is not u:
        raise ValueError("the interpreter ranges over another universe")
    t = u.topology
    pre = collection_value(it, a, r)
    if not p <= pre:
        raise ValueError("p does not force totality of the relation on a")
    if not p:
        return EMPTY_NAME
    collected: dict[Name, set] = {}
    for x, px in a.entries:
        for y in u.names:
            weight = tp.big_meet(t, [p, px, it.mem(it.op(x, y), r)])
            for z in weight:
                collected.setdefault(y, set()).add(z)
    return make_name((y, tp.nucleus(t, frozenset(zs)))
                     for y, zs in collected.items() if zs)


def powerset_name(a: Name, u: NameUniverse,
                  max_count: int = 100000) -> Name:
    """The name whose entries are all frame-valued functions on the entries
    of a, each with full weight; it forces every subset of a to equal one
    of its members."""
    t = u.topology
    frames = tp.frame_elements(t)
    keys = a.keys()
    total = len(frames) ** len(keys)
    if total > max_count:
        raise BudgetExceeded(f"{total} candidate subsets exceed {max_count}")
    entries = []
    for combo in itertools.product(frames, repeat=len(keys)):
        sub = make_name((keys[i], combo[i]) for i in range(len(keys))
                        if combo[i])
        entries.append((sub, tp.top(t)))
    return make_name(entries)


def subset_value(it: Interpreter, c: Name, a: Name) -> FrameElement:
    """Forcing value of "c is a subset of a"."""
    return it._included(c, a, tp.top(it.t))


# -- text interchange ------------------------------------------------------


def parse_name(text: str) -> Name:
    """Parses a serialized name.  The parser keeps the open names on an
    explicit stack, so nesting depth is not limited by recursion."""
    end = len(text)
    pos = _skip_ws(text, 0)
    # entries read so far of each name opened and not yet closed
    open_names: list[list[tuple[Name, FrameElement]]] = []
    while True:
        if pos >= end or text[pos] != "(":
            raise ValueError(f"expected '(' at position {pos}")
        pos = _skip_ws(text, pos + 1)
        if pos >= end or text[pos] != ")":
            open_names.append([])  # its first key starts here
            continue
        name = EMPTY_NAME
        pos += 1
        # ``name`` has just closed: it is the whole input, or the key of an
        # entry of the innermost open name.
        while open_names:
            pos = _skip_ws(text, pos)
            if text[pos:pos + 2] != "->":
                raise ValueError(f"expected '->' at position {pos}")
            pos = _skip_ws(text, pos + 2)
            if pos >= end or text[pos] != "{":
                raise ValueError(f"expected frame element at position {pos}")
            close = text.index("}", pos)
            open_names[-1].append(
                (name, tp.parse_frame_element(text[pos:close + 1])))
            pos = _skip_ws(text, close + 1)
            if pos < end and text[pos] == ",":
                pos = _skip_ws(text, pos + 1)
                break  # the next key starts here
            if pos < end and text[pos] == ")":
                name = make_name(open_names.pop())
                pos += 1
                continue
            raise ValueError(f"expected ',' or ')' at position {pos}")
        else:
            if text[pos:].strip():
                raise ValueError(f"trailing input after name: {text[pos:]!r}")
            return name

