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
a fixed depth.  Connectives and quantifiers stop once their value is
settled: a meet once it is empty, a join once it reaches top.  So that a
skipped operand hides no error, ``Interpreter.value`` checks every binding
the formula needs before it evaluates anything.

Masks inside, frozensets at the API: names keep their weights as
frozensets, and every public function takes and returns frame elements as
frozensets, while ``Interpreter`` and the constructions built on it compute
on the topology's int masks of the carrier.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from . import topology as tp, unique
from .formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq, Ex, Falsum,
    QUANTIFIERS, Formula, Imp, Lit, Mem, Or, Steps, Term,
    distinct_subformulas,
)
from .hf import BudgetExceeded, HFSet, _skip_ws
from .topology import FormalTopology, FrameElement


# entries tuple -> entry for the one live Name with those entries.
_table, _drop = unique.new_table()


class Name(unique.Interned):
    """A name: a tuple of (key name, frame element) entries.

    ``Name(entries)`` returns the existing name with these entries when
    there is one.  Equality and hashing are inherited from ``object``:
    identity.  ``make_name`` puts entries in canonical form (one per key,
    sorted by the keys' serializations); ``Name`` keeps the order given.
    """

    __slots__ = ("entries", "_repr")
    __match_args__ = ("entries",)

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
        return unique.fold(self, Name.keys,
                           lambda n, depths: max(depths, default=-1) + 1)


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
    """All names over t of the given depth or less, each built once."""
    weights = [None, *tp.frame_elements(t)]  # None: no entry for the key
    current: list[Name] = [EMPTY_NAME]
    for _ in range(depth):
        total = len(weights) ** len(current)
        if total > max_count:
            raise BudgetExceeded(
                f"{total} names at the next depth exceed {max_count}")
        current = [make_name(e for e in zip(current, ws) if e[1] is not None)
                   for ws in itertools.product(weights, repeat=len(current))]
    return NameUniverse(t, depth, tuple(sorted(current, key=serialize_name)))


def check_name(x: HFSet, t: FormalTopology) -> Name:
    """The canonical name of a hereditarily finite set: every hereditary
    member appears with full weight.  Built by ``unique.fold``, members
    first, so depth costs no recursion, and each distinct member once."""
    top = tp.top(t)
    return unique.fold(x, HFSet.elements,
                       lambda s, keys: make_name([(y, top) for y in keys]))


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


class _MaskedEntries(dict):
    """Name or class name -> its entries with the weights as masks over t,
    each converted the first time it is asked for."""

    def __init__(self, t: FormalTopology):
        self.mask = t._mask

    def __missing__(self, n) -> tuple[tuple[Name, int], ...]:
        mask = self.mask
        out = self[n] = tuple([(x, mask[p]) for x, p in n.entries])
        return out


class Interpreter:
    """Forcing values of formulas over a fixed finite name universe.

    Frozensets at the API, masks inside: the public methods take and return
    frame elements as frozensets, and compute on the int masks of the
    topology's mask tables (see ``topology``).  Each name's entries are
    converted to masks once per interpreter; a weight reads as its tokens
    on the carrier, as every weight is met with a set on the carrier.

    ``value`` first checks that every free variable of the formula is
    bound to a name and every class symbol to a class name, and raises a
    ValueError if not.  It then dispatches on the formula's
    class through ``_STEPS``, one step function per node kind; a step calls
    its children's steps directly, so each formula level takes one frame.
    A quantifier copies the environment once and rebinds its variable in
    place.  A step stops once its value is settled: a conjunction, big
    conjunction or universal at the empty mask, a disjunction, big
    disjunction or existential once its join reaches top, an implication
    with an empty antecedent without its consequent, and a bounded
    quantifier skips the entries of empty weight.

    Equality and membership values, in a name or a class name, are memoized;
    the recursion is well founded because entries of a name are strictly
    shallower than the name.  Equality stops at the first empty conjunct
    and membership once its join reaches top, since no later operand can
    change the value.  Membership of an ordered pair in a relation,
    ``_pair_mem``, compares the pair's components with those of the
    relation's pair keys and builds no pair name; it reads each relation's
    keys once and memoizes its values.  Ordered-pair names that are built,
    by ``op`` or for a relation key that is no pair, are memoized too, so
    each is built once per interpreter.  The memos die with the
    interpreter, and the weak unique table can free their names."""

    def __init__(self, universe: NameUniverse):
        self.u = universe
        self.t = universe.topology
        self._eqs: dict[tuple[Name, Name], int] = {}
        self._mems: dict[tuple[Name, Name], int] = {}
        self._masked = _MaskedEntries(self.t)
        self._check: dict[HFSet, Name] = {}
        self._op: dict[tuple[Name, Name], Name] = {}
        self._pair_keys: dict[Name, tuple] = {}
        self._pair_mems: dict[tuple[Name, Name, Name], int] = {}

    def op(self, a: Name, b: Name) -> Name:
        """The ordered pair name ``op(a, b, self.t)``."""
        key = (a, b)
        pair = self._op.get(key)
        if pair is None:
            pair = self._op[key] = op(a, b, self.t)
        return pair

    def term_name(self, term: Term, env: dict) -> Name:
        """The name a term denotes; a variable's is its binding in env,
        which ``value`` has checked to be a name."""
        if isinstance(term, Lit):
            name = self._check.get(term.value)
            if name is None:
                name = check_name(term.value, self.t)
                self._check[term.value] = name
            return name
        return env[term.name]

    def eq(self, a: Name, b: Name) -> FrameElement:
        return self.t._as_set[self._eq(a, b)]

    def mem(self, a: Name, b: Name) -> FrameElement:
        return self.t._as_set[self._mem(a, b)]

    def class_mem(self, a: Name, cls: ClassName) -> FrameElement:
        return self.t._as_set[self._mem(a, cls)]

    def value(self, f: Formula, env: dict | None = None) -> FrameElement:
        env = env or {}
        step = _STEPS[type(f)]
        _check_bindings(f, env)
        return self.t._as_set[step(self, f, env)]

    # -- on masks ------------------------------------------------------------

    def _eq(self, a: Name, b: Name) -> int:
        key = (a, b)
        out = self._eqs.get(key)
        if out is not None:
            return out
        out = self._included(a, b, self.t._top_mask)
        if a is not b:  # for a is b the mirrored half repeats the first
            out = self._included(b, a, out)
        self._eqs[key] = self._eqs[(b, a)] = out
        return out

    def _mem(self, a: Name, b: Name | ClassName) -> int:
        key = (a, b)
        out = self._mems.get(key)
        if out is None:
            out = self._mems[key] = self._weighted_join(a, self._masked[b])
        return out

    def _included(self, a: Name | ClassName, b: Name | ClassName,
                  acc: int) -> int:
        """acc met with px -> mem(x, b) for every entry (x, px) of a.

        Stops once the meet is empty.  For an empty px, px -> q is the same
        whatever q is, so that conjunct makes no mem call."""
        t = self.t
        implications = t._mask_implications
        for x, px in self._masked[a]:
            if not acc:
                break
            q = self._mem(x, b) if px else 0
            r = implications.get((px, q))  # a hit, the common case, inline
            acc &= tp._implies_mask(t, px, q) if r is None else r
        return acc

    def _weighted_join(self, a: Name, entries) -> int:
        """The join of q meet eq(a, y) over the masked entries (y, q).

        Entries of empty weight add nothing and make no eq call.  Stops once
        the union reaches top: every eq value lies below top, so the rest
        cannot add to it."""
        t = self.t
        top = t._top_mask
        acc = 0
        for y, q in entries:
            if q:
                acc |= q & self._eq(a, y)
                if acc == top:
                    break
        return t._mask_nuclei[acc]

    def _pair_mem(self, a: Name, b: Name, r: Name) -> int:
        """The mask of mem(op(a, b), r), without building op(a, b) when
        r's keys are ordered pairs; memoized like ``_mem``.

        One pass over r's entries of non-empty weight, as in
        ``_weighted_join``: stops at top and applies the nucleus once.  A
        key that spells op(c, d) adds its weight met with eq(a, c) and
        eq(b, d), and eq(b, d) is skipped once that meet is empty.  Any
        other key s adds its weight met with eq(self.op(a, b), s), as
        ``_mem`` would.

        Why this is exact: in every Heyting-valued model
        [[op(a, b) = op(c, d)]] = [[a = c]] and [[b = d]].  The proof uses
        only that [[x in up(u, v)]] = [[x = u]] or [[x = v]], which holds
        when the weights are top, as ``_pair_parts`` requires.
        - Right to left: substitutivity of equality.
        - Left to right: e = [[op(a, b) = op(c, d)]] lies below
          [[{a} in op(c, d)]] = [[{a} = {c}]] or [[{a} = {c, d}]], and
          both disjuncts lie below [[a = c]].  e also lies below
          [[{a, b} = {c}]] or [[{a, b} = {c, d}]], and below
          [[{c, d} = {a}]] or [[{c, d} = {a, b}]]; meeting these and
          splitting each {u, v} = {w, z} into its members' equalities
          leaves, in every case, a meet below [[b = d]].  The frame is
          distributive, so this case analysis is intuitionistic."""
        key = (a, b, r)
        out = self._pair_mems.get(key)
        if out is not None:
            return out
        t = self.t
        top = t._top_mask
        eq = self._eq
        acc = 0
        for c, d, q in self._pair_keys_of(r):
            if c is None:  # d is a key that spells no pair
                acc |= q & eq(self.op(a, b), d)
            else:
                e = q & eq(a, c)
                if e:
                    acc |= e & eq(b, d)
            if acc == top:
                break
        out = self._pair_mems[key] = t._mask_nuclei[acc]
        return out

    def _pair_keys_of(self, r: Name) -> tuple:
        """r's entries of non-empty weight q as triples (c, d, q) for a key
        that spells op(c, d), and (None, key, q) for any other key.

        A key spells op(c, d) when its masked entries are {c} and {c, d},
        or {c} alone for c = d, and every weight, inner ones included, is
        the top mask.  Each relation is read once per interpreter."""
        out = self._pair_keys.get(r)
        if out is None:
            out = self._pair_keys[r] = tuple([
                (*self._pair_parts(s), q)
                for s, q in self._masked[r] if q])
        return out

    def _pair_parts(self, s: Name) -> tuple:
        """(c, d) when s spells op(c, d), else (None, s)."""
        top = self.t._top_mask
        masked = self._masked
        outer = masked[s]
        if len(outer) <= 2 and all(w == top for _, w in outer):
            inner = sorted([masked[x] for x, _ in outer], key=len)
            shape = [len(entries) for entries in inner]
            if shape in ([1], [1, 2]) and all(
                    w == top for entries in inner for _, w in entries):
                c = inner[0][0][0]
                if shape == [1]:
                    return c, c
                (x, _), (y, _) = inner[1]
                if x is c or y is c:
                    return c, y if x is c else x
        return None, s

    def _bound_entries(self, term: Term, env: dict):
        """The masked entries a bounded quantifier ranges over; a subclass
        may reweigh them."""
        return self._masked[self.term_name(term, env)]


# -- value, one step function per formula node ------------------------------
#
# Each step takes the interpreter, the node and the environment and returns
# a mask.  It calls its children's steps itself, through _STEPS, and stops
# once its value is settled.  A join stops at top because every value lies
# below top, as in Interpreter._weighted_join.


def _check_bindings(f: Formula, env: dict) -> None:
    """A ValueError when a free variable of f is unassigned or not bound to
    a name, or a class symbol of f is not bound to a class name.  Checked
    before evaluation, so an operand the steps skip hides no such error.
    A class symbol that a quantifier of f binds as a variable counts as
    unbound, as the quantifier may rebind it to a name."""
    for v in sorted(f._fv):
        if v not in env:
            raise ValueError(f"unassigned variable {v}")
        if not isinstance(env[v], Name):
            raise ValueError(f"{v} is bound to a class name; class names "
                             "cannot appear in term position here")
    classes, binders = set(), set()
    for g in distinct_subformulas(f):
        if isinstance(g, ClassMem):
            classes.add(g.cls)
        elif isinstance(g, QUANTIFIERS):
            binders.add(g.var)
    for cls in sorted(classes):
        _class_name({} if cls in binders else env, cls)


def _class_name(env: dict, cls: str) -> ClassName:
    binding = env.get(cls)
    if not isinstance(binding, ClassName):
        raise ValueError(f"class symbol {cls} is not bound to a class name")
    return binding


def _falsum(it, f, env):
    return it.t._mask_nuclei[0]


def _eq_atom(it, f, env):
    return it._eq(it.term_name(f.left, env), it.term_name(f.right, env))


def _mem_atom(it, f, env):
    return it._mem(it.term_name(f.left, env), it.term_name(f.right, env))


def _class_mem_atom(it, f, env):
    return it._mem(it.term_name(f.element, env), _class_name(env, f.cls))


def _and(it, f, env):
    left, right = f.left, f.right
    p = _STEPS[type(left)](it, left, env)
    return p and p & _STEPS[type(right)](it, right, env)


def _or(it, f, env):
    left, right = f.left, f.right
    t = it.t
    p = _STEPS[type(left)](it, left, env)
    if p == t._top_mask:
        return p
    return t._mask_nuclei[p | _STEPS[type(right)](it, right, env)]


def _imp(it, f, env):
    left, right = f.left, f.right
    p = _STEPS[type(left)](it, left, env)
    # for an empty p, p -> q is the same whatever q is
    q = _STEPS[type(right)](it, right, env) if p else 0
    return tp._implies_mask(it.t, p, q)


def _big_and(it, f, env):
    acc = it.t._top_mask
    for part in f.parts:
        acc &= _STEPS[type(part)](it, part, env)
        if not acc:
            break
    return acc


def _big_or(it, f, env):
    t = it.t
    top = t._top_mask
    acc = 0
    for part in f.parts:
        acc |= _STEPS[type(part)](it, part, env)
        if acc == top:
            break
    return t._mask_nuclei[acc]


def _bounded_all(it, f, env):
    entries = it._bound_entries(f.bound, env)
    t, v, body = it.t, f.var, f.body
    step = _STEPS[type(body)]
    env = dict(env)
    acc = t._top_mask
    for x, p in entries:
        if p:  # an empty p makes p -> q top
            env[v] = x
            acc &= tp._implies_mask(t, p, step(it, body, env))
            if not acc:
                break
    return acc


def _bounded_ex(it, f, env):
    entries = it._bound_entries(f.bound, env)
    t, v, body = it.t, f.var, f.body
    step = _STEPS[type(body)]
    env = dict(env)
    top = t._top_mask
    acc = 0
    for x, p in entries:
        if p:  # an empty p makes p meet q empty
            env[v] = x
            acc |= p & step(it, body, env)
            if acc == top:
                break
    return t._mask_nuclei[acc]


def _all(it, f, env):
    v, body = f.var, f.body
    step = _STEPS[type(body)]
    env = dict(env)
    acc = it.t._top_mask
    for n in it.u.names:
        env[v] = n
        acc &= step(it, body, env)
        if not acc:
            break
    return acc


def _ex(it, f, env):
    v, body = f.var, f.body
    t = it.t
    step = _STEPS[type(body)]
    env = dict(env)
    top = t._top_mask
    acc = 0
    for n in it.u.names:
        env[v] = n
        acc |= step(it, body, env)
        if acc == top:
            break
    return t._mask_nuclei[acc]


_STEPS = Steps({
    Falsum: _falsum, Eq: _eq_atom, Mem: _mem_atom, ClassMem: _class_mem_atom,
    And: _and, Or: _or, Imp: _imp, BigAnd: _big_and, BigOr: _big_or,
    BoundedAll: _bounded_all, BoundedEx: _bounded_ex, All: _all, Ex: _ex,
})


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
    t = u.topology
    return t._as_set[it._included(b, a, it._included(a, b, t._top_mask))]


# -- constructions with verified properties --------------------------------


def collection_value(it: Interpreter, a: Name, r: Name,
                     b: Name | None = None) -> FrameElement:
    """Forcing value of "r is a multi-valued function from a onto b", with
    pairs spelled as ordered-pair names inside r.  With b omitted the
    target is the whole universe and only totality is measured.  Each
    [[op(x, y) in r]] compares x and y with the components of r's pair
    keys, and builds no pair name unless r has a key that is no pair."""
    t = it.t
    nuclei, implies = t._mask_nuclei, tp._implies_mask
    pair_mem = it._pair_mem
    acc = t._top_mask
    if b is None:
        for x, px in it._masked[a]:
            hit = 0
            for y in it.u.names:
                hit |= pair_mem(x, y, r)
            acc &= implies(t, px, nuclei[hit])
        return t._as_set[acc]
    for x, px in it._masked[a]:
        hit = 0
        for y, qy in it._masked[b]:
            hit |= qy & pair_mem(x, y, r)
        acc &= implies(t, px, nuclei[hit])
    for y, qy in it._masked[b]:
        hit = 0
        for x, px in it._masked[a]:
            hit |= px & pair_mem(x, y, r)
        acc &= implies(t, qy, nuclei[hit])
    return t._as_set[acc]


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
    pair_mem = it._pair_mem
    pm = t._mask[p]
    collected: dict[Name, int] = {}
    for x, px in it._masked[a]:
        for y in u.names:
            weight = pm & px & pair_mem(x, y, r)
            if weight:
                collected[y] = collected.get(y, 0) | weight
    return make_name((y, t._as_set[t._mask_nuclei[w]])
                     for y, w in collected.items())


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
    return it.t._as_set[it._included(c, a, it.t._top_mask)]


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

