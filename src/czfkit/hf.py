"""Canonical hereditarily finite sets.

An HFSet is an immutable, deduplicated, canonically ordered finite set of
HFSets.  Sets are hash-consed: a module-level unique table maps each member
set to its one live HFSet, so extensionally equal sets are the same object,
and equality and hashing are object identity; setting an attribute raises
(``unique.Interned``).  The table holds its values weakly; an entry goes
when the last reference to its set does, and building the set again makes a
fresh object.  The serialization defined here
(``{a,b,...}`` with elements sorted bytewise by their own serializations) is
the interchange format used by the CLI and the test fixtures.
"""

from __future__ import annotations

import operator
from typing import Iterable, Iterator

from . import unique


class BudgetExceeded(Exception):
    """A configured size budget was exceeded."""


def _check_naturals(**values: int) -> None:
    """A ValueError naming the first of the values that is negative."""
    for name, n in values.items():
        if n < 0:
            raise ValueError(f"{name} must be a natural number")


# frozenset of members -> entry for the one live HFSet with those members.
_table, _drop = unique.new_table()

_serialization = operator.attrgetter("_repr")
_set = object.__setattr__


class HFSet(unique.Interned):
    """A hereditarily finite set in canonical form.

    ``HFSet(elems)`` returns the existing set with these members when there
    is one.  Equality and hashing are inherited from ``object``: identity.
    """

    __slots__ = ("_members", "_elems", "_repr")
    __match_args__ = ("_elems",)

    def __new__(cls, elems: Iterable["HFSet"] = ()):
        members = frozenset(elems)
        ref = _table.get(members)
        if ref is not None:
            s = ref()
            if s is not None:
                return s
        for e in members:
            if not isinstance(e, HFSet):
                raise TypeError(f"HFSet elements must be HFSets, got {e!r}")
        s = object.__new__(cls)
        _set(s, "_members", members)
        _set(s, "_repr", None)
        return unique.insert(_table, _drop, members, s)

    def __init__(self, elems: Iterable["HFSet"] = ()):
        # Runs on every construction, after __new__ has consumed ``elems``;
        # only the first call for a new set builds its canonical form, here
        # rather than in __new__ so that a span around __init__ (as in
        # perfbench's traced run) holds that cost.  Two threads may both
        # build it; they store equal values.
        if self._repr is None:
            ordered = sorted(self._members, key=_serialization)
            _set(self, "_elems", tuple(ordered))
            _set(self, "_repr",
                 "{" + ",".join(map(_serialization, ordered)) + "}")

    # -- canonical form ----------------------------------------------------

    def serialize(self) -> str:
        return self._repr

    def __repr__(self) -> str:
        return self._repr

    # -- set protocol ------------------------------------------------------

    def __iter__(self) -> Iterator["HFSet"]:
        return iter(self._elems)

    def __len__(self) -> int:
        return len(self._elems)

    def __contains__(self, x) -> bool:
        return isinstance(x, HFSet) and x in self._members

    def __bool__(self) -> bool:
        return bool(self._elems)

    def elements(self) -> tuple["HFSet", ...]:
        return self._elems

    def is_subset(self, other: "HFSet") -> bool:
        return self._members <= other._members

    # -- derived data ------------------------------------------------------

    def rank(self) -> int:
        return unique.fold(self, HFSet.elements,
                           lambda s, ranks: max(ranks, default=-1) + 1)

    def is_transitive(self) -> bool:
        return all(e.is_subset(self) for e in self)

    def transitive_closure(self) -> "HFSet":
        below: list[HFSet] = []
        unique.fold(self, HFSet.elements, lambda s, _: below.append(s))
        return HFSet(below[:-1])  # self is combined last


EMPTY = HFSet()


def hfset(*elems: HFSet) -> HFSet:
    return HFSet(elems)


# The largest rank of a literal parse_hf accepts: about what the recursive
# parser it replaced reached under Python's default recursion limit.  The
# scanner's bracket reader holds names to it too.
MAX_PARSE_DEPTH = 1000


def parse_hf(text: str) -> HFSet:
    """Parse the canonical brace notation, e.g. ``{{},{{}}}``.  Malformed
    input, and input of rank above MAX_PARSE_DEPTH, raise ValueError."""
    sc = _Scanner(text)
    return sc.whole(sc.hf_literal)


class _ScanError(ValueError):
    """Malformed text.  With a position the message says where, followed
    by ``shown``."""

    def __init__(self, message: str, pos: int | None = None, shown: str = ""):
        super().__init__(message if pos is None
                         else f"{message} at position {pos}{shown}")
        self.pos = pos


class _Scanner:
    """Reads the text formats of the package (HF literals here, formulas in
    ``formula``, names in ``names``) left to right from ``pos``, skipping
    blanks before each token.  Malformed text raises ``Error``; a subclass
    may name its own."""

    Error = _ScanError

    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> _ScanError:
        return self.Error(message, self.pos)

    def skip_ws(self):
        text, pos, end = self.text, self.pos, len(self.text)
        while pos < end and text[pos].isspace():
            pos += 1
        self.pos = pos

    def peek(self, s: str) -> bool:
        self.skip_ws()
        return self.text.startswith(s, self.pos)

    def eat(self, s: str) -> bool:
        if self.peek(s):
            self.pos += len(s)
            return True
        return False

    def expect(self, s: str):
        if not self.eat(s):
            raise self.error(f"expected {s!r}")

    def whole(self, read):
        """``read()``, which must take up the whole text but blanks."""
        value = read()
        self.skip_ws()
        if self.pos != len(self.text):
            raise self.Error("trailing input", self.pos,
                             f": {self.text[self.pos:]!r}")
        return value

    def nested(self, opener: str, closer: str, what: str, build, item=None):
        """The structure at pos: ``opener``, comma-separated items and
        ``closer``, where each item is again such a structure, its value
        passed through ``item(self, value)`` when given.  ``build`` makes a
        structure's value from the list of its items.  The open structures
        are kept on an explicit stack, so nesting depth is not limited by
        recursion; deeper than MAX_PARSE_DEPTH is an error."""
        # items read so far of each structure opened and not yet closed
        open_items: list[list] = []
        while True:
            self.expect(opener)
            if not self.eat(closer):
                if len(open_items) == MAX_PARSE_DEPTH:
                    raise self.Error("nested too deeply")
                open_items.append([])  # its first item starts here
                continue
            value = build(())
            # ``value`` has just closed: it is the whole structure, or an
            # item of the innermost open one.
            while open_items:
                open_items[-1].append(value if item is None
                                      else item(self, value))
                if self.eat(","):
                    break  # the next item starts here
                if self.eat(closer):
                    value = build(open_items.pop())
                    continue
                if self.pos == len(self.text):
                    raise self.Error(f"unterminated {what}")
                raise self.error(f"expected ',' or {closer!r}")
            else:
                return value

    def hf_literal(self) -> HFSet:
        return self.nested("{", "}", "set literal", HFSet)


# -- common constructions --------------------------------------------------


def union(s: HFSet) -> HFSet:
    return HFSet(frozenset().union(*(e._members for e in s._elems)))


def binary_union(a: HFSet, b: HFSet) -> HFSet:
    return HFSet(a._members | b._members)


def intersection(a: HFSet, b: HFSet) -> HFSet:
    return HFSet(a._members & b._members)


def difference(a: HFSet, b: HFSet) -> HFSet:
    return HFSet(a._members - b._members)


def kpair(a: HFSet, b: HFSet) -> HFSet:
    """Kuratowski ordered pair {{a},{a,b}}."""
    return HFSet((HFSet((a,)), HFSet((a, b))))


def unpair(p: HFSet) -> tuple[HFSet, HFSet] | None:
    """Invert kpair; None if p is not an ordered pair."""
    if len(p._elems) == 1:
        (inner,) = p._elems
        if len(inner._elems) == 1:
            (a,) = inner._elems
            return a, a
        return None
    if len(p._elems) == 2:
        # canonical order puts {a,b} before {a}: "{a,b}" and "{a}" first
        # differ at "," against "}", "{b,a}" and "{a}" at b against a
        double, single = p._elems
        if len(double._elems) != 2 or len(single._elems) != 1:
            return None
        (a,) = single._elems
        if a not in double._members:
            return None
        x, y = double._elems
        return a, (y if x is a else x)
    return None


def tuple_right(elems: list[HFSet]) -> HFSet:
    """Right-nested tuple <u,v,w> = <u,<v,w>>; a 1-tuple is the element."""
    if not elems:
        raise ValueError("empty tuple has no encoding")
    acc = elems[-1]
    for e in reversed(elems[:-1]):
        acc = kpair(e, acc)
    return acc


def product(a: HFSet, b: HFSet) -> HFSet:
    return HFSet(kpair(x, y) for x in a for y in b)


def powerset(s: HFSet) -> HFSet:
    return HFSet(subsets(s))


def subsets(s: HFSet) -> Iterator[HFSet]:
    elems = list(s)
    for mask in range(1 << len(elems)):
        yield HFSet(e for i, e in enumerate(elems) if mask >> i & 1)


def von_neumann(n: int) -> HFSet:
    s = HFSet()
    for _ in range(n):
        s = HFSet(list(s) + [s])
    return s


def to_ordinal(s: HFSet) -> int | None:
    """The n with s = von_neumann(n), or None."""
    n = len(s)  # von_neumann(n) has exactly n members
    return n if von_neumann(n) is s else None


def v_stage(n: int) -> HFSet:
    """Finite cumulative stage: V_0 = empty, V_{n+1} = powerset(V_n)."""
    s = HFSet()
    for _ in range(n):
        s = powerset(s)
    return s
