"""Canonical hereditarily finite sets.

An HFSet is an immutable, deduplicated, canonically ordered finite set of
HFSets.  Sets are hash-consed: a module-level unique table maps each member
set to its one live HFSet, so extensionally equal sets are the same object,
and equality and hashing are object identity.  The table holds its values
weakly; an entry goes when the last reference to its set does, and building
the set again makes a fresh object.  The serialization defined here
(``{a,b,...}`` with elements sorted bytewise by their own serializations) is
the interchange format used by the CLI and the test fixtures.
"""

from __future__ import annotations

import functools
import operator
import weakref
from _weakref import _remove_dead_weakref
from typing import Iterable, Iterator


class BudgetExceeded(Exception):
    """A configured size budget was exceeded."""


class _Entry(weakref.ref):
    """A weak reference to a set in the unique table, keyed by its members."""

    __slots__ = ("key",)


# frozenset of members -> entry for the one live HFSet with those members.
_table: dict[frozenset, _Entry] = {}


def _drop(entry: _Entry, table=_table, remove=_remove_dead_weakref) -> None:
    # Called when the set dies.  The entry's key may since have been given
    # a newer set; only a dead entry is removed.  The defaults bind early
    # because sets still die while the interpreter clears module globals.
    remove(table, entry.key)


_serialization = operator.attrgetter("_repr")


@functools.total_ordering
class HFSet:
    """A hereditarily finite set in canonical form.

    ``HFSet(elems)`` returns the existing set with these members when there
    is one.  Equality and hashing are inherited from ``object``: identity.
    """

    __slots__ = ("_members", "_elems", "_repr", "__weakref__")

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
        s._members = members
        s._repr = None
        entry = _Entry(s, _drop)
        entry.key = members
        # setdefault is atomic: of threads that miss on the same members at
        # once, the first to insert wins and the others return its set.
        while (old := _table.setdefault(members, entry)) is not entry:
            if (live := old()) is not None:
                return live
            _remove_dead_weakref(_table, members)  # died, not yet dropped
        return s

    def __init__(self, elems: Iterable["HFSet"] = ()):
        # Runs on every construction, after __new__ has consumed ``elems``;
        # only the first call for a new set builds its canonical form, here
        # rather than in __new__ so that a span around __init__ (as in
        # perfbench's traced run) holds that cost.  Two threads may both
        # build it; they store equal values.
        if self._repr is None:
            ordered = sorted(self._members, key=_serialization)
            self._elems = tuple(ordered)
            self._repr = "{" + ",".join(map(_serialization, ordered)) + "}"

    def __reduce__(self):
        # copy, deepcopy and pickle rebuild through the unique table.
        return HFSet, (self._elems,)

    # -- canonical form ----------------------------------------------------

    def serialize(self) -> str:
        return self._repr

    def __repr__(self) -> str:
        return self._repr

    def __lt__(self, other) -> bool:
        if not isinstance(other, HFSet):
            return NotImplemented
        return self._repr < other._repr

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
        return max((e.rank() + 1 for e in self._elems), default=0)

    def is_transitive(self) -> bool:
        return all(e.is_subset(self) for e in self)

    def transitive_closure(self) -> "HFSet":
        acc: list[HFSet] = []
        for e in self:
            acc.append(e)
            acc.extend(e.transitive_closure())
        return HFSet(acc)


EMPTY = HFSet()


def hfset(*elems: HFSet) -> HFSet:
    return HFSet(elems)


def parse_hf(text: str) -> HFSet:
    """Parse the canonical brace notation, e.g. ``{{},{{}}}``."""
    s, pos = _parse_hf_at(text, _skip_ws(text, 0))
    pos = _skip_ws(text, pos)
    if pos != len(text):
        raise ValueError(f"trailing input at position {pos}: {text[pos:]!r}")
    return s


def _skip_ws(text: str, pos: int) -> int:
    while pos < len(text) and text[pos].isspace():
        pos += 1
    return pos


def _parse_hf_at(text: str, pos: int) -> tuple[HFSet, int]:
    if pos >= len(text) or text[pos] != "{":
        raise ValueError(f"expected '{{' at position {pos}")
    pos = _skip_ws(text, pos + 1)
    elems: list[HFSet] = []
    if pos < len(text) and text[pos] == "}":
        return HFSet(), pos + 1
    while True:
        e, pos = _parse_hf_at(text, pos)
        elems.append(e)
        pos = _skip_ws(text, pos)
        if pos >= len(text):
            raise ValueError("unterminated set literal")
        if text[pos] == ",":
            pos = _skip_ws(text, pos + 1)
        elif text[pos] == "}":
            return HFSet(elems), pos + 1
        else:
            raise ValueError(f"expected ',' or '}}' at position {pos}")


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
        e1, e2 = p._elems
        if len(e1._elems) == 1 and len(e2._elems) == 2:
            single, double = e1, e2
        elif len(e2._elems) == 1 and len(e1._elems) == 2:
            single, double = e2, e1
        else:
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
    elems = list(s)
    out = []
    for mask in range(1 << len(elems)):
        out.append(HFSet(e for i, e in enumerate(elems) if mask >> i & 1))
    return HFSet(out)


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
    for n in range(len(s) + 1):
        if von_neumann(n) == s:
            return n
    return None


def v_stage(n: int) -> HFSet:
    """Finite cumulative stage: V_0 = empty, V_{n+1} = powerset(V_n)."""
    s = HFSet()
    for _ in range(n):
        s = powerset(s)
    return s
