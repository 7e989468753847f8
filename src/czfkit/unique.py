"""Weak unique tables for hash-consing.

A unique table maps the canonical key of a value to a weak reference to the
one live object with that key, so that equal values are one object (after
Filliâtre & Conchon, "Type-safe modular hash-consing", 2006).  ``HFSet``,
``Name`` and the formula nodes each keep one, and derive from ``Interned``.
A class looks its key up inline in ``__new__`` (``table.get(key)``, then
calls the reference) and, on a miss, builds the object and hands it to
``insert``.  An entry goes when the last reference to its value does;
building the value again makes a fresh object.  ``fold`` walks such shared
values, and shared terms, once per distinct node.
"""

from __future__ import annotations

import weakref
from _weakref import _remove_dead_weakref
from typing import Callable


class Interned:
    """Base of the hash-consed classes.  Their objects are immutable, as
    their tables hand them out shared; a class stores its slots with
    ``object.__setattr__``.  Copy, deepcopy and pickle rebuild an object
    through its class's table from the fields in ``__match_args__``."""

    __slots__ = ("__weakref__",)
    __match_args__: tuple[str, ...] = ()

    def __setattr__(self, attr, value):
        raise AttributeError(f"{type(self).__name__} is immutable; "
                             f"cannot set {attr}")

    def __delattr__(self, attr):
        raise AttributeError(f"{type(self).__name__} is immutable; "
                             f"cannot delete {attr}")

    def __reduce__(self):
        return type(self), tuple(getattr(self, a) for a in self.__match_args__)


class Entry(weakref.ref):
    """A weak reference to a value in a unique table, carrying its key."""

    __slots__ = ("key",)


def new_table() -> tuple[dict, Callable[[Entry], None]]:
    """An empty unique table and the callback that removes its dead entries."""
    table: dict = {}

    def drop(entry: Entry, remove=_remove_dead_weakref) -> None:
        # Called when the value dies.  The entry's key may since have been
        # given a newer value; only a dead entry is removed.  ``table`` and
        # ``remove`` are bound here, not read as globals, because values
        # still die while the interpreter clears module globals.
        remove(table, entry.key)

    return table, drop


def insert(table: dict, drop: Callable[[Entry], None], key, value):
    """Enters a value that missed in the table; returns the value the table
    holds for its key afterwards."""
    entry = Entry(value, drop)
    entry.key = key
    # setdefault is atomic: of threads that miss on the same key at once,
    # the first to insert wins and the others return its value.
    while (old := table.setdefault(key, entry)) is not entry:
        if (live := old()) is not None:
            return live
        _remove_dead_weakref(table, key)  # died, not yet dropped
    return value


def fold(root, children, combine):
    """The value at root of combine(node, [values of its children]), called
    children first, once per distinct node, on an explicit stack, so depth
    costs no recursion.  Values are memoized by id, not by node, because
    hashing a node may walk its whole tree (``godel.App`` is a dataclass).
    Ids are sound keys as ``children`` returns existing nodes: each stays
    reachable from root, so alive and the only owner of its id, meanwhile.
    """
    values: dict[int, object] = {}
    stack: list = [(root, None)]  # (node, None) or (node, its children)
    while stack:
        node, kids = stack.pop()
        if kids is not None:
            values[id(node)] = combine(node, [values[id(c)] for c in kids])
        elif id(node) not in values:
            kids = children(node)
            stack.append((node, kids))
            stack += [(c, None) for c in kids if id(c) not in values]
    return values[id(root)]
