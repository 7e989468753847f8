"""Deterministic enumeration of bounded formulas for exhaustive checks.

Formulas are produced in depth-increasing order from a fixed grammar: atoms
over the variables in scope, the binary connectives, and bounded quantifiers
whose bound is any variable in scope.  Full enumeration explodes after depth
two, so each call takes a hard cap and truncates the stream at that point;
within the cap the order is reproducible across runs.  The formulas are
distinct up to renaming of bound variables by construction: a bound
variable is named by its scope depth, and level d holds formulas of exact
depth d built from distinct parts.
"""

from __future__ import annotations

import itertools

from .formula import (
    And, BoundedAll, BoundedEx, Eq, Falsum, Formula, Imp, Lit, Mem, Or, Var,
)
from . import hf


def _atoms(scope: tuple[str, ...], include_literals: bool) -> list[Formula]:
    out: list[Formula] = [Falsum()]
    for a, b in itertools.product(scope, repeat=2):
        out.append(Eq(Var(a), Var(b)))
        out.append(Mem(Var(a), Var(b)))
    if include_literals:
        empty = Lit(hf.EMPTY)
        for a in scope:
            out.append(Eq(Var(a), empty))
            out.append(Mem(empty, Var(a)))
    return out


def _grow(scope: tuple[str, ...], max_depth: int, cap: int,
          include_literals: bool) -> list[list[Formula]]:
    """Formula lists indexed by exact depth, each level capped."""
    levels = [_atoms(scope, include_literals)[:cap]]
    for d in range(1, max_depth + 1):
        levels.append(list(itertools.islice(
            _candidates(scope, levels, d, max_depth, cap, include_literals),
            cap)))
    return levels


def _candidates(scope, levels, d, max_depth, cap, include_literals):
    """The formulas of exact depth d, in order; built only as the level's
    cap asks for them."""
    older = [f for lvl in levels[:-1] for f in lvl]
    newest = levels[-1]
    for l, r in itertools.chain(itertools.product(newest, older + newest),
                                itertools.product(older, newest)):
        for conn in (And, Or, Imp):
            yield conn(l, r)
    bound_var = f"y{len(scope) + 1}"
    inner = _grow(scope + (bound_var,), max_depth - 1, cap, include_literals)
    for body in inner[d - 1]:
        for b in scope:
            yield BoundedAll(bound_var, Var(b), body)
            yield BoundedEx(bound_var, Var(b), body)


def bounded_formulas(free_count: int, max_depth: int, limit: int = 250,
                     include_literals: bool = False) -> list[Formula]:
    """The first `limit` bounded formulas over x1..x{free_count}, shallowest
    first, distinct up to bound-variable renaming."""
    scope = tuple(f"x{i + 1}" for i in range(free_count))
    levels = _grow(scope, max_depth, limit, include_literals)
    return list(itertools.islice(itertools.chain.from_iterable(levels), limit))
