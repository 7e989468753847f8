"""Formula-complexity classification for intuitionistic set theory.

The Sigma/Pi classes are defined by closure recursions, not prenex normal
forms: level 0 is the bounded formulas; Sigma_{n+1} is the least class
containing Pi_n closed under and/or, bounded quantifiers and unbounded
exists; Pi_{n+1} is the least class containing Sigma_n closed under and/or,
implications with Sigma_n antecedent and Pi_{n+1} consequent, bounded
quantifiers and unbounded forall.  Membership is decidable by structural
recursion; the classifier reports minimal levels only and makes no
strictness claim.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

from .formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Ex, Formula,
    Imp, Or, is_bounded, subformulas,
)


class Side(enum.Enum):
    SIGMA = "Sigma"
    PI = "Pi"


@dataclass(frozen=True)
class LevelResult:
    side: Side
    level: int


class HierarchyError(ValueError):
    pass


def _check_atoms(f: Formula, extra: frozenset[str]):
    for g in subformulas(f):
        if isinstance(g, (BigAnd, BigOr)):
            raise HierarchyError("hierarchy is defined for finitary formulas only")
        if isinstance(g, ClassMem) and g.cls not in extra:
            raise HierarchyError(
                f"class atom over undeclared symbol {g.cls}; pass it in extra")


_DUAL = {Side.SIGMA: Side.PI, Side.PI: Side.SIGMA}


def _in(f: Formula, side: Side, n: int, memo: dict) -> bool:
    key = (f, side, n)
    if key in memo:
        return memo[key]
    if n == 0:
        result = is_bounded(f)
    elif _in(f, _DUAL[side], n - 1, memo):
        result = True
    else:
        match f:
            case And(l, r) | Or(l, r):
                result = _in(l, side, n, memo) and _in(r, side, n, memo)
            case BoundedAll(_, _, body) | BoundedEx(_, _, body):
                result = _in(body, side, n, memo)
            case Ex(_, body) if side is Side.SIGMA:
                result = _in(body, side, n, memo)
            case All(_, body) if side is Side.PI:
                result = _in(body, side, n, memo)
            case Imp(l, r) if side is Side.PI:
                result = (_in(l, Side.SIGMA, n - 1, memo)
                          and _in(r, side, n, memo))
            case _:
                result = False
    memo[key] = result
    return result


def in_level(f: Formula, side: Side, n: int,
             extra: frozenset[str] = frozenset()) -> bool:
    """Decide membership of f in Sigma_n or Pi_n."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    _check_atoms(f, frozenset(extra))
    return _in(f, side, n, {})


def _level_cap(f: Formula) -> int:
    # each level increment crosses a quantifier or an implication antecedent,
    # so node-count + 1 bounds the minimal level
    return 1 + sum(1 for _ in subformulas(f))


def classify(f: Formula,
             extra: frozenset[str] = frozenset()) -> tuple[LevelResult, LevelResult]:
    """Minimal Sigma and Pi levels of f."""
    _check_atoms(f, frozenset(extra))
    cap = _level_cap(f)
    memo: dict = {}
    sigma = next(n for n in range(cap + 1) if _in(f, Side.SIGMA, n, memo))
    pi = next(n for n in range(cap + 1) if _in(f, Side.PI, n, memo))
    return LevelResult(Side.SIGMA, sigma), LevelResult(Side.PI, pi)
