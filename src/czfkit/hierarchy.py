"""Formula-complexity classification for intuitionistic set theory.

The Sigma/Pi classes are defined by closure recursions, not prenex normal
forms: level 0 is the bounded formulas; Sigma_{n+1} is the least class
containing Pi_n closed under and/or, bounded quantifiers and unbounded
exists; Pi_{n+1} is the least class containing Sigma_n closed under and/or,
implications with Sigma_n antecedent and Pi_{n+1} consequent, bounded
quantifiers and unbounded forall.  The classes are cumulative, so a formula
is in Sigma_n exactly when n reaches its minimal Sigma level.  One bottom-up
pass over the distinct subformulas computes the minimal pair of every node
from its children's; the classifier makes no strictness claim.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

from . import unique
from .formula import (
    All, BigAnd, BigOr, ClassMem, Ex, Formula, Imp, distinct_subformulas,
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
    for g in distinct_subformulas(f):
        if isinstance(g, (BigAnd, BigOr)):
            raise HierarchyError("hierarchy is defined for finitary formulas only")
        if isinstance(g, ClassMem) and g.cls not in extra:
            raise HierarchyError(
                f"class atom over undeclared symbol {g.cls}; pass it in extra")


def _pair(g: Formula, kids: list[tuple[int, int]]) -> tuple[int, int]:
    """(minimal Sigma level, minimal Pi level) of g from its children's.

    For n >= 1, g is in Sigma_n iff it is in Pi_{n-1} or a Sigma closure
    rule applies with its children at level n, i.e. iff n >= pi + 1 or
    n >= a, where a is the least level at which a rule applies (infinite
    when none can).  So sigma = min(pi + 1, a), dually pi = min(sigma + 1,
    b), and the least solution of the two is the pair returned."""
    if kids.count((0, 0)) == len(kids) and not isinstance(g, (All, Ex)):
        return 0, 0
    if isinstance(g, Imp):
        (sigma_left, _), (_, pi_right) = kids
        a, b = math.inf, max(1, sigma_left + 1, pi_right)
    else:
        a = max(1, *(sigma for sigma, _ in kids))
        b = math.inf if isinstance(g, Ex) else max(1, *(pi for _, pi in kids))
        if isinstance(g, All):
            a = math.inf
    return min(a, b + 1), min(b, a + 1)


def _levels(f: Formula, extra) -> tuple[int, int]:
    _check_atoms(f, frozenset(extra))
    return unique.fold(f, lambda g: g._subs(), _pair)


def in_level(f: Formula, side: Side, n: int,
             extra: frozenset[str] = frozenset()) -> bool:
    """Decide membership of f in Sigma_n or Pi_n."""
    if n < 0:
        raise ValueError("level must be nonnegative")
    sigma, pi = _levels(f, extra)
    return (sigma if side is Side.SIGMA else pi) <= n


def classify(f: Formula,
             extra: frozenset[str] = frozenset()) -> tuple[LevelResult, LevelResult]:
    """Minimal Sigma and Pi levels of f."""
    sigma, pi = _levels(f, extra)
    return LevelResult(Side.SIGMA, sigma), LevelResult(Side.PI, pi)
