"""The double-negation translation and its semantic form.

``dn_translate`` is the syntactic Goedel-Gentzen translation, a formula
transformer: it wraps atoms, disjunctions and existentials in double
negations and leaves the other connectives alone.  ``semantic_translate``
is the truth of the translation in a forcing model: whether
[[dn_translate(f)]] is top.  In every finite frame
[[dn_translate(f)]] = not not [[f]], by induction on f: double negation
preserves finite meets and implication, and absorbs the double negations
the translation adds (Fourman and Scott, "Sheaves and logic", 1979).  Not
not p is top exactly when not p is bottom, so the code evaluates neg(f)
with the one forcing evaluator, ``names.Interpreter``, and builds no
translated formula, whose extra negations would cost a step per node.
Over the double-negation topology the frame is Boolean, not not p is p,
and the translation holds exactly when f is forced with top value.  In
the trivial frame, where bottom is top, every translation holds.
"""

from __future__ import annotations

from . import topology as tp
from .formula import (
    BigOr, BoundedEx, ClassMem, Eq, Ex, Formula, Mem, Or, _checked, _same,
    neg,
)
from .names import Interpreter, NameUniverse


def _dneg(f: Formula) -> Formula:
    return neg(neg(f))


def dn_translate(f: Formula) -> Formula:
    """The Goedel-Gentzen translation: double negations over atoms,
    disjunctions and existentials."""

    def go(g: Formula) -> Formula:
        if isinstance(g, (Eq, Mem, ClassMem)):
            return _dneg(g)
        h = g._map(_same, go)
        return _dneg(h) if isinstance(g, (Or, BigOr, BoundedEx, Ex)) else h

    try:
        return go(_checked(f))
    finally:
        del go  # as in formula.substitute


_TWO = tp.omega()  # its frame is the two-element Boolean algebra


def semantic_translate(f: Formula, env: dict | None,
                       it: Interpreter) -> bool:
    """Whether [[dn_translate(f)]] = not not [[f]] is top in ``it``'s
    model, asked as whether [[neg(f)]] is bottom."""
    return it.value(neg(_checked(f)), env) == tp.bottom(it.t)


def semantic_coincidence_check(f: Formula, env: dict | None,
                               u: NameUniverse) -> bool:
    """Over the double-negation topology the classical reading of the
    translation must agree with forcing the formula itself with top value.
    Returns True when the two verdicts agree."""
    if u.topology != _TWO:
        raise ValueError("coincidence holds over the double-negation "
                         "topology; pass a universe over it")
    it = Interpreter(u)
    classical = semantic_translate(f, env, it)
    forced = it.value(f, env) == tp.top(u.topology)
    return classical == forced
