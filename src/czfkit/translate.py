"""The double-negation translation and its semantic form.

``dn_translate`` is the syntactic Goedel-Gentzen translation, a formula
transformer: it wraps atoms, disjunctions and existentials in double
negations and leaves the other connectives alone.  ``semantic_translate``
evaluates atoms by forcing over the double-negation topology and combines
the results with classical truth functions, which is what the translation
denotes there.  That is the fold of ``names.Interpreter.value`` into the
two-element frame with atom values and bounded-quantifier weights rounded
to top or bottom; in a nontrivial frame {bottom, top} is a subframe closed
under every operation of the fold (Fourman and Scott, "Sheaves and logic",
1979).
"""

from __future__ import annotations

from . import topology as tp
from .formula import (
    BigOr, BoundedEx, ClassMem, Eq, Ex, Formula, Mem, Or, _checked, _same,
    neg,
)
from .names import ClassName, Interpreter, Name, NameUniverse


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


class _Rounded(Interpreter):
    """The forcing fold of ``it`` into the two-element frame, an atom being
    top there exactly when its value under ``it`` is top.  A bounded
    quantifier ranges over the entries of full weight, as an entry of
    weight bottom adds nothing to its meet or join."""

    def __init__(self, it: Interpreter):
        super().__init__(it.u)
        self.t, self._it = _TWO, it

    def _round(self, p: int) -> int:
        return _TWO._top_mask if p == self._it.t._top_mask else 0

    def term_name(self, term, env: dict) -> Name:
        # a literal's check name has full weight over it.t, not over _TWO
        return self._it.term_name(term, env)

    def _eq(self, a: Name, b: Name) -> int:
        return self._round(self._it._eq(a, b))

    def _mem(self, a: Name, b: Name | ClassName) -> int:
        return self._round(self._it._mem(a, b))

    def _bound_entries(self, term, env: dict):
        top = tp.top(self._it.t)
        return [(x, _TWO._top_mask)
                for x, p in self.term_name(term, env).entries if p == top]


def semantic_translate(f: Formula, env: dict | None,
                       it: Interpreter) -> bool:
    """Classical truth of the translated formula: atoms become "forced with
    top value", the connectives and quantifiers are read classically, by
    the forcing fold into the two-element frame."""
    return _Rounded(it).value(f, env) == tp.top(_TWO)


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
