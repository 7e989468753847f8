"""Two-sorted set-theoretic formulas: AST, parser, renderer, substitution.

Connectives are Falsum, =, membership, class membership, and/or/implies,
finite big conjunctions/disjunctions, and bounded/unbounded quantifiers.
Negation is sugar: ``~p`` parses to ``p -> false``.  Biconditional ``<->``
is sugar for the conjunction of both implications.

Every transformer is one traversal: ``g._map(term, go, var)`` is g's kind
with ``term`` applied to its terms, ``go`` to its formula children and, for
a quantifier, ``var`` (when not None) as its binder.  A transformer writes
only the cases it changes and passes the rest through ``g._map(term, go)``;
``subformulas`` walks the ``_subs()`` children with an explicit stack, and
``unbounded`` reads a bounded quantifier as a guarded unbounded one.

Terms and formula nodes are hash-consed like ``HFSet`` and ``Name``: a
module-level weak unique table maps each node's class and fields to its one
live node, so equal formulas are one object, and equality and hashing are
object identity.  A new node stores its free variables, a frozenset, and
its rendering, both built from its children's, which are built first.
"""

from __future__ import annotations

import operator
import re

from . import unique
from .hf import HFSet, _ScanError, _Scanner


class FormulaSyntaxError(_ScanError):
    """Malformed formula text; ``pos`` is where, when known."""


# -- nodes -----------------------------------------------------------------

# (class, fields...) -> entry for the one live node with those fields.
_table, _drop = unique.new_table()
_lookup = _table.get
_new = object.__new__
_set = object.__setattr__
_NO_VARS = frozenset()


def _union(a: frozenset, b: frozenset) -> frozenset:
    """a | b, reusing an operand that already holds the other."""
    if b <= a:
        return a
    if a <= b:
        return b
    return a | b


def _without(fv: frozenset, v: str) -> frozenset:
    return fv - {v} if v in fv else fv


def _enter(key: tuple, node: "_Node", fv: frozenset, text: str | None = None):
    """Stores the free variables and text (a formula's ``_bare()``) of a
    node that missed in the table, and enters it; returns the node the
    table holds afterwards."""
    _set(node, "_fv", fv)
    _set(node, "_text", node._bare() if text is None else text)
    return unique.insert(_table, _drop, key, node)


class _Node(unique.Interned):
    """A term or formula node.

    ``Cls(*fields)`` returns the live node with these fields when there is
    one, keyed by class and fields; each class's ``__new__`` looks it up
    and, on a miss, makes the class's checks and builds the node.  Equality
    and hashing are inherited from ``object``: identity.  ``_fv`` holds the
    free variables; ``_text`` the rendering.  Both are set at construction.
    """

    __slots__ = ("_fv", "_text")

    def __repr__(self) -> str:
        fields = ", ".join(f"{a}={getattr(self, a)!r}"
                           for a in self.__match_args__)
        return f"{type(self).__name__}({fields})"


# -- terms -----------------------------------------------------------------


class Var(_Node):
    __slots__ = ("name",)
    __match_args__ = ("name",)

    def __new__(cls, name: str):
        key = (cls, name)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if not name:
            raise ValueError("empty variable name")
        node = _new(cls)
        _set(node, "name", name)
        return _enter(key, node, frozenset((name,)), name)


class Lit(_Node):
    __slots__ = ("value",)
    __match_args__ = ("value",)

    def __new__(cls, value: HFSet):
        key = (cls, value)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(cls)
        _set(node, "value", value)
        return _enter(key, node, _NO_VARS, value.serialize())


Term = Var | Lit


# -- formula nodes ---------------------------------------------------------


class _FormulaNode(_Node):
    """A formula node.  ``_PREC`` is the highest operand level at which its
    text needs no parentheses (0 formula, 1 or, 2 and, 3 unary/atom);
    ``_subs`` are its formula children, ``_map`` is described in the
    module docstring, and ``_bare`` builds its text from the children's
    stored text."""

    __slots__ = ()
    _PREC = 3

    def _subs(self) -> tuple:
        return ()

    def _map(self, term, go, var=None) -> "Formula":
        return self


class Falsum(_FormulaNode):
    __slots__ = ()

    def __new__(cls):
        key = (cls,)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        return _enter(key, _new(cls), _NO_VARS)

    def _bare(self) -> str:
        return "false"


class _Binary(_FormulaNode):
    """A node with a left and a right operand; ``_OP`` is its infix."""

    __slots__ = ("left", "right")
    __match_args__ = ("left", "right")

    def __new__(cls, left, right):
        key = (cls, left, right)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(cls)
        _set(node, "left", left)
        _set(node, "right", right)
        return _enter(key, node, _union(left._fv, right._fv))


class _TermAtom(_Binary):
    """An atom relating two terms."""

    __slots__ = ()

    def _map(self, term, go, var=None) -> "Formula":
        return type(self)(term(self.left), term(self.right))

    def _bare(self) -> str:
        return self.left._text + self._OP + self.right._text


class Eq(_TermAtom):
    __slots__ = ()
    _OP = " = "


class Mem(_TermAtom):
    __slots__ = ()
    _OP = " in "


class ClassMem(_FormulaNode):
    __slots__ = ("element", "cls")
    __match_args__ = ("element", "cls")

    def __new__(klass, element: Term, cls: str):
        key = (klass, element, cls)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(klass)
        _set(node, "element", element)
        _set(node, "cls", cls)
        return _enter(key, node, element._fv)

    def _map(self, term, go, var=None) -> "Formula":
        return ClassMem(term(self.element), self.cls)

    def _bare(self) -> str:
        return f"{self.element._text} in {self.cls}"


def _operand(f: "Formula", level: int) -> str:
    """f's stored text as an operand at the given level."""
    if level > f._PREC and not is_neg(f):
        return "(" + f._text + ")"
    return f._text


class _Connective(_Binary):
    """A binary connective; ``_LEVELS`` are its operands' levels."""

    __slots__ = ()

    def _subs(self) -> tuple:
        return self.left, self.right

    def _map(self, term, go, var=None) -> "Formula":
        return type(self)(go(self.left), go(self.right))

    def _bare(self) -> str:
        left_level, right_level = self._LEVELS
        return (_operand(self.left, left_level) + self._OP
                + _operand(self.right, right_level))


class And(_Connective):
    __slots__ = ()
    _PREC, _OP, _LEVELS = 2, " & ", (2, 3)


class Or(_Connective):
    __slots__ = ()
    _PREC, _OP, _LEVELS = 1, " | ", (1, 2)


class Imp(_Connective):
    __slots__ = ()
    _PREC, _OP, _LEVELS = 0, " -> ", (1, 0)

    def _bare(self) -> str:
        if isinstance(self.right, Falsum):
            return "~(" + self.left._text + ")"
        return super()._bare()


class _BigConnective(_FormulaNode):
    """A finite conjunction or disjunction; ``_WORD`` is its keyword."""

    __slots__ = ("parts",)
    __match_args__ = ("parts",)

    def __new__(cls, parts: tuple["Formula", ...]):
        key = (cls, parts)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        if not parts:
            raise ValueError(f"{cls.__name__} requires at least one "
                             f"{cls._PART}")
        node = _new(cls)
        _set(node, "parts", parts)
        fv = _NO_VARS
        for p in parts:
            fv = _union(fv, p._fv)
        return _enter(key, node, fv)

    def _subs(self) -> tuple:
        return self.parts

    def _map(self, term, go, var=None) -> "Formula":
        return type(self)(tuple(map(go, self.parts)))

    def _bare(self) -> str:
        return self._WORD + " [" + ", ".join(p._text for p in self.parts) + "]"


class BigAnd(_BigConnective):
    __slots__ = ()
    _WORD, _PART = "bigand", "conjunct"


class BigOr(_BigConnective):
    __slots__ = ()
    _WORD, _PART = "bigor", "disjunct"


class _BoundedQuantifier(_FormulaNode):
    """``_WORD`` var in bound. body"""

    __slots__ = ("var", "bound", "body")
    __match_args__ = ("var", "bound", "body")
    _PREC = 0

    def __new__(cls, var: str, bound: Term, body: "Formula"):
        key = (cls, var, bound, body)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(cls)
        _set(node, "var", var)
        _set(node, "bound", bound)
        _set(node, "body", body)
        return _enter(key, node, _union(bound._fv, _without(body._fv, var)))

    def _subs(self) -> tuple:
        return (self.body,)

    def _map(self, term, go, var=None) -> "Formula":
        return type(self)(var or self.var, term(self.bound), go(self.body))

    def _bare(self) -> str:
        return (f"{self._WORD} {self.var} in {self.bound._text}. "
                + self.body._text)


class BoundedAll(_BoundedQuantifier):
    __slots__ = ()
    _WORD = "all"


class BoundedEx(_BoundedQuantifier):
    __slots__ = ()
    _WORD = "ex"


class _Quantifier(_FormulaNode):
    """``_WORD`` var. body"""

    __slots__ = ("var", "body")
    __match_args__ = ("var", "body")
    _PREC = 0

    def __new__(cls, var: str, body: "Formula"):
        key = (cls, var, body)
        ref = _lookup(key)
        if ref is not None and (node := ref()) is not None:
            return node
        node = _new(cls)
        _set(node, "var", var)
        _set(node, "body", body)
        return _enter(key, node, _without(body._fv, var))

    def _subs(self) -> tuple:
        return (self.body,)

    def _map(self, term, go, var=None) -> "Formula":
        return type(self)(var or self.var, go(self.body))

    def _bare(self) -> str:
        return f"{self._WORD} {self.var}. {self.body._text}"


class All(_Quantifier):
    __slots__ = ()
    _WORD = "all"


class Ex(_Quantifier):
    __slots__ = ()
    _WORD = "ex"


Formula = (
    Falsum | Eq | Mem | ClassMem | And | Or | Imp
    | BigAnd | BigOr | BoundedAll | BoundedEx | All | Ex
)

QUANTIFIERS = (BoundedAll, BoundedEx, All, Ex)


class Steps(dict):
    """Formula node class -> an evaluator's step function for that class;
    any other class is not a formula."""

    def __missing__(self, cls):
        raise TypeError(f"not a formula: a {cls.__name__} object")


def neg(f: Formula) -> Formula:
    return Imp(f, Falsum())


def is_neg(f: Formula) -> bool:
    return isinstance(f, Imp) and isinstance(f.right, Falsum)


# -- parser ----------------------------------------------------------------

_KEYWORDS = {"false", "all", "ex", "in", "bigand", "bigor"}
_VAR_RE = re.compile(r"[a-z][a-z0-9_']*")
_CLASS_RE = re.compile(r"[A-Z][A-Za-z0-9_]*")


class _Parser(_Scanner):
    Error = FormulaSyntaxError

    def peek_word(self) -> str | None:
        self.skip_ws()
        m = _VAR_RE.match(self.text, self.pos)
        return m.group(0) if m else None

    def eat_word(self, w: str) -> bool:
        if self.peek_word() == w:
            self.pos += len(w)
            return True
        return False

    def parse_var(self) -> str:
        w = self.peek_word()
        if w is None or w in _KEYWORDS:
            raise self.error("expected a variable")
        self.pos += len(w)
        return w

    def parse_term(self) -> Term:
        if self.peek("{"):
            return Lit(self.hf_literal())
        return Var(self.parse_var())

    # precedence: -> (lowest, right-assoc) < | < & < unary/atom
    def parse_formula(self) -> Formula:
        left = self.parse_or()
        if self.eat("<->"):
            right = self.parse_formula()
            return And(Imp(left, right), Imp(right, left))
        if self.eat("->"):
            return Imp(left, self.parse_formula())
        return left

    def parse_or(self) -> Formula:
        left = self.parse_and()
        while self.peek("|") and not self.peek("|-"):
            self.expect("|")
            left = Or(left, self.parse_and())
        return left

    def parse_and(self) -> Formula:
        left = self.parse_unary()
        while self.eat("&"):
            left = And(left, self.parse_unary())
        return left

    def parse_unary(self) -> Formula:
        if self.eat("~"):
            return neg(self.parse_unary())
        return self.parse_atom()

    def parse_quantifier(self, cls_plain, cls_bounded) -> Formula:
        var = self.parse_var()
        if self.eat_word("in"):
            bound = self.parse_term()
            self.expect(".")
            return cls_bounded(var, bound, self.parse_formula())
        self.expect(".")
        return cls_plain(var, self.parse_formula())

    def parse_list(self) -> tuple[Formula, ...]:
        self.expect("[")
        parts = [self.parse_formula()]
        while self.eat(","):
            parts.append(self.parse_formula())
        self.expect("]")
        return tuple(parts)

    def parse_atom(self) -> Formula:
        if self.eat("("):
            inner = self.parse_formula()
            self.expect(")")
            return inner
        if self.eat_word("false"):
            return Falsum()
        if self.eat_word("all"):
            return self.parse_quantifier(All, BoundedAll)
        if self.eat_word("ex"):
            return self.parse_quantifier(Ex, BoundedEx)
        if self.eat_word("bigand"):
            return BigAnd(self.parse_list())
        if self.eat_word("bigor"):
            return BigOr(self.parse_list())
        left = self.parse_term()
        if self.eat("="):
            return Eq(left, self.parse_term())
        if self.eat_word("in"):
            self.skip_ws()
            m = _CLASS_RE.match(self.text, self.pos)
            if m:
                self.pos = m.end()
                return ClassMem(left, m.group(0))
            return Mem(left, self.parse_term())
        raise self.error("expected '=' or 'in' after term")


def parse(text: str) -> Formula:
    """Parse formula source text.

    Input nested deeper than the recursion limit allows raises
    FormulaSyntaxError("nested too deeply").
    """
    p = _Parser(text)
    try:
        f = p.parse_formula()
    except RecursionError:
        raise FormulaSyntaxError("nested too deeply") from None
    p.skip_ws()
    if p.pos != len(text):
        raise p.error("trailing input")
    return f


# -- rendering -------------------------------------------------------------


def render(f: Formula) -> str:
    """Canonical text; ``parse(render(f))`` is ``f``."""
    return _checked(f)._text


# a node's stored text, as a sort key read in C
_text = operator.attrgetter("_text")


# -- variables and substitution --------------------------------------------


def _checked(f):
    """f itself; a TypeError when f is not a formula."""
    if not isinstance(f, _FormulaNode):
        raise TypeError(f"not a formula: {f!r}")
    return f


def free_vars(f: Formula) -> set[str]:
    """A fresh set of the free variables of f, read from its stored ones."""
    return set(_checked(f)._fv)


def _fresh(base: str, avoid: set[str] | frozenset[str]) -> str:
    cand = base + "'"
    while cand in avoid:
        cand += "'"
    return cand


def _same(x):
    return x


def _rename_binder(q: Formula, avoid: frozenset[str]) -> Formula:
    """The quantifier q with its variable renamed to a fresh one, free
    neither in q's body nor in avoid."""
    new = _fresh(q.var, q.body._fv | avoid)
    return q._map(_same, lambda body: substitute(body, q.var, Var(new)), new)


def substitute(f: Formula, v: str, t: Term) -> Formula:
    """Capture-avoiding substitution of term t for free occurrences of v.
    A formula in which v is not free is returned as it is."""
    old = Var(v)

    def term(s: Term) -> Term:
        return t if s is old else s

    def go(g):
        if v not in g._fv:
            return g
        if isinstance(g, QUANTIFIERS):
            if g.var == v:  # v is free in the bound only
                return g._map(term, _same)
            if g.var in t._fv and v in g.body._fv:
                g = _rename_binder(g, t._fv | {v})
        return g._map(term, go)

    try:
        return go(_checked(f))
    finally:
        del go  # go names itself; emptying its cell frees this call's state


def _guarded(universal: bool, v: str, guard: Formula,
             body: Formula) -> Formula:
    """``all v. (guard -> body)`` or ``ex v. (guard & body)``."""
    return All(v, Imp(guard, body)) if universal else Ex(v, And(guard, body))


def unbounded(q: Formula) -> Formula:
    """The bounded quantifier q read as a guarded unbounded one:
    ``all v. (v in b -> body)`` or ``ex v. (v in b & body)``.  A binder that
    occurs in its own bound is renamed first, so the guard does not capture
    it."""
    if q.var in q.bound._fv:
        q = _rename_binder(q, q.bound._fv)
    return _guarded(isinstance(q, BoundedAll), q.var, Mem(Var(q.var), q.bound),
                    q.body)


# -- relativization and boundedness ----------------------------------------


def relativize(f: Formula, bound: Term | str) -> Formula:
    """Bound every unbounded quantifier to a term or guard it by a class.

    For a class identifier C, universal bodies are guarded by implication
    and existential bodies by conjunction with ``x in C``.  A binder that
    occurs in the bound term is renamed where the term is put in its scope.
    """
    by_class = isinstance(bound, str)
    if by_class and bound in class_ids(f):
        raise ValueError(f"formula already mentions class {bound}")
    avoid = _NO_VARS if by_class else bound._fv

    def go(g: Formula) -> Formula:
        if not isinstance(g, QUANTIFIERS):
            return g._map(_same, go)
        if g.var in avoid and not is_bounded(g.body):
            g = _rename_binder(g, avoid)
        if isinstance(g, _BoundedQuantifier):
            return g._map(_same, go)
        v, body = g.var, go(g.body)
        if by_class:
            guard = ClassMem(Var(v), bound)
            return _guarded(isinstance(g, All), v, guard, body)
        quantifier = BoundedAll if isinstance(g, All) else BoundedEx
        return quantifier(v, bound, body)

    try:
        return go(_checked(f))
    finally:
        del go  # as in substitute


def is_bounded(f: Formula) -> bool:
    """True iff f has no unbounded quantifier."""
    return not any(isinstance(g, _Quantifier)
                   for g in distinct_subformulas(f))


def class_ids(f: Formula) -> set[str]:
    """The class symbols f mentions."""
    return {g.cls for g in distinct_subformulas(f) if isinstance(g, ClassMem)}


def subformulas(f: Formula):
    """All subformulas of f, including f itself (preorder), walked with an
    explicit stack, so any depth works."""
    stack = [_checked(f)]
    while stack:
        g = stack.pop()
        yield g
        stack.extend(reversed(g._subs()))


def distinct_subformulas(f: Formula):
    """The subformulas of f in the order of ``subformulas``, each distinct
    node only at its first occurrence.  A repeated node's subtree was
    walked at that occurrence and is not walked again, so the cost grows
    with the distinct nodes, not the tree."""
    seen = set()
    stack = [_checked(f)]
    while stack:
        g = stack.pop()
        if g not in seen:
            seen.add(g)
            yield g
            stack.extend(reversed(g._subs()))


def alpha_canonical(f: Formula) -> Formula:
    """Rename bound variables to a canonical v0,v1,... numbering by depth;
    a canonical name that is free in f gets primes until it is not."""

    def go(g: Formula, depth: int, ren: dict[str, str]) -> Formula:
        def term(t: Term) -> Term:
            if isinstance(t, Var) and t.name in ren:
                return Var(ren[t.name])
            return t

        nv, inner = None, ren
        if isinstance(g, QUANTIFIERS):
            nv = f"v{depth}"
            if nv in f._fv:
                nv = _fresh(nv, f._fv)
            depth, inner = depth + 1, {**ren, g.var: nv}
        return g._map(term, lambda c: go(c, depth, inner), nv)

    try:
        return go(_checked(f), 0, {})
    finally:
        del go  # as in substitute


def alpha_eq(f: Formula, g: Formula) -> bool:
    return alpha_canonical(f) == alpha_canonical(g)
