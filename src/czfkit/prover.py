"""Backward proof search for a finitary multi-succedent sequent calculus.

The intuitionistic calculus is contraction-free with shared contexts; the
right rules for implication and the universal quantifier discard the rest
of the succedent, and the left implication rule repeats its principal
formula in the first premise, which is what makes double negations of
classical tautologies reachable.  The classical calculus keeps the full
succedent everywhere and needs no repetition.  Search is budget-bounded,
so the outcome distinguishes refutation within the search space from
running out of budget.  It keeps one node record per distinct sequent
expanded (``_Node``): a memoized failure, whether the sequent is open on
the current branch (the check against looping), and, once the sequent
comes back, the rule applications already built, which later expansions
replay rather than rebuild.  Bounded quantifiers are expanded to guarded
unbounded ones on entry.  Finite conjunctions and disjunctions are handled
natively.  The calculus has no equality rules: ``=`` is an uninterpreted
atom like ``in``, so ``x = x`` is not provable in either logic.

Each rule is written once, in ``_RULES``: the side and node class of its
principal formula and a function that builds the premises of each instance.
The search reads the table in a fixed order per logic; ``check_derivation``
reads only the entry for each node's own rule.

Each side of a sequent is sorted by text and duplicate-free, and each
premise is merged into its parent's order (``_minus``, ``_plus``), so a
search step costs what it changes, not what the sequent holds.
"""

from __future__ import annotations

import enum
import functools
import itertools
import sys
from bisect import insort
from dataclasses import dataclass
from typing import NamedTuple

from .formula import (
    QUANTIFIERS, All, And, BigAnd, BigOr, ClassMem, Eq, Ex, Falsum, Formula,
    Imp, Lit, Mem, Or, Term, Var, _BoundedQuantifier, _checked,
    _rename_binder, _same, _text, alpha_eq, class_ids, render, subformulas,
    substitute, unbounded,
)


class Logic(enum.Enum):
    INTUITIONISTIC = "intuitionistic"
    CLASSICAL = "classical"


class Outcome(enum.Enum):
    PROVED = "proved"
    NOT_PROVABLE = "not-provable"
    BUDGET_EXCEEDED = "budget-exceeded"


class Sequent(NamedTuple):
    """Antecedent and succedent, each sorted by text and duplicate-free.

    Contraction is admissible in this calculus, so collapsing duplicates
    loses no provability and keeps the search space finite for the
    propositional fragment.  ``make`` sorts unsorted input; the rules merge
    into the parent's order (``_minus``, ``_plus``) and construct the
    premise directly.  Equality and hashing are the tuple's, over formulas
    that hash by identity."""
    left: tuple[Formula, ...]
    right: tuple[Formula, ...]

    @staticmethod
    def make(left, right) -> "Sequent":
        # Formulas are hash-consed, so a set drops duplicates; sorting by
        # the stored text gives each side one order.
        return Sequent(tuple(sorted(set(left), key=_text)),
                       tuple(sorted(set(right), key=_text)))

    def render(self) -> str:
        return (", ".join(render(f) for f in self.left) + " => "
                + ", ".join(render(f) for f in self.right)).strip()


@dataclass(frozen=True)
class Derivation:
    rule: str
    conclusion: Sequent
    premises: tuple["Derivation", ...] = ()

    def render(self, indent: int = 0) -> str:
        lines = [" " * indent + f"{self.rule}: {self.conclusion.render()}"]
        for p in self.premises:
            lines.append(p.render(indent + 2))
        return "\n".join(lines)


@dataclass(frozen=True)
class ProveResult:
    """The outcome of a search and what it cost.  ``expanded`` counts the
    sequents expanded; ``limit`` is ``"nodes"`` when the node budget ran
    out, else ``"depth"`` when a branch reached ``_Search.MAX_DEPTH``, else
    None; ``loop_hits`` counts sequents refused because an ancestor was the
    same sequent, and ``memo_hits`` those refused as already failed;
    ``revisits`` counts the expansions of a sequent that the search had
    already expanded."""
    outcome: Outcome
    derivation: Derivation | None = None
    expanded: int = 0
    limit: str | None = None
    loop_hits: int = 0
    memo_hits: int = 0
    revisits: int = 0


def desugar(f: Formula) -> Formula:
    """Bounded quantifiers become guarded unbounded quantifiers, as
    ``formula.unbounded`` reads them."""
    if isinstance(f, _BoundedQuantifier):
        f = unbounded(f)
    return _checked(f)._map(_same, desugar)


def _minus(pool: tuple[Formula, ...], f: Formula) -> tuple[Formula, ...]:
    out = list(pool)
    out.remove(f)
    return tuple(out)


def _plus(side: tuple[Formula, ...], *new: Formula) -> tuple[Formula, ...]:
    """side with each new formula that it lacks merged in by text."""
    out = list(side)
    for f in new:
        if f not in out:
            insort(out, f, key=_text)
    return tuple(out)


def _scan(f: Formula) -> tuple[dict[str, Lit], set[str]]:
    """The literals in f, keyed by value, and the names f binds."""
    lits: dict[str, Lit] = {}
    binders: set[str] = set()
    for g in subformulas(f):
        if isinstance(g, QUANTIFIERS):
            binders.add(g.var)
        # a literal is a side of an atom or the bound of a quantifier
        for attr in g.__match_args__:
            t = getattr(g, attr)
            if isinstance(t, Lit):
                lits[str(t.value)] = t
    return lits, binders


def _terms_in(s: Sequent, scan) -> list[Term]:
    names: set[str] = set()
    lits: dict[str, Lit] = {}
    for f in s.left + s.right:
        names |= f._fv
        lits.update(scan(f)[0])
    terms: list[Term] = [Var(n) for n in sorted(names)]
    terms.extend(lits[k] for k in sorted(lits))
    if not terms:
        terms.append(Var("v1"))
    return terms


def _fresh_var(s: Sequent, scan) -> str:
    used: set[str] = set()
    for f in s.left + s.right:
        used |= f._fv
        used |= scan(f)[1]
    i = 1
    while f"v{i}" in used:
        i += 1
    return f"v{i}"


# -- the rule table ----------------------------------------------------------
#
# Each rule maps to (side, class, witness, build).  The principal formula is
# an instance of class on side 0 (antecedent) or 1 (succedent).  witness is
# None, _EIGEN for a variable free nowhere in the conclusion, or _TERM for
# any term.  build(f, g, d, classical, a) lists the premises of each instance
# with principal formula f in g => d and, for a quantifier, a the body with
# the witness substituted.


_ATOMS = (Eq, Mem, ClassMem)
_FALSE = Falsum()
_EIGEN, _TERM = "eigen", "term"


def _inst(f: Formula, t: Term) -> Formula:
    return substitute(f.body, f.var, t)


def _kept(d: tuple[Formula, ...], f: Formula, classical: bool):
    """The side formulas of a right rule that discards the rest of the
    succedent intuitionistically."""
    return _minus(d, f) if classical else ()


_RULES = {
    "init": (0, _ATOMS, None, lambda f, g, d, cl, a: [()] if f in d else []),
    "L-false": (0, Falsum, None, lambda f, g, d, cl, a: [()]),
    "L-and": (0, And, None, lambda f, g, d, cl, a: [(
        Sequent(_plus(_minus(g, f), f.left, f.right), d),)]),
    "R-or": (1, Or, None, lambda f, g, d, cl, a: [(
        Sequent(g, _plus(_minus(d, f), f.left, f.right)),)]),
    "L-ex": (0, Ex, _EIGEN, lambda f, g, d, cl, a: [(
        Sequent(_plus(_minus(g, f), a), d),)]),
    "L-bigor": (0, BigOr, None, lambda f, g, d, cl, a: [tuple(
        Sequent(_plus(_minus(g, f), p), d) for p in f.parts)]),
    "L-or": (0, Or, None, lambda f, g, d, cl, a: [(
        Sequent(_plus(_minus(g, f), f.left), d),
        Sequent(_plus(_minus(g, f), f.right), d))]),
    "R-and": (1, And, None, lambda f, g, d, cl, a: [(
        Sequent(g, _plus(_minus(d, f), f.left)),
        Sequent(g, _plus(_minus(d, f), f.right)))]),
    "R-bigand": (1, BigAnd, None, lambda f, g, d, cl, a: [tuple(
        Sequent(g, _plus(_kept(d, f, cl), p)) for p in f.parts)]),
    "R-imp": (1, Imp, None, lambda f, g, d, cl, a: [(
        Sequent(_plus(g, f.left), _plus(_kept(d, f, cl), f.right)),)]),
    # intuitionistically the principal formula stays in the first premise
    "L-imp": (0, Imp, None, lambda f, g, d, cl, a: [(
        Sequent(_minus(g, f) if cl else g, _plus(d, f.left)),
        Sequent(_plus(_minus(g, f), f.right), d))]),
    "R-all": (1, All, _EIGEN, lambda f, g, d, cl, a: [(
        Sequent(g, _plus(_kept(d, f, cl), a)),)]),
    "L-bigand": (0, BigAnd, None, lambda f, g, d, cl, a: [
        (Sequent(_plus(g, p), d),) for p in f.parts]),
    "R-bigor": (1, BigOr, None, lambda f, g, d, cl, a: [
        (Sequent(g, _plus(d, p)),) for p in f.parts]),
    "R-ex": (1, Ex, _TERM, lambda f, g, d, cl, a: [(
        Sequent(g, _plus(d, a)),)]),
    "L-all": (0, All, _TERM, lambda f, g, d, cl, a: [(
        Sequent(_plus(g, a), d),)]),
}


def _cut(g, d, a: Formula) -> tuple[Sequent, Sequent]:
    return Sequent(g, _plus(d, a)), Sequent(_plus(g, a), d)


def _order(*rules: str):
    return tuple((rule,) + _RULES[rule] for rule in rules)


_INVERTIBLE = ("L-and", "R-or", "L-ex", "L-bigor", "L-or", "R-and")
_CHOICE = ("R-imp", "L-imp", "R-all", "L-bigand", "R-bigor", "R-ex", "L-all")
# The search tries only the first invertible rule that applies, and every
# instance of the choice rules.  R-bigand is invertible only classically.
_SEARCH_ORDER = {
    Logic.CLASSICAL: (_order(*_INVERTIBLE, "R-bigand"), _order(*_CHOICE)),
    Logic.INTUITIONISTIC: (_order(*_INVERTIBLE),
                           _order(*_CHOICE[:3], "R-bigand", *_CHOICE[3:])),
}


class _Node:
    """What one search knows of one sequent it has expanded: whether its
    failure is memoized, whether it is open on the current branch, and,
    from its second expansion on, the (rule, premises) steps yielded so far
    and the suspended ``_steps`` generator that yields the rest."""
    __slots__ = ("failed", "open", "steps", "more")

    def __init__(self):
        self.failed = self.open = False
        self.steps = self.more = None


class _Search:
    MAX_DEPTH = 250

    def __init__(self, logic: Logic, budget: int, allow_cut: bool):
        self.classical = logic is Logic.CLASSICAL
        self.invertible, self.choice = _SEARCH_ORDER[logic]
        self.budget = budget
        self.allow_cut = allow_cut
        self.expanded = 0
        self.revisits = 0
        self.nodes: dict[Sequent, _Node] = {}  # the sequents expanded
        self.depth = 0  # how many sequents are open on the branch
        self.limit: str | None = None
        self.loop_hits = 0
        self.memo_hits = 0
        # formulas are hash-consed, so each quantifier instance and each
        # formula's _scan is built once per search
        self.scan = functools.cache(_scan)
        self.instance = functools.cache(_inst)

    def _steps(self, s: Sequent):
        """Yields (rule, premises) backward steps in search order.  A
        one-premise step whose premise is s itself is skipped."""
        g, d = sides = s.left, s.right
        classical = self.classical
        for rule, side, cls, witness, build in self.invertible:
            for f in sides[side]:
                if isinstance(f, cls):
                    a = witness and self.instance(
                        f, Var(_fresh_var(s, self.scan)))
                    for premises in build(f, g, d, classical, a):
                        yield rule, premises
                    return
        terms = None
        for rule, side, cls, witness, build in self.choice:
            for f in sides[side]:
                if not isinstance(f, cls):
                    continue
                if witness is _TERM:
                    # only these rules need the sequent's terms
                    terms = witnesses = terms or _terms_in(s, self.scan)
                elif witness:
                    witnesses = (Var(_fresh_var(s, self.scan)),)
                else:
                    witnesses = (None,)
                for t in witnesses:
                    a = None if t is None else self.instance(f, t)
                    for premises in build(f, g, d, classical, a):
                        if len(premises) != 1 or premises[0] != s:
                            yield rule, premises
        if self.allow_cut:
            for f in itertools.chain(g, d):
                for sub in subformulas(f):
                    if sub not in g and sub not in d:
                        yield "cut", _cut(g, d, sub)

    def _replay(self, s: Sequent, node: _Node):
        """The steps of s again: those of earlier expansions, then the rest
        from the kept generator.  Within one search a sequent's steps
        depend on the sequent alone, so the order is that of _steps."""
        if node.steps is None:
            node.steps, node.more = [], self._steps(s)
        steps = node.steps
        yield from steps
        # a for loop, unlike yield from, leaves the generator open when
        # this replay is abandoned
        for step in node.more:
            steps.append(step)
            yield step

    def prove(self, s: Sequent) -> Derivation | None:
        node = self.nodes.get(s)
        if node is None:  # a tabled sequent was expanded, so it is no axiom
            right = s.right
            for f in s.left:
                if isinstance(f, _ATOMS) and f in right:
                    return Derivation("init", s)
            if _FALSE in s.left:
                return Derivation("L-false", s)
        elif node.failed:
            self.memo_hits += 1
            return None
        elif node.open:
            self.loop_hits += 1
            return None
        if self.expanded >= self.budget:
            self.limit = "nodes"
            return None
        if self.depth >= self.MAX_DEPTH:
            self.limit = self.limit or "depth"
            return None
        self.expanded += 1
        if node is None:
            self.nodes[s] = node = _Node()
            steps = self._steps(s)
        else:
            self.revisits += 1
            steps = self._replay(s, node)
        loops_before = self.loop_hits
        node.open = True
        self.depth += 1
        try:
            for rule, premises in steps:
                subs = []
                for p in premises:
                    d = self.prove(p)
                    if d is None:
                        break
                    subs.append(d)
                else:
                    return Derivation(rule, s, tuple(subs))
        finally:
            node.open = False
            self.depth -= 1
        # a failure that never tripped the ancestor check or the budget is
        # context-independent and safe to memoize
        if self.loop_hits == loops_before and self.limit is None:
            node.failed = True
        return None


def prove(s: Sequent, logic: Logic = Logic.INTUITIONISTIC,
          budget: int = 20000, allow_cut: bool = False) -> ProveResult:
    """Backward search from the endsequent.  The search recurses once per
    rule applied, so the recursion limit is raised for its duration only."""
    search = _Search(logic, budget, allow_cut)
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000))
    try:
        s = Sequent.make([desugar(f) for f in s.left],
                         [desugar(f) for f in s.right])
        d = search.prove(s)
    finally:
        sys.setrecursionlimit(limit)
        # kept generators refer back to the search; dropping the table
        # frees the search by refcount
        search.nodes.clear()
    if d is not None:
        outcome = Outcome.PROVED
    elif search.limit is not None:
        outcome = Outcome.BUDGET_EXCEEDED
    else:
        outcome = Outcome.NOT_PROVABLE
    return ProveResult(outcome, d, search.expanded, search.limit,
                       search.loop_hits, search.memo_hits, search.revisits)


def prove_formula(f: Formula, logic: Logic = Logic.INTUITIONISTIC,
                  budget: int = 20000, allow_cut: bool = False) -> ProveResult:
    return prove(Sequent.make((), (f,)), logic, budget, allow_cut)


# -- derivation checking ---------------------------------------------------


@dataclass(frozen=True)
class CheckReport:
    ok: bool
    invalid: Sequent | None = None
    reason: str = ""
    subformula_property: bool = True


_HOLE = Var("_")


def _hole(t: Term) -> Term:
    return _HOLE


def _skeleton(f: Formula) -> Formula:
    """f with every term and bound variable erased, so instantiating a
    quantifier body keeps the skeleton."""
    return f._map(_hole, _skeleton, "_")


def _valid_node(d: Derivation, logic: Logic, allow_cut: bool,
                scan, inst) -> str | None:
    """None when the node is a correct rule instance, else a reason.  A
    quantifier witness is recovered from the premise's terms or is a
    variable fresh for the conclusion; an eigenvariable must not occur free
    in the conclusion: neither in the principal formula nor in the side
    formulas.  scan and inst are the check's memos of _scan and _inst."""
    s = d.conclusion
    g, dd = s.left, s.right
    premises = tuple(p.conclusion for p in d.premises)
    if d.rule == "cut":
        if not allow_cut:
            return "cut node but cut is not admitted"
        if len(premises) != 2:
            return "cut needs two premises"
        if any(a not in g and premises == _cut(g, dd, a)
               for a in premises[1].left):
            return None
        return "premises do not match a cut on any formula"
    if d.rule not in _RULES:
        return f"no rule named {d.rule}"
    side, cls, witness, build = _RULES[d.rule]
    witnesses = [None]
    if witness:
        witnesses = [t for p in premises for t in _terms_in(p, scan)]
        witnesses.append(Var(_fresh_var(s, scan)))
        if witness is _EIGEN:
            taken = set().union(*(f._fv for f in g + dd))
            witnesses = [t for t in witnesses
                         if isinstance(t, Var) and t.name not in taken]
        witnesses = list(dict.fromkeys(witnesses))
    classical = logic is Logic.CLASSICAL
    for f in (g, dd)[side]:
        if isinstance(f, cls) and any(
                premises in build(f, g, dd, classical,
                                  None if t is None else inst(f, t))
                for t in witnesses):
            return None
    return f"no {d.rule} instance matches the premises"


def check_derivation(d: Derivation, logic: Logic = Logic.INTUITIONISTIC,
                     allow_cut: bool = False) -> CheckReport:
    """Validates every node against the rule table and reports whether all
    formulas in the tree are subformula instances of the endsequent.
    Formulas are hash-consed, so each formula's scan, skeleton and each
    quantifier instance is built once per check."""
    scan, inst, skeleton = map(functools.cache, (_scan, _inst, _skeleton))
    skeletons = {skeleton(sub) for f in d.conclusion.left + d.conclusion.right
                 for sub in subformulas(f)}
    sub_ok = True
    stack = [d]
    while stack:
        node = stack.pop()
        reason = _valid_node(node, logic, allow_cut, scan, inst)
        if reason is not None:
            return CheckReport(False, node.conclusion, reason, sub_ok)
        sides = node.conclusion.left + node.conclusion.right
        sub_ok = sub_ok and all(skeleton(f) in skeletons for f in sides)
        stack.extend(node.premises)
    return CheckReport(True, None, "", sub_ok)


# -- class-variable elimination --------------------------------------------


class ClassEliminationError(ValueError):
    pass


def _comprehension_shape(f: Formula):
    """Recognizes ∀x((x∈X → φ) ∧ (φ → x∈X)), returning (X, x, φ)."""
    match f:
        case All(v, And(Imp(ClassMem(Var(v1), cls), phi),
                        Imp(phi2, ClassMem(Var(v2), cls2)))) \
                if v1 == v and v2 == v and cls2 == cls and alpha_eq(phi, phi2):
            return cls, v, phi
    return None


def _replace_classes(f: Formula, defs: dict[str, tuple[str, Formula]]):
    """f with each atom ``t in C`` replaced by C's defining body with t for
    its variable.  A binder is renamed when it would capture a parameter of
    a class that occurs in its scope."""
    params = {cls: body._fv - {var} for cls, (var, body) in defs.items()}

    def go(g: Formula) -> Formula:
        if isinstance(g, ClassMem):
            var, body = defs[g.cls]
            return substitute(body, var, g.element)
        if isinstance(g, QUANTIFIERS):
            scope = class_ids(g.body)
            if any(g.var in params[cls] for cls in scope):
                g = _rename_binder(g, frozenset().union(
                    *(params[cls] | {defs[cls][0]} for cls in scope)))
        return g._map(_same, go)

    try:
        return go(f)
    finally:
        del go  # as in formula.substitute


def eliminate_classes(axioms: list[Formula],
                      goal: Formula) -> tuple[list[Formula], Formula]:
    """Rewrites class atoms away.

    Axioms of comprehension shape define their class symbol; its atoms are
    replaced by the defining body everywhere.  Class symbols without a
    definition are replaced by the always-true condition x = x.  Bodies
    that mention a class symbol themselves are rejected.
    """
    defs: dict[str, tuple[str, Formula]] = {}
    for a in axioms:
        shape = _comprehension_shape(a)
        if shape is not None:
            cls, v, phi = shape
            if class_ids(phi):
                raise ClassEliminationError(
                    f"comprehension body for {cls} mentions a class symbol")
            defs.setdefault(cls, (v, phi))
    out = axioms + [goal]
    for cls in sorted(set().union(*map(class_ids, out)) - set(defs)):
        defs[cls] = ("x", Eq(Var("x"), Var("x")))
    out = [_replace_classes(f, defs) for f in out]
    if any(map(class_ids, out)):
        raise ClassEliminationError("class atoms survived elimination")
    return out[:-1], out[-1]
