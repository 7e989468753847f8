"""Backward proof search for a finitary multi-succedent sequent calculus.

The intuitionistic calculus is contraction-free with shared contexts; the
right rules for implication and the universal quantifier discard the rest
of the succedent, and the left implication rule repeats its principal
formula in the first premise, which is what makes double negations of
classical tautologies reachable.  The classical calculus keeps the full
succedent everywhere and needs no repetition.  Search is budget-bounded
with memoized failures and an ancestor check against looping, so the
outcome distinguishes refutation within the search space from running out
of budget.  Bounded quantifiers are expanded to guarded unbounded ones on
entry.  Finite conjunctions and disjunctions are handled natively.
"""

from __future__ import annotations

import enum
import itertools
import sys
from dataclasses import dataclass

from .formula import (
    QUANTIFIERS, All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq,
    Ex, Falsum, Formula, Imp, Lit, Mem, Or, Term, Var, _checked,
    _rename_binder, _text, class_ids, free_vars, render, subformulas,
    substitute,
)


class Logic(enum.Enum):
    INTUITIONISTIC = "intuitionistic"
    CLASSICAL = "classical"


class Outcome(enum.Enum):
    PROVED = "proved"
    NOT_PROVABLE = "not-provable"
    BUDGET_EXCEEDED = "budget-exceeded"


@dataclass(frozen=True)
class Sequent:
    """Antecedent and succedent, kept sorted and duplicate-free.

    Contraction is admissible in this calculus, so collapsing duplicates
    loses no provability and keeps the search space finite for the
    propositional fragment."""
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
        return "\n".join(lines) if indent else "\n".join(lines)


@dataclass(frozen=True)
class ProveResult:
    """The outcome of a search and what it cost.  ``expanded`` counts the
    sequents expanded; ``limit`` is ``"nodes"`` when the node budget ran
    out, else ``"depth"`` when a branch reached ``_Search.MAX_DEPTH``, else
    None; ``loop_hits`` counts sequents refused because an ancestor was the
    same sequent, and ``memo_hits`` those refused as already failed."""
    outcome: Outcome
    derivation: Derivation | None = None
    expanded: int = 0
    limit: str | None = None
    loop_hits: int = 0
    memo_hits: int = 0


def desugar(f: Formula) -> Formula:
    """Bounded quantifiers become guarded unbounded quantifiers; a binder
    that occurs in its own bound is renamed first, so the guard does not
    capture it."""
    if isinstance(f, (BoundedAll, BoundedEx)):
        if f.var in f.bound._fv:
            f = _rename_binder(f, f.bound._fv)
        guard = Mem(Var(f.var), f.bound)
        if isinstance(f, BoundedAll):
            return All(f.var, Imp(guard, desugar(f.body)))
        return Ex(f.var, And(guard, desugar(f.body)))
    return _checked(f)._rebuild([desugar(c) for c in f._subs()])


def _is_atom(f: Formula) -> bool:
    return isinstance(f, (Eq, Mem, ClassMem))


def _minus(pool: tuple[Formula, ...], f: Formula) -> tuple[Formula, ...]:
    out = list(pool)
    out.remove(f)
    return tuple(out)


def _terms_in(s: Sequent) -> list[Term]:
    names: set[str] = set()
    lits: dict[str, Lit] = {}
    for f in s.left + s.right:
        names |= f._fv
        # a literal is a side of an atom or the bound of a quantifier
        for g in subformulas(f):
            for attr in g.__match_args__:
                t = getattr(g, attr)
                if isinstance(t, Lit):
                    lits.setdefault(str(t.value), t)
    terms: list[Term] = [Var(n) for n in sorted(names)]
    terms.extend(lits[k] for k in sorted(lits))
    if not terms:
        terms.append(Var("v1"))
    return terms


def _fresh_var(s: Sequent) -> str:
    used: set[str] = set()
    for f in s.left + s.right:
        used |= f._fv
        used.update(g.var for g in subformulas(f)
                    if isinstance(g, QUANTIFIERS))
    i = 1
    while f"v{i}" in used:
        i += 1
    return f"v{i}"


class _Search:
    MAX_DEPTH = 250

    def __init__(self, logic: Logic, budget: int, allow_cut: bool):
        self.logic = logic
        self.budget = budget
        self.allow_cut = allow_cut
        self.expanded = 0
        self.failed: set[Sequent] = set()
        self.limit: str | None = None
        self.loop_hits = 0
        self.memo_hits = 0

    def _moves(self, s: Sequent):
        """Yields (rule, premises) backward moves, most constrained first."""
        classical = self.logic is Logic.CLASSICAL
        g, d = s.left, s.right
        # non-branching invertible rules
        for f in g:
            if isinstance(f, And):
                yield ("L-and", [Sequent.make(_minus(g, f) + (f.left, f.right), d)])
                return
        for f in d:
            if isinstance(f, Or):
                yield ("R-or", [Sequent.make(g, _minus(d, f) + (f.left, f.right))])
                return
        for f in g:
            if isinstance(f, Ex):
                fresh = _fresh_var(s)
                body = substitute(f.body, f.var, Var(fresh))
                yield ("L-ex", [Sequent.make(_minus(g, f) + (body,), d)])
                return
        for f in g:
            if isinstance(f, BigOr):
                yield ("L-bigor", [Sequent.make(_minus(g, f) + (p,), d)
                                   for p in f.parts])
                return
        # branching invertible rules
        for f in g:
            if isinstance(f, Or):
                yield ("L-or", [Sequent.make(_minus(g, f) + (f.left,), d),
                                Sequent.make(_minus(g, f) + (f.right,), d)])
                return
        for f in d:
            if isinstance(f, And):
                yield ("R-and", [Sequent.make(g, _minus(d, f) + (f.left,)),
                                 Sequent.make(g, _minus(d, f) + (f.right,))])
                return
        if classical:
            for f in d:
                if isinstance(f, BigAnd):
                    yield ("R-bigand", [Sequent.make(g, _minus(d, f) + (p,))
                                        for p in f.parts])
                    return
        # choice rules; all alternatives offered
        for f in d:
            if isinstance(f, Imp):
                if classical:
                    yield ("R-imp", [Sequent.make(g + (f.left,),
                                                  _minus(d, f) + (f.right,))])
                else:
                    yield ("R-imp", [Sequent.make(g + (f.left,), (f.right,))])
        for f in g:
            if isinstance(f, Imp):
                if classical:
                    yield ("L-imp", [Sequent.make(_minus(g, f), d + (f.left,)),
                                     Sequent.make(_minus(g, f) + (f.right,), d)])
                else:
                    yield ("L-imp", [Sequent.make(g, d + (f.left,)),
                                     Sequent.make(_minus(g, f) + (f.right,), d)])
        for f in d:
            if isinstance(f, All):
                fresh = _fresh_var(s)
                body = substitute(f.body, f.var, Var(fresh))
                if classical:
                    yield ("R-all", [Sequent.make(g, _minus(d, f) + (body,))])
                else:
                    yield ("R-all", [Sequent.make(g, (body,))])
        if not classical:
            for f in d:
                if isinstance(f, BigAnd):
                    yield ("R-bigand", [Sequent.make(g, (p,))
                                        for p in f.parts])
        for f in g:
            if isinstance(f, BigAnd):
                for p in f.parts:
                    if p not in g:
                        yield ("L-bigand", [Sequent.make(g + (p,), d)])
        for f in d:
            if isinstance(f, BigOr):
                for p in f.parts:
                    if p not in d:
                        yield ("R-bigor", [Sequent.make(g, d + (p,))])
        # instances need the sequent's terms, which only these rules use
        if any(isinstance(f, Ex) for f in d) \
                or any(isinstance(f, All) for f in g):
            terms = _terms_in(s)
            for f in d:
                if isinstance(f, Ex):
                    for t in terms:
                        inst = substitute(f.body, f.var, t)
                        if inst not in d:
                            yield ("R-ex", [Sequent.make(g, d + (inst,))])
            for f in g:
                if isinstance(f, All):
                    for t in terms:
                        inst = substitute(f.body, f.var, t)
                        if inst not in g:
                            yield ("L-all", [Sequent.make(g + (inst,), d)])
        if self.allow_cut:
            for f in itertools.chain(g, d):
                for sub in subformulas(f):
                    if sub not in g and sub not in d:
                        yield ("cut", [Sequent.make(g, d + (sub,)),
                                       Sequent.make(g + (sub,), d)])

    def prove(self, s: Sequent, ancestors: frozenset[Sequent]) -> Derivation | None:
        if any(_is_atom(f) and f in s.right for f in s.left):
            return Derivation("init", s)
        if any(isinstance(f, Falsum) for f in s.left):
            return Derivation("L-false", s)
        if s in self.failed:
            self.memo_hits += 1
            return None
        if s in ancestors:
            self.loop_hits += 1
            return None
        if self.expanded >= self.budget:
            self.limit = "nodes"
            return None
        if len(ancestors) >= self.MAX_DEPTH:
            self.limit = self.limit or "depth"
            return None
        self.expanded += 1
        ancestors = ancestors | {s}
        loops_before = self.loop_hits
        for rule, premises in self._moves(s):
            subs = []
            ok = True
            for p in premises:
                d = self.prove(p, ancestors)
                if d is None:
                    ok = False
                    break
                subs.append(d)
            if ok:
                return Derivation(rule, s, tuple(subs))
        # a failure that never tripped the ancestor check or the budget is
        # context-independent and safe to memoize
        if self.loop_hits == loops_before and self.limit is None:
            self.failed.add(s)
        return None


def prove(s: Sequent, logic: Logic = Logic.INTUITIONISTIC,
          budget: int = 20000, allow_cut: bool = False) -> ProveResult:
    """Backward search from the endsequent.  The search recurses once per
    rule applied, so the recursion limit is raised for its duration only."""
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(max(limit, 10000))
    try:
        s = Sequent.make([desugar(f) for f in s.left],
                         [desugar(f) for f in s.right])
        search = _Search(logic, budget, allow_cut)
        d = search.prove(s, frozenset())
    finally:
        sys.setrecursionlimit(limit)
    if d is not None:
        outcome = Outcome.PROVED
    elif search.limit is not None:
        outcome = Outcome.BUDGET_EXCEEDED
    else:
        outcome = Outcome.NOT_PROVABLE
    return ProveResult(outcome, d, search.expanded, search.limit,
                       search.loop_hits, search.memo_hits)


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


def _skeleton(f: Formula) -> Formula:
    """f with every term and bound variable erased, so instantiating a
    quantifier body keeps the skeleton."""
    if isinstance(f, (Eq, Mem)):
        return type(f)(_HOLE, _HOLE)
    if isinstance(f, ClassMem):
        return ClassMem(_HOLE, f.cls)
    if isinstance(f, (BoundedAll, BoundedEx)):
        return type(f)("_", _HOLE, _skeleton(f.body))
    if isinstance(f, (All, Ex)):
        return type(f)("_", _skeleton(f.body))
    return f._rebuild([_skeleton(c) for c in f._subs()])


def _node_instances(s: Sequent, logic: Logic):
    """All rule instances applicable at s, exhaustively; for validation, not
    search, so no pruning or ordering."""
    classical = logic is Logic.CLASSICAL
    g, d = s.left, s.right
    for f in g:
        if _is_atom(f) and f in d:
            yield ("init", [])
        if isinstance(f, Falsum):
            yield ("L-false", [])
        if isinstance(f, And):
            yield ("L-and", [Sequent.make(_minus(g, f) + (f.left, f.right), d)])
        if isinstance(f, Or):
            yield ("L-or", [Sequent.make(_minus(g, f) + (f.left,), d),
                            Sequent.make(_minus(g, f) + (f.right,), d)])
        if isinstance(f, Imp):
            if classical:
                yield ("L-imp", [Sequent.make(_minus(g, f), d + (f.left,)),
                                 Sequent.make(_minus(g, f) + (f.right,), d)])
            else:
                yield ("L-imp", [Sequent.make(g, d + (f.left,)),
                                 Sequent.make(_minus(g, f) + (f.right,), d)])
        if isinstance(f, BigAnd):
            for p in f.parts:
                yield ("L-bigand", [Sequent.make(g + (p,), d)])
        if isinstance(f, BigOr):
            yield ("L-bigor", [Sequent.make(_minus(g, f) + (p,), d)
                               for p in f.parts])
        if isinstance(f, Ex):
            yield ("L-ex", [None, ("ex", f, _minus(g, f), d)])
        if isinstance(f, All):
            yield ("L-all", [None, ("all-inst", f, g, d)])
    for f in d:
        if isinstance(f, And):
            yield ("R-and", [Sequent.make(g, _minus(d, f) + (f.left,)),
                             Sequent.make(g, _minus(d, f) + (f.right,))])
        if isinstance(f, Or):
            yield ("R-or", [Sequent.make(g, _minus(d, f) + (f.left, f.right))])
        if isinstance(f, Imp):
            if classical:
                yield ("R-imp", [Sequent.make(g + (f.left,),
                                              _minus(d, f) + (f.right,))])
            else:
                yield ("R-imp", [Sequent.make(g + (f.left,), (f.right,))])
        if isinstance(f, BigAnd):
            if classical:
                yield ("R-bigand", [Sequent.make(g, _minus(d, f) + (p,))
                                    for p in f.parts])
            else:
                yield ("R-bigand", [Sequent.make(g, (p,)) for p in f.parts])
        if isinstance(f, BigOr):
            for p in f.parts:
                yield ("R-bigor", [Sequent.make(g, d + (p,))])
        if isinstance(f, Ex):
            yield ("R-ex", [None, ("ex-inst", f, g, d)])
        if isinstance(f, All):
            if classical:
                yield ("R-all", [None, ("all", f, g, _minus(d, f))])
            else:
                yield ("R-all", [None, ("all", f, g, ())])


def _matches_eigen(kind, f, g, d, premise: Sequent, logic: Logic) -> bool:
    """Quantifier instances need a witnessing term or eigenvariable; recover
    it from the premise by trying every candidate.  An eigenvariable must
    not occur free in the conclusion: neither in the principal formula nor
    in the side formulas."""
    candidates = _terms_in(premise) + [Var(f"v{v}") for v in range(1, 40)]
    conclusion_vars = set().union(*map(free_vars, (f,) + g + d))
    seen = set()
    for t in candidates:
        body = substitute(f.body, f.var, t)
        if body in seen:
            continue
        seen.add(body)
        if kind == "ex":  # L-ex: fresh variable, principal removed
            if not isinstance(t, Var):
                continue
            if t.name in conclusion_vars:
                continue
            if premise == Sequent.make(g + (body,), d):
                return True
        elif kind == "all":  # R-all: fresh variable
            if not isinstance(t, Var):
                continue
            if t.name in conclusion_vars:
                continue
            if logic is Logic.CLASSICAL:
                if premise == Sequent.make(g, d + (body,)):
                    return True
            else:
                if premise == Sequent.make(g, (body,)):
                    return True
        elif kind == "all-inst":  # L-all: any term, principal kept
            if premise == Sequent.make(g + (body,), d):
                return True
        elif kind == "ex-inst":  # R-ex: any term, principal kept
            if premise == Sequent.make(g, d + (body,)):
                return True
    return False


def _valid_node(d: Derivation, logic: Logic, allow_cut: bool) -> str | None:
    """None when the node is a correct rule instance, else a reason."""
    s = d.conclusion
    premise_seqs = [p.conclusion for p in d.premises]
    if d.rule == "cut":
        if not allow_cut:
            return "cut node but cut is not admitted"
        if len(premise_seqs) != 2:
            return "cut needs two premises"
        l, r = premise_seqs
        for a in r.left:
            if a not in s.left:
                if l == Sequent.make(s.left, s.right + (a,)) \
                        and r == Sequent.make(s.left + (a,), s.right):
                    return None
        return "premises do not match a cut on any formula"
    for rule, shape in _node_instances(s, logic):
        if rule != d.rule:
            continue
        if shape and shape[0] is None:
            kind, f, g, dd = shape[1]
            if len(premise_seqs) == 1 and _matches_eigen(
                    kind, f, g, dd, premise_seqs[0], logic):
                return None
            continue
        if [p for p in premise_seqs] == shape:
            return None
    return f"no {d.rule} instance matches the premises"


def check_derivation(d: Derivation, logic: Logic = Logic.INTUITIONISTIC,
                     allow_cut: bool = False) -> CheckReport:
    """Validates every node against the rule table and reports whether all
    formulas in the tree are subformula instances of the endsequent."""
    skeletons = {_skeleton(sub) for f in d.conclusion.left + d.conclusion.right
                 for sub in subformulas(f)}
    sub_ok = True
    looked_up: set[Formula] = set()  # formulas are hash-consed
    stack = [d]
    while stack:
        node = stack.pop()
        reason = _valid_node(node, logic, allow_cut)
        if reason is not None:
            return CheckReport(False, node.conclusion, reason, sub_ok)
        for f in node.conclusion.left + node.conclusion.right:
            if f not in looked_up:
                looked_up.add(f)
                if _skeleton(f) not in skeletons:
                    sub_ok = False
        stack.extend(node.premises)
    return CheckReport(True, None, "", sub_ok)


# -- class-variable elimination --------------------------------------------


class ClassEliminationError(ValueError):
    pass


def _comprehension_shape(f: Formula):
    """Recognizes ∀x((x∈X → φ) ∧ (φ → x∈X)), returning (X, x, φ)."""
    from .formula import alpha_eq
    match f:
        case All(v, And(Imp(ClassMem(Var(v1), cls), phi),
                        Imp(phi2, ClassMem(Var(v2), cls2)))) \
                if v1 == v and v2 == v and cls2 == cls and alpha_eq(phi, phi2):
            return cls, v, phi
    return None


def _replace_class(f: Formula, cls: str, var: str, body: Formula) -> Formula:
    """f with each atom ``t in cls`` replaced by body with t for var.  A
    binder is renamed when it would capture a parameter of body that
    replaces an atom in its scope."""
    params = body._fv - {var}

    def go(g: Formula) -> Formula:
        if isinstance(g, ClassMem) and g.cls == cls:
            return substitute(body, var, g.element)
        if isinstance(g, QUANTIFIERS) and g.var in params \
                and cls in class_ids(g.body):
            g = _rename_binder(g, params | {var})
        return g._rebuild([go(c) for c in g._subs()])

    return go(f)


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
    for cls, (v, phi) in defs.items():
        out = [_replace_class(f, cls, v, phi) for f in out]
    if any(map(class_ids, out)):
        raise ClassEliminationError("class atoms survived elimination")
    return out[:-1], out[-1]
