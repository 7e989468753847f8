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
from dataclasses import dataclass, field

from .formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq, Ex, Falsum,
    Formula, Imp, Lit, Mem, Or, Term, Var, _fresh, class_ids, free_vars,
    render, substitute,
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
        def dedup(fs):
            seen = {}
            for f in fs:
                seen.setdefault(render(f), f)
            return tuple(seen[k] for k in sorted(seen))
        return Sequent(dedup(left), dedup(right))

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
    outcome: Outcome
    derivation: Derivation | None = None
    expanded: int = 0


def desugar(f: Formula) -> Formula:
    """Bounded quantifiers become guarded unbounded quantifiers."""
    match f:
        case Falsum() | Eq() | Mem() | ClassMem():
            return f
        case And(l, r):
            return And(desugar(l), desugar(r))
        case Or(l, r):
            return Or(desugar(l), desugar(r))
        case Imp(l, r):
            return Imp(desugar(l), desugar(r))
        case BigAnd(parts):
            return BigAnd(tuple(desugar(p) for p in parts))
        case BigOr(parts):
            return BigOr(tuple(desugar(p) for p in parts))
        case BoundedAll(v, b, body):
            return All(v, Imp(Mem(Var(v), b), desugar(body)))
        case BoundedEx(v, b, body):
            return Ex(v, And(Mem(Var(v), b), desugar(body)))
        case All(v, body):
            return All(v, desugar(body))
        case Ex(v, body):
            return Ex(v, desugar(body))
    raise TypeError(f"not a formula: {f!r}")


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
        names |= free_vars(f)
        for g in _walk(f):
            for t in _atom_terms(g):
                if isinstance(t, Lit):
                    lits.setdefault(str(t.value), t)
    terms: list[Term] = [Var(n) for n in sorted(names)]
    terms.extend(lits[k] for k in sorted(lits))
    if not terms:
        terms.append(Var("v1"))
    return terms


def _walk(f: Formula):
    yield f
    match f:
        case And(l, r) | Or(l, r) | Imp(l, r):
            yield from _walk(l)
            yield from _walk(r)
        case BigAnd(parts) | BigOr(parts):
            for p in parts:
                yield from _walk(p)
        case BoundedAll(_, _, body) | BoundedEx(_, _, body) \
                | All(_, body) | Ex(_, body):
            yield from _walk(body)


def _atom_terms(f: Formula):
    match f:
        case Eq(l, r) | Mem(l, r):
            return [l, r]
        case ClassMem(t, _):
            return [t]
        case BoundedAll(_, b, _) | BoundedEx(_, b, _):
            return [b]
    return []


def _fresh_var(s: Sequent) -> str:
    used: set[str] = set()
    for f in s.left + s.right:
        used |= free_vars(f)
        for g in _walk(f):
            match g:
                case BoundedAll(v, _, _) | BoundedEx(v, _, _) \
                        | All(v, _) | Ex(v, _):
                    used.add(v)
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
        self.hit_budget = False
        self.loop_hits = 0

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
                for sub in _walk(f):
                    if sub not in g and sub not in d:
                        yield ("cut", [Sequent.make(g, d + (sub,)),
                                       Sequent.make(g + (sub,), d)])

    def prove(self, s: Sequent, ancestors: frozenset[Sequent]) -> Derivation | None:
        if any(_is_atom(f) and f in s.right for f in s.left):
            return Derivation("init", s)
        if any(isinstance(f, Falsum) for f in s.left):
            return Derivation("L-false", s)
        if s in self.failed:
            return None
        if s in ancestors:
            self.loop_hits += 1
            return None
        if self.expanded >= self.budget or len(ancestors) >= self.MAX_DEPTH:
            self.hit_budget = True
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
        if self.loop_hits == loops_before and not self.hit_budget:
            self.failed.add(s)
        return None


def prove(s: Sequent, logic: Logic = Logic.INTUITIONISTIC,
          budget: int = 20000, allow_cut: bool = False) -> ProveResult:
    """Backward search from the endsequent."""
    import sys
    if sys.getrecursionlimit() < 10000:
        sys.setrecursionlimit(10000)
    s = Sequent.make([desugar(f) for f in s.left],
                     [desugar(f) for f in s.right])
    search = _Search(logic, budget, allow_cut)
    d = search.prove(s, frozenset())
    if d is not None:
        return ProveResult(Outcome.PROVED, d, search.expanded)
    if search.hit_budget:
        return ProveResult(Outcome.BUDGET_EXCEEDED, None, search.expanded)
    return ProveResult(Outcome.NOT_PROVABLE, None, search.expanded)


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


def _skeleton(f: Formula, depth: int = 0, ren: dict | None = None) -> str:
    """Shape of a formula with all terms erased and bound variables
    numbered, so instantiating a quantifier body preserves the skeleton."""
    ren = ren or {}

    def term(t):
        return "*"

    match f:
        case Falsum():
            return "false"
        case Eq(l, r):
            return f"eq({term(l)},{term(r)})"
        case Mem(l, r):
            return f"mem({term(l)},{term(r)})"
        case ClassMem(t, cls):
            return f"cls({term(t)},{cls})"
        case And(l, r):
            return f"and({_skeleton(l, depth, ren)},{_skeleton(r, depth, ren)})"
        case Or(l, r):
            return f"or({_skeleton(l, depth, ren)},{_skeleton(r, depth, ren)})"
        case Imp(l, r):
            return f"imp({_skeleton(l, depth, ren)},{_skeleton(r, depth, ren)})"
        case BigAnd(parts):
            inner = ",".join(_skeleton(p, depth, ren) for p in parts)
            return f"bigand({inner})"
        case BigOr(parts):
            inner = ",".join(_skeleton(p, depth, ren) for p in parts)
            return f"bigor({inner})"
        case All(v, body):
            return f"all({_skeleton(body, depth + 1, ren)})"
        case Ex(v, body):
            return f"ex({_skeleton(body, depth + 1, ren)})"
        case BoundedAll(v, b, body):
            return f"ball({_skeleton(body, depth + 1, ren)})"
        case BoundedEx(v, b, body):
            return f"bex({_skeleton(body, depth + 1, ren)})"
    raise TypeError(f"not a formula: {f!r}")


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
    candidates: list[Term] = list(_terms_in(premise))
    for v in range(1, 40):
        candidates.append(Var(f"v{v}"))
    conclusion_vars = set().union(*map(free_vars, (f,) + g + d))
    seen = set()
    for t in candidates:
        key = render(substitute(f.body, f.var, t))
        if key in seen:
            continue
        seen.add(key)
        body = substitute(f.body, f.var, t)
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
    skeletons: set[str] = set()
    for f in d.conclusion.left + d.conclusion.right:
        for sub in _walk(f):
            skeletons.add(_skeleton(sub))
    sub_ok = True
    stack = [d]
    while stack:
        node = stack.pop()
        reason = _valid_node(node, logic, allow_cut)
        if reason is not None:
            return CheckReport(False, node.conclusion, reason, sub_ok)
        for f in node.conclusion.left + node.conclusion.right:
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
    match f:
        case ClassMem(t, c) if c == cls:
            return substitute(body, var, t)
        case Falsum() | Eq() | Mem() | ClassMem():
            return f
        case And(l, r):
            return And(_replace_class(l, cls, var, body),
                       _replace_class(r, cls, var, body))
        case Or(l, r):
            return Or(_replace_class(l, cls, var, body),
                      _replace_class(r, cls, var, body))
        case Imp(l, r):
            return Imp(_replace_class(l, cls, var, body),
                       _replace_class(r, cls, var, body))
        case BigAnd(parts):
            return BigAnd(tuple(_replace_class(p, cls, var, body)
                                for p in parts))
        case BigOr(parts):
            return BigOr(tuple(_replace_class(p, cls, var, body)
                               for p in parts))
        case BoundedAll(v, b, bd) | BoundedEx(v, b, bd):
            v, bd = _avoid_capture(v, bd, cls, var, body)
            return type(f)(v, b, _replace_class(bd, cls, var, body))
        case All(v, bd) | Ex(v, bd):
            v, bd = _avoid_capture(v, bd, cls, var, body)
            return type(f)(v, _replace_class(bd, cls, var, body))
    raise TypeError(f"not a formula: {f!r}")


def _avoid_capture(v: str, bd: Formula, cls: str, var: str,
                   body: Formula) -> tuple[str, Formula]:
    """Renames the binder v of scope bd when it would capture a parameter
    of the class body that replaces the atoms of cls inside bd."""
    params = free_vars(body) - {var}
    if v not in params or cls not in class_ids(bd):
        return v, bd
    nv = _fresh(v, params | free_vars(bd) | {var})
    return nv, substitute(bd, v, Var(nv))


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
    all_cls = set()
    for f in axioms + [goal]:
        all_cls |= class_ids(f)
    undefined = sorted(all_cls - set(defs))
    for cls in undefined:
        x = Var("x")
        defs[cls] = ("x", Eq(x, x))
    out_axioms = []
    for a in axioms:
        for cls, (v, phi) in defs.items():
            a = _replace_class(a, cls, v, phi)
        out_axioms.append(a)
    g = goal
    for cls, (v, phi) in defs.items():
        g = _replace_class(g, cls, v, phi)
    for f in out_axioms + [g]:
        if class_ids(f):
            raise ClassEliminationError("class atoms survived elimination")
    return out_axioms, g
