"""Seeded inputs, the timed unit of work ("item") and its oracle, per workload.

Every workload is built from ``random.Random(seed)`` alone; nothing comes
from ``czfkit.corpus``, so a change to the library's own corpora cannot shift
what is measured.  Items are laid out in a fixed cycle of strata (kind,
topology, size), so any prefix of the pool has the same mix whatever the
seed; the seed picks the concrete formulas, names and relations.  The cycles
are chosen so that the median and the 90th percentile of item times each fall
inside one stratum rather than on the edge between two.

The library is reached through module attributes only (``fm.render``, never
``from czfkit.formula import render``), so that the tracer in ``tracing.py``
sees every call the benchmark makes.

``run(item)`` returns one of the outcomes below.
"""

from __future__ import annotations

import itertools
import random

from czfkit import formula as fm
from czfkit import godel, hf, names, prover, semantics
from czfkit import topology as tp
from czfkit import translate

OK = "ok"
WRONG = "wrong"            # a verdict disagreed with its oracle
UNDECIDED = "undecided"    # a valid prover target ran out of node budget

FORCING_DEPTH = 2
# Universe depth per topology for collection.  On the antichain the depth-2
# universe (3125 names) costs about 4 s per item, so collection uses depth 1.
COLLECTION_DEPTH = {"omega": 2, "chain": 2, "antichain": 1}


def topologies() -> dict:
    """The three topologies on at most two points the workloads range over."""
    return {
        "omega": tp.omega(),
        "chain": tp.from_poset(["a", "b"], [("a", "b")]),
        "antichain": tp.from_poset(["a", "b"], []),
    }


# -- random formulas ----------------------------------------------------------


def _atom(rng: random.Random, scope: list[str], literals: bool) -> fm.Formula:
    terms: list[fm.Term] = [fm.Var(v) for v in scope]
    if literals:
        terms.append(fm.Lit(hf.EMPTY))
    while True:
        left, right = rng.choice(terms), rng.choice(terms)
        if isinstance(left, fm.Var) or isinstance(right, fm.Var):
            break
    return (fm.Eq if rng.random() < 0.5 else fm.Mem)(left, right)


def random_formula(rng: random.Random, scope: list[str], depth: int,
                   quantify: bool, literals: bool) -> fm.Formula:
    """A formula ``depth`` connectives deep along one branch, over ``scope``.

    With ``quantify`` the top step is a bounded quantifier whose bound is a
    variable in scope; bound variables are ``y1``, ``y2``, ... by nesting.
    """
    if depth == 0:
        return _atom(rng, scope, literals)
    if quantify:
        var = f"y{sum(v.startswith('y') for v in scope) + 1}"
        bound = fm.Var(rng.choice(scope))
        body = random_formula(rng, scope + [var], depth - 1,
                              rng.random() < 0.3, literals)
        cls = fm.BoundedAll if rng.random() < 0.5 else fm.BoundedEx
        return cls(var, bound, body)
    kind = rng.choice(["and", "or", "imp", "not"])
    deep = random_formula(rng, scope, depth - 1, rng.random() < 0.4, literals)
    if kind == "not":
        return fm.neg(deep)
    other = random_formula(rng, scope, rng.randrange(depth), False, literals)
    left, right = (deep, other) if rng.random() < 0.5 else (other, deep)
    return {"and": fm.And, "or": fm.Or, "imp": fm.Imp}[kind](left, right)


def formula_with_free(rng: random.Random, free: list[str], depth: int,
                      quantify: bool, literals: bool = True) -> fm.Formula:
    """Draw until the free variables are exactly ``free``."""
    while True:
        f = random_formula(rng, list(free), depth, quantify, literals)
        if fm.free_vars(f) == set(free):
            return f


class Deck:
    """Draws from ``population`` in seeded, shuffled rounds: every
    ``len(population)`` draws hold each member once.  Used for the choices
    that drive an item's cost, so that their mix is the same in every run."""

    def __init__(self, rng: random.Random, population):
        self.rng = rng
        self.population = list(population)
        self.cards: list = []

    def draw(self):
        if not self.cards:
            self.cards = list(self.population)
            self.rng.shuffle(self.cards)
        return self.cards.pop()


# -- oracle: compiler against the comprehension oracle ------------------------


def quantified_atoms(quantifiers, scope: list[str]) -> list[fm.Formula]:
    """Every ``Q y1 in x. atom`` with ``Q`` in ``quantifiers`` and ``x`` in
    ``scope``, whose atom compares two of the terms in ``scope``, ``y1`` and
    ``{}`` (one at least a variable), and whose free variables are exactly
    ``scope``."""
    terms = [fm.Var(v) for v in scope] + [fm.Var("y1"), fm.Lit(hf.EMPTY)]
    out = []
    for quantifier in quantifiers:
        for bound in scope:
            for left, right in itertools.product(terms, repeat=2):
                if not (isinstance(left, fm.Var) or isinstance(right, fm.Var)):
                    continue
                for atom in (fm.Eq, fm.Mem):
                    f = quantifier("y1", fm.Var(bound), atom(left, right))
                    if fm.free_vars(f) == set(scope):
                        out.append(f)
    return out


class Oracle:
    """Bounded formulas compiled by ``godel.compile_bounded`` and evaluated on
    every argument tuple from V_4, each value checked against
    ``semantics.comprehension``.  Item: one formula with all its tuples.

    Items come in cycles of eight: three seeded random formulas, three
    arity-1 existential atoms and two arity-2 quantified atoms.  Random
    formulas cost from 1 ms to 0.4 s with their shape, so the median of a
    pool of mostly random formulas moved by 5 to 10 % (quartile spread over
    ten seeds) with the seed.  The existential atoms (``ex y1 in x1.
    atom``, 16 of them) cost 15 to 21 ms but for one, and hold the median;
    the arity-2 quantified atoms (56) take most of the time and hold the
    90th percentile.  Both are dealt from every such formula (see
    ``quantified_atoms``) rather than drawn, so the pool holds each
    arity-2 atom once, whatever the seed.
    """

    CYCLE = "RMRMRMHH"   # random, middle, heavy
    # (arity, depth, quantified) of the random formulas, drawn in turn.
    RANDOM = [(1, 1, False), (1, 2, True), (2, 1, False), (1, 2, False),
              (1, 1, True), (1, 3, False), (1, 3, True), (1, 2, True)]
    HEAVY = quantified_atoms((fm.BoundedAll, fm.BoundedEx), ["x1", "x2"])
    MIDDLE = quantified_atoms((fm.BoundedEx,), ["x1"])
    POOL = len(HEAVY) * len(CYCLE) // CYCLE.count("H")

    def __init__(self, seed: int):
        rng = random.Random(seed)
        self.args_pool = list(hf.v_stage(4))
        decks = {"H": (2, Deck(rng, self.HEAVY)),
                 "M": (1, Deck(rng, self.MIDDLE))}
        shapes = itertools.cycle(self.RANDOM)
        self.items = []
        for i in range(self.POOL):
            kind = self.CYCLE[i % len(self.CYCLE)]
            if kind in decks:
                arity, deck = decks[kind]
                self.items.append((arity, deck.draw()))
                continue
            arity, depth, quantified = next(shapes)
            free = [f"x{k}" for k in range(1, arity + 1)]
            self.items.append(
                (arity, formula_with_free(rng, free, depth, quantified)))

    def describe(self, item) -> str:
        arity, f = item
        return f"{arity} {fm.render(f)}"

    def run(self, item) -> str:
        arity, f = item
        term = godel.compile_bounded(f, arity)
        for args in itertools.product(self.args_pool, repeat=arity):
            if godel.eval_opterm(term, list(args)) != \
                    semantics.comprehension(f, list(args)):
                return WRONG
        return OK


# -- collection: strong collection witnesses ----------------------------------


class Collection:
    """Pairs (a, r): ``a`` a depth-1 name, ``r`` a relation name over
    ordered-pair names.  The witness for every frame element under the
    totality value must force the relation total both ways.
    Item: one (a, r) pair, with a fresh interpreter."""

    # Chain items take nearly all the time, and their cost follows the
    # number of pairs r weights more than the choice of a.  The pool holds
    # every chain weighting once, so the median (inside the chain items)
    # and the total hardly move with the seed.
    STRATA = ["omega", "chain", "chain", "antichain", "chain", "chain"]
    POOL = 120

    def __init__(self, seed: int):
        rng = random.Random(seed)
        tops = topologies()
        self.universes = {k: names.name_universe(tops[k], depth)
                          for k, depth in COLLECTION_DEPTH.items()}
        shallow = {k: names.name_universe(tops[k], 1).names for k in tops}
        frames = {k: [p for p in tp.frame_elements(t) if p]
                  for k, t in tops.items()}
        # a is a depth-1 name (its one key is the empty name); r gives
        # each pair op(key, y) with y of depth 1 a weight or leaves it
        # out.  Both are dealt, every weighting once per round.
        firsts, decks = {}, {}
        for k in tops:
            firsts[k] = Deck(rng, [n for n in shallow[k]
                                   if any(p for _, p in n.entries)])
            weights = itertools.product([None] + frames[k],
                                        repeat=len(shallow[k]))
            decks[k] = Deck(rng, [w for w in weights if any(w)])
        self.items = []
        for i in range(self.POOL):
            key = self.STRATA[i % len(self.STRATA)]
            t = tops[key]
            a, weights = firsts[key].draw(), decks[key].draw()
            slots = [names.op(x, y, t) for x in a.keys() for y in shallow[key]]
            entries = [(s, w) for s, w in zip(slots, weights) if w]
            self.items.append((key, a, names.make_name(entries)))

    def describe(self, item) -> str:
        key, a, r = item
        return f"{key} {names.serialize_name(a)} {names.serialize_name(r)}"

    def run(self, item) -> str:
        key, a, r = item
        u = self.universes[key]
        t = u.topology
        it = names.Interpreter(u)
        pre = names.collection_value(it, a, r)
        for p in tp.frame_elements(t):
            if not p <= pre:
                continue
            b = names.strong_collection_witness(a, r, p, u, it)
            if not p <= names.collection_value(it, a, r, b):
                return WRONG
        return OK


# -- forcing: the read side of names ------------------------------------------

# Intuitionistic laws; P is a formula over x1 and the bound z.  Each is
# forced with top value in every frame and under every assignment.
LAWS = [
    "~~((ex z. P) | ~(ex z. P))",
    "(ex z. P) -> ~(all z. ~(P))",
    "(all z. P) -> ~(ex z. ~(P))",
    "~~(all z. P) -> (all z. ~~(P))",
    "(ex z. ~(P)) -> ~(all z. P)",
    "(all z. P) -> (ex z. P)",
]
# On the antichain P is one of these atoms.  A law instance over 3125 names
# costs 0.1 to 0.3 s with ``x1 in z``, 0.5 to 0.75 s with ``z = x1`` or
# ``z = z`` and 0.75 to 1 s with ``z in x1`` or ``z in z``.  A 25 s run
# holds about 17 of them, so the atoms come in this fixed cycle, the same
# for every seed, and only the laws are dealt: dealing (law, atom) pairs
# made the run's total move with the seed.
ANTICHAIN_ATOMS = ["x1 in z", "z = x1", "z in x1", "z in z", "z = z"]


def instantiate(law: str, body: fm.Formula) -> fm.Formula:
    return fm.parse(law.replace("P", "(" + fm.render(body) + ")"))


class Forcing:
    """Forcing values under a fresh ``names.Interpreter`` per item, over the
    depth-2 name universes of the 2-chain and the 2-point antichain, plus the
    translation coincidence over the one-token topology.  Kinds:

    - ``law``: an instance of an intuitionistic law; its value must be top;
    - ``check``: a bounded formula under canonical names; its value must be
      top or bottom as ``semantics.satisfies`` says;
    - ``coincide``: ``translate.semantic_coincidence_check`` must hold.
    """

    STRATA = ([("law", "chain")] * 13 + [("law", "antichain")]
              + [("check", "chain"), ("check", "antichain")] * 2
              + [("coincide", "omega")] * 2)
    POOL = 340

    def __init__(self, seed: int):
        rng = random.Random(seed)
        tops = topologies()
        self.universes = {k: names.name_universe(t, FORCING_DEPTH)
                          for k, t in tops.items()}
        omega_samples = names.name_universe(tops["omega"], 1).names
        hf_pool = list(hf.v_stage(4))
        # on the antichain, x1 has four entries, the commonest count
        four = [n for n in self.universes["antichain"].names
                if len(n.entries) == 4]
        chain_deck = Deck(rng, itertools.product(LAWS, [1, 2]))
        # a law's cost grows with the entries of x1, so x1 is dealt too
        chain_names = Deck(rng, self.universes["chain"].names)
        antichain_laws = Deck(rng, LAWS)
        antichain_atoms = itertools.cycle(ANTICHAIN_ATOMS)
        self.items = []
        for i in range(self.POOL):
            kind, key = self.STRATA[i % len(self.STRATA)]
            if kind == "law" and key == "chain":
                law, depth = chain_deck.draw()
                body = formula_with_free(rng, ["x1", "z"], depth, False,
                                         literals=False)
                f = instantiate(law, body)
                env = {"x1": chain_names.draw()}
            elif kind == "law":
                law, atom = antichain_laws.draw(), next(antichain_atoms)
                f = instantiate(law, fm.parse(atom))
                env = {"x1": rng.choice(four)}
            elif kind == "check":
                f = formula_with_free(rng, ["x1", "x2"], rng.randrange(1, 4),
                                      rng.random() < 0.6)
                env = {"x1": rng.choice(hf_pool), "x2": rng.choice(hf_pool)}
            else:
                f = formula_with_free(rng, ["x1", "x2"], rng.randrange(1, 3),
                                      rng.random() < 0.6)
                if rng.random() < 0.5:
                    f = (fm.Ex if rng.random() < 0.5 else fm.All)("z", f)
                env = {v: rng.choice(omega_samples)
                       for v in sorted(fm.free_vars(f))}
            self.items.append((kind, key, f, env))

    def describe(self, item) -> str:
        kind, key, f, env = item
        shown = " ".join(
            f"{v}={x.serialize()}" if isinstance(x, hf.HFSet)
            else f"{v}={names.serialize_name(x)}"
            for v, x in sorted(env.items()))
        return f"{kind} {key} {fm.render(f)} {shown}"

    def run(self, item) -> str:
        kind, key, f, env = item
        u = self.universes[key]
        t = u.topology
        if kind == "coincide":
            ok = translate.semantic_coincidence_check(f, env, u)
        elif kind == "law":
            ok = names.Interpreter(u).value(f, env) == tp.top(t)
        else:
            canonical = {v: names.check_name(x, t) for v, x in env.items()}
            want = tp.top(t) if semantics.satisfies(hf.EMPTY, f, env) \
                else tp.bottom(t)
            ok = names.Interpreter(u).value(f, canonical) == want
        return OK if ok else WRONG


# -- prover: Glivenko triples and quantifier-prefix implications --------------

ATOMS = ["a = a", "b = b", "c = c", "d = d"]

# Sentences over the one binary atom x in y, by quantifier prefix.
PREFIX = {
    "AA": "all x. all y. x in y",
    "EA": "ex x. all y. x in y",
    "AE": "all y. ex x. x in y",
    "EAr": "ex y. all x. x in y",
    "AEr": "all x. ex y. x in y",
    "EE": "ex x. ex y. x in y",
}
# Valid implications (A -> B) over nonempty domains, labelled by hand; the
# same hold intuitionistically.  Every other ordered pair is invalid.
VALID = {("AA", b) for b in PREFIX} | {
    ("EA", "EA"), ("EA", "AE"), ("EA", "EE"),
    ("EAr", "EAr"), ("EAr", "AEr"), ("EAr", "EE"),
    ("AE", "AE"), ("AE", "EE"), ("AEr", "AEr"), ("AEr", "EE"),
    ("EE", "EE"),
}
# Node budgets, part of the workload's definition.
FO_BUDGET = 64
PROP_BUDGET = 200


def truth(f: fm.Formula, val: dict[str, bool]) -> bool:
    match f:
        case fm.Falsum():
            return False
        case fm.Eq():
            return val[f.left.name]
        case fm.And(l, r):
            return truth(l, val) and truth(r, val)
        case fm.Or(l, r):
            return truth(l, val) or truth(r, val)
        case fm.Imp(l, r):
            return (not truth(l, val)) or truth(r, val)
    raise TypeError(f"not propositional: {f!r}")


def random_prop(rng: random.Random, atoms: list[fm.Formula],
                depth: int) -> fm.Formula:
    if depth == 0:
        return rng.choice(atoms + [fm.Falsum()] if rng.random() < 0.1
                          else atoms)
    kind = rng.choice(["and", "or", "imp", "imp", "not"])
    deep = random_prop(rng, atoms, depth - 1)
    if kind == "not":
        return fm.neg(deep)
    other = random_prop(rng, atoms, rng.randrange(depth))
    left, right = (deep, other) if rng.random() < 0.5 else (other, deep)
    return {"and": fm.And, "or": fm.Or, "imp": fm.Imp}[kind](left, right)


class Prover:
    """Two propositional items per first-order item.

    - ``prop``: a batch of ``BATCH`` seeded formulas, tautologies and
      non-tautologies in turn, each as the Glivenko triple (classical f,
      intuitionistic ~~f, intuitionistic dn_translate(f)) against the truth
      table, with node budget ``PROP_BUDGET``.  One triple either ends at
      once or runs to the budget, so single triples make a two-humped
      distribution whose median jumps between the humps from seed to seed;
      a batch has one hump;
    - ``fo``: a quantifier-prefix implication under both logics with node
      budget ``FO_BUDGET``.
    A valid target must be proved and an invalid one must not be; a valid
    target that runs out of budget is ``UNDECIDED``.  Every proof found is
    re-checked by ``prover.check_derivation``.
    """

    STRATA = ["prop", "fo", "prop"]
    BATCH = 4
    # two rounds, each dealing every ordered pair of prefixes once
    POOL = 2 * len(STRATA) * len(PREFIX) ** 2

    def __init__(self, seed: int):
        rng = random.Random(seed)
        pairs = Deck(rng, sorted(itertools.product(PREFIX, repeat=2)))
        shapes = {t: Deck(rng, itertools.product([3, 4], [2, 3]))
                  for t in (True, False)}
        self.items = []
        for i in range(self.POOL):
            if self.STRATA[i % len(self.STRATA)] == "fo":
                a, b = pairs.draw()
                f = fm.parse(f"({PREFIX[a]}) -> ({PREFIX[b]})")
                self.items.append(("fo", [(f, (a, b) in VALID)]))
                continue
            batch = []
            for k in range(self.BATCH):
                tautology = k % 2 == 0
                n, depth = shapes[tautology].draw()
                atoms = [fm.parse(x) for x in ATOMS[:n]]
                while True:
                    f = random_prop(rng, atoms, depth)
                    if tautology == all(
                            truth(f, dict(zip("abcd", bits)))
                            for bits in itertools.product([True, False],
                                                          repeat=n)):
                        break
                batch.append((f, tautology))
            self.items.append(("prop", batch))

    def describe(self, item) -> str:
        kind, targets = item
        return kind + " " + " ; ".join(f"{int(valid)} {fm.render(f)}"
                                       for f, valid in targets)

    @staticmethod
    def _verdict(f: fm.Formula, logic: prover.Logic, budget: int,
                 valid: bool) -> str:
        r = prover.prove_formula(f, logic, budget=budget)
        if r.outcome is prover.Outcome.PROVED:
            sound = prover.check_derivation(r.derivation, logic).ok
            return OK if valid and sound else WRONG
        if not valid:
            return OK
        if r.outcome is prover.Outcome.BUDGET_EXCEEDED:
            return UNDECIDED
        return WRONG

    def run(self, item) -> str:
        kind, formulas = item
        targets = []
        for f, valid in formulas:
            if kind == "fo":
                targets += [(f, logic, FO_BUDGET, valid)
                            for logic in prover.Logic]
            else:
                targets += [
                    (f, prover.Logic.CLASSICAL, PROP_BUDGET, valid),
                    (fm.neg(fm.neg(f)), prover.Logic.INTUITIONISTIC,
                     PROP_BUDGET, valid),
                    (translate.dn_translate(f), prover.Logic.INTUITIONISTIC,
                     PROP_BUDGET, valid)]
        verdicts = [self._verdict(*target) for target in targets]
        for outcome in (WRONG, UNDECIDED):
            if outcome in verdicts:
                return outcome
        return OK


WORKLOADS = {"oracle": Oracle, "collection": Collection,
             "forcing": Forcing, "prover": Prover}


def smoke() -> None:
    """One known-answer call into each layer.

    Every workload's set-up runs it first, so that it fails fast when the
    library is missing or broken.
    """
    x = hf.von_neumann(2)
    f = fm.parse("x1 in x2")
    term = godel.compile_bounded(f, 2)
    args = [hf.von_neumann(1), x]
    want = hf.hfset(hf.kpair(hf.von_neumann(1), hf.EMPTY))  # {<x2, x1>}
    omega = tp.omega()
    u = names.name_universe(omega, 1)
    it = names.Interpreter(u)
    one = names.check_name(hf.von_neumann(1), omega)
    g = fm.parse("a = a | ~(a = a)")
    proof = prover.prove_formula(g, prover.Logic.CLASSICAL)
    checks = [
        godel.eval_opterm(term, args) == want,
        semantics.comprehension(f, args) == want,
        it.eq(one, one) == tp.top(omega),
        it.mem(names.EMPTY_NAME, one) == tp.top(omega),
        translate.semantic_coincidence_check(g, {"a": one}, u),
        fm.render(translate.dn_translate(g))
        == "~(~(~(~(a = a)) | ~(~(~(a = a)))))",
        proof.outcome is prover.Outcome.PROVED,
        prover.check_derivation(proof.derivation, prover.Logic.CLASSICAL).ok,
    ]
    if not all(checks):
        raise RuntimeError(f"known-answer check failed: {checks}")
