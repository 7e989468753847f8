"""Finite checkers for regularity-style closure conditions on transitive
sets, elementarity of embeddings, and critical points."""

from __future__ import annotations

import enum
import functools
import itertools
from dataclasses import dataclass, field

from . import corpus, hf, relations
from .formula import Formula, free_vars
from .hf import HFSet
from .semantics import satisfies


class RegularityLevel(enum.Enum):
    REGULAR = "regular"
    BCST = "bcst"
    INACCESSIBLE = "inaccessible-conditions"


@dataclass(frozen=True)
class RegularityReport:
    level: RegularityLevel
    ok: bool
    failures: tuple[str, ...] = ()


def _is_regular(a_set: HFSet, max_count: int) -> str | None:
    """Every multi-valued function from a member into the set has an image
    inside the set.  Returns a description of a counterexample, or None.

    A counterexample relation shrinks to a choice function, and the only
    image a choice function can have is its range; so the check reduces to
    asking that every inhabited subset of the set with at most |a| members
    belongs to the set, for each member a.  A missing subset converts back
    to an explicit relation by cycling its elements over a.
    """
    members = list(a_set)
    sizes = sorted({len(a) for a in a_set if a})
    if not sizes:
        return None
    largest = sizes[-1]
    for r in range(1, min(largest, len(members)) + 1):
        for combo in itertools.combinations(members, r):
            s = hf.hfset(*combo)
            if s in a_set:
                continue
            for a in a_set:
                if len(a) >= r:
                    xs = list(a)
                    ran = list(s)
                    pairs = HFSet(hf.kpair(xs[i], ran[i % len(ran)])
                                  for i in range(len(xs)))
                    return f"no image in the set for a={a} R={pairs}"
    return None


def check_regular(a_set: HFSet, level: RegularityLevel,
                  max_count: int = 65536) -> RegularityReport:
    """Closure checks on a transitive hereditarily finite set.

    regular: images of multi-valued functions from members exist inside.
    bcst: regular plus closure under empty set, pairing, union and binary
    intersection.
    inaccessible-conditions: regular plus the clauses omega inside, union
    and inhabited-intersection closure, and a fullness witness for every
    pair of members; the omega clause cannot hold at hereditarily finite
    scale and is reported as such.
    """
    if not a_set.is_transitive():
        raise ValueError("regularity checks require a transitive set")
    failures: list[str] = []
    counterexample = _is_regular(a_set, max_count)
    if counterexample is not None:
        failures.append(f"regularity: {counterexample}")
    if level is RegularityLevel.BCST:
        if hf.EMPTY not in a_set:
            failures.append("bcst: empty set missing")
        for a, b in itertools.product(a_set, repeat=2):
            if hf.hfset(a, b) not in a_set:
                failures.append(f"bcst: pair of {a} and {b} missing")
                break
        for a in a_set:
            if hf.union(a) not in a_set:
                failures.append(f"bcst: union of {a} missing")
                break
        for a, b in itertools.product(a_set, repeat=2):
            if hf.intersection(a, b) not in a_set:
                failures.append(f"bcst: intersection of {a} and {b} missing")
                break
    if level is RegularityLevel.INACCESSIBLE:
        failures.append(
            "inaccessible: omega is a member fails on every hereditarily "
            "finite set")
        for a in a_set:
            if hf.union(a) not in a_set:
                failures.append(f"inaccessible: union of {a} missing")
                break
        for a in a_set:
            if a and functools.reduce(hf.intersection, list(a)) not in a_set:
                failures.append(f"inaccessible: intersection of {a} missing")
                break
        for a, b in itertools.product(a_set, repeat=2):
            if not any(relations.is_full(c, a, b, max_count)
                       for c in a_set):
                failures.append(f"inaccessible: no fullness witness for "
                                f"a={a} b={b}")
                break
    return RegularityReport(level=level, ok=not failures,
                            failures=tuple(failures))


# -- embeddings ------------------------------------------------------------


@dataclass(frozen=True)
class EmbeddingMap:
    """A map between transitive sets given by its finite graph."""
    source: HFSet
    target: HFSet
    graph: dict[HFSet, HFSet] = field(hash=False)

    def __post_init__(self):
        if not self.source.is_transitive() or not self.target.is_transitive():
            raise ValueError("embedding endpoints must be transitive")
        for x in self.source:
            if x not in self.graph:
                raise ValueError(f"graph does not cover {x}")
        for x, y in self.graph.items():
            if x not in self.source:
                raise ValueError(f"graph key {x} outside the source")
            if y not in self.target:
                raise ValueError(f"graph value {y} outside the target")

    def apply(self, x: HFSet) -> HFSet:
        return self.graph[x]


@dataclass(frozen=True)
class ElementarityReport:
    ok: bool
    checked: int
    formula: Formula | None = None
    arguments: tuple[HFSet, ...] = ()


def check_elementary(j: EmbeddingMap, depth: int, max_free: int = 2,
                     limit: int = 250) -> ElementarityReport:
    """Tests transfer of bounded formulas along j: for every corpus formula
    and every tuple of source parameters, truth in the source must agree
    with truth of the j-images in the target."""
    source_elems = list(j.source)
    checked = 0
    for k in range(1, max_free + 1):
        for f in corpus.bounded_formulas(k, depth, limit=limit):
            names = sorted(free_vars(f))
            if any(not n.startswith("x") for n in names):
                continue
            for combo in itertools.product(source_elems, repeat=k):
                env = {f"x{i + 1}": combo[i] for i in range(k)}
                jenv = {v: j.apply(x) for v, x in env.items()}
                checked += 1
                if satisfies(j.source, f, env) != satisfies(j.target, f, jenv):
                    return ElementarityReport(False, checked, f, tuple(combo))
    return ElementarityReport(True, checked)


def check_critical_point(j: EmbeddingMap, k_set: HFSet) -> bool:
    """k_set is a critical point when it is transitive, lands inside its own
    image, and j fixes each of its members."""
    if k_set not in j.source:
        raise ValueError("candidate critical point must belong to the source")
    if not k_set.is_transitive():
        return False
    if k_set not in j.apply(k_set):
        return False
    return all(j.apply(x) == x for x in k_set)
