"""Multi-valued functions between hereditarily finite sets, fullness, and
least fixed points of finite inductive definitions."""

from __future__ import annotations

import enum
import itertools
from dataclasses import dataclass, field

from . import hf
from .hf import HFSet, BudgetExceeded


class Direction(enum.Enum):
    FORWARD = "forward"
    BOTH = "both"


@dataclass(frozen=True)
class MVRelation:
    """A relation with a declared domain and codomain."""
    pairs: frozenset[tuple[HFSet, HFSet]]
    domain: HFSet
    codomain: HFSet

    def __post_init__(self):
        for x, _ in self.pairs:
            if x not in self.domain:
                raise ValueError(f"pair source {x} outside the declared domain")


def is_mv(r: MVRelation, direction: Direction = Direction.FORWARD) -> bool:
    """Forward: total on the domain with values in the codomain; both adds
    that every codomain element is hit.  Each is a set inclusion."""
    ran = {y for _, y in r.pairs}
    return ({x for x, _ in r.pairs}.issuperset(r.domain)
            and ran.issubset(r.codomain)
            and (direction is not Direction.BOTH or ran.issuperset(r.codomain)))


def adjust_mv(r: MVRelation) -> MVRelation:
    """The pairing adjustment {<a,<a,b>> | <a,b> in R}: A => A x B."""
    return MVRelation(
        pairs=frozenset((a, hf.kpair(a, b)) for a, b in r.pairs),
        domain=r.domain,
        codomain=hf.product(r.domain, r.codomain),
    )


def mv_relations(a: HFSet, b: HFSet, max_count: int = 65536):
    """All multi-valued functions from a to b, as HFSets of ordered pairs."""
    per_point = (1 << len(b)) - 1
    count = per_point ** len(a) if a else 1
    if count > max_count:
        raise BudgetExceeded(f"{count} multi-valued functions exceed {max_count}")
    bs = list(b)
    choices = []
    for x in a:
        point = []
        for mask in range(1, 1 << len(bs)):
            point.append([hf.kpair(x, bs[i]) for i in range(len(bs)) if mask >> i & 1])
        choices.append(point)
    for combo in itertools.product(*choices):
        yield HFSet(p for part in combo for p in part)


def fullness_witness(candidates, a: HFSet, b: HFSet,
                     max_count: int = 65536) -> HFSet | None:
    """The first candidate that is full for a and b (see ``is_full``), or
    None.  The multi-valued functions from a to b are enumerated once for
    all the candidates."""
    all_mv = list(mv_relations(a, b, max_count))
    mv_set = set(all_mv)
    for c in candidates:
        if all(s in mv_set for s in c) and \
                all(any(s.is_subset(r) for s in c) for r in all_mv):
            return c
    return None


def is_full(c: HFSet, a: HFSet, b: HFSet, max_count: int = 65536) -> bool:
    """c refines every multi-valued function from a to b and consists of
    such functions only."""
    return fullness_witness([c], a, b, max_count) is not None


# -- inductive definitions -------------------------------------------------


@dataclass(frozen=True)
class InductiveDef:
    """A finite set of rules <premise set, conclusion>."""
    rules: frozenset[tuple[HFSet, HFSet]] = field(default_factory=frozenset)

    def step(self, current: HFSet) -> HFSet:
        """The associated monotone operator: conclusions whose premise set
        is included in the current class."""
        return HFSet(a for (x, a) in self.rules if x.is_subset(current))


def lfp_stages(phi: InductiveDef) -> list[HFSet]:
    """Iterates of the operator from the empty set until stabilization."""
    stages = [hf.EMPTY]
    while True:
        nxt = hf.binary_union(stages[-1], phi.step(stages[-1]))
        if nxt == stages[-1]:
            return stages
        stages.append(nxt)


def lfp_inductive(phi: InductiveDef) -> HFSet:
    """The least fixed point; finite rules stabilize within |rules| steps."""
    return lfp_stages(phi)[-1]


def is_closed(phi: InductiveDef, c: HFSet) -> bool:
    return phi.step(c).is_subset(c)
