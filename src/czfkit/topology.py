"""Finite formal topologies and the complete Heyting algebras they present.

A formal topology here is a finite carrier with a preorder and an explicit
cover table listing the pairs (a, p) of a token and a subset of the carrier
such that a is covered by p; every other pair is uncovered.  The frame of
the topology consists of the stable lower subsets; meets are intersections,
joins are saturations of unions, and Heyting implication is computed by
joining the principal saturations that land under the right-hand side.

Each topology carries one set of frame tables, built once, at
construction, from its cover, over int masks of the carrier, bit i
standing for the i-th token: subset to mask (a set with tokens off the
carrier reads as its tokens on it), mask to frozenset, the saturation of
every mask, the top and principal generator masks, and a Heyting
implication memo filled as pairs are asked for.  Beside them sit the frame
elements and ``top`` as frozensets.  The cover is read only at
construction, into a copy of its true rows, so editing the dict passed in
changes nothing; build a new topology from an edited copy instead.
``names.Interpreter`` computes on the masks; the public operations below
take and return frozensets and convert at their boundary.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

FrameElement = frozenset  # frozenset[str], a stable lower subset


class TopologyError(ValueError):
    pass


@dataclass(frozen=True)
class Violation:
    axiom: str
    detail: str


class _SubsetMasks(dict):
    """Subset of the carrier -> its mask.  Any other set reads as the mask
    of its tokens on the carrier: the forcing interpreter meets every
    weight with a set on the carrier, so the rest never counts."""

    def __init__(self, carrier: tuple[str, ...], as_set: list[frozenset]):
        super().__init__((p, m) for m, p in enumerate(as_set))
        self.carrier = frozenset(carrier)

    def __missing__(self, p) -> int:
        return self[self.carrier & p]


@dataclass(frozen=True)
class FormalTopology:
    carrier: tuple[str, ...]
    order: frozenset[tuple[str, ...]]  # pairs (a, b) meaning a below b
    cover: dict[tuple[str, frozenset], bool] = field(hash=False)

    def __post_init__(self):
        if len(set(self.carrier)) != len(self.carrier):
            raise TopologyError("carrier tokens must be distinct")
        if len(self.carrier) > 10:
            raise TopologyError("carrier larger than 10 tokens is out of budget")
        for a, b in self.order:
            if a not in self.carrier or b not in self.carrier:
                raise TopologyError(f"order pair ({a},{b}) off the carrier")
        for (a, p) in self.cover:
            if a not in self.carrier or not p <= set(self.carrier):
                raise TopologyError("cover row off the carrier")
        # One form per cover relation: only the true rows are kept, so
        # topologies with the same cover are equal however it was spelled.
        object.__setattr__(self, "cover",
                           {row: True for row, v in self.cover.items() if v})
        # Frame tables: not fields, so equality, hashing and repr are
        # unchanged.  Bit i of a mask stands for the i-th token.
        as_set = [frozenset(a for i, a in enumerate(self.carrier)
                            if m >> i & 1)
                  for m in range(1 << len(self.carrier))]
        mask = _SubsetMasks(self.carrier, as_set)
        nuclei = [mask[frozenset(a for a in self.carrier if self.covers(a, p))]
                  for p in as_set]
        frame = sorted((p for m, p in enumerate(as_set)
                        if self.down(p) == p and nuclei[m] == m),
                       key=lambda p: (len(p), sorted(p)))
        tables = {
            "_mask": mask,
            "_as_set": as_set,
            "_mask_nuclei": nuclei,
            "_top_mask": nuclei[-1],
            "_generator_masks": tuple(nuclei[1 << i]
                                      for i in range(len(self.carrier))),
            "_mask_implications": {},
            "_frame": frame,
            "_top": as_set[nuclei[-1]],
        }
        for attr, value in tables.items():
            object.__setattr__(self, attr, value)

    @property
    def _generators(self) -> tuple[FrameElement, ...]:
        """The principal saturations, one per token of the carrier."""
        return tuple(self._as_set[g] for g in self._generator_masks)

    def below(self, a: str, b: str) -> bool:
        return (a, b) in self.order

    def covers(self, a: str, p: frozenset) -> bool:
        return self.cover.get((a, frozenset(p)), False)

    def down(self, p) -> frozenset:
        return frozenset(x for x in self.carrier
                         if any(self.below(x, c) for c in p))

    def subsets(self):
        for r in range(len(self.carrier) + 1):
            for combo in itertools.combinations(self.carrier, r):
                yield frozenset(combo)


def validate(t: FormalTopology) -> list[Violation]:
    """Checks the preorder laws and the four cover axioms, returning every
    violation found with the witnessing tokens and subsets."""
    out: list[Violation] = []
    for a in t.carrier:
        if not t.below(a, a):
            out.append(Violation("order-reflexive", f"{a}"))
    for a, b, c in itertools.product(t.carrier, repeat=3):
        if t.below(a, b) and t.below(b, c) and not t.below(a, c):
            out.append(Violation("order-transitive", f"{a} {b} {c}"))
    subs = list(t.subsets())
    for a in t.carrier:
        for p in subs:
            if a in p and not t.covers(a, p):
                out.append(Violation("reflexivity", f"{a} in {sorted(p)}"))
    for a, b in itertools.product(t.carrier, repeat=2):
        if not t.below(a, b):
            continue
        for p in subs:
            if t.covers(b, p) and not t.covers(a, p):
                out.append(Violation("order-compat",
                                     f"{a} below {b}, p={sorted(p)}"))
    for a in t.carrier:
        for p, q in itertools.product(subs, repeat=2):
            if (t.covers(a, p) and all(t.covers(x, q) for x in p)
                    and not t.covers(a, q)):
                out.append(Violation("transitivity",
                                     f"{a} p={sorted(p)} q={sorted(q)}"))
            if t.covers(a, p) and t.covers(a, q):
                meet = t.down(p) & t.down(q)
                if not t.covers(a, meet):
                    out.append(Violation("stability",
                                         f"{a} p={sorted(p)} q={sorted(q)}"))
    return out


def nucleus(t: FormalTopology, p) -> FrameElement:
    """The saturation of p: all tokens covered by p.  A set with a token
    off the carrier has no cover row, so its saturation is empty."""
    m = t._mask.get(frozenset(p))
    return frozenset() if m is None else t._as_set[t._mask_nuclei[m]]


def frame_elements(t: FormalTopology) -> list[FrameElement]:
    """All stable lower subsets, in a fixed order."""
    return list(t._frame)


def top(t: FormalTopology) -> FrameElement:
    return t._top


def bottom(t: FormalTopology) -> FrameElement:
    return t._as_set[t._mask_nuclei[0]]


def meet(t: FormalTopology, p: FrameElement, q: FrameElement) -> FrameElement:
    return p & q


def join(t: FormalTopology, p: FrameElement, q: FrameElement) -> FrameElement:
    return nucleus(t, p | q)


def implies(t: FormalTopology, p: FrameElement, q: FrameElement) -> FrameElement:
    """Largest r with r meet p below q.  Tokens off the carrier in p or q
    change nothing, as no generator holds them."""
    return t._as_set[_implies_mask(t, t._mask[p], t._mask[q])]


def _implies_mask(t: FormalTopology, p: int, q: int) -> int:
    """``implies`` on masks: the saturation of the join of the principal
    generators whose meet with p is below q, memoized per topology."""
    memo = t._mask_implications
    r = memo.get((p, q))
    if r is None:
        acc = 0
        for g in t._generator_masks:
            if not g & p & ~q:
                acc |= g
        r = memo[(p, q)] = t._mask_nuclei[acc]
    return r


def big_meet(t: FormalTopology, ps) -> FrameElement:
    out = top(t)
    for p in ps:
        out = out & p
    return out


def big_join(t: FormalTopology, ps) -> FrameElement:
    acc: frozenset = frozenset()
    for p in ps:
        acc = acc | p
    return nucleus(t, acc)


def leq(t: FormalTopology, p: FrameElement, q: FrameElement) -> bool:
    return p <= q


# -- constructions ---------------------------------------------------------


def from_poset(elements, order_pairs) -> FormalTopology:
    """The topology of a poset: covering is membership in the down-set.
    The order is closed by Warshall's algorithm, one pass per point."""
    elements = tuple(elements)
    above = {a: {a} for a in elements}
    for a, b in order_pairs:
        above.setdefault(a, set()).add(b)
    for k in above:  # a point with nothing above it is inside no path
        for up in above.values():
            if k in up:
                up |= above[k]
    for a, b in itertools.combinations(above, 2):
        if b in above[a] and a in above[b]:
            raise TopologyError(f"not antisymmetric: {a} and {b}")
    cover = {(a, frozenset(p)): not above[a].isdisjoint(p)
             for r in range(len(elements) + 1)
             for p in itertools.combinations(elements, r) for a in elements}
    return FormalTopology(elements, frozenset(
        (a, b) for a, up in above.items() for b in up), cover)


def omega() -> FormalTopology:
    """The one-token topology whose cover is double-negated membership.

    Classically the double negation collapses, so the cover is plain
    membership and the frame is the two-element Boolean algebra.
    """
    token = "0"
    cover = {(token, frozenset([token])): True}  # every other row is false
    return FormalTopology((token,), frozenset([(token, token)]), cover)


# -- set presentations -----------------------------------------------------


@dataclass(frozen=True)
class SetPresentation:
    """For each token, a finite family of basic covers that generate the
    cover relation: a is covered by p iff some listed family member for a
    is included in p."""
    families: dict[str, frozenset] = field(hash=False)  # token -> set of frozensets


def check_presentation(t: FormalTopology, r: SetPresentation) -> bool:
    for a in t.carrier:
        fams = r.families.get(a, frozenset())
        for p in t.subsets():
            presented = any(u <= p for u in fams)
            if presented != t.covers(a, p):
                return False
    return True


# -- text interchange ------------------------------------------------------


def parse_topology(text: str) -> FormalTopology:
    """Reads the line format:

        carrier: a b c
        order: a<=b b<=c
        cover: a <| {b,c}

    Reflexive order pairs are implied.  Cover rows not listed are false.
    """
    carrier: tuple[str, ...] = ()
    order: set[tuple[str, str]] = set()
    cover_rows: list[tuple[str, frozenset]] = []
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("carrier:"):
            carrier = tuple(line[len("carrier:"):].split())
        elif line.startswith("order:"):
            for pair in line[len("order:"):].split():
                if "<=" not in pair:
                    raise TopologyError(f"bad order pair {pair!r}")
                a, b = pair.split("<=", 1)
                order.add((a, b))
        elif line.startswith("cover:"):
            body = line[len("cover:"):].strip()
            if "<|" not in body:
                raise TopologyError(f"bad cover row {body!r}")
            a, rest = body.split("<|", 1)
            rest = rest.strip()
            if not (rest.startswith("{") and rest.endswith("}")):
                raise TopologyError(f"bad cover subset {rest!r}")
            inner = rest[1:-1].strip()
            p = frozenset(x.strip() for x in inner.split(",") if x.strip())
            cover_rows.append((a.strip(), p))
        else:
            raise TopologyError(f"unrecognized line {line!r}")
    if not carrier:
        raise TopologyError("missing carrier line")
    for a in carrier:
        order.add((a, a))
    cover = {(a, p): True for a, p in cover_rows}
    return FormalTopology(carrier, frozenset(order), cover)


def render_topology(t: FormalTopology) -> str:
    lines = ["carrier: " + " ".join(t.carrier)]
    strict = [f"{a}<={b}" for a, b in sorted(t.order) if a != b]
    lines.append("order:" + ("" if not strict else " " + " ".join(strict)))
    for a, p in sorted(t.cover, key=lambda row: (row[0], len(row[1]),
                                                 sorted(row[1]))):
        lines.append(f"cover: {a} <| {{{','.join(sorted(p))}}}")
    return "\n".join(lines) + "\n"


def render_frame_element(p: FrameElement) -> str:
    return "{" + ",".join(sorted(p)) + "}"


def parse_frame_element(text: str) -> FrameElement:
    text = text.strip()
    if not (text.startswith("{") and text.endswith("}")):
        raise TopologyError(f"bad frame element {text!r}")
    inner = text[1:-1].strip()
    if not inner:
        return frozenset()
    return frozenset(x.strip() for x in inner.split(","))
