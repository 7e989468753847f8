"""Brute-force Tarskian satisfaction over a transitive hereditarily finite
universe, and the comprehension oracle the compiler is tested against."""

from __future__ import annotations

import itertools

from . import hf
from .formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq, Ex, Falsum,
    Formula, Imp, Lit, Mem, Or, Steps, Term,
)
from .hf import HFSet


class UnassignedVariable(KeyError):
    def __str__(self) -> str:
        return f"unassigned variable {self.args[0]}"


def _eval_term(t: Term, env: dict[str, HFSet]) -> HFSet:
    if isinstance(t, Lit):
        return t.value
    return env[t.name]


def satisfies(universe: HFSet, f: Formula, env: dict[str, HFSet] | None = None) -> bool:
    """Classical truth, unbounded quantifiers ranging over the universe.

    A step function per node class, through _STEPS, takes (universe, node,
    environment) and calls its children's steps itself: one frame per
    formula level.  A quantifier rebinds its variable in a copy of env.
    Free variables are checked first, so a skipped operand hides none."""
    step, env = _STEPS[type(f)], env or {}  # a non-formula: TypeError
    for v in f._fv:  # a loop costs less than a subset test here
        if v not in env:
            raise UnassignedVariable(min(f._fv - env.keys()))
    return step(universe, f, env)


def _class_mem(u, f, env):
    raise ValueError("class atoms have no first-order satisfaction")


def _junction(u, f, env):
    """And and BigAnd stop at a false part, Or and BigOr at a true one."""
    stop = type(f) in (Or, BigOr)
    for part in f._subs():
        if _STEPS[type(part)](u, part, env) == stop:
            return stop
    return not stop


def _quantifier(u, f, env):
    """A universal stops at a false instance, an existential at a true one;
    a bounded quantifier ranges over its bound, All and Ex over u."""
    stop = type(f) in (Ex, BoundedEx)
    xs = u if type(f) in (All, Ex) else _eval_term(f.bound, env)
    v, body = f.var, f.body
    step, env = _STEPS[type(body)], dict(env)
    for x in xs:
        env[v] = x
        if step(u, body, env) == stop:
            return stop
    return not stop


_STEPS = Steps({
    Falsum: lambda u, f, env: False,
    Eq: lambda u, f, env: _eval_term(f.left, env) == _eval_term(f.right, env),
    Mem: lambda u, f, env: _eval_term(f.left, env) in _eval_term(f.right, env),
    Imp: lambda u, f, env: not _STEPS[type(f.left)](u, f.left, env)
        or _STEPS[type(f.right)](u, f.right, env),
    ClassMem: _class_mem,
    And: _junction, BigAnd: _junction, Or: _junction, BigOr: _junction,
    All: _quantifier, BoundedAll: _quantifier,
    Ex: _quantifier, BoundedEx: _quantifier,
})


def comprehension(f: Formula, args: list[HFSet]) -> HFSet:
    """{<x_n,...,x_1> in a_n x ... x a_1 | f(x1..xn)} by direct enumeration.

    The independent oracle for the bounded-formula compiler; evaluation
    never consults an ambient universe since f must be bounded.  Arity 0
    is refused, as ``godel.compile_bounded`` refuses it.
    """
    if not args:
        raise ValueError("arity must be at least 1")
    names = [f"x{i + 1}" for i in range(len(args))]
    out = []
    for combo in itertools.product(*args):
        if satisfies(hf.EMPTY, f, dict(zip(names, combo))):
            out.append(hf.tuple_right(combo[::-1]))
    return HFSet(out)
