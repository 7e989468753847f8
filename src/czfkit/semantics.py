"""Brute-force Tarskian satisfaction over a transitive hereditarily finite
universe, and the comprehension oracle the compiler is tested against."""

from __future__ import annotations

import itertools

from . import hf
from .formula import (
    All, And, BigAnd, BigOr, BoundedAll, BoundedEx, ClassMem, Eq, Ex, Falsum,
    Formula, Imp, Lit, Mem, Or, Term,
)
from .hf import HFSet


class UnassignedVariable(KeyError):
    def __str__(self) -> str:
        return f"unassigned variable {self.args[0]}"


def _eval_term(t: Term, env: dict[str, HFSet]) -> HFSet:
    if isinstance(t, Lit):
        return t.value
    try:
        return env[t.name]
    except KeyError:
        raise UnassignedVariable(t.name) from None


def satisfies(universe: HFSet, f: Formula, env: dict[str, HFSet] | None = None) -> bool:
    """Classical truth, unbounded quantifiers ranging over the universe."""
    env = env or {}
    match f:
        case Falsum():
            return False
        case Eq(l, r):
            return _eval_term(l, env) == _eval_term(r, env)
        case Mem(l, r):
            return _eval_term(l, env) in _eval_term(r, env)
        case ClassMem():
            raise ValueError("class atoms have no first-order satisfaction")
        case And(l, r):
            return satisfies(universe, l, env) and satisfies(universe, r, env)
        case Or(l, r):
            return satisfies(universe, l, env) or satisfies(universe, r, env)
        case Imp(l, r):
            return (not satisfies(universe, l, env)) or satisfies(universe, r, env)
        case BigAnd(parts):
            return all(satisfies(universe, p, env) for p in parts)
        case BigOr(parts):
            return any(satisfies(universe, p, env) for p in parts)
        case BoundedAll(v, b, body):
            return all(satisfies(universe, body, {**env, v: x})
                       for x in _eval_term(b, env))
        case BoundedEx(v, b, body):
            return any(satisfies(universe, body, {**env, v: x})
                       for x in _eval_term(b, env))
        case All(v, body):
            return all(satisfies(universe, body, {**env, v: x}) for x in universe)
        case Ex(v, body):
            return any(satisfies(universe, body, {**env, v: x}) for x in universe)
    raise TypeError(f"not a formula: {f!r}")


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
