"""Command-line access to the workbench.

Exit codes: 0 success, 1 negative answer (not provable, check failed),
2 usage or input error, 3 budget exceeded.  Diagnostics go to standard
error; payloads to standard output are deterministic.
"""

from __future__ import annotations

import argparse
import sys

from . import checks, godel, hf, hierarchy, names as nm, prover as pv
from . import relations, semantics, topology as tp, translate as tr
from .formula import FormulaSyntaxError, parse, render
from .hf import BudgetExceeded


class _InputError(ValueError):
    pass


def _parse_formula(text: str):
    try:
        return parse(text)
    except FormulaSyntaxError as e:
        raise _InputError(f"formula syntax error: {e}") from None


def _parse_hf(text: str):
    try:
        return hf.parse_hf(text)
    except ValueError as e:
        raise _InputError(f"bad hf literal: {e}") from None


def _read_topology(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return tp.parse_topology(fh.read())
    except OSError as e:
        raise _InputError(f"cannot read topology file: {e}") from None
    except tp.TopologyError as e:
        raise _InputError(f"bad topology file: {e}") from None


def _parse_name(text: str, t):
    """A name whose every value is a frame element of t."""
    try:
        name = nm.parse_name(text)
    except ValueError as e:
        raise _InputError(f"bad name: {e}") from None
    frames = set(tp.frame_elements(t))
    stack = [name]
    while stack:
        for x, p in stack.pop().entries:
            if p not in frames:
                raise _InputError(
                    f"bad name: {tp.render_frame_element(p)} is not a frame "
                    f"element of the topology")
            stack.append(x)
    return name


def _parse_env(pairs, universe=None, topology=None):
    """var=HF assignments; with a topology the values become names."""
    env = {}
    for item in pairs or []:
        if "=" not in item:
            raise _InputError(f"bad assignment {item!r}, expected var=value")
        var, val = item.split("=", 1)
        var = var.strip()
        if topology is not None:
            if val.strip().startswith("("):
                env[var] = _parse_name(val, topology)
            else:
                env[var] = nm.check_name(_parse_hf(val), topology)
        else:
            env[var] = _parse_hf(val)
    return env


def _add_common(p):
    p.add_argument("--budget", type=int, default=20000)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="czfkit")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse", help="parse and re-render a formula")
    p.add_argument("formula")

    p = sub.add_parser("classify", help="minimal hierarchy levels")
    p.add_argument("formula")
    p.add_argument("--extra", default="", help="comma-separated class symbols")

    p = sub.add_parser("hierarchy", help="decide one hierarchy membership")
    p.add_argument("formula")
    p.add_argument("--side", choices=["sigma", "pi"], required=True)
    p.add_argument("--level", type=int, required=True)
    p.add_argument("--extra", default="")

    p = sub.add_parser("compile", help="bounded formula to operation term")
    p.add_argument("formula")
    p.add_argument("--arity", type=int, required=True)

    p = sub.add_parser("hf-eval", help="apply a fundamental operation")
    p.add_argument("op", help="operation symbol, with or without the F_ prefix")
    p.add_argument("args", nargs="+", help="hf literals")

    p = sub.add_parser("hf-sat", help="satisfaction over a finite universe")
    p.add_argument("formula")
    p.add_argument("--universe", required=True, help="hf literal")
    p.add_argument("--env", action="append", help="var=hf-literal")

    p = sub.add_parser("lfp", help="least fixed point of finite rules")
    p.add_argument("--rule", action="append", required=True,
                   help="premise-set|-conclusion, both hf literals")
    p.add_argument("--stages", action="store_true")

    p = sub.add_parser("l-stage", help="constructible stage")
    p.add_argument("alpha", type=int)
    p.add_argument("k", type=int)
    p.add_argument("--max-size", type=int, default=4096)

    p = sub.add_parser("hadd", help="hereditary ordinal addition")
    p.add_argument("alpha", type=int)
    p.add_argument("gamma", type=int)

    p = sub.add_parser("check-regular", help="regularity-style closure check")
    p.add_argument("set", help="hf literal, transitive")
    p.add_argument("--level", required=True,
                   choices=[l.value for l in checks.RegularityLevel])
    _add_common(p)

    p = sub.add_parser("check-elementary", help="bounded-formula transfer")
    p.add_argument("--source", required=True)
    p.add_argument("--target", required=True)
    p.add_argument("--map", action="append", required=True,
                   help="hf-literal=>hf-literal")
    p.add_argument("--depth", type=int, default=1)

    p = sub.add_parser("topology-validate", help="check the cover axioms")
    p.add_argument("--topology", required=True)

    p = sub.add_parser("frame", help="list the frame elements")
    p.add_argument("--topology", required=True)

    p = sub.add_parser("interpret", help="forcing value of a formula")
    p.add_argument("formula")
    p.add_argument("--topology", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--env", action="append",
                   help="var=hf-literal or var=name")

    p = sub.add_parser("witness-collection", help="strong collection witness")
    p.add_argument("--topology", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--a", required=True, help="name")
    p.add_argument("--r", required=True, help="name")
    p.add_argument("--p", required=True, help="frame element, e.g. {0}")

    p = sub.add_parser("powerset-name", help="power set witness name")
    p.add_argument("--topology", required=True)
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--name", required=True)

    p = sub.add_parser("translate", help="double-negation translation")
    p.add_argument("formula")
    p.add_argument("--mode", choices=[m.value for m in tr.AtomicMode],
                   default=tr.AtomicMode.GOEDEL_GENTZEN.value)
    p.add_argument("--topology", help="needed in semantic mode")
    p.add_argument("--depth", type=int, default=1)
    p.add_argument("--env", action="append")

    p = sub.add_parser("prove", help="sequent proof search")
    p.add_argument("formula", help="succedent formula")
    p.add_argument("--left", action="append", help="antecedent formula")
    p.add_argument("--logic", choices=["int", "classical"], default="int")
    p.add_argument("--cut", action="store_true")
    _add_common(p)

    p = sub.add_parser("eliminate-classes", help="rewrite class atoms away")
    p.add_argument("goal")
    p.add_argument("--axiom", action="append", default=[])

    return ap


def _cmd(args) -> int:
    out = sys.stdout
    if args.command == "parse":
        out.write(render(_parse_formula(args.formula)) + "\n")
        return 0
    if args.command == "classify":
        extra = frozenset(x for x in args.extra.split(",") if x)
        try:
            sigma, pi = hierarchy.classify(_parse_formula(args.formula), extra)
        except hierarchy.HierarchyError as e:
            raise _InputError(str(e)) from None
        out.write(f"Sigma {sigma.level} / Pi {pi.level}\n")
        return 0
    if args.command == "hierarchy":
        extra = frozenset(x for x in args.extra.split(",") if x)
        side = hierarchy.Side.SIGMA if args.side == "sigma" else hierarchy.Side.PI
        try:
            ok = hierarchy.in_level(_parse_formula(args.formula), side,
                                    args.level, extra)
        except (hierarchy.HierarchyError, ValueError) as e:
            raise _InputError(str(e)) from None
        out.write(("true" if ok else "false") + "\n")
        return 0 if ok else 1
    if args.command == "compile":
        try:
            term = godel.compile_bounded(_parse_formula(args.formula),
                                         args.arity)
        except (godel.CompileError, ValueError) as e:
            raise _InputError(str(e)) from None
        out.write(godel.opterm_render(term) + "\n")
        return 0
    if args.command == "hf-eval":
        symbol = args.op.removeprefix("F_")
        if symbol not in godel.OP_SYMBOLS:
            raise _InputError(f"unknown operation {args.op!r}")
        sets = [_parse_hf(a) for a in args.args]
        try:
            result = godel.fundamental_op(symbol, sets)
        except ValueError as e:
            raise _InputError(str(e)) from None
        out.write(str(result) + "\n")
        return 0
    if args.command == "hf-sat":
        universe = _parse_hf(args.universe)
        env = _parse_env(args.env)
        try:
            ok = semantics.satisfies(universe, _parse_formula(args.formula),
                                     env)
        except (semantics.UnassignedVariable, ValueError) as e:
            raise _InputError(str(e)) from None
        out.write(("true" if ok else "false") + "\n")
        return 0 if ok else 1
    if args.command == "lfp":
        rules = []
        for raw in args.rule:
            if "|-" not in raw:
                raise _InputError(f"bad rule {raw!r}, expected X|-a")
            prem, concl = raw.split("|-", 1)
            rules.append((_parse_hf(prem), _parse_hf(concl)))
        phi = relations.InductiveDef(frozenset(rules))
        stages = relations.lfp_stages(phi)
        if args.stages:
            for s in stages:
                out.write(str(s) + "\n")
        else:
            out.write(str(stages[-1]) + "\n")
        return 0
    if args.command == "l-stage":
        out.write(str(godel.l_stage(args.alpha, args.k, args.max_size)) + "\n")
        return 0
    if args.command == "hadd":
        out.write(str(godel.hereditary_add(args.alpha, args.gamma)) + "\n")
        return 0
    if args.command == "check-regular":
        level = checks.RegularityLevel(args.level)
        try:
            report = checks.check_regular(_parse_hf(args.set), level,
                                          max_count=args.budget)
        except ValueError as e:
            raise _InputError(str(e)) from None
        if report.ok:
            out.write("ok\n")
            return 0
        for fail in report.failures:
            out.write(fail + "\n")
        return 1
    if args.command == "check-elementary":
        graph = {}
        for raw in args.map:
            if "=>" not in raw:
                raise _InputError(f"bad map entry {raw!r}, expected x=>y")
            k, v = raw.split("=>", 1)
            graph[_parse_hf(k)] = _parse_hf(v)
        try:
            j = checks.EmbeddingMap(_parse_hf(args.source),
                                    _parse_hf(args.target), graph)
        except ValueError as e:
            raise _InputError(str(e)) from None
        report = checks.check_elementary(j, args.depth)
        if report.ok:
            out.write(f"ok ({report.checked} instances)\n")
            return 0
        arglist = ", ".join(str(a) for a in report.arguments)
        out.write(f"fails on {render(report.formula)} at {arglist}\n")
        return 1
    if args.command == "topology-validate":
        violations = tp.validate(_read_topology(args.topology))
        if not violations:
            out.write("valid\n")
            return 0
        for v in violations:
            out.write(f"{v.axiom}: {v.detail}\n")
        return 1
    if args.command == "frame":
        t = _read_topology(args.topology)
        for p in tp.frame_elements(t):
            out.write(tp.render_frame_element(p) + "\n")
        return 0
    if args.command == "interpret":
        t = _read_topology(args.topology)
        u = nm.name_universe(t, args.depth)
        env = _parse_env(args.env, topology=t)
        try:
            value = nm.interpret(_parse_formula(args.formula), env, u)
        except ValueError as e:
            raise _InputError(str(e)) from None
        out.write(tp.render_frame_element(value) + "\n")
        return 0
    if args.command == "witness-collection":
        t = _read_topology(args.topology)
        u = nm.name_universe(t, args.depth)
        try:
            a = nm.parse_name(args.a)
            r = nm.parse_name(args.r)
            p = tp.parse_frame_element(args.p)
            b = nm.strong_collection_witness(a, r, p, u)
        except (ValueError, tp.TopologyError) as e:
            raise _InputError(str(e)) from None
        out.write(nm.serialize_name(b) + "\n")
        return 0
    if args.command == "powerset-name":
        t = _read_topology(args.topology)
        u = nm.name_universe(t, args.depth)
        try:
            a = nm.parse_name(args.name)
        except ValueError as e:
            raise _InputError(str(e)) from None
        out.write(nm.serialize_name(nm.powerset_name(a, u)) + "\n")
        return 0
    if args.command == "translate":
        mode = tr.AtomicMode(args.mode)
        f = _parse_formula(args.formula)
        if mode is tr.AtomicMode.GOEDEL_GENTZEN:
            out.write(render(tr.dn_translate(f)) + "\n")
            return 0
        if not args.topology:
            raise _InputError("semantic mode needs --topology")
        t = _read_topology(args.topology)
        u = nm.name_universe(t, args.depth)
        env = _parse_env(args.env, topology=t)
        try:
            truth = tr.dn_translate(f, mode, u, env)
        except ValueError as e:
            raise _InputError(str(e)) from None
        out.write(("true" if truth else "false") + "\n")
        return 0 if truth else 1
    if args.command == "prove":
        left = [_parse_formula(x) for x in args.left or []]
        right = [_parse_formula(args.formula)]
        logic = (pv.Logic.INTUITIONISTIC if args.logic == "int"
                 else pv.Logic.CLASSICAL)
        result = pv.prove(pv.Sequent.make(left, right), logic,
                          budget=args.budget, allow_cut=args.cut)
        if result.outcome is pv.Outcome.PROVED:
            out.write(result.derivation.render() + "\n")
            return 0
        if result.outcome is pv.Outcome.NOT_PROVABLE:
            out.write("not provable\n")
            return 1
        out.write("budget exceeded\n")
        return 3
    if args.command == "eliminate-classes":
        axioms = [_parse_formula(x) for x in args.axiom]
        goal = _parse_formula(args.goal)
        try:
            new_axioms, new_goal = pv.eliminate_classes(axioms, goal)
        except pv.ClassEliminationError as e:
            raise _InputError(str(e)) from None
        for a in new_axioms:
            out.write("axiom: " + render(a) + "\n")
        out.write("goal: " + render(new_goal) + "\n")
        return 0
    raise _InputError(f"unknown command {args.command!r}")


def run(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code else 0
    try:
        return _cmd(args)
    except _InputError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except BudgetExceeded as e:
        print(f"budget exceeded: {e}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
