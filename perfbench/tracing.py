"""Spans around the public functions of czfkit's layers, from outside ``src/``.

``Tracer.install`` rebinds every public function of each layer module, and
the public methods of its public classes, to a wrapper that records one span
per call: name, start, end, parent span and item id.  The function object is
rebound wherever a czfkit module or the benchmark's ``workloads`` module
holds it, so calls across modules (``names`` calling ``tp.implies``, ``godel``
calling ``free_vars`` imported by name) are seen too.  ``uninstall`` puts the
originals back.

Not wrapped: generator functions (a span would end before the work is done),
private helpers (their time is self time of the public caller), and the
constant-time accessors and predicates in ``ACCESSORS``.  ``HFSet.__init__``
is wrapped, since set construction is the ``hf`` layer's main cost.

Spans are kept in typed arrays and written out by ``dump``.  A span's self
time is its duration minus the durations of its direct children; calls are
nested on one thread, so children never overlap and their durations add up
to the time they cover.  Spans made while the item id is -1 belong to
set-up.  The per-layer metrics come from the items' spans, except the three
that describe set-up: ``names.universe_s``, ``names.universe_size`` and
``formula.setup_self_s``.
"""

from __future__ import annotations

import inspect
import json
import sys
import time
from array import array

from czfkit import formula, godel, hf, names, prover, semantics, translate
from czfkit import topology

LAYERS = {
    "hf": hf, "godel": godel, "semantics": semantics, "topology": topology,
    "names": names, "translate": translate, "formula": formula,
    "prover": prover,
}
ACCESSORS = {"is_neg", "HFSet.serialize", "HFSet.elements", "Name.keys",
             "Name.value", "Name.depth", "FormalTopology.below",
             "FormalTopology.covers"}
# names splits into three sub-layers: building names, the universe, and
# valuation (everything else, the Interpreter's lookups first of all).
NAMES_BUILD = {"make_name", "serialize_name", "up", "op", "check_name",
               "make_class_name", "parse_name", "powerset_name"}
NAMES_UNIVERSE = {"name_universe"}


def _targets():
    """(layer, owner, attribute, qualified name, function, is_static)."""
    for layer, mod in LAYERS.items():
        for attr, obj in vars(mod).items():
            if attr.startswith("_"):
                continue
            if inspect.isfunction(obj) and obj.__module__ == mod.__name__ \
                    and not inspect.isgeneratorfunction(obj) \
                    and attr not in ACCESSORS:
                yield layer, mod, attr, attr, obj, False
            elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                for mname, raw in vars(obj).items():
                    qual = f"{attr}.{mname}"
                    public = not mname.startswith("_") \
                        or qual == "HFSet.__init__"
                    if not public or qual in ACCESSORS:
                        continue
                    static = isinstance(raw, staticmethod)
                    fn = raw.__func__ if static else raw
                    if inspect.isfunction(fn) \
                            and not inspect.isgeneratorfunction(fn):
                        yield layer, obj, mname, qual, fn, static


class Tracer:
    def __init__(self):
        self.span_names: list[str] = []
        self.start = array("d")
        self.end = array("d")
        self.parent = array("i")
        self.name = array("H")
        self.item = array("i")
        self.current = -1
        self.item_id = -1
        # (item id, outcome, nodes expanded) per prove call
        self.prove_outcomes: list[tuple[int, str, int]] = []
        # (item id, names) per name universe built
        self.universe_sizes: list[tuple[int, int]] = []
        # (a, b) per Interpreter.eq call made by an item
        self.eq_pairs: list[tuple] = []
        self._saved: list[tuple[object, str, object]] = []

    # -- wrapping -------------------------------------------------------------

    def _wrap(self, fn, name_id: int, hook):
        start, end, parent = self.start, self.end, self.parent
        name, item = self.name, self.item
        clock = time.perf_counter
        tracer = self

        def wrapper(*args, **kwargs):
            sid = len(start)
            parent.append(tracer.current)
            name.append(name_id)
            item.append(tracer.item_id)
            end.append(0.0)
            tracer.current = sid
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                tracer.current = parent[sid]
            if hook is not None:
                hook(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def install(self, extra_modules=()) -> None:
        hooks = {
            "prover.prove": lambda args, r: self.prove_outcomes.append(
                (self.item_id, r.outcome.value, r.expanded)),
            "names.name_universe": lambda args, u: self.universe_sizes.append(
                (self.item_id, len(u.names))),
            "names.Interpreter.eq": self._eq_pair,
        }
        holders = [m for k, m in sys.modules.items()
                   if k == "czfkit" or k.startswith("czfkit.")]
        holders += list(extra_modules)
        for layer, owner, attr, qual, fn, static in _targets():
            span = f"{layer}.{qual}"
            if span not in self.span_names:
                self.span_names.append(span)
            wrapper = self._wrap(fn, self.span_names.index(span),
                                 hooks.get(span))
            if inspect.isclass(owner):
                self._rebind(owner, attr,
                             staticmethod(wrapper) if static else wrapper)
                continue
            for mod in holders:
                for name, val in list(vars(mod).items()):
                    if val is fn:
                        self._rebind(mod, name, wrapper)

    def _eq_pair(self, args, result) -> None:
        if self.item_id >= 0:
            self.eq_pairs.append(args[1:3])

    def _rebind(self, owner, attr: str, new) -> None:
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, new)

    def uninstall(self) -> None:
        for owner, attr, old in reversed(self._saved):
            setattr(owner, attr, old)
        self._saved.clear()

    # -- results --------------------------------------------------------------

    def aggregate(self, setup: bool = False) -> dict[str, dict]:
        """Per span name, over the items' spans (or with ``setup`` the
        set-up's): calls, inclusive seconds and self seconds."""
        k = len(self.span_names)
        calls, incl, self_s = [0] * k, [0.0] * k, [0.0] * k
        start, end, parent, name = self.start, self.end, self.parent, self.name
        item = self.item
        for i in range(len(start)):
            if (item[i] < 0) != setup:
                continue
            d = end[i] - start[i]
            n = name[i]
            calls[n] += 1
            incl[n] += d
            self_s[n] += d
            p = parent[i]
            if p >= 0:
                self_s[name[p]] -= d
        return {s: {"calls": calls[i], "incl_s": incl[i], "self_s": self_s[i]}
                for i, s in enumerate(self.span_names)}

    def dump(self, path) -> None:
        """Header line of JSON, then the raw arrays in header order."""
        arrays = ["start", "end", "parent", "name", "item"]
        header = {"spans": len(self.start), "names": self.span_names,
                  "arrays": [[a, getattr(self, a).typecode] for a in arrays]}
        with open(path, "wb") as out:
            out.write(json.dumps(header).encode() + b"\n")
            for a in arrays:
                getattr(self, a).tofile(out)


def _sum(agg, pred, key) -> float:
    return sum(v[key] for s, v in agg.items() if pred(s))


def layer_metrics(tracer: Tracer, wall_s: float) -> dict[str, tuple]:
    """The per-layer metrics, name -> (value, unit), from one traced run whose
    traced items took ``wall_s`` seconds."""
    agg = tracer.aggregate()
    setup = tracer.aggregate(setup=True)

    def calls(span):
        return agg[span]["calls"]

    def layer(name):
        return lambda s: s.startswith(name + ".")

    def names_part(part):
        return lambda s: s.startswith("names.") and part(s.rsplit(".", 1)[1])

    build = names_part(lambda f: f in NAMES_BUILD)
    universe = names_part(lambda f: f in NAMES_UNIVERSE)
    value = names_part(lambda f: f not in NAMES_BUILD | NAMES_UNIVERSE)
    eq_calls = agg["names.Interpreter.eq"]["calls"]
    proved = [(o, e) for i, o, e in tracer.prove_outcomes if i >= 0]
    outcomes = [o for o, _ in proved]
    proves = len(outcomes)
    exceeded = outcomes.count(prover.Outcome.BUDGET_EXCEEDED.value)
    m = {
        "hf.construct_calls": (calls("hf.HFSet.__init__"), "count"),
        "hf.calls": (_sum(agg, layer("hf"), "calls"), "count"),
        "godel.compile_s": (agg["godel.compile_bounded"]["incl_s"], "s"),
        "godel.eval_calls": (calls("godel.eval_opterm"), "count"),
        "godel.op_calls": (calls("godel.fundamental_op"), "count"),
        "semantics.comprehension_calls":
            (calls("semantics.comprehension"), "count"),
        "semantics.satisfies_calls": (calls("semantics.satisfies"), "count"),
        "topology.nucleus_calls": (calls("topology.nucleus"), "count"),
        "topology.implies_calls": (calls("topology.implies"), "count"),
        "topology.big_join_calls": (calls("topology.big_join"), "count"),
        "names.make_name_calls": (calls("names.make_name"), "count"),
        "names.op_calls": (calls("names.op"), "count"),
        "names.serialize_calls": (calls("names.serialize_name"), "count"),
        "names.build_self_s": (_sum(agg, build, "self_s"), "s"),
        "names.eq_calls": (eq_calls, "count"),
        "names.mem_calls": (calls("names.Interpreter.mem"), "count"),
        "names.eq_distinct_ratio":
            (len(set(tracer.eq_pairs)) / eq_calls if eq_calls else 0.0,
             "ratio"),
        "names.value_self_s": (_sum(agg, value, "self_s"), "s"),
        "names.universe_s": (_sum(setup, universe, "incl_s"), "s"),
        "names.universe_size":
            (sum(n for i, n in tracer.universe_sizes if i < 0), "count"),
        "translate.dn_calls": (calls("translate.dn_translate"), "count"),
        "translate.coincidence_calls":
            (calls("translate.semantic_coincidence_check"), "count"),
        "formula.render_calls": (calls("formula.render"), "count"),
        "formula.substitute_calls": (calls("formula.substitute"), "count"),
        "formula.free_vars_calls": (calls("formula.free_vars"), "count"),
        "prover.prove_calls": (proves, "count"),
        "prover.nodes_expanded": (sum(e for _, e in proved), "count"),
        "prover.budget_exceeded": (exceeded, "count"),
        "prover.decided_ratio":
            ((proves - exceeded) / proves if proves else 0.0, "ratio"),
        "prover.sequent_make_calls": (calls("prover.Sequent.make"), "count"),
        "prover.check_s": (agg["prover.check_derivation"]["incl_s"], "s"),
    }
    for name in LAYERS:
        own = _sum(agg, layer(name), "self_s")
        m[f"{name}.self_s"] = (own, "s")
        m[f"{name}.self_share"] = (own / wall_s, "ratio")
    m["formula.setup_self_s"] = (_sum(setup, layer("formula"), "self_s"), "s")
    return m
