"""Checks on the benchmark itself: seeded inputs, a live oracle and a
consistent trace.  Run with ``python3 -m pytest perfbench``."""

from __future__ import annotations

import dataclasses
import subprocess
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))
import worker  # noqa: E402

worker.use_source_tree()
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from czfkit import godel, hf, names, prover  # noqa: E402

ALL = list(workloads.WORKLOADS)


@pytest.mark.parametrize("name", ALL)
def test_same_seed_gives_identical_inputs(name):
    make = workloads.WORKLOADS[name]
    first, again = make(run.DEV_SEED), make(run.DEV_SEED)
    texts = [first.describe(item) for item in first.items]
    assert texts == [again.describe(item) for item in again.items]
    assert worker.digest(first) == worker.digest(again)
    assert worker.digest(make(run.HOLDOUT_SEED)) != worker.digest(first)


def test_results_carry_the_input_digest():
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", "oracle",
         "--seed", str(run.HOLDOUT_SEED), "--seconds", "0.2"],
        capture_output=True, text=True, check=True).stdout
    want = worker.digest(workloads.Oracle(run.HOLDOUT_SEED))
    assert f"inputs {want}" in out
    assert f'"seed": {run.HOLDOUT_SEED}' in out


def _flip_first(fn, flip):
    """fn, except that the first outermost call whose result ``flip``
    changes returns the flipped result."""
    state = {"depth": 0, "done": False}

    def wrapped(*args, **kwargs):
        state["depth"] += 1
        try:
            result = fn(*args, **kwargs)
        finally:
            state["depth"] -= 1
        if state["depth"] == 0 and not state["done"] \
                and flip(result) != result:
            state["done"] = True
            return flip(result)
        return result
    return wrapped


def _flip_outcome(r):
    proved = prover.Outcome.PROVED
    return dataclasses.replace(
        r, outcome=prover.Outcome.NOT_PROVABLE if r.outcome is proved
        else proved)


CORRUPTIONS = {
    "oracle": (godel, "eval_opterm", lambda v: hf.hfset(v)),
    "collection": (names, "strong_collection_witness",
                   lambda b: names.EMPTY_NAME),
    "forcing": (names.Interpreter, "value", lambda v: frozenset()),
    "prover": (prover, "prove_formula", _flip_outcome),
}


@pytest.mark.parametrize("name,items", [("oracle", 4), ("collection", 6),
                                        ("forcing", 20), ("prover", 3)])
def test_one_corrupted_result_is_caught(name, items, monkeypatch):
    w = workloads.WORKLOADS[name](run.DEV_SEED)
    clean = worker.measure(w, float("inf"), items)
    owner, attr, flip = CORRUPTIONS[name]
    monkeypatch.setattr(owner, attr, _flip_first(getattr(owner, attr), flip))
    broken = worker.measure(w, float("inf"), items)
    assert len(broken["failures"]) > len(clean["failures"])


@pytest.mark.parametrize("name,items", [("oracle", 3), ("collection", 5),
                                        ("forcing", 20), ("prover", 9)])
def test_traced_runs_repeat_their_counts(name, items):
    original = godel.eval_opterm
    first = worker.traced(name, run.DEV_SEED, items)
    second = worker.traced(name, run.DEV_SEED, items)
    assert godel.eval_opterm is original

    def counts(result):
        return {k: v for k, (v, unit) in result["metrics"].items()
                if unit == "count"}
    assert counts(first) and counts(first) == counts(second)
    for result in (first, second):
        metrics = result["metrics"]
        layer_self = sum(metrics[f"{layer}.self_s"][0]
                         for layer in tracing.LAYERS)
        assert 0 < layer_self <= result["traced_wall_s"]
        assert metrics["trace_overhead_ratio"][0] > 0


def test_only_wrong_or_raised_items_count_as_failed():
    result = {"attempted": 3, "rows": {}, "metric_names": [],
              "failures": [("undecided", "a"), ("undecided", "b")]}
    assert run.summary(result)["failed"] == 0
    assert run.summary(result)["correct"]
    result["failures"].append(("raised ValueError: x", "c"))
    assert run.summary(result)["failed"] == 1
    assert not run.summary(result)["correct"]
