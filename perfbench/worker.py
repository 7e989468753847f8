"""One workload in one single-threaded process; prints one JSON line.

    python3 perfbench/worker.py setup   WORKLOAD SEED
    python3 perfbench/worker.py measure WORKLOAD SEED SECONDS
    python3 perfbench/worker.py trace   WORKLOAD SEED

``setup`` times set-up alone: importing the library, the known-answer
check, generating the inputs, building topologies and name universes.
``measure`` sets up, then runs items one after another (closed loop) until
SECONDS have passed.  Set-up and item times are CPU times scaled by the
machine-speed probe in ``speed.py``.  ``trace`` sets up under the tracer,
runs the first ``TRACE_ITEMS`` items untraced and then the same items
traced, and reports the per-layer metrics.  ``run.py`` drives these and
reports.
"""

from __future__ import annotations

import hashlib
import json
import resource
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
TRACE_DIR = ROOT / ".bench_build" / "perfbench"
# Items in a traced run: about 3 s of untraced work, in whole cycles of
# each workload's strata.
TRACE_ITEMS = {"oracle": 24, "collection": 18, "forcing": 40, "prover": 30}


def use_source_tree() -> None:
    """Import czfkit from this checkout's ``src`` before any installed copy."""
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))


def set_up(workload: str, seed: int):
    """The workload's inputs and the CPU seconds set-up took, imports
    included."""
    started = time.thread_time()
    import workloads
    workloads.smoke()
    w = workloads.WORKLOADS[workload](seed)
    return w, time.thread_time() - started


def digest(w) -> str:
    text = "\n".join(w.describe(item) for item in w.items)
    return "sha256:" + hashlib.sha256(text.encode()).hexdigest()


def run_item(w, item) -> str:
    try:
        return w.run(item)
    except Exception as e:  # an item that raises is a failed item
        return f"raised {type(e).__name__}: {e}"


def measure(w, seconds: float, limit: int | None = None,
            probe: bool = True) -> dict:
    """Closed loop over the pool until ``seconds`` have passed (or ``limit``
    items are done); the pool repeats if it runs out.  Each item is timed
    by this thread's CPU time.  With ``probe``, machine-speed probes run
    between items (see ``speed.py``) and ``times_ms`` holds the item times
    scaled by them."""
    import speed
    raw, middles, failures = [], [], []
    track = speed.Track()
    pool = w.items
    started = time.perf_counter()
    i = 0
    while time.perf_counter() - started < seconds and \
            (limit is None or i < limit):
        if probe and track.due():
            track.sample()
        item = pool[i % len(pool)]
        start, t0 = time.perf_counter(), time.thread_time()
        outcome = run_item(w, item)
        raw.append((time.thread_time() - t0) * 1000.0)
        middles.append((start + time.perf_counter()) / 2)
        if outcome != "ok":
            failures.append((outcome, w.describe(item)))
        i += 1
    wall = time.perf_counter() - started
    if probe:
        track.sample()
        times = [ms * track.scale(t) for ms, t in zip(raw, middles)]
    else:
        times = raw
    return {"cpu_s": sum(raw) / 1000.0, "wall_s": wall, "times_ms": times,
            "raw_ms": raw, "probe_ms": track.ms, "failures": failures,
            "wrapped": i > len(pool)}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def traced(workload: str, seed: int, n_items: int | None = None) -> dict:
    """Per-layer metrics from one traced run of the first ``n_items``."""
    import tracing
    import workloads
    n_items = n_items or TRACE_ITEMS[workload]
    tracer = tracing.Tracer()
    tracer.install([workloads])
    try:
        w, _ = set_up(workload, seed)
    finally:
        tracer.uninstall()
    items = w.items[:n_items]
    plain = measure(w, float("inf"), n_items, probe=False)
    tracer.install([workloads])
    try:
        t0 = time.perf_counter()
        outcomes = []
        for i, item in enumerate(items):
            tracer.item_id = i
            outcomes.append(run_item(w, item))
        traced_wall = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    metrics = tracing.layer_metrics(tracer, traced_wall)
    metrics["trace_overhead_ratio"] = (traced_wall / plain["wall_s"], "ratio")
    TRACE_DIR.mkdir(parents=True, exist_ok=True)
    tracer.dump(TRACE_DIR / f"{workload}-seed{seed}.spans")
    failures = [(o, w.describe(it)) for o, it in zip(outcomes, items)
                if o != "ok"]
    return {"metrics": metrics, "traced_wall_s": traced_wall,
            "spans": len(tracer.start), "attempted": len(items),
            "failures": failures, "digest": digest(w)}


def main(argv: list[str]) -> int:
    mode, workload, seed = argv[0], argv[1], int(argv[2])
    use_source_tree()
    if mode == "setup":
        _, setup_s = set_up(workload, seed)
        import speed
        out = {"setup_s": setup_s * speed.scale_now(), "raw_setup_s": setup_s}
    elif mode == "measure":
        w, setup_s = set_up(workload, seed)
        import speed
        scale = speed.scale_now()
        out = measure(w, float(argv[3]))
        out.update(setup_s=setup_s * scale, raw_setup_s=setup_s,
                   digest=digest(w), peak_rss_mb=peak_rss_mb())
    elif mode == "trace":
        out = traced(workload, seed)
    else:
        print(f"unknown mode {mode!r}", file=sys.stderr)
        return 2
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
