"""czfkit benchmark: seeded exhaustive checks, end to end and layer by layer.

    python3 perfbench/run.py --workload oracle --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1

Each workload runs in its own single-threaded worker process, one item at a
time (closed loop).  With ``--trace 0`` the run sets up ``SETUP_RUNS`` times
in fresh processes and once more in the measuring process, then checks items
for ``--seconds`` seconds; it reports the end-to-end metrics.  Set-up and
item times are the worker's CPU time, which leaves out time it waited for a
core, scaled by a machine-speed probe run beside them (``speed.py``), which
takes out the host's swings in speed.  With ``--trace 1`` one traced worker
reports the per-layer metrics.  Every verdict is checked against its oracle.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  ``failed`` counts items that gave a wrong verdict or raised,
and ``correct`` is false when there is any.  ``failed_ratio`` in the table
also counts, on ``prover``, items that left a valid target undecided within
the node budget: the search's known limits, not wrong verdicts.  The process
exits 2, printing no result, when the library is not in ``src/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
WORKLOADS = ["oracle", "collection", "forcing", "prover"]
DEV_SEED = 1
HOLDOUT_SEED = 2  # kept aside for checking later claims
SETUP_RUNS = 9
DEADLINE_S = 170  # per workload, inside the 180 s one run may take


class WorkerFailed(RuntimeError):
    pass


def worker(deadline: float, *args) -> dict:
    """Run one worker process to completion, killing it at ``deadline``."""
    proc = subprocess.run([sys.executable, str(WORKER), *map(str, args)],
                          capture_output=True, text=True, cwd=ROOT,
                          timeout=max(deadline - time.monotonic(), 0.1))
    if proc.returncode != 0:
        raise WorkerFailed(f"worker {' '.join(map(str, args))} exited "
                           f"{proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def git_commit() -> str:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def environment(seed: int) -> dict:
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "cpu": cpu_model(), "commit": git_commit(), "seed": seed}


def end_to_end(workload: str, seed: int, seconds: float) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    setups = [worker(deadline, "setup", workload, seed)["setup_s"]
              for _ in range(SETUP_RUNS)]
    run = worker(deadline, "measure", workload, seed, seconds)
    setups.append(run["setup_s"])
    times = run["times_ms"]
    n = len(times)
    raw = run["raw_ms"]
    failed = len(run["failures"])
    rows = {
        "items_per_s": (n * 1000.0 / sum(times), "1/s", f"{n} items"),
        "item_p50_ms": (statistics.median(times), "ms", f"{n} items"),
        "item_p90_ms": (statistics.quantiles(times, n=10)[-1] if n > 1
                        else times[0], "ms", f"{n} items"),
        "setup_s": (statistics.median(setups), "s",
                    f"{len(setups)} set-ups"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB", "1 process"),
        "failed_ratio": (failed / n, "ratio", f"{n} items"),
    }
    return {"rows": rows, "attempted": n, "failures": run["failures"],
            "note": f"{n} items in {run['wall_s']:.2f} s wall, "
                    f"{run['cpu_s']:.2f} s CPU; unscaled: items_per_s "
                    f"{n / run['cpu_s']:.4g}, item_p50_ms "
                    f"{statistics.median(raw):.4g}; probe median "
                    f"{statistics.median(run['probe_ms']):.3g} ms over "
                    f"{len(run['probe_ms'])} samples",
            "digest": run["digest"], "wrapped": run["wrapped"],
            "metric_names": [k for k in rows if k != "failed_ratio"]}


def per_layer(workload: str, seed: int) -> dict:
    out = worker(time.monotonic() + DEADLINE_S, "trace", workload, seed)
    rows = {k: (v, unit, f"{out['attempted']} items")
            for k, (v, unit) in out["metrics"].items()}
    return {"rows": rows, "attempted": out["attempted"],
            "failures": out["failures"], "digest": out["digest"],
            "wrapped": False, "metric_names": list(rows),
            "spans": out["spans"]}


def report(workload: str, seed: int, result: dict) -> None:
    print(f"== {workload}  inputs {result['digest']}")
    print("env " + json.dumps(environment(seed), sort_keys=True))
    if "note" in result:
        print(result["note"])
    if "spans" in result:
        print(f"{result['spans']} spans")
    if result["wrapped"]:
        print("note: the item pool ran out and repeated")
    print(f"{'metric':32} {'value':>14} {'unit':6} samples")
    for name, (value, unit, samples) in result["rows"].items():
        print(f"{name:32} {value:14.6g} {unit:6} {samples}")
    for outcome, item in result["failures"][:10]:
        print(f"FAILED ({outcome}): {item}")


def summary(result: dict) -> dict:
    failed = sum(o != "undecided" for o, _ in result["failures"])
    return {
        "correct": failed == 0,
        "attempted": result["attempted"],
        "failed": failed,
        "metrics": {k: {"value": result["rows"][k][0],
                        "unit": result["rows"][k][1]}
                    for k in result["metric_names"]},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    ap.add_argument("--seed", type=int, default=DEV_SEED)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "czfkit" / "__init__.py").is_file():
        print(f"no czfkit package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else [args.workload]
    results = {}
    try:
        for name in names:
            result = per_layer(name, args.seed) if args.trace \
                else end_to_end(name, args.seed, args.seconds)
            report(name, args.seed, result)
            results[name] = summary(result)
    except (WorkerFailed, subprocess.TimeoutExpired) as e:
        print(e, file=sys.stderr)
        return 1
    if args.workload == "all":
        print(json.dumps(results))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
