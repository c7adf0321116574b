"""cvlab benchmark: seeded study workloads, end-to-end and per-layer metrics.

Run from the repository root::

    python3 bench/run.py --workload steps --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0

Each workload runs in its own fresh process (``worker.py``) with BLAS thread
pools pinned to one thread: a closed loop with one client, each study
starting when the previous one ends.  ``--trace 0`` reports the end-to-end
metrics, including the set-up time measured over several fresh
interpreters.  ``--trace 1`` runs the workload untraced and then traced, and
reports the per-layer metrics plus the tracing overhead.  The metric names
and units are those of ``BENCHMARK.json``; ``bench/METRICS.md`` defines them.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("smooth", "steps", "probes")  # as studies.WORKLOADS; not imported, so no numpy here
SETUP_PROBES = 2  # fresh interpreters that only set up; the worker adds one more sample
RUN_BUDGET = 175.0  # seconds for all the processes of one workload's run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def fail(message: str) -> int:
    print(f"bench: {message}", file=sys.stderr)
    return 2


def worker_env(root: str) -> dict:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    src = os.path.join(root, "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def spawn(root: str, workload: str, seed: int, deadline: float, *extra: str):
    """Run the worker in a fresh interpreter; (its JSON line, wall time at spawn).

    The worker is killed if it is still running at ``deadline`` (monotonic).
    """
    cmd = [sys.executable, os.path.join(HERE, "worker.py"),
           "--workload", workload, "--seed", str(seed), *extra]
    spawned = time.time()
    proc = subprocess.run(cmd, cwd=root, env=worker_env(root), capture_output=True,
                          text=True, timeout=max(deadline - time.monotonic(), 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(extra)} exited {proc.returncode}: "
                           f"{proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), spawned


def tail(times: list) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with ten studies beyond it."""
    ordered = sorted(times)
    n = len(ordered)
    return ordered[n - 11], 100.0 * (n - 10) / n


def run_workload(root: str, workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Measure one workload; returns metric values, counts and report lines."""
    deadline = time.monotonic() + RUN_BUDGET
    if not trace:
        setups = []
        for _ in range(SETUP_PROBES):
            doc, spawned = spawn(root, workload, seed, deadline, "--setup-only")
            setups.append(doc["ready"] - spawned)
    doc, spawned = spawn(root, workload, seed, deadline, "--seconds", str(seconds), "--trace", "0")
    times = [s["seconds"] for s in doc["studies"]]
    failed = [s for s in doc["studies"] if not s["passed"]]
    p50 = statistics.median(times)
    value, pct = tail(times)
    lines = [f"workload {workload}, seed {seed}: {len(times)} studies, closed loop with one "
             f"client, {sum(times):.1f} s of studies"]
    for s in failed[:5]:
        lines.append(f"  FAILED study ({s['kind']}): {s.get('error') or s.get('failures')}")
    out = {"attempted": len(times), "failed": len(failed), "versions": doc["versions"],
           "lines": lines}
    if not trace:
        setups.append(doc["ready"] - spawned)
        digits = [s["digits"] for s in doc["studies"] if "digits" in s]
        out["metrics"] = {
            "setup_s": statistics.median(setups),
            "study_s.p50": p50,
            "study_s.tail": value,
            "peak_rss_mb": doc["peak_rss_mb"],
            "accuracy_digits": statistics.median(digits) if digits else 0.0,
        }
        lines.append(f"  setup_s is the median of {len(setups)} fresh interpreters; "
                     f"study_s.tail is p{pct:.1f} of {len(times)} studies; "
                     f"failed_frac = {len(failed)}/{len(times)} = {len(failed) / len(times):.4g}")
        return out
    traced, _ = spawn(root, workload, seed, deadline, "--seconds", str(seconds), "--trace", "1")
    traced_times = [s["seconds"] for s in traced["studies"]]
    traced_failed = sum(not s["passed"] for s in traced["studies"])
    out["attempted"] += len(traced_times)
    out["failed"] += traced_failed
    metrics = dict(traced["layers"])
    traced_p50 = statistics.median(traced_times)
    metrics["trace.overhead_s"] = traced_p50 - p50
    metrics["trace.overhead_frac"] = (traced_p50 - p50) / p50
    out["metrics"] = metrics
    lines.append(f"  traced: {len(traced_times)} studies ({traced_failed} failed), "
                 f"{traced['spans']} spans written to {traced['span_file']}; study_s.p50 "
                 f"{traced_p50:.4f} s traced vs {p50:.4f} s untraced")
    return out


def machine_note(versions: dict) -> str:
    try:
        usable = len(os.sched_getaffinity(0))
    except AttributeError:
        usable = os.cpu_count()
    return (f"machine: nproc={usable} (cpu_count {os.cpu_count()}), python {versions['python']}, "
            f"numpy {versions['numpy']}, scipy {versions['scipy']}, BLAS threads 1 "
            f"({', '.join(THREAD_VARS)}=1)")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cvlab study benchmark")
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        return fail("--seconds must be at least 1")

    root = os.getcwd()
    try:
        with open(os.path.join(root, "BENCHMARK.json")) as fh:
            spec = json.load(fh)
    except (OSError, ValueError) as exc:
        return fail(f"cannot read BENCHMARK.json in {root}: {exc}")
    if not os.path.isfile(os.path.join(root, "src", "cvlab", "__init__.py")):
        return fail(f"no cvlab sources under {root}/src; run from the repository root")
    units = {m["name"]: m["unit"] for m in spec["per_layer" if args.trace else "end_to_end"]}

    workloads = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for workload in workloads:
            results[workload] = run_workload(root, workload, args.seed, args.seconds, args.trace)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as exc:
        return fail(str(exc))

    print(machine_note(next(iter(results.values()))["versions"]))
    metrics = {}
    for workload, res in results.items():
        missing = set(units) - set(res["metrics"])
        if missing:
            return fail(f"{workload}: no value for {sorted(missing)}")
        print("\n".join(res["lines"]))
        for name, unit in units.items():
            value = float(res["metrics"][name])
            print(f"  {name:36s} {value:>16.6g} {unit}")
            key = name if len(workloads) == 1 else f"{workload}.{name}"
            metrics[key] = {"value": value, "unit": unit}
    attempted = sum(r["attempted"] for r in results.values())
    failed = sum(r["failed"] for r in results.values())
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
