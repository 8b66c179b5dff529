"""trailcounts benchmark: one workload per run, every repetition in a fresh
interpreter, so no memo table carries over from one pass into the next.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 25 --trace 0

Workloads (BENCHMARK.json says why each exists; workload.py holds them):
  sweep          verify.run_sweep(SweepConfig(seed=...)) at the defaults
  count-dense    single `count` queries on dense graphs, all three engines
  long-symbolic  long lengths on sparse families, long walks on K_n

--trace 0  Passes run back to back, each in its own process, for about
           --seconds; then set-up-only processes until there are enough
           set-up samples. Reported: medians of setup_s, wall_s, peak_rss_mb.
--trace 1  Untraced and traced passes alternate for about --seconds. Reported: the
           per-layer metrics of the traced passes, the traced minus the
           untraced wall time as trace.overhead_s, and the edge probes.

Times are in seconds of a reference host, because a shared host's speed can
drift by far more than the bounds: each workload process times a fixed kernel
while it runs and scales its CPU time (less the kernel's) by the kernel's
speed (hostspeed.py). The raw wall times, CPU times and factors are in the
detail line.

Every pass is gated (workload.py); a wrong output counts as failed. The last
stdout line is {"correct", "attempted", "failed", "metrics"}; the line before
it holds the environment stamp and per-operation diagnostics. Load shape: one
workload process at a time, pinned to one CPU, its work on one thread beside
the host-speed sampler (they share the GIL, so one runs at a time), while
this parent only waits.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD = HERE / "workload.py"
PACKAGE = ROOT / "src" / "trailcounts"
NAMES = ("sweep", "count-dense", "long-symbolic")
SETUP_SAMPLES = 7
DEADLINE_S = 170.0  # every run must end within 180 s
# one thread per process: numpy's object arrays never use BLAS, but pin it
CHILD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1", "PYTHONHASHSEED": "0"}


class ChildFailed(RuntimeError):
    pass


def child(workload: str, seed: int, mode: str, trace: int, deadline: float) -> dict:
    """Run workload.py once in a fresh interpreter and return its result."""
    budget = deadline - time.perf_counter()
    if budget <= 0:
        raise ChildFailed("out of time before the next process")
    spawned = time.perf_counter()
    cmd = [sys.executable, str(WORKLOAD), "--workload", workload, "--seed", str(seed),
           "--mode", mode, "--trace", str(trace), "--spawned-at", repr(spawned)]
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env={**os.environ, **CHILD_ENV},
                              capture_output=True, text=True, timeout=budget)
    except subprocess.TimeoutExpired as exc:
        raise ChildFailed(f"{mode} process exceeded the run deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise ChildFailed(f"{mode} process exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(lines[-1])


def passes_for(seconds: float, deadline: float, run_one) -> list:
    """run_one() back to back, at least once, starting another only while it
    is expected to end within half its length of `seconds`, and never one
    that the last one's duration says would miss the deadline."""
    start = time.perf_counter()
    out, last = [], 0.0
    while not out or time.perf_counter() - start + last / 2 < seconds:
        if time.perf_counter() + last > deadline:
            break
        t = time.perf_counter()
        out.append(run_one())
        last = time.perf_counter() - t
    return out


def timed_run(args, deadline: float) -> tuple[list[dict], dict, dict]:
    passes = passes_for(args.seconds, deadline, lambda: child(args.workload, args.seed, "pass", 0, deadline))
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(child(args.workload, args.seed, "setup", 0, deadline)["setup_s"])
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "peak_rss_mb": statistics.median(p["peak_rss_mb"] for p in passes),
    }
    raw = {f"{key}_median": statistics.median(p[key] for p in passes)
           for key in ("raw_wall_s", "work_wall_s", "speed_wall_s", "raw_setup_s", "work_setup_s", "speed_setup_s")}
    return passes, metrics, {"setup_samples_s": setups, **raw}


def traced_run(args, deadline: float) -> tuple[list[dict], dict, dict]:
    def pair():
        return (child(args.workload, args.seed, "pass", 0, deadline),
                child(args.workload, args.seed, "pass", 1, deadline))

    pairs = passes_for(args.seconds, deadline, pair)
    untraced = [u for u, _ in pairs]
    traced = [t for _, t in pairs]

    def med(values):
        return statistics.median(list(values))

    metrics = {key: med(t["trace"][key] for t in traced) for key in traced[0]["trace"]}
    for key in ("verify.checks", "verify.flags", "corpus.graphs"):
        metrics[key] = med(u.get(key, 0) for u in untraced)
    for engine in ("oracle", "symbolic", "fock"):
        metrics[f"reports.engine_s.{engine}"] = med(u.get("engine_s", {}).get(engine, 0.0) for u in untraced)
    metrics["reports.overhead_s"] = med(u.get("overhead_s", 0.0) for u in untraced)
    metrics["trace.wall_s"] = med(t["wall_s"] for t in traced)
    metrics["trace.untraced_wall_s"] = med(u["wall_s"] for u in untraced)
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - metrics["trace.untraced_wall_s"]
    metrics.update(child(args.workload, args.seed, "probe", 0, deadline))
    return untraced + traced, metrics, {}


def stamp() -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.TimeoutExpired):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    cpu_model = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu_model = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {
        "git_commit": commit,
        "source_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "load": {"workload_processes": 1, "cpus_per_process": 1, "threads_per_process": 2,
                 "threads_running_at_once": 1, "cores_busy_max": 1},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, required=True, choices=(0, 1))
    args = parser.parse_args(argv)
    deadline = time.perf_counter() + DEADLINE_S

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    if not (PACKAGE / "__init__.py").is_file():
        print(f"error: no trailcounts package at {PACKAGE}", file=sys.stderr)
        return 1
    try:
        child(args.workload, args.seed, "setup", 0, deadline)  # untimed: byte-compile, warm the file cache
        run = traced_run if args.trace else timed_run
        passes, metrics, extra = run(args, deadline)
    except ChildFailed as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    controls = all(p["negative_control_rejected"] for p in passes)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": stamp(),
        "fail_ratio": failed / attempted,
        "negative_control_rejected": controls,
        "passes": [{k: v for k, v in p.items() if k not in ("trace", "failures")} for p in passes],
        "failures": [f for p in passes for f in p["failures"]][:20],
        **extra,
    }
    print(json.dumps(detail))
    result = {
        "correct": failed == 0 and controls,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
