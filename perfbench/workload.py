"""One benchmark process: set up a workload, run one timed pass, gate it.

run.py starts this file in a fresh interpreter for every repetition, so no
memo table survives from one pass into the next. The last line of stdout is
one JSON object.

The process pins itself to one CPU and samples the host's speed while it
runs (hostspeed.py); setup_s and wall_s are its CPU time scaled by that speed.

Modes:
  pass   set up, run the workload's operation list once, check every output
  setup  set up only (extra samples of setup_s)
  probe  untimed edge probes of known defects

    python3 perfbench/workload.py --workload count-dense --seed 1 --mode pass \
        --spawned-at "$(python3 -c 'import time; print(time.perf_counter())')"
"""

from __future__ import annotations

import argparse
import json
import random
import resource
import sys
import time
from dataclasses import dataclass
from math import perm
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

from hostspeed import HostSpeed, cpu_seconds  # noqa: E402

# As a benchmark process, sample the host's speed from before the imports
# that set-up time counts; as a module (record.py), start nothing.
SPEED = HostSpeed().start() if __name__ == "__main__" else None

sys.path.insert(0, str(SRC))
import trailcounts  # noqa: E402

if not Path(trailcounts.__file__).resolve().is_relative_to(SRC.resolve()):
    sys.exit(f"trailcounts was imported from {trailcounts.__file__}, not from {SRC}")

from trailcounts import families, reports, verify  # noqa: E402
from trailcounts.graphs import Graph  # noqa: E402
from trailcounts.nilpotent import PathVariant  # noqa: E402

ALL = reports.ENGINES
ORACLE_SYMBOLIC = ("oracle", "symbolic")


@dataclass(frozen=True)
class Query:
    """One `trailcounts count` query. length None means derived, as the CLI
    derives it: |E| for euler, n for hamiltonian."""

    family: str
    n: int
    kind: str
    length: int | None
    u: int
    v: int
    engines: tuple[str, ...] = ALL
    variant: str = "literal"

    def graph(self) -> Graph:
        if self.family == "petersen":
            return families.petersen_graph()
        if self.family == "bowtie":
            return families.bowtie_graph()
        return getattr(families, f"{self.family}_graph")(self.n)

    @property
    def key(self) -> str:
        length = "derived" if self.length is None else self.length
        return f"{self.family}{self.n}/{self.kind}/l={length}/{self.u}->{self.v}/{self.variant}"


# No two queries of one workload look up the same oracle table (same graph
# up to relabeling, start vertex, table kind and length), so no timed value
# can be a memo lookup; the traced run counts such hits to prove it.
WORKLOADS: dict[str, list[Query]] = {
    # Deep single-graph recursions in the oracle and Fock walkers, plus the
    # report's _annotate work; the nilpotent engine is about 1% here.
    "count-dense": [
        Query("complete", 7, "trails", 8, 1, 2),
        Query("complete", 9, "paths", 8, 1, 2),
        Query("complete", 9, "paths", 7, 1, 2, variant="guarded"),
        Query("complete", 7, "walks", 7, 1, 2),
        Query("complete", 8, "hamiltonian", None, 1, 1),
        Query("complete", 8, "cycles", 7, 1, 1),
        Query("complete", 5, "euler", None, 1, 1),
        Query("bowtie", 5, "euler", None, 1, 1),
        Query("petersen", 10, "walks", 12, 1, 2, ORACLE_SYMBOLIC),
    ],
    # Long lengths: the nilpotent row power on sparse families and exact
    # adjacency powers on K_n, sized so that each does at least a third of
    # the work. The Fock engine only refuses the C_n registers in _annotate.
    "long-symbolic": [
        Query("cycle", 600, "euler", None, 1, 1, ORACLE_SYMBOLIC),
        Query("cycle", 600, "cycles", 600, 1, 1, ORACLE_SYMBOLIC),
        Query("cycle", 600, "trails", 300, 1, 301, ORACLE_SYMBOLIC),
        Query("cycle", 500, "trails", 500, 1, 1, ORACLE_SYMBOLIC),
        Query("path", 600, "paths", 599, 1, 600, ORACLE_SYMBOLIC, "guarded"),
        Query("path", 500, "paths", 499, 1, 500, ORACLE_SYMBOLIC),
        Query("complete", 40, "walks", 300, 1, 2, ("symbolic",)),
        Query("complete", 30, "walks", 100, 1, 1, ("symbolic",)),
    ],
}
SWEEP = "sweep"
NAMES = (SWEEP, *WORKLOADS)
SWEEP_SEED_BASE = 1729  # the CLI's default sweep seed
SWEEP_SEED_SLOTS = 16  # sweep seeds with recorded case counts: base .. base+15


def sweep_seed(seed: int) -> int:
    return SWEEP_SEED_BASE + seed % SWEEP_SEED_SLOTS


def closed_form(q: Query, length: int) -> int | None:
    """The exact count from a formula independent of every engine, or None."""
    n, l, u, v = q.n, length, q.u, q.v
    if q.family == "complete":
        if q.kind == "walks":
            sign = (-1) ** l
            return ((n - 1) ** l + (n - 1) * sign) // n if u == v else ((n - 1) ** l - sign) // n
        if q.kind in ("cycles", "hamiltonian"):
            return perm(n - 1, l - 1)  # ordered choice of the other l-1 vertices
        if q.kind == "paths" and q.variant == "guarded" and u != v:
            return perm(n - 2, l - 1)
    if q.family == "cycle" and q.kind in ("trails", "cycles", "euler") and 1 <= l <= n:
        # a trail on C_n never turns back: it runs l steps one way or the other
        return int((u - 1 + l) % n == v - 1) + int((u - 1 - l) % n == v - 1)
    if q.family == "path" and q.kind == "paths" and {u, v} == {1, n} and l == n - 1:
        return 1
    return None


def relabeled(q: Query, seed: int, index: int, workload: str) -> tuple[Graph, int, int]:
    """The query graph under a seeded vertex relabeling, endpoints mapped, so
    every count is unchanged but each query gets a graph object of its own."""
    g = q.graph()
    order = list(range(1, g.n + 1))
    random.Random(f"{workload}:{seed}:{index}").shuffle(order)
    label = dict(zip(range(1, g.n + 1), order))
    moved = Graph.from_edges(g.n, [(label[a], label[b]) for a, b in g.edges])
    return moved, label[q.u], label[q.v]


# ---------------------------------------------------------------------------
# query workloads


def setup_queries(workload: str, seed: int) -> list[tuple[Query, Graph, int, int, int]]:
    out = []
    for i, q in enumerate(WORKLOADS[workload]):
        g, u, v = relabeled(q, seed, i, workload)
        length = {"euler": g.edge_count, "hamiltonian": g.n}.get(q.kind, q.length)
        out.append((q, g, u, v, length))
    return out


def run_queries(inputs, tracer=None) -> list[dict]:
    """The timed pass: each query as `trailcounts count --format json` runs
    it. Exceptions are caught per query and gated as failures."""
    results = []
    clock = time.perf_counter
    for i, (q, g, u, v, length) in enumerate(inputs):
        if tracer is not None:
            tracer.epoch = i + 1
        start = clock()
        try:
            report = reports.run_count_query(
                g, q.key, q.kind, length, u, v, q.engines, PathVariant(q.variant)
            )
            text = report.to_json()
            error = None
        except Exception as exc:  # gated below as a failure of every engine value
            text, error = None, f"{type(exc).__name__}: {exc}"
        results.append({"wall_s": clock() - start, "json": text, "error": error})
    return results


def gate_query(q: Query, length: int, result: dict, expected: dict, bump: int = 0) -> tuple[int, list[str]]:
    """Failed engine values of one query and why: a wrong or missing value,
    an engine disagreement, a wrong set of discrepancy codes, an exception.
    bump shifts the expected value (the negative control)."""
    want = closed_form(q, length)
    if want is None:
        want = expected["values"][q.key]
    want += bump
    if result["error"] is not None:
        return len(q.engines), [result["error"]]
    report = json.loads(result["json"])
    why = []
    codes = [note["code"] for note in report["notes"]]
    if codes != expected["notes"][q.key]:
        why.append(f"notes {codes} != {expected['notes'][q.key]}")
    if not all(report["agreement"].values()):
        why.append(f"engines disagree: {report['agreement']}")
    failed = 0
    for name in q.engines:
        got = report["engines"][name].get("value", report["engines"][name].get("error"))
        if got != str(want):
            why.append(f"{name} gave {got}, expected {want}")
        if got != str(want) or why:
            failed += 1
    return failed, why


def gate_queries(inputs, results, expected, bumped: int | None = None) -> tuple[int, int, list[dict]]:
    attempted = failed = 0
    failures = []
    for i, ((q, g, u, v, length), result) in enumerate(zip(inputs, results)):
        bad, why = gate_query(q, length, result, expected, bump=int(i == bumped))
        attempted += len(q.engines)
        failed += bad
        if why:
            failures.append({"query": q.key, "why": why})
    return attempted, failed, failures


def query_negative_control(inputs, results, expected) -> bool:
    """True when the gate rejects the pass once the first query's expected
    value is off by one."""
    return gate_queries(inputs, results, expected, bumped=0)[1] > 0


def query_diagnostics(inputs, results, factor: float) -> tuple[list[dict], dict[str, float], float]:
    """Per-query wall time and engine ms keyed by (family, n, kind, length),
    plus engine totals and the report overhead (_annotate, assembly, JSON),
    all multiplied by the pass's host-speed factor (hostspeed.py)."""
    ops, engine_s = [], dict.fromkeys(ALL, 0.0)
    for (q, g, u, v, length), result in zip(inputs, results):
        engines_ms = {}
        if result["json"] is not None:
            for name, ev in json.loads(result["json"])["engines"].items():
                ms = ev.get("wall_time_ms")
                engines_ms[name] = None if ms is None else ms * factor
                engine_s[name] += (ms or 0.0) * factor / 1000.0
        ops.append(
            {
                "family": q.family,
                "n": q.n,
                "kind": q.kind,
                "length": length,
                "variant": q.variant,
                "wall_ms": result["wall_s"] * factor * 1000.0,
                "engines_ms": engines_ms,
            }
        )
    overhead = sum(r["wall_s"] for r in results) * factor - sum(engine_s.values())
    return ops, engine_s, overhead


# ---------------------------------------------------------------------------
# sweep workload


def setup_sweep(seed: int) -> verify.SweepConfig:
    config = verify.SweepConfig(seed=sweep_seed(seed))
    verify.build_corpus(config)  # corpus canonicalization, paid by every `verify`
    return config


def gate_sweep(summary, recorded: dict) -> tuple[int, int, list[dict]]:
    """attempted = the recorded number of invariant cases. Every failed case,
    every case too many or too few per invariant, and every flag off the
    recorded totals counts as failed."""
    attempted = sum(recorded["cases"].values())
    if summary is None:
        return attempted, attempted, [{"why": "run_sweep raised"}]
    failures = []
    failed = 0
    cases = {inv.name: inv for inv in summary.invariants}
    for name in sorted(set(cases) | set(recorded["cases"])):
        inv = cases.get(name)
        got = inv.cases if inv else 0
        bad = (inv.failure_count if inv else 0) + abs(got - recorded["cases"].get(name, 0))
        if bad:
            failed += bad
            failures.append({"invariant": name, "cases": got, "recorded": recorded["cases"].get(name, 0)})
    for code in sorted(set(summary.flag_totals) | set(recorded["flags"])):
        got, want = summary.flag_totals.get(code, 0), recorded["flags"].get(code, 0)
        if got != want:
            failed += abs(got - want)
            failures.append({"flag": code, "total": got, "recorded": want})
    if summary.graph_count != recorded["graphs"] or not summary.passed:
        failed += 1
        failures.append({"graphs": summary.graph_count, "passed": summary.passed})
    return attempted, min(failed, attempted), failures


def sweep_negative_control(summary, recorded: dict) -> bool:
    altered = json.loads(json.dumps(recorded))
    name = sorted(altered["cases"])[0]
    altered["cases"][name] += 1
    return gate_sweep(summary, altered)[1] > 0


# ---------------------------------------------------------------------------
# probes


def probes() -> dict[str, int]:
    """Known defects, kept visible outside the timed passes: the recursive
    oracle overflows the stack on long walks, and `count` on Petersen trails
    gets a Fock capacity refusal instead of the compact register."""
    out = {"probe.recursion_error": 0, "probe.capacity_refusal": 0}
    try:
        reports.run_count_query(families.complete_graph(2), "k2", "walks", 3000, 1, 1)
    except RecursionError:
        out["probe.recursion_error"] = 1
    report = reports.run_count_query(families.petersen_graph(), "petersen", "trails", 5, 1, 2)
    if "register needs" in (report.engines["fock"].error or ""):  # CapacityError text
        out["probe.capacity_refusal"] = 1
    return out


# ---------------------------------------------------------------------------


def host_scaled(name: str, start: float, end: float, cpu_start: float, cpu_end: float) -> dict:
    """The work done from start to end in seconds of the reference host
    (hostspeed.py), next to the raw wall time, the work and the factor."""
    work = SPEED.work(start, end, cpu_start, cpu_end)
    factor = SPEED.factor(start, end)
    return {name: work * factor, f"raw_{name}": end - start, f"work_{name}": work, f"speed_{name}": factor}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--mode", required=True, choices=("pass", "setup", "probe"))
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    parser.add_argument("--spawned-at", type=float, required=True, help="parent's perf_counter at spawn")
    args = parser.parse_args(argv)

    if args.mode == "probe":
        SPEED.stop()
        print(json.dumps(probes()))
        return 0

    tracer = None
    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()

    expected = json.loads(EXPECTED_PATH.read_text())
    sweep = args.workload == SWEEP
    inputs = setup_sweep(args.seed) if sweep else setup_queries(args.workload, args.seed)
    start, cpu_start = time.perf_counter(), cpu_seconds()
    out = host_scaled("setup_s", args.spawned_at, start, 0.0, cpu_start)
    if args.mode == "setup":
        SPEED.stop()
        print(json.dumps(out))
        return 0

    if sweep:
        try:
            summary = verify.run_sweep(inputs)
        except Exception:  # gated as a failure of every case
            summary = None
        end, cpu_end = time.perf_counter(), cpu_seconds()
        SPEED.stop()
        out.update(host_scaled("wall_s", start, end, cpu_start, cpu_end))
        recorded = expected["sweep"][str(inputs.seed)]
        attempted, failed, failures = gate_sweep(summary, recorded)
        out["negative_control_rejected"] = sweep_negative_control(summary, recorded)
        if summary is not None:
            out["verify.checks"] = sum(inv.cases for inv in summary.invariants)
            out["verify.flags"] = sum(summary.flag_totals.values())
            out["corpus.graphs"] = summary.graph_count
    else:
        results = run_queries(inputs, tracer)
        end, cpu_end = time.perf_counter(), cpu_seconds()
        SPEED.stop()
        out.update(host_scaled("wall_s", start, end, cpu_start, cpu_end))
        attempted, failed, failures = gate_queries(inputs, results, expected)
        out["negative_control_rejected"] = query_negative_control(inputs, results, expected)
        out["ops"], out["engine_s"], out["overhead_s"] = query_diagnostics(inputs, results, out["speed_wall_s"])
    out.update(
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        attempted=attempted,
        failed=failed,
        failures=failures[:20],
    )
    if tracer is not None:
        # self times in seconds of the reference host, like wall_s
        trace = tracer.summary(start, end)
        out["trace"] = {k: v * out["speed_wall_s"] if k.endswith("_s") else v for k, v in trace.items()}
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
