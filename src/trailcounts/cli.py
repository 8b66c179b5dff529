"""Command-line front end.

Subcommands: count (one query, any engine), verify (cross-engine invariant
sweep), example (re-derive the built-in 4-cycle reference values), bench
(timing table).

Exit codes: 0 success / all checks pass, 1 usage or bad input, 2 engine
capacity or budget exhaustion, 3 verification failure.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import itertools
import sys
from pathlib import Path

from . import families, reports, verify
from .errors import BudgetExceededError, CapacityError, EdgeListError
from .graphs import Graph, decimal_str, parse_edge_list
from .nilpotent import PathVariant

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CAPACITY = 2
EXIT_VERIFY_FAIL = 3


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on its own; the exit-code contract reserves 2 for
    # capacity errors, so usage problems are rethrown and mapped to 1
    def error(self, message):
        raise _UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(prog="trailcounts", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p_count = sub.add_parser("count", help="count walks/trails/paths/... on one graph")
    p_count.add_argument("--input", required=True, help="edge-list file")
    p_count.add_argument("--kind", required=True, choices=reports.KINDS)
    p_count.add_argument("--length", type=int, help="walk length (not used for euler/hamiltonian)")
    p_count.add_argument("--from", dest="u", type=int, required=True, help="start vertex (1-based)")
    p_count.add_argument("--to", dest="v", type=int, help="end vertex (defaults to --from)")
    p_count.add_argument("--engine", default="all", choices=reports.ENGINES + ("all",))
    p_count.add_argument(
        "--variant",
        choices=[v.value for v in PathVariant],
        help="paths only: literal observable or start-guarded correction",
    )
    p_count.add_argument("--format", default="text", choices=("json", "csv", "text"))

    p_verify = sub.add_parser("verify", help="run the cross-engine invariant sweep")
    p_verify.add_argument("--n-max", type=int, default=6)
    p_verify.add_argument("--l-max", type=int, default=6)
    p_verify.add_argument(
        "--source", default="all-connected-up-to-n", choices=("all-connected-up-to-n", "random")
    )
    p_verify.add_argument("--count", type=int, default=20, help="random source: number of draws")
    p_verify.add_argument("--p", type=float, default=0.5, help="random source: edge probability")
    p_verify.add_argument("--seed", type=int, default=1729)
    p_verify.add_argument(
        "--engines", default="oracle,symbolic,fock", help="comma-separated engine subset"
    )
    p_verify.add_argument("--skip-named", action="store_true", help="omit the named acceptance graphs")
    p_verify.add_argument("--format", default="text", choices=("json", "text"))

    p_example = sub.add_parser(
        "example", help="re-derive the built-in 4-cycle reference values and compare"
    )
    p_example.add_argument(
        "--input", help="substitute edge-list file (negative control: mismatches exit 3)"
    )
    p_example.add_argument("--format", default="text", choices=("json", "text"))

    p_bench = sub.add_parser("bench", help="timing table (CSV) over a graph family")
    p_bench.add_argument("--family", default="cycle", choices=("cycle", "complete", "petersen"))
    p_bench.add_argument("--min-n", type=int, default=3)
    p_bench.add_argument("--max-n", type=int, default=8)
    p_bench.add_argument("--kind", default="trails", choices=reports.KINDS)
    p_bench.add_argument("--length", type=int, default=3, help="ignored for euler/hamiltonian")
    p_bench.add_argument("--engines", default="oracle,symbolic", help="comma-separated engines")
    return parser


def _load_graph(path: str) -> tuple[str, Graph]:
    text = Path(path).read_text()
    g = parse_edge_list(text)
    digest = hashlib.sha256(text.encode()).hexdigest()[:12]
    return f"{Path(path).name}:{digest}", g


def _engines(arg: str) -> tuple[str, ...]:
    return tuple(e.strip() for e in arg.split(",") if e.strip())


def _check_query(*query) -> None:
    """reports.check_query's refusal as a usage error, before any output."""
    try:
        reports.check_query(*query)
    except ValueError as exc:
        raise _UsageError(str(exc)) from None


def _cmd_count(args) -> int:
    graph_id, g = _load_graph(args.input)
    kind = args.kind
    if args.variant is not None and kind != "paths":
        raise _UsageError("--variant applies to --kind paths only")
    variant = PathVariant(args.variant) if args.variant else PathVariant.LITERAL
    derived = reports.KIND_TABLE[kind].derived_length is not None
    if derived and args.length is not None:
        raise _UsageError(f"--length is derived for --kind {kind} (|E| resp. n)")
    if not derived and args.length is None:
        raise _UsageError(f"--kind {kind} requires --length")

    u = args.u
    v = args.v if args.v is not None else u
    engines = reports.ENGINES if args.engine == "all" else (args.engine,)
    _check_query(g, kind, args.length, u, v, engines, variant)
    report = reports.run_count_query(g, graph_id, kind, args.length, u, v, engines, variant)

    if args.format == "json":
        print(report.to_json())
    elif args.format == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf)
        writer.writerow(reports.CSV_HEADER)
        writer.writerows(report.to_csv_rows())
        print(buf.getvalue(), end="")
    else:
        print(report.to_text())

    if any(ev.error is not None for ev in report.engines.values()):
        return EXIT_CAPACITY
    return EXIT_OK


def _cmd_verify(args) -> int:
    try:
        config = verify.SweepConfig(
            n_max=args.n_max,
            l_max=args.l_max,
            source=args.source,
            random_count=args.count,
            edge_probability=args.p,
            seed=args.seed,
            engines=_engines(args.engines),
            include_named=not args.skip_named,
        )
    except ValueError as exc:
        raise _UsageError(str(exc)) from None
    summary = verify.run_sweep(config)
    if args.format == "json":
        print(reports.canonical_json(summary.to_json_obj()))
    else:
        print(summary.to_text())
    return EXIT_OK if summary.passed else EXIT_VERIFY_FAIL


def _cmd_example(args) -> int:
    graph = None
    if args.input:
        _, graph = _load_graph(args.input)
    checks = verify.reference_example_checks(graph)
    ok = sum(1 for c in checks if c.ok)
    if args.format == "json":
        payload = {
            "checks": [c.to_json_obj() for c in checks],
            "reproduced": ok,
            "total": len(checks),
        }
        print(reports.canonical_json(payload))
    else:
        for c in checks:
            line = f"{'ok  ' if c.ok else 'FAIL'} {c.name}"
            if not c.ok:
                line += f"  expected={c.expected!r} actual={c.actual!r}"
            print(line)
        print(f"{ok}/{len(checks)} reference values reproduced")
    return EXIT_OK if ok == len(checks) else EXIT_VERIFY_FAIL


def _bench_graph(family: str, n: int) -> Graph:
    if family == "cycle":
        return families.cycle_graph(n)
    if family == "complete":
        return families.complete_graph(n)
    return families.petersen_graph()


def _cmd_bench(args) -> int:
    if args.family != "petersen" and args.min_n > args.max_n:
        raise _UsageError(f"--min-n {args.min_n} is greater than --max-n {args.max_n}")
    sizes = [args.min_n] if args.family == "petersen" else range(args.min_n, args.max_n + 1)
    try:  # the smallest size is checked before the header; a larger one then builds too
        first = _bench_graph(args.family, sizes[0])
    except ValueError as exc:
        raise _UsageError(f"--family {args.family}: {exc}") from None
    engines = _engines(args.engines)
    # a row's ends, 1 and 1 or min(2, n), break no rule, so 1 to 1 stands for every row
    _check_query(first, args.kind, args.length, 1, 1, engines)
    closed = reports.KIND_TABLE[args.kind].closed
    writer = csv.writer(sys.stdout)
    writer.writerow(["family", "n", "kind", "length", "engine", "value", "wall_time_ms"])
    # each later graph is built when its row runs
    for g in itertools.chain([first], (_bench_graph(args.family, n) for n in sizes[1:])):
        v = 1 if closed else min(2, g.n)
        report = reports.run_count_query(g, args.family, args.kind, args.length, 1, v, engines)
        for engine, ev in report.engines.items():
            # a refused engine prints DNF, and its None time an empty cell
            value = "DNF" if ev.error is not None else decimal_str(ev.value)
            writer.writerow([args.family, g.n, args.kind, report.length, engine, value, ev.wall_time_ms])
    return EXIT_OK


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "example":
            return _cmd_example(args)
        return _cmd_bench(args)
    except _UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        parser.print_usage(sys.stderr)
        return EXIT_USAGE
    except (EdgeListError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (CapacityError, BudgetExceededError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CAPACITY


def entry() -> None:
    sys.exit(main())
