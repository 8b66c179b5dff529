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
    names = tuple(e.strip() for e in arg.split(",") if e.strip())
    for e in names:
        if e not in reports.ENGINES:
            raise _UsageError(f"unknown engine {e!r}; choose from {reports.ENGINES}")
    if not names:
        raise _UsageError("at least one engine is required")
    return names


def _check_length(kind: str, length: int | None) -> None:
    """Refuse a given length below the kind's least; a derived length is
    not checked. A length below 1 (below 0 for walks) gets the general
    message; a kind with a higher least length (cycles) names its own."""
    spec = reports.KIND_TABLE[kind]
    if spec.derived_length is not None:
        return
    floor = min(spec.min_length, 1)
    if length < floor:
        raise _UsageError(f"--length must be >= {floor} for --kind {kind}")
    if length < spec.min_length:
        raise _UsageError(f"{kind} need --length >= {spec.min_length}")


def _cmd_count(args) -> int:
    graph_id, g = _load_graph(args.input)
    kind = args.kind
    if args.variant is not None and kind != "paths":
        raise _UsageError("--variant applies to --kind paths only")
    variant = PathVariant(args.variant) if args.variant else PathVariant.LITERAL

    u = args.u
    v = args.v if args.v is not None else u
    g.require_vertex(u)
    g.require_vertex(v)
    spec = reports.KIND_TABLE[kind]
    if spec.derived_length is not None and args.length is not None:
        raise _UsageError(f"--length is derived for --kind {kind} (|E| resp. n)")
    if spec.derived_length is None and args.length is None:
        raise _UsageError(f"--kind {kind} requires --length")
    _check_length(kind, args.length)
    if spec.closed and v != u:
        raise _UsageError(f"--kind {kind} is closed; --to must equal --from")

    engines = reports.ENGINES if args.engine == "all" else (args.engine,)
    report = reports.run_count_query(g, graph_id, kind, spec.length(g, args.length), u, v, engines, variant)

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
    engines = _engines(args.engines)
    _check_length(args.kind, args.length)
    spec = reports.KIND_TABLE[args.kind]
    if args.family != "petersen" and args.min_n > args.max_n:
        raise _UsageError(f"--min-n {args.min_n} is greater than --max-n {args.max_n}")
    sizes = [args.min_n] if args.family == "petersen" else range(args.min_n, args.max_n + 1)
    try:  # every size is checked before the header is written
        graphs = [_bench_graph(args.family, n) for n in sizes]
    except ValueError as exc:
        raise _UsageError(f"--family {args.family}: {exc}") from None
    writer = csv.writer(sys.stdout)
    writer.writerow(["family", "n", "kind", "length", "engine", "value", "wall_time_ms"])
    for g in graphs:
        length = spec.length(g, args.length)
        u, v = 1, (1 if spec.closed else min(2, g.n))
        report = reports.run_count_query(g, args.family, args.kind, length, u, v, engines)
        for engine, ev in report.engines.items():
            # a refused engine prints DNF, and its None time an empty cell
            value = "DNF" if ev.error is not None else decimal_str(ev.value)
            writer.writerow([args.family, g.n, args.kind, length, engine, value, ev.wall_time_ms])
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
