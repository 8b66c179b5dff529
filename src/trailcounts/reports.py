"""Count reports: run a query against the engines, time them, compare them.

Counts serialize as decimal strings so downstream JSON consumers never
overflow. JSON emission is canonical (sorted keys, fixed separators), so
parse + re-emit is byte-identical.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field, replace
from typing import Callable

from . import fock, nilpotent, oracle
from .errors import BudgetExceededError
from .graphs import Graph, decimal_str, walk_count
from .nilpotent import PathVariant
from .oracle import WalkClass

# Machine-readable discrepancy codes; downstream tooling asserts on these.
PROP2_LITERAL_OVERCOUNT = "PROP2_LITERAL_OVERCOUNT"
DMATRIX_SQUARED = "DMATRIX_SQUARED"
# each note's message, from an engine's value and the second number its pass gave
_NOTE_MESSAGES = {
    PROP2_LITERAL_OVERCOUNT: "literal destination-vertex observable counts {value} (distinct-non-initial walks) "
    "but the path count is {other}",
    DMATRIX_SQUARED: "annihilation quadratic form is {other} (sum of squared per-edge-set trail counts) "
    "but the trail count is {value}",
}

ENGINES = ("oracle", "symbolic", "fock")


@dataclass
class EngineValue:
    value: int | None = None
    wall_time_ms: float | None = None
    error: str | None = None
    other: int | None = None  # the kind's note's second number, from the same pass; not serialized

    def to_json_obj(self) -> dict:
        if self.error is not None:
            return {"error": self.error}
        return {"value": decimal_str(self.value), "wall_time_ms": self.wall_time_ms}


@dataclass
class CountReport:
    graph_id: str
    kind: str
    length: int
    u: int
    v: int
    variant: str | None
    engines: dict[str, EngineValue]
    notes: list[dict] = field(default_factory=list)

    @property
    def agreement(self) -> dict[str, bool]:
        """Pairwise equality of engine values; pairs with an errored engine
        are omitted. Never true when the values differ."""
        names = [e for e in self.engines if self.engines[e].error is None]
        out = {}
        for i, a in enumerate(names):
            for b in names[i + 1 :]:
                out[f"{a}={b}"] = self.engines[a].value == self.engines[b].value
        return out

    def all_agree(self) -> bool:
        return all(self.agreement.values())

    def to_json_obj(self) -> dict:
        return {
            "graph_id": self.graph_id,
            "kind": self.kind,
            "length": self.length,
            "from": self.u,
            "to": self.v,
            "variant": self.variant,
            "engines": {name: ev.to_json_obj() for name, ev in self.engines.items()},
            "agreement": self.agreement,
            "notes": self.notes,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_json_obj())

    def to_csv_rows(self) -> list[list[str]]:
        rows = []
        agree = "true" if self.all_agree() else "false"
        note_codes = ";".join(n["code"] for n in self.notes)
        for name, ev in self.engines.items():
            rows.append(
                [
                    self.graph_id,
                    self.kind,
                    str(self.length),
                    str(self.u),
                    str(self.v),
                    self.variant or "",
                    name,
                    "ERROR" if ev.error is not None else decimal_str(ev.value),
                    "" if ev.wall_time_ms is None else f"{ev.wall_time_ms}",
                    agree,
                    note_codes,
                ]
            )
        return rows

    def to_text(self) -> str:
        lines = [
            f"graph {self.graph_id}  kind={self.kind}  l={self.length}  "
            f"{self.u} -> {self.v}"
            + (f"  variant={self.variant}" if self.variant else "")
        ]
        for name, ev in self.engines.items():
            if ev.error is not None:
                lines.append(f"  {name:<10} ERROR: {ev.error}")
            else:
                lines.append(f"  {name:<10} {decimal_str(ev.value)}  ({ev.wall_time_ms} ms)")
        for key, ok in self.agreement.items():
            lines.append(f"  agree {key}: {'yes' if ok else 'NO'}")
        for note in self.notes:
            lines.append(f"  note {note['code']}: {note['message']}")
        return "\n".join(lines)


CSV_HEADER = [
    "graph_id",
    "kind",
    "length",
    "from",
    "to",
    "variant",
    "engine",
    "value",
    "wall_time_ms",
    "agreement",
    "notes",
]


def canonical_json(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2, separators=(",", ": "))


def matrix_to_decimal_rows(matrix) -> list[list[str]]:
    """Arbitrary-precision matrix as JSON-safe rows of decimal strings."""
    return [[decimal_str(int(x)) for x in row] for row in matrix]


def _timed(fn) -> EngineValue:
    start = time.perf_counter()
    try:
        value, other = fn()
    except BudgetExceededError as exc:
        return EngineValue(error=str(exc))
    elapsed = (time.perf_counter() - start) * 1000.0
    return EngineValue(value=int(value), wall_time_ms=round(elapsed, 3), other=other)


@dataclass(frozen=True)
class Kind:
    """One count kind: its least given length or its derived one, whether it
    is closed, its discrepancy note, and its evaluations (g, length, u, v,
    variant) on each engine, which look their engine function up when called.
    Each returns (value, other): other is the note's second number from the
    same pass, or None when that engine does not supply the note."""

    min_length: int
    closed: bool
    oracle: Callable[..., tuple[int, int | None]]
    symbolic: Callable[..., tuple[int, int | None]]
    fock: Callable[..., tuple[int, int | None]]
    derived_length: Callable[[Graph], int] | None = None
    note: str | None = None

    def length(self, g: Graph, given: int) -> int:
        return given if self.derived_length is None else self.derived_length(g)


_TRAILS = Kind(
    0, False, note=DMATRIX_SQUARED,
    oracle=lambda g, l, u, v, variant: (oracle.count_walks(g, l, u, v, WalkClass.TRAIL), None),
    symbolic=lambda g, l, u, v, variant: (nilpotent.trail_count_symbolic(g, l, u, v), None),
    fock=lambda g, l, u, v, variant: fock._normal_ordered_pair(g, l, u, v, fock.MatrixKind.N_EDGE),
)


def _open_literal(u, v, variant, value, paths):
    # the overcount note compares a literal open count with its path count
    return value, (paths if variant is PathVariant.LITERAL and u != v else None)


def _paths_oracle(g, l, u, v, variant):
    if variant is PathVariant.START_GUARDED:
        return oracle.count_walks(g, l, u, v, WalkClass.PATH), None
    return _open_literal(u, v, variant, *oracle.count_dni_and_paths(g, l, u, v))


def _paths_symbolic(g, l, u, v, variant):
    entry = nilpotent._path_entry(g, l, u, v, variant)
    paths = nilpotent.guarded_sum_from_literal(entry, u) if variant is PathVariant.LITERAL else None
    return _open_literal(u, v, variant, entry.coefficient_sum(), paths)


def _paths_fock(g, l, u, v, variant):
    guard = u if variant is PathVariant.START_GUARDED else None
    return _open_literal(u, v, variant, *fock._normal_ordered_pair(g, l, u, v, fock.MatrixKind.M_VERTEX, guard))


KIND_TABLE: dict[str, Kind] = {
    "walks": Kind(
        0, False,
        oracle=lambda g, l, u, v, variant: (oracle.count_walks(g, l, u, v, WalkClass.WALK), None),
        # the nilpotent ring is trail-specific; the exact adjacency-matrix
        # power is the algebraic walk counter
        symbolic=lambda g, l, u, v, variant: (walk_count(g, l, u, v), None),
        fock=lambda g, l, u, v, variant: (fock.walk_count_expectation(g, l, u, v), None),
    ),
    "trails": _TRAILS,
    "paths": Kind(
        0, False, oracle=_paths_oracle, symbolic=_paths_symbolic, fock=_paths_fock, note=PROP2_LITERAL_OVERCOUNT
    ),
    # the trails at length |E|; on an edgeless graph, the empty trail
    "euler": replace(_TRAILS, derived_length=lambda g: g.edge_count),
    "cycles": Kind(
        3, True,
        oracle=lambda g, l, u, v, variant: (oracle.count_walks(g, l, u, u, WalkClass.PATH), None),
        symbolic=lambda g, l, u, v, variant: (nilpotent.cycle_count_symbolic(g, l, u), None),
        fock=lambda g, l, u, v, variant: (fock.normal_ordered_expectation(g, l, u, u, fock.MatrixKind.M_VERTEX), None),
    ),
    "hamiltonian": Kind(
        0, True, derived_length=lambda g: g.n,
        oracle=lambda g, l, u, v, variant: (oracle.count_hamiltonian_cycles_through(g, u, directed=True), None),
        # the literal closed entry: cycle_count_symbolic at n >= 3, and it
        # also counts K2's back-and-forth traversal as the oracle does
        symbolic=lambda g, l, u, v, variant: (nilpotent.path_count_symbolic(g, l, u, u), None),
        fock=lambda g, l, u, v, variant: (fock.f_matrix_amplitude(g, l, u), None),
    ),
}
KINDS = tuple(KIND_TABLE)


def check_query(g: Graph | None = None, kind="walks", length=0, u=1, v=1, engines=ENGINES, variant=PathVariant.LITERAL):
    """Refuse, with a ValueError, every query no engine answers: no engine or
    an unknown one, an unknown kind, an end outside 1..n, a given length
    below the kind's least (a derived length is not checked), a closed kind
    with u != v, and a START_GUARDED paths query with u == v. Without a graph
    only the engine names are checked, as a sweep over many graphs needs."""
    if not engines:
        raise ValueError("at least one engine is required")
    for name in engines:
        if name not in ENGINES:
            raise ValueError(f"unknown engine {name!r}; expected some of {ENGINES}")
    if g is None:
        return
    if kind not in KIND_TABLE:
        raise ValueError(f"unknown kind {kind!r}; expected one of {KINDS}")
    g.require_vertex(u)
    g.require_vertex(v)
    spec = KIND_TABLE[kind]
    if spec.derived_length is None and length < spec.min_length:
        raise ValueError(f"kind {kind!r} needs length >= {spec.min_length}, got {length}")
    if spec.closed and u != v:
        raise ValueError(f"kind {kind!r} is closed; u must equal v, got {u} and {v}")
    if kind == "paths" and variant is PathVariant.START_GUARDED and u == v:
        raise ValueError("START_GUARDED counts open paths; u must differ from v")


def run_count_query(
    g: Graph,
    graph_id: str,
    kind: str,
    length: int | None,
    u: int,
    v: int,
    engines=ENGINES,
    variant: PathVariant = PathVariant.LITERAL,
) -> CountReport:
    """Evaluate one counting query on the requested engines and assemble the
    cross-checked report, each note from the first engine in ENGINES order
    whose own pass gave a second number that differs from its value. Before
    any engine runs, check_query refuses a query no engine answers. A kind
    with a derived length ignores the given one."""
    check_query(g, kind, length, u, v, engines, variant)
    spec = KIND_TABLE[kind]
    l_eff = spec.length(g, length)
    values = {name: _timed(lambda name=name: getattr(spec, name)(g, l_eff, u, v, variant)) for name in engines}

    report = CountReport(
        graph_id=graph_id,
        kind=kind,
        length=l_eff,
        u=u,
        v=v,
        variant=variant.value if kind == "paths" else None,
        engines=values,
    )
    for ev in (values[name] for name in ENGINES if name in values):
        if ev.other is not None and ev.other != ev.value:
            message = _NOTE_MESSAGES[spec.note].format(value=decimal_str(ev.value), other=decimal_str(ev.other))
            report.notes.append({"code": spec.note, "message": message})
            break
    return report
