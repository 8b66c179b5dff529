"""Cross-engine verification sweeps.

run_sweep drives every engine over a graph corpus and checks the full
invariant suite: agreement of the three counting mechanisms, the
characterized discrepancies of the literal destination-vertex observable and
of the annihilation quadratic form, Eulerian and Hamiltonian ground truth,
plus structural properties (symmetry, monotonicity, degree bounds).

Each graph's engine tables are built once, into one record (_Tables): the
adjacency-power rows, the oracle tables and the Fock tables per start
vertex, the symbolic power chains, and whether the C(n,2)-slot pair register
fits under the register cap. The (u, v, l) cells are then checked one start
vertex u at a time against one ordered table, _CELL_ROWS. _Start reads u's
tables out as columns, one list per quantity over u's cells (v = 1..n, then
l = 1..l_max), building only the columns some row reads. A row names an
invariant, the engines it needs, a predicate over named columns and, unless
it applies to every cell, the column listing the cells it applies to (e.g.
only v != u); an equality row whose two columns are equal lists passes
without a test per cell. A failure detail is built only for a failure or
flag that is stored. Rows whose engines are
off are dropped before the sweep starts. Results read as if every cell were
checked in turn: an invariant enters the summary at its first applicable
cell in (graph, u, v, l, row) order, and failures and flags are stored in
that order.

Characterized discrepancies are not failures: the sweep records them as
flags with fixed machine-readable codes (the two flag rows of the table) and
*fails* if an expected discrepancy pattern is violated (e.g. the quadratic
form not matching the sum of squared per-edge-set trail counts).
"""

from __future__ import annotations

import operator
import random
import time
from collections import Counter
from collections.abc import Sequence
from dataclasses import dataclass, field
from functools import cached_property
from itertools import repeat
from typing import Callable, NamedTuple

from . import corpus, fock, limits, nilpotent, oracle
from .errors import BudgetExceededError, CapacityError
from .families import gnp_random_graph
from .fock import Amplitudes, LadderKind, LadderOp, MatrixKind, Register, RegisterKind, StateVector, apply_ladder
from .graphs import Graph, adjacency_matrix, parse_edge_list, walk_count, walk_rows
from .nilpotent import PathVariant, Polynomial
from .oracle import WalkClass
from .reports import DMATRIX_SQUARED, KIND_TABLE, PROP2_LITERAL_OVERCOUNT, canonical_json, matrix_to_decimal_rows

_MAX_STORED_FAILURES = 20
_MAX_STORED_FLAGS_PER_CODE = 2000
_HAMILTONIAN_RANDOM_SIZES = (7, 8)  # sizes of the random Hamiltonicity extras
_HAMILTONIAN_RANDOM_COUNT = 4  # random graphs per size in _HAMILTONIAN_RANDOM_SIZES


@dataclass
class SweepConfig:
    """What to sweep. Sources: "all-connected-up-to-n" (exhaustive up to
    isomorphism, n_max <= 6) or "random" (seeded G(n, p) draws at sizes
    2..n_max). Named acceptance graphs are appended unless disabled. Node
    and term budgets come from TRAILCOUNTS_NODE_BUDGET and
    TRAILCOUNTS_TERM_BUDGET."""

    n_max: int = 6
    l_max: int = 6
    source: str = "all-connected-up-to-n"
    random_count: int = 20
    edge_probability: float = 0.5
    seed: int = 1729
    engines: tuple[str, ...] = ("oracle", "symbolic", "fock")
    include_named: bool = True

    def __post_init__(self):
        if self.source not in ("all-connected-up-to-n", "random"):
            raise ValueError(f"unknown corpus source {self.source!r}")
        if self.n_max < 1:
            raise ValueError(f"n_max must be >= 1, got {self.n_max}")
        if self.l_max < 1:
            raise ValueError(f"l_max must be >= 1, got {self.l_max}")
        if self.random_count < 0:
            raise ValueError(f"random_count must be >= 0, got {self.random_count}")
        if not 0 <= self.edge_probability <= 1:
            raise ValueError(f"edge_probability must be in [0, 1], got {self.edge_probability}")
        if self.source == "all-connected-up-to-n" and self.n_max > 6:
            raise ValueError("the exhaustive corpus is limited to n_max <= 6")
        unknown = set(self.engines) - {"oracle", "symbolic", "fock"}
        if unknown:
            raise ValueError(f"unknown engines: {sorted(unknown)}")


@dataclass
class InvariantResult:
    name: str
    cases: int = 0
    failure_count: int = 0
    failures: list[dict] = field(default_factory=list)

    def record(self, ok: bool, detail: dict | None = None):
        self.cases += 1
        if not ok:
            self.failure_count += 1
            if detail is not None and len(self.failures) < _MAX_STORED_FAILURES:
                self.failures.append(detail)

    @property
    def passed(self) -> bool:
        return self.failure_count == 0

    def to_json_obj(self) -> dict:
        return {
            "name": self.name,
            "cases": self.cases,
            "failures": self.failure_count,
            "examples": self.failures,
        }


@dataclass
class VerifySummary:
    invariants: list[InvariantResult]
    flags: list[dict]
    flag_totals: dict[str, int]
    warnings: list[str]
    graph_count: int
    elapsed_s: float

    @property
    def passed(self) -> bool:
        return all(inv.passed for inv in self.invariants)

    def invariant(self, name: str) -> InvariantResult:
        for inv in self.invariants:
            if inv.name == name:
                return inv
        raise KeyError(name)

    def find_flags(self, code: str) -> list[dict]:
        return [f for f in self.flags if f["code"] == code]

    def to_json_obj(self) -> dict:
        return {
            "passed": self.passed,
            "graphs": self.graph_count,
            "elapsed_s": round(self.elapsed_s, 3),
            "invariants": [inv.to_json_obj() for inv in self.invariants],
            "flag_totals": dict(sorted(self.flag_totals.items())),
            "flags": self.flags,
            "warnings": self.warnings,
        }

    def to_text(self) -> str:
        lines = []
        for inv in self.invariants:
            status = "PASS" if inv.passed else "FAIL"
            lines.append(f"{status} {inv.name} (cases={inv.cases}, failures={inv.failure_count})")
            for f in inv.failures:
                lines.append(f"     counterexample: {canonical_json(f)}")
        for code, total in sorted(self.flag_totals.items()):
            lines.append(f"FLAG {code}: {total} characterized case(s)")
        for w in self.warnings:
            lines.append(f"WARNING {w}")
        lines.append(
            f"{'PASS' if self.passed else 'FAIL'} overall: {self.graph_count} graphs, "
            f"{sum(i.cases for i in self.invariants)} checks, {self.elapsed_s:.1f}s"
        )
        return "\n".join(lines)


@dataclass
class _Tables:
    """One graph's engine tables, built once per sweep. rows[u][l] is row u
    of A^l as {vertex: walk count}, l = 0..l_max. The oracle and Fock tables
    map a start vertex to its all-lengths table (fock_edge to the pair of
    trail-count and annihilation-form tables); an engine that is off leaves
    its tables empty (chains None)."""

    gid: str
    g: Graph
    rows: dict[int, list[dict[int, int]]]
    pair_fits: bool  # the C(n,2)-slot pair register fits under the cap
    walk: dict = field(default_factory=dict)
    trail: dict = field(default_factory=dict)
    dni: dict = field(default_factory=dict)
    edge_powers: dict | None = None
    vertex_powers: dict | None = None
    fock_edge: dict = field(default_factory=dict)
    fock_m: dict = field(default_factory=dict)


def _build_tables(gid: str, g: Graph, l_max: int, engines) -> _Tables:
    vertices = range(1, g.n + 1)
    rows = {u: list(walk_rows(g, u, l_max)) for u in vertices}
    t = _Tables(gid, g, rows, g.n * (g.n - 1) // 2 <= fock.PAIR_REGISTER_CAP)
    if "oracle" in engines:
        budget = limits.node_budget()
        t.walk = {u: oracle._walk_table(g, u, l_max, budget) for u in vertices}
        t.trail = {u: oracle._trail_tables(g, u, l_max, budget) for u in vertices}
        t.dni = {u: oracle._dni_tables(g, u, l_max, budget) for u in vertices}
    if "symbolic" in engines:
        t.edge_powers = _power_chain(nilpotent.formal_adjacency_edges(g), l_max)
        t.vertex_powers = _power_chain(nilpotent.vertex_observable_matrix(g), l_max)
    if "fock" in engines:
        # the normal-ordered trail counts are the amplitude sums of the
        # edge-space annihilation evolution, and its forms their squares
        t.fock_edge = {
            u: fock._tally(fock._evolve(g, RegisterKind.EDGE_SPACE, u, l_max, True, "normal-ordered tally"))
            for u in vertices
        }
        t.fock_m = {u: fock.normal_ordered_expectation_table(g, u, l_max, MatrixKind.M_VERTEX) for u in vertices}
    return t


def _power_chain(m, l_max: int):
    chain = {1: m}
    for l in range(2, l_max + 1):
        chain[l] = chain[l - 1].mul(m)
    return chain


_ZERO = Polynomial.zero()
_NO_TRAILS: dict[int, int] = {}


class _Start:
    """One start vertex's tables read out as columns over its cells, v = 1..n
    and then l = 1..l_max: cell i has the key cells[i] = (l, v), and a
    column is a list holding one value per cell, or the list of cells a row
    applies to. A column is built the first time a row reads it, so the
    tables of an engine that is off are never read."""

    def __init__(self, t: _Tables, u: int, cells: list[tuple[int, int]]):
        self.t, self.u, self.cells = t, u, cells
        self.all = range(len(cells))

    def _by_cell(self, table: dict) -> list:
        return list(map(table.get, self.cells, repeat(0)))

    def _entries(self, chain: dict) -> list[Polynomial]:
        row = {l: m.rows[self.u - 1] for l, m in chain.items()}
        return [row[l].get(v - 1, _ZERO) for l, v in self.cells]

    lengths = cached_property(lambda s: [l for l, _ in s.cells])
    oracle_walks = cached_property(lambda s: s._by_cell(s.t.walk[s.u]))
    trails = cached_property(lambda s: s._by_cell(s.t.trail[s.u][0]))
    dni = cached_property(lambda s: s._by_cell(s.t.dni[s.u][0]))
    paths = cached_property(lambda s: s._by_cell(s.t.dni[s.u][1]))
    forth = cached_property(lambda s: list(zip(s.trails, s.paths)))  # (trails, paths) from u to v
    # trail count per traversed edge-set mask, its total, its sum of squares
    # and its largest count (the most trails sharing one edge set)
    histogram = cached_property(lambda s: list(map(s.t.trail[s.u][1].get, s.cells, repeat(_NO_TRAILS))))
    histogram_totals = cached_property(lambda s: [sum(h.values()) for h in s.histogram])
    squared = cached_property(lambda s: [sum(map(operator.mul, h.values(), h.values())) for h in s.histogram])
    repeats = cached_property(lambda s: [max(h.values(), default=0) for h in s.histogram])
    edge_entries = cached_property(lambda s: s._entries(s.t.edge_powers))
    literal_entries = cached_property(lambda s: s._entries(s.t.vertex_powers))
    symbolic_trails = cached_property(lambda s: [p.coefficient_sum() for p in s.edge_entries])
    literal = cached_property(lambda s: [p.coefficient_sum() for p in s.literal_entries])
    fock_trails = cached_property(lambda s: s._by_cell(s.t.fock_edge[s.u][0]))
    quad = cached_property(lambda s: s._by_cell(s.t.fock_edge[s.u][1]))
    fock_vertex = cached_property(lambda s: s._by_cell(s.t.fock_m[s.u]))
    # the cells some rows are limited to
    open_cells = cached_property(lambda s: [i for i, (_, v) in enumerate(s.cells) if v != s.u])
    sets_unique = cached_property(lambda s: [i for i, k in enumerate(s.repeats) if k == 1])
    sets_repeat = cached_property(lambda s: [i for i, k in enumerate(s.repeats) if k > 1])

    @cached_property
    def walks(self) -> list[int]:
        row = self.t.rows[self.u]
        return [row[l].get(v, 0) for l, v in self.cells]

    @cached_property
    def walks_back(self) -> list[int]:
        rows, u = self.t.rows, self.u
        return [rows[v][l].get(u, 0) for l, v in self.cells]

    @cached_property
    def back(self) -> list[tuple[int, int]]:
        """(trails, paths) from v back to u."""
        trail, dni, u = self.t.trail, self.t.dni, self.u
        return [(trail[v][0].get((l, u), 0), dni[v][1].get((l, u), 0)) for l, v in self.cells]

    @cached_property
    def guarded(self) -> list[int | None]:
        """The guarded path count at each open cell, None at the closed ones."""
        u = self.u
        return [
            nilpotent.guarded_sum_from_literal(p, u) if v != u else None
            for p, (_, v) in zip(self.literal_entries, self.cells)
        ]

    @cached_property
    def beyond_path(self) -> list[int]:
        """Cells longer than a path can be: n - 1 edges, or n for a cycle."""
        n, u = self.t.g.n, self.u
        return [i for i, (l, v) in enumerate(self.cells) if l > n - (v != u)]


class _Row(NamedTuple):
    """One invariant checked at every (u, v, l) cell: its name, the engines
    it needs, the predicate it holds of the named columns' values at a cell
    (in the order they are named), and unless it applies to every cell, the
    column listing the cells it applies to. A failure's detail shows each
    named column's value under its key, unless `shown` is off. A flag row
    records a characterized discrepancy where it fails; it never fails the
    sweep."""

    name: str
    engines: tuple[str, ...]
    holds: Callable[..., bool]
    columns: dict[str, str]  # detail key -> column
    when: str | None = None
    flag: bool = False
    shown: bool = True

    def failing(self, s: _Start, at: Sequence[int]) -> list[int]:
        """The cells among `at` where the predicate fails."""
        values = [getattr(s, c) for c in self.columns.values()]
        if self.holds is operator.eq and values[0] == values[1]:
            return []
        ok = list(map(self.holds, *values))
        return [] if all(ok) else [i for i in at if not ok[i]]

    def detail(self, s: _Start, i: int) -> dict:
        return {key: getattr(s, c)[i] for key, c in self.columns.items()} if self.shown else {}


_O, _OS, _OF = ("oracle",), ("oracle", "symbolic"), ("oracle", "fock")
_EQ = operator.eq

# The order breaks ties between invariants first checked at the same cell,
# hence it orders the summary's invariants and, per cell, its flags.
_CELL_ROWS = (
    _Row("walk-symmetry", (), _EQ, {"uv": "walks", "vu": "walks_back"}),
    _Row("walk-count-matches-adjacency-power", _O, _EQ, {"oracle": "oracle_walks", "matrix": "walks"}),
    _Row("count-monotonicity-path-trail-walk", _O, lambda p, t, w: p <= t <= w,
         {"path": "paths", "trail": "trails", "walk": "oracle_walks"}),
    _Row("reversal-symmetry-trail-path", _O, _EQ, {"back": "back", "forth": "forth"}, shown=False),
    # a path has at most n - 1 edges, a cycle at most n
    _Row("path-length-bound", _O, operator.not_, {"path": "paths"}, when="beyond_path"),
    _Row("histogram-total-matches-trail-count", _O, _EQ, {"sum": "histogram_totals", "trail": "trails"}),
    _Row("trail-agreement-oracle-vs-nilpotent", _OS, _EQ, {"symbolic": "symbolic_trails", "oracle": "trails"}),
    _Row("monomial-degree-equals-length", ("symbolic",), lambda p, l: p.degrees() <= {l},
         {"entry": "edge_entries", "l": "lengths"}, shown=False),
    _Row("coefficient-positivity", _OS, lambda p: min(p.coefficients(), default=1) >= 1,
         {"entry": "edge_entries"}, shown=False),
    _Row("literal-observable-counts-distinct-non-initial", _OS, _EQ, {"symbolic": "literal", "oracle": "dni"}),
    _Row("guarded-observable-counts-paths", _OS, _EQ, {"guarded": "guarded", "oracle": "paths"}, when="open_cells"),
    _Row(PROP2_LITERAL_OVERCOUNT, _OS, _EQ, {"literal": "literal", "paths": "paths"}, when="open_cells", flag=True),
    _Row("trail-count-bounded-by-walks", ("symbolic",), operator.le, {"symbolic": "symbolic_trails", "walk": "walks"}),
    _Row("trail-agreement-oracle-vs-fock", _OF, _EQ, {"fock": "fock_trails", "oracle": "trails"}),
    _Row("vertex-observable-agreement-fock", _OF, _EQ, {"fock": "fock_vertex", "oracle": "dni"}),
    _Row("annihilation-form-matches-squared-histogram", _OF, _EQ, {"fock": "quad", "squared": "squared"}),
    _Row("annihilation-form-matches-trails-when-sets-unique", _OF, _EQ, {"fock": "quad", "trail": "trails"},
         when="sets_unique"),
    _Row("annihilation-form-exceeds-trails-when-sets-repeat", _OF, operator.gt, {"fock": "quad", "trail": "trails"},
         when="sets_repeat"),
    _Row(DMATRIX_SQUARED, _OF, _EQ, {"quadratic_form": "quad", "trails": "trails"}, flag=True),
)


class _Ctx:
    def __init__(self, config: SweepConfig):
        self.config = config
        self.rows = [row for row in _CELL_ROWS if set(row.engines) <= set(config.engines)]
        self.inv: dict[str, InvariantResult] = {}
        self.flags: list[dict] = []
        self.flag_totals: Counter = Counter()
        self.warnings: list[str] = []
        self.rng = random.Random(config.seed)

    def check(self, name: str, ok: bool, detail: dict | None = None):
        result = self.inv.get(name)
        if result is None:
            result = self.inv[name] = InvariantResult(name)
        result.record(ok, detail)

    def check_start(self, s: _Start):
        """Check every row over one start's cells. An invariant first
        checked here enters the summary in the order of its first cell, then
        of its row; flags are stored in cell order, then row order, up to
        the cap per code, and every flag is counted."""
        gid, u, cells = s.t.gid, s.u, s.cells
        entering, flagged = [], []
        for index, row in enumerate(self.rows):
            at = s.all if row.when is None else getattr(s, row.when)
            if not at:
                continue
            fails = row.failing(s, at)
            if row.flag:
                total = self.flag_totals[row.name]
                flagged.extend((i, index, row) for i in fails[: max(0, _MAX_STORED_FLAGS_PER_CODE - total)])
                if fails:
                    self.flag_totals[row.name] = total + len(fails)
                continue
            result = self.inv.get(row.name)
            if result is None:
                result = InvariantResult(row.name)
                entering.append((at[0], index, result))
            result.cases += len(at)
            result.failure_count += len(fails)
            for i in fails[: _MAX_STORED_FAILURES - len(result.failures)]:
                l, v = cells[i]
                result.failures.append({"graph": gid, "l": l, "u": u, "v": v, **row.detail(s, i)})
        for _, _, result in sorted(entering, key=lambda e: e[:2]):
            self.inv[result.name] = result
        for i, _, row in sorted(flagged, key=lambda f: f[:2]):
            l, v = cells[i]
            self.flags.append({"code": row.name, "graph_id": gid, "l": l, "u": u, "v": v, **row.detail(s, i)})


def build_corpus(config: SweepConfig) -> list[tuple[str, Graph]]:
    out: list[tuple[str, Graph]] = []
    if config.include_named:
        out.extend(corpus.named_graphs())
    if config.source == "all-connected-up-to-n":
        out.extend(corpus.all_connected_up_to(config.n_max))
    else:
        sizes = list(range(2, config.n_max + 1)) or [config.n_max]
        for i in range(config.random_count):
            n = sizes[i % len(sizes)]
            draw = corpus.random_graphs(1, n, config.edge_probability, config.seed + i)
            out.extend(draw)
    seen = set()
    unique = []
    for gid, g in out:
        if gid not in seen:
            seen.add(gid)
            unique.append((gid, g))
    return unique


def run_sweep(config: SweepConfig | None = None) -> VerifySummary:
    config = config or SweepConfig()
    ctx = _Ctx(config)
    start = time.perf_counter()
    graphs = build_corpus(config)
    if not graphs:
        ctx.warnings.append("empty corpus: all checks are vacuous")
    elif "oracle" not in config.engines:
        ctx.warnings.append("oracle-disabled")
        ctx.warnings.append("the oracle engine is disabled: ground-truth cross-checks are skipped")
    for gid, g in graphs:
        _sweep_graph(ctx, gid, g)
    extras = _hamiltonian_extras(config) if "oracle" in config.engines else []
    for gid, g in extras:
        _hamiltonian_checks(ctx, gid, g)
    elapsed = time.perf_counter() - start
    return VerifySummary(
        invariants=list(ctx.inv.values()),
        flags=ctx.flags,
        flag_totals=dict(ctx.flag_totals),
        warnings=ctx.warnings,
        graph_count=len(graphs) + len(extras),
        elapsed_s=elapsed,
    )


def _hamiltonian_extras(config: SweepConfig) -> list[tuple[str, Graph]]:
    out = []
    for n in _HAMILTONIAN_RANDOM_SIZES:
        out.extend(corpus.random_graphs(_HAMILTONIAN_RANDOM_COUNT, n, config.edge_probability, config.seed + n))
    return out


def _sweep_graph(ctx: _Ctx, gid: str, g: Graph):
    engines, l_max = ctx.config.engines, ctx.config.l_max
    t = _build_tables(gid, g, l_max, engines)
    if "fock" in engines:
        _register_checks(ctx, t)
    vertices = range(1, g.n + 1)
    cells = [(l, v) for v in vertices for l in range(1, l_max + 1)]
    for u in vertices:
        ctx.check_start(_Start(t, u, cells))
    if "oracle" in engines:
        _spot_check_ops(ctx, t)
        _euler_checks(ctx, t)
        _hamiltonian_checks(ctx, gid, g, t)


def _register_checks(ctx: _Ctx, t: _Tables):
    g = t.g
    if not t.pair_fits:
        # the full pair register must refuse cleanly
        try:
            Register.all_pairs(g.n)
            refused = False
        except CapacityError:
            refused = True
        ctx.check("edge-register-capacity-refusal", refused, {"graph": t.gid, "n": g.n})
        return
    # slot occupations of the graph state reproduce the adjacency matrix
    # entry by entry
    psi = fock.graph_state(g)
    index = psi.basis_index()
    for u in range(1, g.n + 1):
        for v in range(u + 1, g.n + 1):
            occ = (index >> psi.register.bit(psi.register.slot_index((u, v)))) & 1
            ctx.check(
                "slot-expectation-matches-adjacency",
                occ == t.rows[u][1].get(v, 0),
                {"graph": t.gid, "u": u, "v": v, "occupation": occ},
            )


def _spot_check_ops(ctx: _Ctx, t: _Tables):
    """Sampled per-query calls of the public operations against the sweep
    tables: the ops are what users call, the tables are what the sweep
    trusts, and enumerate/count are different reductions of one aimed search
    (two kernels for walks: `_search` lists them, `_walk_tally` counts them)."""
    g, rng = t.g, ctx.rng
    psi = fock.graph_state(g) if t.fock_edge and t.pair_fits else None
    for _ in range(2):
        l = rng.randint(1, min(4, ctx.config.l_max))
        u = rng.randint(1, g.n)
        v = rng.randint(1, g.n)
        loc = {"graph": t.gid, "l": l, "u": u, "v": v}
        for cls in WalkClass:
            seqs = oracle.enumerate_walks(g, l, u, v, cls)
            listed, counted = len(seqs), oracle.count_walks(g, l, u, v, cls)
            ctx.check("enumerate-matches-count", listed == counted, {**loc, "class": cls.value, "listed": listed, "counted": counted})
            if cls is WalkClass.WALK:
                walks = seqs
        ctx.check("enumerate-lexicographic-unique", walks == sorted(set(walks)), loc)
        if t.edge_powers is not None:
            entry = t.edge_powers[l].entry(u, v)
            literal = t.vertex_powers[l].entry(u, v)
            via_rows = nilpotent._row_power_entry(nilpotent.Generator.EDGE, g, l, u, v)
            ctx.check("row-power-matches-matrix-power", via_rows == entry, loc)
            ctx.check("trail-op-matches-table", nilpotent.trail_count_symbolic(g, l, u, v) == entry.coefficient_sum(), loc)
            ctx.check("path-op-literal-matches-table", nilpotent.path_count_symbolic(g, l, u, v) == literal.coefficient_sum(), loc)
            if u != v:
                symbolic = nilpotent.path_count_symbolic(g, l, u, v, PathVariant.START_GUARDED)
                _guarded_path_check(ctx, t, l, u, v, loc, symbolic, nilpotent.guarded_sum_from_literal(literal, u))
            if l >= 3:
                ctx.check(
                    "cycle-op-matches-table",
                    nilpotent.cycle_count_symbolic(g, l, u) == t.vertex_powers[l].entry(u, u).coefficient_sum(),
                    loc,
                )
        if t.fock_edge:
            if t.edge_powers is None and u != v:
                _guarded_path_check(ctx, t, l, u, v, loc)
            sums, squares = t.fock_edge[u]
            trails = sums.get((l, v), 0)
            ctx.check("fock-op-matches-table", fock.normal_ordered_expectation(g, l, u, v, MatrixKind.N_EDGE) == trails, loc)
            ctx.check("dform-op-matches-table", fock.d_matrix_quadratic_form(g, l, u, v) == squares.get((l, v), 0), loc)
            ctx.check(
                "fock-walk-expectation-matches-walk-count",
                fock.walk_count_expectation(g, l, u, v) == t.walk[u].get((l, v), 0),
                loc,
            )
            if psi is not None:
                # the literal sum over walk terms on the pair register
                terms = fock.expand_walk_terms(g, l, u, v, MatrixKind.N_EDGE)
                literal = sum(fock.normal_ordered_term_expectation(term, psi) for _, term in terms)
                ctx.check("compact-register-matches-full-register", literal == trails, loc)


def _guarded_path_check(ctx: _Ctx, t: _Tables, l: int, u: int, v: int, loc: dict, *symbolic: int):
    """The guarded path counts from u to v != u, the symbolic ones given,
    must equal the oracle's path table, and so must Fock's when it is on."""
    guarded = set(symbolic)
    if t.fock_edge:  # what `count --kind paths --variant guarded` runs on Fock
        guarded.add(KIND_TABLE["paths"].fock(t.g, l, u, v, PathVariant.START_GUARDED)[0])
    ctx.check("path-op-guarded-matches-filter", guarded == {t.dni[u][1].get((l, v), 0)}, loc)


def _euler_checks(ctx: _Ctx, t: _Tables):
    g, engines = t.g, ctx.config.engines
    m = g.edge_count
    eulerian = m >= 1 and not g.odd_vertices and corpus.is_connected(g)
    if not eulerian:
        # non-Eulerian ground truth: the closed-trail count at length |E| is
        # 0; the symbolic side is only exercised at small |E| because the
        # intermediate powers of dense non-Eulerian graphs are the one place
        # term counts blow up without contributing to any criterion
        if 1 <= m <= 8 and "symbolic" in engines:
            zero = oracle.count_closed_euler_trails(g, 1)
            # the row power itself: the public op answers 0 from degree parity
            sym = nilpotent._row_power_entry(nilpotent.Generator.EDGE, g, m, 1, 1).coefficient_sum()
            ctx.check("euler-closed-agreement", sym == zero, {"graph": t.gid, "u": 1, "symbolic": sym, "oracle": zero})
        return
    diag = None
    if "symbolic" in engines:
        chain = nilpotent.matrix_power_nilpotent(nilpotent.formal_adjacency_edges(g), m)
        diag = [chain.entry(u, u).coefficient_sum() for u in range(1, g.n + 1)]
    for u in range(1, g.n + 1):
        o = oracle.count_closed_euler_trails(g, u)
        if diag is not None:
            ctx.check("euler-closed-agreement", diag[u - 1] == o, {"graph": t.gid, "u": u, "symbolic": diag[u - 1], "oracle": o})
        if "fock" in engines:
            f = fock.normal_ordered_expectation(g, m, u, u, MatrixKind.N_EDGE)
            ctx.check("euler-closed-agreement-fock", f == o, {"graph": t.gid, "u": u, "fock": f, "oracle": o})
    # spot-check the public op once per graph
    if diag is not None:
        u = ctx.rng.randint(1, g.n)
        ctx.check("euler-op-matches-chain", nilpotent.euler_trail_count_symbolic(g, u, u) == diag[u - 1], {"graph": t.gid, "u": u})


def _hamiltonian_checks(ctx: _Ctx, gid: str, g: Graph, t: _Tables | None = None):
    """Hamiltonian ground truth. A swept graph (t given) with n <= l_max
    reads its directed counts from its own distinct-non-initial tables,
    whose closed length-n entry is the op's count (on n <= 2 vertices too);
    other graphs call the op. The op runs once per graph at u = 1, and its
    directed count there feeds both u = 1 checks of n >= 3 vertices: it is
    twice the undirected count, so positive exactly when that is."""
    if "fock" not in ctx.config.engines:
        return
    own = t is not None and g.n <= ctx.config.l_max
    directed = {}
    for u in range(1, g.n + 1) if g.n <= 6 else (1,):
        amp = fock.f_matrix_amplitude(g, g.n, u)
        if own:
            directed[u] = t.dni[u][0].get((g.n, u), 0)
        else:
            directed[u] = oracle.count_hamiltonian_cycles_through(g, u, directed=True)
        ctx.check("hamiltonian-amplitude-agreement", amp == directed[u], {"graph": gid, "u": u, "fock": amp, "oracle": directed[u]})
    if g.n >= 2:
        below = fock.f_matrix_amplitude(g, g.n - 1, 1)
        ctx.check("hamiltonian-amplitude-zero-below-n", below == 0, {"graph": gid, "value": below})
    if g.n >= 3:
        directed1 = oracle.count_hamiltonian_cycles_through(g, 1, directed=True) if own else directed[1]
        ctx.check("hamiltonicity-decision-agreement", fock.is_hamiltonian(g) == (directed1 > 0), {"graph": gid})
        if "symbolic" in ctx.config.engines:
            sym = nilpotent.cycle_count_symbolic(g, g.n, 1)
            ctx.check("hamiltonian-symbolic-agreement", sym == directed1, {"graph": gid, "symbolic": sym, "oracle": directed1})


# ---------------------------------------------------------------------------
# Built-in reference example: the 4-cycle worked end to end.

_C4_TEXT = "1 2\n1 3\n2 4\n3 4\n"

_C4_ADJACENCY = [
    ["0", "1", "1", "0"],
    ["1", "0", "0", "1"],
    ["1", "0", "0", "1"],
    ["0", "1", "1", "0"],
]

# the four length-3 walk monomials from vertex 1 to vertex 2, as multisets of
# traversed edges
_C4_WALK_MONOMIALS = sorted(
    [
        ((1, 2), (1, 2), (1, 2)),
        ((1, 2), (2, 4), (2, 4)),
        ((1, 2), (1, 3), (1, 3)),
        ((1, 3), (2, 4), (3, 4)),
    ]
)


@dataclass
class ReferenceCheck:
    name: str
    expected: object
    actual: object

    @property
    def ok(self) -> bool:
        return self.expected == self.actual

    def to_json_obj(self) -> dict:
        return {"name": self.name, "expected": self.expected, "actual": self.actual, "ok": self.ok}


def _try(fn):
    """None instead of an exception; the negative control feeds arbitrary
    graphs through checks whose preconditions they may violate."""
    try:
        return fn()
    except (ValueError, CapacityError, BudgetExceededError):
        return None


def reference_example_checks(graph: Graph | None = None) -> list[ReferenceCheck]:
    """Re-derive the built-in 4-cycle reference values with every engine and
    compare them to their hard-coded known results. Passing a different
    graph (e.g. a corrupted edge list) is the negative control: checks then
    report mismatches."""
    g = graph if graph is not None else parse_edge_list(_C4_TEXT)
    checks: list[ReferenceCheck] = []

    checks.append(
        ReferenceCheck("adjacency-matrix", _C4_ADJACENCY, matrix_to_decimal_rows(adjacency_matrix(g)))
    )

    def walk_monomials():
        terms = fock.expand_walk_terms(g, 3, 1, 2, MatrixKind.N_EDGE)
        register = Register.all_pairs(g.n)
        return sorted(
            tuple(sorted(register.slots[s] for s in term.slots())) for _, term in terms
        )

    checks.append(ReferenceCheck("walk-term-monomials", _C4_WALK_MONOMIALS, _try(walk_monomials)))
    checks.append(ReferenceCheck("walk-count", 4, _try(lambda: walk_count(g, 3, 1, 2))))

    psi = _try(lambda: fock.graph_state(g))
    occupation = _try(lambda: fock.basis_label(psi.register, psi.basis_index())) if psi else None
    checks.append(ReferenceCheck("graph-state", "110011", occupation))

    def slot_expectation(u, v):
        op = LadderOp(LadderKind.NUMBER, psi.register.slot_index((u, v)))
        return psi.inner(apply_ladder(op, psi))

    checks.append(
        ReferenceCheck(
            "slot-number-expectation-1-2",
            1,
            _try(lambda: slot_expectation(1, 2)) if psi else None,
        )
    )
    checks.append(
        ReferenceCheck(
            "slot-number-expectation-1-4",
            0,
            _try(lambda: slot_expectation(1, 4)) if psi else None,
        )
    )

    def per_term_values():
        terms = fock.expand_walk_terms(g, 3, 1, 2, MatrixKind.N_EDGE)
        return sorted(fock.normal_ordered_term_expectation(term, psi) for _, term in terms)

    checks.append(
        ReferenceCheck(
            "normal-ordered-power",
            {"per_term": [0, 0, 0, 1], "total": 1, "surviving_monomials": [[[1, 3], [2, 4], [3, 4]]]},
            {
                "per_term": _try(per_term_values) if psi else None,
                "total": _try(lambda: nilpotent.trail_count_symbolic(g, 3, 1, 2)),
                "surviving_monomials": _try(lambda: _surviving_monomials(g)),
            },
        )
    )

    checks.append(
        ReferenceCheck(
            "trail-and-path-count",
            {"trails": 1, "paths": 1},
            {
                "trails": _try(lambda: oracle.count_walks(g, 3, 1, 2, WalkClass.TRAIL)),
                "paths": _try(lambda: oracle.count_walks(g, 3, 1, 2, WalkClass.PATH)),
            },
        )
    )
    return checks


def _surviving_monomials(g: Graph):
    entry = nilpotent._row_power_entry(nilpotent.Generator.EDGE, g, 3, 1, 2)
    edges = g.sorted_edges()
    return [sorted(list(edges[i]) for i in gens) for gens, _ in entry.terms()]


# ---------------------------------------------------------------------------
# Randomized property suite (seeded, exact counts of checks).


def random_property_checks(seed: int = 1729, per_property: int = 250) -> list[InvariantResult]:
    """Four engine-level properties, per_property seeded random cases each:
    ladder anticommutation, generator nilpotency (algebraic and operator
    side), count monotonicity, and walk-count symmetry."""
    rng = random.Random(seed)
    results = [
        _property_ladder_anticommutation(rng, per_property),
        _property_nilpotency(rng, per_property),
        _property_monotonicity(rng, per_property),
        _property_walk_symmetry(rng, per_property),
    ]
    return results


def _random_state(rng: random.Random, register: Register) -> StateVector:
    draws = (rng.randint(-3, 3) for _ in range(register.dimension))
    return StateVector(register, Amplitudes(enumerate(draws)))


def _property_ladder_anticommutation(rng, cases) -> InvariantResult:
    inv = InvariantResult("ladder-anticommutation")
    for _ in range(cases):
        width = rng.randint(1, 6)
        register = Register.vertices(width)
        state = _random_state(rng, register)
        slot = rng.randrange(width)
        a = LadderOp(LadderKind.ANNIHILATE, slot)
        c = LadderOp(LadderKind.CREATE, slot)
        left = apply_ladder(c, apply_ladder(a, state))
        right = apply_ladder(a, apply_ladder(c, state))
        inv.record(left + right == state, {"width": width, "slot": slot})
    return inv


def _property_nilpotency(rng, cases) -> InvariantResult:
    inv = InvariantResult("nilpotency")
    for _ in range(cases):
        width = rng.randint(1, 8)
        gens = rng.sample(range(width), rng.randint(1, min(3, width)))
        mono = Polynomial.one()
        for i in gens:
            mono = mono * Polynomial.generator(i)
        algebra_ok = (mono * mono).is_zero() and (
            Polynomial.generator(gens[0]) * Polynomial.generator(gens[0])
        ).is_zero()
        register = Register.vertices(width)
        state = StateVector.all_ones(register)
        repeated = fock.OperatorTerm(
            (LadderOp(LadderKind.NUMBER, gens[0]), LadderOp(LadderKind.NUMBER, gens[0]))
        )
        operator_ok = fock.normal_ordered_term_expectation(repeated, state) == 0
        inv.record(algebra_ok and operator_ok, {"generators": gens})
    return inv


def _random_graph(rng) -> Graph:
    n = rng.randint(2, 6)
    return gnp_random_graph(n, rng.uniform(0.2, 0.9), rng)


def _property_monotonicity(rng, cases) -> InvariantResult:
    inv = InvariantResult("count-monotonicity")
    for _ in range(cases):
        g = _random_graph(rng)
        l = rng.randint(1, 5)
        u = rng.randint(1, g.n)
        v = rng.randint(1, g.n)
        p = oracle.count_walks(g, l, u, v, WalkClass.PATH)
        t = oracle.count_walks(g, l, u, v, WalkClass.TRAIL)
        w = oracle.count_walks(g, l, u, v, WalkClass.WALK)
        ts = nilpotent.trail_count_symbolic(g, l, u, v)
        inv.record(
            p <= t <= w and ts == t,
            {"graph": repr(g), "l": l, "u": u, "v": v, "p": p, "t": t, "w": w},
        )
    return inv


def _property_walk_symmetry(rng, cases) -> InvariantResult:
    inv = InvariantResult("walk-count-symmetry")
    for _ in range(cases):
        g = _random_graph(rng)
        l = rng.randint(0, 5)
        u = rng.randint(1, g.n)
        v = rng.randint(1, g.n)
        inv.record(
            walk_count(g, l, u, v) == walk_count(g, l, v, u),
            {"graph": repr(g), "l": l, "u": u, "v": v},
        )
    return inv
