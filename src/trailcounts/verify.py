"""Cross-engine verification sweeps.

run_sweep drives every engine over a graph corpus and checks the full
invariant suite: agreement of the three counting mechanisms, the
characterized discrepancies of the literal destination-vertex observable and
of the annihilation quadratic form, Eulerian and Hamiltonian ground truth,
plus structural properties (symmetry, monotonicity, degree bounds).

Characterized discrepancies are not failures: the sweep records them as
flags with fixed machine-readable codes and *fails* if an expected
discrepancy pattern is violated (e.g. the quadratic form not matching the
sum of squared per-edge-set trail counts).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field

import numpy as np

from . import corpus, fock, limits, nilpotent, oracle
from .errors import BudgetExceededError, CapacityError
from .families import gnp_random_graph
from .fock import LadderKind, LadderOp, MatrixKind, Register, StateVector, apply_ladder
from .graphs import Graph, adjacency_matrix, identity_matrix, parse_edge_list, walk_count
from .nilpotent import PathVariant, Polynomial
from .oracle import WalkClass
from .reports import DMATRIX_SQUARED, PROP2_LITERAL_OVERCOUNT, canonical_json, matrix_to_decimal_rows

_MAX_STORED_FAILURES = 20
_MAX_STORED_FLAGS_PER_CODE = 2000


@dataclass
class SweepConfig:
    """What to sweep. Sources: "all-connected-up-to-n" (exhaustive up to
    isomorphism, n_max <= 6) or "random" (seeded G(n, p) draws at sizes
    2..n_max). Named acceptance graphs are appended unless disabled."""

    n_max: int = 6
    l_max: int = 6
    source: str = "all-connected-up-to-n"
    random_count: int = 20
    edge_probability: float = 0.5
    seed: int = 1729
    engines: tuple[str, ...] = ("oracle", "symbolic", "fock")
    include_named: bool = True
    hamiltonian_random_sizes: tuple[int, ...] = (7, 8)
    hamiltonian_random_count: int = 4
    node_budget: int | None = None
    term_budget: int | None = None

    def __post_init__(self):
        if self.source not in ("all-connected-up-to-n", "random"):
            raise ValueError(f"unknown corpus source {self.source!r}")
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


class _Ctx:
    def __init__(self, config: SweepConfig):
        self.config = config
        self.inv: dict[str, InvariantResult] = {}
        self.flags: list[dict] = []
        self.flag_totals: Counter = Counter()
        self.warnings: list[str] = []
        self.rng = random.Random(config.seed)

    def check(self, name: str, ok: bool, detail: dict | None = None):
        self.inv.setdefault(name, InvariantResult(name)).record(ok, detail)

    def flag(self, code: str, gid: str, detail: dict):
        self.flag_totals[code] += 1
        if self.flag_totals[code] <= _MAX_STORED_FLAGS_PER_CODE:
            payload = {k: v for k, v in detail.items() if k != "graph"}
            self.flags.append({"code": code, "graph_id": gid, **payload})


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
    for gid, g in graphs:
        _sweep_graph(ctx, gid, g)
    extras = _hamiltonian_extras(config)
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
    for n in config.hamiltonian_random_sizes:
        out.extend(
            corpus.random_graphs(config.hamiltonian_random_count, n, config.edge_probability, config.seed + n)
        )
    return out


def _sweep_graph(ctx: _Ctx, gid: str, g: Graph):
    cfg = ctx.config
    n, l_max = g.n, cfg.l_max
    node_budget = cfg.node_budget if cfg.node_budget is not None else limits.node_budget()
    use_oracle = "oracle" in cfg.engines
    use_symbolic = "symbolic" in cfg.engines
    use_fock = "fock" in cfg.engines
    if not use_oracle and "oracle-disabled" not in ctx.warnings:
        ctx.warnings.append("oracle-disabled")
        ctx.warnings.append(
            "the oracle engine is disabled: ground-truth cross-checks are skipped"
        )

    powers = [identity_matrix(n)]
    a = adjacency_matrix(g)
    for _ in range(l_max):
        powers.append(np.dot(powers[-1], a))

    walk_t = {u: oracle._walk_table(g, u, l_max, node_budget) for u in range(1, n + 1)} if use_oracle else {}
    trail_t = {u: oracle._trail_tables(g, u, l_max, node_budget) for u in range(1, n + 1)} if use_oracle else {}
    dni_t = {u: oracle._dni_tables(g, u, l_max, node_budget) for u in range(1, n + 1)} if use_oracle else {}

    edge_powers = vertex_powers = None
    if use_symbolic:
        edge_powers = _power_chain(nilpotent.formal_adjacency_edges(g), l_max, cfg.term_budget)
        vertex_powers = _power_chain(nilpotent.vertex_observable_matrix(g), l_max, cfg.term_budget)

    edge_space_compact = fock._needs_compact_register(g)
    fock_n = fock_m = fock_d = {}
    if use_fock:
        fock_n = {
            u: fock.normal_ordered_expectation_table(
                g, u, l_max, MatrixKind.N_EDGE, present_edges_only=edge_space_compact, node_budget=node_budget
            )
            for u in range(1, n + 1)
        }
        fock_m = {
            u: fock.normal_ordered_expectation_table(g, u, l_max, MatrixKind.M_VERTEX, node_budget=node_budget)
            for u in range(1, n + 1)
        }
        fock_d = {
            u: fock.annihilation_form_table(
                g, u, l_max, present_edges_only=edge_space_compact, node_budget=node_budget
            )
            for u in range(1, n + 1)
        }
        if edge_space_compact:
            # the full pair register must refuse cleanly; the |E|-slot
            # register carries the sweep instead
            try:
                Register.all_pairs(n)
                refused = False
            except CapacityError:
                refused = True
            ctx.check("edge-register-capacity-refusal", refused, {"graph": gid, "n": n})
        else:
            # slot occupations of the graph state reproduce the adjacency
            # matrix entry by entry
            psi = fock.graph_state(g)
            index = psi.basis_index()
            for u in range(1, n + 1):
                for v in range(u + 1, n + 1):
                    bit = psi.register.bit(psi.register.slot_index((u, v)))
                    occ = (index >> bit) & 1
                    ctx.check(
                        "slot-expectation-matches-adjacency",
                        occ == int(a[u - 1, v - 1]),
                        {"graph": gid, "u": u, "v": v, "occupation": occ},
                    )

    for u in range(1, n + 1):
        for v in range(1, n + 1):
            for l in range(1, l_max + 1):
                key = (l, v)
                w = int(powers[l][u - 1, v - 1])
                loc = {"graph": gid, "l": l, "u": u, "v": v}

                ctx.check(
                    "walk-symmetry",
                    w == int(powers[l][v - 1, u - 1]),
                    {**loc, "uv": w, "vu": int(powers[l][v - 1, u - 1])},
                )
                if use_oracle:
                    ow = walk_t[u].get(key, 0)
                    ot = trail_t[u][0].get(key, 0)
                    o_dni = dni_t[u][0].get(key, 0)
                    op = dni_t[u][1].get(key, 0)
                    ctx.check("walk-count-matches-adjacency-power", ow == w, {**loc, "oracle": ow, "matrix": w})
                    ctx.check(
                        "count-monotonicity-path-trail-walk",
                        op <= ot <= ow,
                        {**loc, "path": op, "trail": ot, "walk": ow},
                    )
                    ctx.check(
                        "reversal-symmetry-trail-path",
                        ot == trail_t[v][0].get((l, u), 0) and op == dni_t[v][1].get((l, u), 0),
                        loc,
                    )
                    if (u != v and l > n - 1) or (u == v and l > n):
                        ctx.check("path-length-bound", op == 0, {**loc, "path": op})

                    hist = trail_t[u][1].get(key)
                    hist_sum = sum(hist.values()) if hist else 0
                    ctx.check("histogram-total-matches-trail-count", hist_sum == ot, {**loc, "sum": hist_sum, "trail": ot})

                    if use_symbolic:
                        entry = edge_powers[l].entry(u, v)
                        st = entry.coefficient_sum()
                        ctx.check("trail-agreement-oracle-vs-nilpotent", st == ot, {**loc, "symbolic": st, "oracle": ot})
                        ctx.check(
                            "monomial-degree-equals-length",
                            all(len(gens) == l for gens, _ in entry.terms()),
                            loc,
                        )
                        ctx.check(
                            "coefficient-positivity",
                            all(c >= 1 for _, c in entry.terms()),
                            loc,
                        )
                        m_entry = vertex_powers[l].entry(u, v)
                        sm = m_entry.coefficient_sum()
                        ctx.check(
                            "literal-observable-counts-distinct-non-initial",
                            sm == o_dni,
                            {**loc, "symbolic": sm, "oracle": o_dni},
                        )
                        if u != v:
                            guarded = nilpotent.guarded_sum_from_literal(m_entry, u)
                            ctx.check(
                                "guarded-observable-counts-paths",
                                guarded == op,
                                {**loc, "guarded": guarded, "oracle": op},
                            )
                            if sm != op:
                                ctx.flag(
                                    PROP2_LITERAL_OVERCOUNT,
                                    gid,
                                    {**loc, "literal": sm, "paths": op},
                                )
                        ctx.check("trail-count-bounded-by-walks", st <= w, {**loc, "symbolic": st, "walk": w})
                    if use_fock:
                        ft = fock_n[u].get(key, 0)
                        ctx.check("trail-agreement-oracle-vs-fock", ft == ot, {**loc, "fock": ft, "oracle": ot})
                        fm = fock_m[u].get(key, 0)
                        ctx.check(
                            "vertex-observable-agreement-fock",
                            fm == o_dni,
                            {**loc, "fock": fm, "oracle": o_dni},
                        )
                        quad = fock_d[u].get(key, 0)
                        sq = sum(c * c for c in hist.values()) if hist else 0
                        ctx.check(
                            "annihilation-form-matches-squared-histogram",
                            quad == sq,
                            {**loc, "fock": quad, "squared": sq},
                        )
                        if hist and max(hist.values()) <= 1:
                            ctx.check(
                                "annihilation-form-matches-trails-when-sets-unique",
                                quad == ot,
                                {**loc, "fock": quad, "trail": ot},
                            )
                        elif hist:
                            ctx.check(
                                "annihilation-form-exceeds-trails-when-sets-repeat",
                                quad > ot,
                                {**loc, "fock": quad, "trail": ot},
                            )
                        if quad != ot:
                            ctx.flag(DMATRIX_SQUARED, gid, {**loc, "quadratic_form": quad, "trails": ot})
                elif use_symbolic:
                    # without the oracle we can still assert the structural
                    # properties of the symbolic power entries
                    entry = edge_powers[l].entry(u, v)
                    ctx.check(
                        "monomial-degree-equals-length",
                        all(len(gens) == l for gens, _ in entry.terms()),
                        loc,
                    )
                    ctx.check(
                        "trail-count-bounded-by-walks", entry.coefficient_sum() <= w, loc
                    )

    if use_oracle:
        _spot_check_ops(ctx, gid, g, walk_t, trail_t, dni_t, edge_powers, vertex_powers, fock_n, fock_m, fock_d)
        _euler_checks(ctx, gid, g)
        _hamiltonian_checks(ctx, gid, g)


def _power_chain(m, l_max: int, term_budget: int | None):
    chain = {1: m}
    for l in range(2, l_max + 1):
        chain[l] = chain[l - 1].mul(m, term_budget)
    return chain


def _spot_check_ops(ctx, gid, g, walk_t, trail_t, dni_t, edge_powers, vertex_powers, fock_n, fock_m, fock_d):
    """Sampled per-query calls of the public operations against the sweep
    tables: the ops are what users call, the tables are what the sweep
    trusts, and enumerate/count are different reductions of one search."""
    cfg = ctx.config
    rng = ctx.rng
    n = g.n
    for _ in range(2):
        l = rng.randint(1, min(4, cfg.l_max))
        u = rng.randint(1, n)
        v = rng.randint(1, n)
        loc = {"graph": gid, "l": l, "u": u, "v": v}
        for cls in WalkClass:
            listed = len(oracle.enumerate_walks(g, l, u, v, cls))
            counted = oracle.count_walks(g, l, u, v, cls)
            ctx.check("enumerate-matches-count", listed == counted, {**loc, "class": cls.value, "listed": listed, "counted": counted})
        seqs = oracle.enumerate_walks(g, l, u, v, WalkClass.WALK)
        ctx.check("enumerate-lexicographic-unique", seqs == sorted(set(seqs)), loc)
        if edge_powers is not None:
            via_rows = nilpotent._row_power_entry(nilpotent.formal_adjacency_edges(g), l, u, v, cfg.term_budget)
            ctx.check(
                "row-power-matches-matrix-power",
                via_rows == edge_powers[l].entry(u, v),
                loc,
            )
            ctx.check(
                "trail-op-matches-table",
                nilpotent.trail_count_symbolic(g, l, u, v) == edge_powers[l].entry(u, v).coefficient_sum(),
                loc,
            )
            ctx.check(
                "path-op-literal-matches-table",
                nilpotent.path_count_symbolic(g, l, u, v) == vertex_powers[l].entry(u, v).coefficient_sum(),
                loc,
            )
            if u != v:
                ctx.check(
                    "path-op-guarded-matches-filter",
                    nilpotent.path_count_symbolic(g, l, u, v, PathVariant.START_GUARDED)
                    == nilpotent.guarded_sum_from_literal(vertex_powers[l].entry(u, v), u),
                    loc,
                )
            if l >= 3:
                ctx.check(
                    "cycle-op-matches-table",
                    nilpotent.cycle_count_symbolic(g, l, u) == vertex_powers[l].entry(u, u).coefficient_sum(),
                    loc,
                )
        if fock_n:
            compact = fock._needs_compact_register(g)
            ctx.check(
                "fock-op-matches-table",
                fock.normal_ordered_expectation(
                    g, l, u, v, MatrixKind.N_EDGE, present_edges_only=compact
                )
                == fock_n[u].get((l, v), 0),
                loc,
            )
            ctx.check(
                "dform-op-matches-table",
                fock.d_matrix_quadratic_form(g, l, u, v, present_edges_only=compact)
                == fock_d[u].get((l, v), 0),
                loc,
            )
            ctx.check(
                "fock-walk-expectation-matches-walk-count",
                fock.walk_count_expectation(g, l, u, v, present_edges_only=compact)
                == walk_t[u].get((l, v), 0),
                loc,
            )
            if not compact:
                ctx.check(
                    "compact-register-matches-full-register",
                    fock.normal_ordered_expectation(g, l, u, v, MatrixKind.N_EDGE, present_edges_only=True)
                    == fock_n[u].get((l, v), 0),
                    loc,
                )


def _euler_checks(ctx, gid, g: Graph):
    cfg = ctx.config
    m = g.edge_count
    eulerian = (
        m >= 1
        and corpus.is_connected(g)
        and all(g.degree(u) % 2 == 0 for u in range(1, g.n + 1))
    )
    if not eulerian:
        # non-Eulerian ground truth: the closed-trail count at length |E| is
        # 0; the symbolic side is only exercised at small |E| because the
        # intermediate powers of dense non-Eulerian graphs are the one place
        # term counts blow up without contributing to any criterion
        if 1 <= m <= 8:
            u = 1
            zero = oracle.count_closed_euler_trails(g, u, cfg.node_budget)
            if "symbolic" in cfg.engines:
                sym = nilpotent.euler_trail_count_symbolic(g, u, u, cfg.term_budget)
                ctx.check("euler-closed-agreement", sym == zero, {"graph": gid, "u": u, "symbolic": sym, "oracle": zero})
        return
    diag = None
    if "symbolic" in cfg.engines:
        chain = nilpotent.matrix_power_nilpotent(
            nilpotent.formal_adjacency_edges(g), m, cfg.term_budget
        )
        diag = [chain.entry(u, u).coefficient_sum() for u in range(1, g.n + 1)]
    for u in range(1, g.n + 1):
        o = oracle.count_closed_euler_trails(g, u, cfg.node_budget)
        if diag is not None:
            ctx.check(
                "euler-closed-agreement",
                diag[u - 1] == o,
                {"graph": gid, "u": u, "symbolic": diag[u - 1], "oracle": o},
            )
        if "fock" in cfg.engines:
            compact = fock._needs_compact_register(g)
            f = fock.normal_ordered_expectation_table(
                g, u, m, MatrixKind.N_EDGE, present_edges_only=compact, node_budget=cfg.node_budget
            ).get((m, u), 0)
            ctx.check("euler-closed-agreement-fock", f == o, {"graph": gid, "u": u, "fock": f, "oracle": o})
    # spot-check the public op once per graph
    if "symbolic" in cfg.engines:
        u = ctx.rng.randint(1, g.n)
        ctx.check(
            "euler-op-matches-chain",
            nilpotent.euler_trail_count_symbolic(g, u, u, cfg.term_budget) == diag[u - 1],
            {"graph": gid, "u": u},
        )


def _hamiltonian_checks(ctx, gid, g: Graph):
    cfg = ctx.config
    if "fock" not in cfg.engines:
        return
    for u in range(1, g.n + 1) if g.n <= 6 else (1,):
        amp = fock.f_matrix_amplitude(g, g.n, u, cfg.node_budget)
        directed = oracle.count_hamiltonian_cycles_through(g, u, directed=True, node_budget=cfg.node_budget)
        ctx.check(
            "hamiltonian-amplitude-agreement",
            amp == directed,
            {"graph": gid, "u": u, "fock": amp, "oracle": directed},
        )
    if g.n >= 2:
        below = fock.f_matrix_amplitude(g, g.n - 1, 1, cfg.node_budget)
        ctx.check("hamiltonian-amplitude-zero-below-n", below == 0, {"graph": gid, "value": below})
    if g.n >= 3:
        undirected = oracle.count_hamiltonian_cycles_through(g, 1, node_budget=cfg.node_budget)
        ctx.check(
            "hamiltonicity-decision-agreement",
            fock.is_hamiltonian(g, cfg.node_budget) == (undirected > 0),
            {"graph": gid},
        )
        if "symbolic" in cfg.engines:
            sym = nilpotent.cycle_count_symbolic(g, g.n, 1, cfg.term_budget)
            directed1 = oracle.count_hamiltonian_cycles_through(g, 1, directed=True, node_budget=cfg.node_budget)
            ctx.check(
                "hamiltonian-symbolic-agreement",
                sym == directed1,
                {"graph": gid, "symbolic": sym, "oracle": directed1},
            )


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
    entry = nilpotent._row_power_entry(nilpotent.formal_adjacency_edges(g), 3, 1, 2, None)
    slots = list(Register.all_pairs(g.n).slots)
    return [sorted(list(slots[i]) for i in gens) for gens, _ in entry.terms()]


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
    amplitudes = np.array(
        [rng.randint(-3, 3) for _ in range(register.dimension)], dtype=object
    )
    return StateVector(register, amplitudes)


def _property_ladder_anticommutation(rng, cases) -> InvariantResult:
    inv = InvariantResult("ladder-anticommutation")
    for _ in range(cases):
        width = rng.randint(1, 6)
        register = Register(fock.RegisterKind.VERTEX_SPACE, tuple(range(1, width + 1)))
        state = _random_state(rng, register)
        slot = rng.randrange(width)
        a = LadderOp(LadderKind.ANNIHILATE, slot)
        c = LadderOp(LadderKind.CREATE, slot)
        left = apply_ladder(c, apply_ladder(a, state))
        right = apply_ladder(a, apply_ladder(c, state))
        combined = StateVector(register, left.amplitudes + right.amplitudes)
        inv.record(combined == state, {"width": width, "slot": slot})
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
        register = Register(fock.RegisterKind.VERTEX_SPACE, tuple(range(1, width + 1)))
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
