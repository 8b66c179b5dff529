"""The sweep's failure and flag paths, which a passing default sweep never
reaches. The expected summaries were recorded from the cell-by-cell checks
that the per-start checks replaced."""

import inspect
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

from trailcounts import families, fock, nilpotent, oracle, verify
from trailcounts.graphs import Graph

SMALL = verify.SweepConfig(n_max=4, l_max=4)


def _corrupt_trail_sums(monkeypatch, corrupt):
    """Pass every Fock tally's trail sums through corrupt(call number, sums)."""
    tally = fock._tally
    calls = []

    def corrupted(levels):
        sums, squares = tally(levels)
        calls.append(None)
        corrupt(len(calls), sums)
        return sums, squares

    monkeypatch.setattr(fock, "_tally", corrupted)


def _failing(summary) -> dict[str, verify.InvariantResult]:
    return {inv.name: inv for inv in summary.invariants if not inv.passed}


def test_one_wrong_trail_sum_fails_one_cell(monkeypatch):
    def first_call_only(call, sums):
        if call == 1:  # c4, the first graph, from vertex 1
            sums[3, 2] = sums.get((3, 2), 0) + 1

    _corrupt_trail_sums(monkeypatch, first_call_only)
    summary = verify.run_sweep(SMALL)
    assert not summary.passed
    failing = _failing(summary)
    assert list(failing) == ["trail-agreement-oracle-vs-fock"]
    inv = failing["trail-agreement-oracle-vs-fock"]
    assert (inv.cases, inv.failure_count) == (1220, 1)
    assert inv.failures == [{"graph": "c4", "l": 3, "u": 1, "v": 2, "fock": 2, "oracle": 1}]


def test_many_wrong_trail_sums_store_the_first_failures_in_cell_order(monkeypatch):
    def every_length_two(call, sums):
        for key in sums:
            if key[0] == 2:
                sums[key] += 1

    _corrupt_trail_sums(monkeypatch, every_length_two)
    failing = _failing(verify.run_sweep(SMALL))
    assert {name: (inv.cases, inv.failure_count) for name, inv in failing.items()} == {
        "trail-agreement-oracle-vs-fock": (1220, 160),
        "vertex-observable-agreement-fock": (1220, 224),
        "fock-op-matches-table": (34, 3),
        "compact-register-matches-full-register": (32, 3),
    }
    trails = failing["trail-agreement-oracle-vs-fock"].failures
    assert len(trails) == 20
    assert [(f["graph"], f["u"], f["v"], f["l"]) for f in trails] == (
        [("c4", 1, 3, 2), ("c4", 2, 4, 2), ("c4", 3, 1, 2), ("c4", 4, 2, 2)]
        + [("k4", u, v, 2) for u in range(1, 5) for v in range(1, 5) if u != v]
        + [("bowtie", 1, v, 2) for v in range(2, 6)]
    )
    assert trails[0] == {"graph": "c4", "l": 2, "u": 1, "v": 3, "fock": 3, "oracle": 2}
    assert trails[-1] == {"graph": "bowtie", "l": 2, "u": 1, "v": 5, "fock": 2, "oracle": 1}
    vertex = failing["vertex-observable-agreement-fock"].failures
    assert vertex[0] == {"graph": "c4", "l": 2, "u": 1, "v": 1, "fock": 3, "oracle": 2}
    assert vertex[-1] == {"graph": "k4", "l": 2, "u": 3, "v": 4, "fock": 3, "oracle": 2}


def test_stored_flags_interleave_codes_in_cell_order(monkeypatch):
    monkeypatch.setattr(verify, "_MAX_STORED_FLAGS_PER_CODE", 3)
    summary = verify.run_sweep(SMALL)
    assert summary.passed
    assert summary.flag_totals == {"DMATRIX_SQUARED": 85, "PROP2_LITERAL_OVERCOUNT": 238}
    assert summary.flags == [
        {"code": "DMATRIX_SQUARED", "graph_id": "c4", "l": 4, "u": 1, "v": 1, "quadratic_form": 4, "trails": 2},
        {"code": "PROP2_LITERAL_OVERCOUNT", "graph_id": "c4", "l": 3, "u": 1, "v": 2, "literal": 2, "paths": 1},
        {"code": "PROP2_LITERAL_OVERCOUNT", "graph_id": "c4", "l": 4, "u": 1, "v": 3, "literal": 2, "paths": 0},
        {"code": "PROP2_LITERAL_OVERCOUNT", "graph_id": "c4", "l": 3, "u": 1, "v": 4, "literal": 2, "paths": 1},
        {"code": "DMATRIX_SQUARED", "graph_id": "c4", "l": 4, "u": 2, "v": 2, "quadratic_form": 4, "trails": 2},
        {"code": "DMATRIX_SQUARED", "graph_id": "c4", "l": 4, "u": 3, "v": 3, "quadratic_form": 4, "trails": 2},
    ]


@pytest.mark.parametrize("engines", [("oracle", "symbolic"), ("oracle", "symbolic", "fock")])
def test_non_eulerian_closed_check_runs_the_row_power(monkeypatch, engines):
    # degree parity answers the public Euler op with 0, so a wrong row power
    # shows only if the check multiplies
    real = nilpotent._row_power_entry
    monkeypatch.setattr(nilpotent, "_row_power_entry", lambda *args: real(*args) + nilpotent.Polynomial.one())
    config = verify.SweepConfig(n_max=3, l_max=2, engines=engines, include_named=False)
    inv = verify.run_sweep(config).invariant("euler-closed-agreement")
    # K2 and P3 are not Eulerian; K3's three closed checks read the full chain
    assert (inv.cases, inv.failure_count) == (5, 2)
    assert [(f["symbolic"], f["oracle"]) for f in inv.failures] == [(1, 0), (1, 0)]


@pytest.mark.parametrize("engines", [("symbolic", "fock"), ("fock",)])
def test_sweep_without_the_oracle_calls_no_oracle_op(monkeypatch, engines):
    calls = []
    for name, op in vars(oracle).copy().items():
        if inspect.isfunction(op) and op.__module__ == oracle.__name__ and not name.startswith("_"):
            spy = lambda *args, op=op, name=name, **kwargs: calls.append(name) or op(*args, **kwargs)
            monkeypatch.setattr(oracle, name, spy)
    assert verify.run_sweep(verify.SweepConfig(n_max=4, l_max=4, engines=engines)).passed
    assert calls == []


LEVEL_GRAPHS = {
    "K2": families.complete_graph(2),
    "P3": families.path_graph(3),
    "C5": families.cycle_graph(5),
    "K4": families.complete_graph(4),
    "petersen": families.petersen_graph(),
    "edgeless-vertex": Graph.from_edges(4, [(1, 2), (2, 4)]),  # vertex 3 has no edge
    "disconnected": Graph.from_edges(5, [(1, 2), (2, 3), (4, 5)]),  # every level empty by l = 3
}


@pytest.mark.parametrize("name", LEVEL_GRAPHS)
def test_sweep_levels_are_rows_of_the_matrix_power(name):
    g, l_max = LEVEL_GRAPHS[name], 6
    t = verify._build_tables(name, g, l_max, ("symbolic",))
    kinds = ((t.edge_levels, nilpotent.formal_adjacency_edges(g)), (t.vertex_levels, nilpotent.vertex_observable_matrix(g)))
    for levels, m in kinds:
        assert sorted(levels) == list(range(1, g.n + 1))
        for l in range(1, l_max + 1):
            power = nilpotent.matrix_power_nilpotent(m, l)
            for u, row in levels.items():
                level = row[l - 1] if l <= len(row) else {}
                assert {v - 1: nilpotent.Polynomial(terms) for v, terms in level.items()} == power.rows[u - 1], (u, l)
                assert [verify._level_entry(row, l, v) for v in range(1, g.n + 1)] == [
                    power.entry(u, v) for v in range(1, g.n + 1)
                ]
        # the levels stop after the first empty one
        if name == "edgeless-vertex":
            assert levels[3] == [{}]
        if name == "disconnected":
            assert all(0 < len(row) < l_max and not row[-1] for row in levels.values())


@pytest.mark.parametrize(
    "n_max, count, seed, ids",
    [
        (1, 2, 3, ["gnp-s3-0-n1-0", "gnp-s4-0-n1-0"]),
        (2, 3, 0, ["gnp-s0-0-n2-0", "gnp-s1-0-n2-1", "gnp-s2-0-n2-0"]),
        (4, 5, 3, ["gnp-s3-0-n2-1", "gnp-s4-0-n3-7", "gnp-s5-0-n4-0", "gnp-s6-0-n2-0", "gnp-s7-0-n3-3"]),
        (6, 7, 1729, [
            "gnp-s1729-0-n2-0", "gnp-s1730-0-n3-3", "gnp-s1731-0-n4-1f", "gnp-s1732-0-n5-365",
            "gnp-s1733-0-n6-1e45", "gnp-s1734-0-n2-1", "gnp-s1735-0-n3-4",
        ]),
    ],
)
def test_random_corpus_cycles_through_the_sizes(n_max, count, seed, ids):
    # draw i has 2 + i % (n_max - 1) vertices (1 when n_max is 1): the sizes
    # 2..n_max in turn, as they were drawn from a list of them
    config = verify.SweepConfig(n_max=n_max, source="random", random_count=count, seed=seed, include_named=False)
    assert [gid for gid, _ in verify.build_corpus(config)] == ids


_TRACED_CORPUS = """
import tracemalloc
from trailcounts import verify
config = verify.SweepConfig(n_max=3 * 10**9, source="random", random_count=1, include_named=False)
tracemalloc.start()
ids = [gid for gid, _ in verify.build_corpus(config)]
print(ids, tracemalloc.get_traced_memory()[1])
"""


def test_random_corpus_memory_does_not_follow_n_max():
    # a child capped at 1 GiB of address space, so a size list 3e9 long ends
    # in a MemoryError instead of exhausting the machine
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    env = dict(os.environ, PYTHONPATH=str(Path(verify.__file__).parents[1]))
    child = subprocess.run(
        [sys.executable, "-c", _TRACED_CORPUS], capture_output=True, text=True, env=env, preexec_fn=cap
    )
    assert child.returncode == 0, child.stderr
    ids, peak = child.stdout.rsplit(" ", 1)
    assert ids == "['gnp-s1729-0-n2-0']"
    assert int(peak) < 1 << 20
