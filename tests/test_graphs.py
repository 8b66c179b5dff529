import decimal
import functools
import gc
import json
import os
import subprocess
import sys
import tracemalloc
import weakref
from pathlib import Path

import pytest

from trailcounts import families, reports
from trailcounts.cli import main
from trailcounts.errors import BudgetExceededError, EdgeListError
from trailcounts.graphs import (
    MAX_LABEL,
    Graph,
    adjacency_matrix,
    decimal_str,
    identity_matrix,
    matrix_power,
    occupation_string,
    pair_slots,
    parse_edge_list,
    slot_of_pair,
    trails_ruled_out,
    walk_count,
    walk_rows,
)
from trailcounts.oracle import WalkClass, enumerate_walks

C4_ADJ = [
    [0, 1, 1, 0],
    [1, 0, 0, 1],
    [1, 0, 0, 1],
    [0, 1, 1, 0],
]


class TestParse:
    def test_four_cycle(self, c4):
        assert c4.n == 4
        assert c4.edges == frozenset({(1, 2), (1, 3), (2, 4), (3, 4)})

    def test_empty_with_header(self):
        g = parse_edge_list("n 1\n")
        assert g.n == 1
        assert g.edge_count == 0

    def test_duplicates_collapse_in_either_order(self):
        g = parse_edge_list("1 2\n2 1\n1 2")
        assert g.n == 2
        assert g.edges == frozenset({(1, 2)})

    def test_comments_and_blank_lines(self):
        g = parse_edge_list("# a square\n\n1 2  # first edge\n1 3\n2 4\n3 4\n")
        assert g.edge_count == 4

    def test_self_loop_rejected_with_line_number(self):
        with pytest.raises(EdgeListError, match="line 2"):
            parse_edge_list("1 2\n3 3\n")

    def test_non_integer_token(self):
        with pytest.raises(EdgeListError, match="integer"):
            parse_edge_list("1 two\n")

    def test_label_exceeding_declared_n(self):
        with pytest.raises(EdgeListError, match="exceeds"):
            parse_edge_list("n 3\n1 4\n")

    def test_label_exceeding_earlier_than_header(self):
        with pytest.raises(EdgeListError, match="exceeds"):
            parse_edge_list("1 4\nn 3\n")

    def test_empty_without_header(self):
        with pytest.raises(EdgeListError, match="header"):
            parse_edge_list("")

    def test_zero_label_rejected(self):
        with pytest.raises(EdgeListError, match="start at 1"):
            parse_edge_list("0 1\n")

    @pytest.mark.parametrize("text", ["\u0663 4\n", "1_0 2\n", "+1 2\n", "n \u0663\n"])
    def test_only_ascii_digits_are_integers(self, text):
        # int() reads Arabic-Indic digits, underscores and a plus sign
        with pytest.raises(EdgeListError, match="expected an integer"):
            parse_edge_list(text)

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("1 2\n2 1000001\n", 2, "vertex label 1000001 exceeds the limit of 1000000"),
            ("1 2\n2 1000000000000\n", 2, "vertex label 1000000000000 exceeds"),
            ("# big\nn 1000001\n", 2, "vertex count 1000001 exceeds the limit of 1000000"),
        ],
    )
    def test_label_above_the_limit(self, text, line, message):
        # every engine builds per-vertex tables over 1..n, so n is bounded
        with pytest.raises(EdgeListError, match=f"line {line}: {message}"):
            parse_edge_list(text)

    def test_label_at_the_limit(self):
        assert MAX_LABEL == 10**6
        assert parse_edge_list(f"1 2\n2 {MAX_LABEL}\n").n == MAX_LABEL
        assert parse_edge_list(f"n {MAX_LABEL}\n").n == MAX_LABEL

    def test_negative_label_reads_as_an_integer(self):
        with pytest.raises(EdgeListError, match="start at 1"):
            parse_edge_list("-1 2\n")


class TestGraph:
    def test_invariants_enforced(self):
        with pytest.raises(ValueError):
            Graph(3, frozenset({(1, 1)}))
        with pytest.raises(ValueError):
            Graph(3, frozenset({(2, 4)}))
        with pytest.raises(ValueError):
            Graph(0, frozenset())

    def test_neighbors_sorted(self, c4):
        assert c4.neighbors(1) == (2, 3)
        assert c4.neighbors(4) == (2, 3)
        assert c4.degree(1) == 2

    def test_vertex_range_checked(self, c4):
        with pytest.raises(ValueError):
            c4.neighbors(5)


class TestSlots:
    def test_lexicographic_order(self):
        assert pair_slots(4) == ((1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4))

    def test_bijection(self):
        slots = pair_slots(5)
        assert len(set(slots)) == len(slots) == 10
        assert slot_of_pair(5, 4, 2) == slots.index((2, 4))

    def test_c4_occupation_string(self, c4):
        assert occupation_string(c4) == "110011"

    def test_closed_form_matches_enumeration(self):
        for n in range(2, 41):
            for i, (u, v) in enumerate(pair_slots(n)):
                assert slot_of_pair(n, u, v) == i
                assert slot_of_pair(n, v, u) == i

    @pytest.mark.parametrize("u, v, bad", [(0, 2, 0), (2, 0, 0), (1, 5, 5), (5, 1, 5)])
    def test_vertex_out_of_range(self, u, v, bad):
        with pytest.raises(ValueError, match=f"vertex {bad} out of range 1..4"):
            slot_of_pair(4, u, v)

    def test_equal_vertices(self):
        with pytest.raises(ValueError, match=r"distinct vertices, got \(5,5\)"):
            slot_of_pair(4, 5, 5)

    def test_pair_slots_cache_is_bounded(self):
        assert pair_slots.cache_info().maxsize == 128
        for n in range(-200, 1):  # no pairs below n = 2, so each key is cheap
            pair_slots(n)
        assert pair_slots.cache_info().currsize <= 128


class TestAdjacency:
    def test_c4_matrix(self, c4):
        assert adjacency_matrix(c4) == C4_ADJ

    def test_edgeless_zero(self):
        g = Graph(3, frozenset())
        assert adjacency_matrix(g) == [[0] * 3] * 3

    def test_k2(self, k2):
        assert adjacency_matrix(k2) == [[0, 1], [1, 0]]


class TestWalkCount:
    def test_c4_known_value(self, c4):
        assert walk_count(c4, 3, 1, 2) == 4

    def test_length_zero_identity(self, c4):
        assert walk_count(c4, 0, 2, 2) == 1
        assert walk_count(c4, 0, 1, 2) == 0

    def test_p3_matches_enumeration(self, p3):
        # independent route: list every length-2 walk and count
        assert len(enumerate_walks(p3, 2, 1, 3, WalkClass.WALK)) == 1
        assert walk_count(p3, 2, 1, 3) == 1

    def test_length_one_is_adjacency(self, c4):
        a = adjacency_matrix(c4)
        for u in range(1, 5):
            for v in range(1, 5):
                assert walk_count(c4, 1, u, v) == a[u - 1][v - 1]

    def test_symmetry(self, bowtie):
        for l in range(5):
            for u in range(1, 6):
                for v in range(1, 6):
                    assert walk_count(bowtie, l, u, v) == walk_count(bowtie, l, v, u)

    def test_arbitrary_precision(self):
        # closed form for complete graphs: walks 1->1 of length l in K_n are
        # ((n-1)**l + (n-1)*(-1)**l) / n, far beyond 64-bit at l = 40
        k6 = families.complete_graph(6)
        l = 40
        expected = (5**l + 5 * (-1) ** l) // 6
        assert expected > 2**63
        assert walk_count(k6, l, 1, 1) == expected

    def test_matrix_power_exact_dtype(self, c4):
        # every entry is an exact Python int, never a fixed-width one
        p = matrix_power(adjacency_matrix(c4), 5)
        assert all(type(x) is int for row in p for x in row)
        assert p == [[0, 16, 16, 0], [16, 0, 0, 16], [16, 0, 0, 16], [0, 16, 16, 0]]
        big = matrix_power(adjacency_matrix(families.complete_graph(6)), 40)
        assert big[0][0] == (5**40 + 5) // 6 > 2**63

    def test_matrix_power_zero_is_identity(self, c4):
        assert matrix_power(adjacency_matrix(c4), 0) == identity_matrix(4)
        with pytest.raises(ValueError):
            matrix_power(adjacency_matrix(c4), -1)

    def test_isolated_vertex(self):
        g = Graph(3, frozenset({(1, 2)}))
        assert walk_count(g, 0, 3, 3) == 1
        assert all(walk_count(g, l, 3, v) == 0 for l in range(1, 5) for v in (1, 2, 3))

    @pytest.mark.parametrize(
        "closed, l",
        [(True, 300), (False, 300), (True, 3000), (False, 3000)],  # l = 3000: 4,772 digits
        ids=["True", "False", "True-3000", "False-3000"],
    )
    def test_k40_long_walks_closed_form(self, closed, l):
        n = 40
        k = families.complete_graph(n)
        if closed:
            expected = ((n - 1) ** l + (n - 1) * (-1) ** l) // n
            assert walk_count(k, l, 7, 7) == expected
        else:
            expected = ((n - 1) ** l - (-1) ** l) // n
            assert walk_count(k, l, 1, 2) == expected

    def test_out_of_range_vertex(self, c4):
        with pytest.raises(ValueError):
            walk_count(c4, 2, 0, 1)
        with pytest.raises(ValueError):
            walk_count(c4, 2, 1, 9)


def _without(g, removed):
    return Graph(g.n, g.edges - frozenset(removed))


def _takes_back(g):
    """walk_rows' rule: take-backs once the vertices with 2d > n save more
    than 3n additions a step together."""
    excess = [2 * g.degree(w) - g.n for w in range(1, g.n + 1)]
    return sum(e for e in excess if e > 0) > 3 * g.n


# Graphs dense enough for take-back steps, each mixing them with pushes or
# leaving zeros that must be dropped. K_{5,25} has five dense hubs among
# sparse leaves, and its rows have zeros by parity.
TAKE_BACK = {
    "k5-25": Graph.from_edges(30, [(a, b) for a in range(1, 6) for b in range(6, 31)]),
    "k8-minus-matching": _without(families.complete_graph(8), [(1, 2), (3, 4), (5, 6), (7, 8)]),
    "k10-plus-isolated": Graph(11, families.complete_graph(10).edges),
}
# Graphs with dense vertices that save too little and push.
PUSH_ONLY = {
    "k33": Graph.from_edges(6, [(a, b) for a in (1, 2, 3) for b in (4, 5, 6)]),
    "star8": families.star_graph(8),
    "k5-plus-isolated": Graph(6, families.complete_graph(5).edges),
}


@pytest.mark.parametrize("name", sorted(TAKE_BACK) + sorted(PUSH_ONLY))
def test_walk_rows_match_matrix_power(name):
    g = TAKE_BACK.get(name) or PUSH_ONLY[name]
    assert _takes_back(g) == (name in TAKE_BACK)
    powers = [matrix_power(adjacency_matrix(g), l) for l in range(13)]
    for u in range(1, g.n + 1):
        rows = list(walk_rows(g, u, 12))
        assert len(rows) == 13
        for row, power in zip(rows, powers):
            assert 0 not in row.values()
            assert row == {v: c for v, c in enumerate(power[u - 1], start=1) if c}


def test_decimal_str_is_exact_past_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert decimal_str(0) == "0"
    assert decimal_str(-12) == "-12"
    assert decimal_str(10**5000) == "1" + "0" * 5000
    for within_limit in (1, -(2**1999), 3**2000):
        assert decimal_str(within_limit) == str(within_limit)
    big = 7**20000
    assert decimal.Decimal(decimal_str(big)) == decimal.Decimal(big)
    assert sys.get_int_max_str_digits() == limit


def test_graph_is_freed_after_every_kind():
    # the graph owns its adjacency and edge order, so no module-level cache
    # keeps a queried graph alive
    g = Graph.from_edges(5, [(1, 2), (2, 3), (3, 4), (4, 5), (1, 5), (2, 5)])
    for kind, spec in reports.KIND_TABLE.items():
        report = reports.run_count_query(g, "g", kind, spec.min_length + 2, 1, 1 if spec.closed else 3)
        assert all(ev.error is None for ev in report.engines.values())
    ref = weakref.ref(g)
    del g, report
    gc.collect()
    assert ref() is None


def test_sorted_edges_is_sorted_once(petersen):
    edges = petersen.sorted_edges()
    assert edges == tuple(sorted(petersen.edges))
    assert petersen.sorted_edges() is edges


def test_adjacency_is_built_once_per_graph(monkeypatch):
    built = []
    build = Graph.adjacency.func
    adjacency = functools.cached_property(lambda g: built.append(g) or build(g))
    adjacency.__set_name__(Graph, "adjacency")
    monkeypatch.setattr(Graph, "adjacency", adjacency)
    g = families.cycle_graph(11)
    for kind in ("walks", "trails", "paths", "cycles"):
        reports.run_count_query(g, "c11", kind, 11, 1, 1)
    walk_count(g, 50, 1, 2)
    assert g.degree(5) == 2 and trails_ruled_out(g, 11, 1, 2)
    assert len(built) == 1 and built[0] is g
    assert g.adjacency == ((), *(tuple(sorted({u % 11 + 1, (u - 2) % 11 + 1})) for u in range(1, 12)))
    other = families.cycle_graph(11)
    assert other.neighbors(1) == (2, 11)
    assert len(built) == 2 and built[1] is other


def test_incidence_is_built_once_per_graph(monkeypatch):
    built = []
    build = Graph.incidence.func
    incidence = functools.cached_property(lambda g: built.append(g) or build(g))
    incidence.__set_name__(Graph, "incidence")
    monkeypatch.setattr(Graph, "incidence", incidence)
    g = families.cycle_graph(11)
    # adjacency is read off incidence, so walks on every engine build it too
    for kind in ("walks", "trails", "paths", "cycles"):
        reports.run_count_query(g, "c11", kind, 11, 1, 1 if kind == "cycles" else 2)
    walk_count(g, 50, 1, 2)
    assert len(built) == 1 and built[0] is g
    assert g.incidence[1] == ((2, 0), (11, 1))
    other = families.cycle_graph(11)
    reports.run_count_query(other, "c11", "walks", 11, 1, 2, engines=("oracle",))
    assert len(built) == 2 and built[1] is other


# bytes per vertex label that one query on a graph with two edges may peak
# at: a few pointers per label for incidence, adjacency and each per-call
# table, no container per edgeless vertex
SPARSE_BYTES_PER_LABEL = 40


@pytest.mark.parametrize(
    "kind, engine", [(kind, engine) for kind in ("walks", "trails", "paths") for engine in reports.ENGINES]
)
def test_sparse_labels_cost_a_few_pointers_each(kind, engine):
    n = 50_000
    g = Graph.from_edges(n, [(1, 2), (2, n)])
    tracemalloc.start()
    try:
        report = reports.run_count_query(g, "sparse", kind, 2, 1, 1 if kind == "walks" else n, engines=(engine,))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert report.engines[engine].value == 1
    assert peak < SPARSE_BYTES_PER_LABEL * n, peak / n


class TestWalkBudget:
    """walk_rows charges each level its live entries times the 64-bit words
    of its largest count."""

    def test_charge_per_level(self, p3, set_node_budget):
        # rows from vertex 1 of P3: {1: 1}, {2: 1}, {1: 1, 3: 1}, {2: 2}, {1: 2, 3: 2}
        set_node_budget(7)
        assert walk_count(p3, 4, 1, 3) == 2
        set_node_budget(6)
        with pytest.raises(BudgetExceededError, match="^adjacency power exceeded its budget of 6$"):
            walk_count(p3, 4, 1, 3)

    def test_cli_exits_2_on_a_far_length(self, capsys, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("1 2\n2 3\n")
        code = main(
            ["count", "--input", str(path), "--kind", "walks", "--length", str(10**20),
             "--from", "1", "--to", "3", "--engine", "symbolic", "--format", "json"]
        )
        assert code == 2
        engines = json.loads(capsys.readouterr().out)["engines"]
        assert engines == {"symbolic": {"error": "adjacency power exceeded its budget of 100000000"}}

    def test_empty_row_ends_the_count(self):
        # an isolated vertex has no walk past length 0, at any length
        assert walk_count(Graph(2, frozenset()), 10**20, 1, 1) == 0


def test_import_loads_no_numpy():
    src = Path(__file__).resolve().parent.parent / "src"
    code = "import sys, trailcounts, trailcounts.cli; print('numpy' in sys.modules)"
    result = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": str(src)},
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert result.returncode == 0, result.stderr
    assert result.stdout.strip() == "False"


class TestTrailsRuledOut:
    @pytest.mark.parametrize(
        "graph, length, u, v, ruled_out",
        [
            (families.complete_graph(8), 28, 1, 2, True),  # eight odd vertices
            (families.complete_graph(8), 27, 1, 2, False),
            (families.complete_graph(7), 21, 1, 1, False),  # every degree even
            (families.complete_graph(7), 21, 1, 2, True),
            (families.complete_graph(7), 22, 1, 1, True),  # longer than |E|
            (families.path_graph(4), 3, 1, 4, False),  # odd ends 1 and 4
            (families.path_graph(4), 3, 4, 1, False),
            (families.path_graph(4), 3, 1, 3, True),
            (families.cycle_graph(4), 4, 2, 2, False),
            (families.cycle_graph(4), 4, 1, 2, True),
            (Graph(2, frozenset()), 0, 1, 1, False),  # the empty circuit
            (Graph(2, frozenset()), 0, 1, 2, True),
            (Graph.from_edges(6, [(1, 2), (2, 6)]), 2, 1, 6, False),  # 3, 4 and 5 edgeless
            (Graph.from_edges(6, [(1, 2), (2, 6)]), 2, 6, 1, False),
            (Graph.from_edges(6, [(1, 2), (2, 6)]), 2, 1, 2, True),
        ],
    )
    def test_edge_count_and_parity(self, graph, length, u, v, ruled_out):
        assert trails_ruled_out(graph, length, u, v) is ruled_out

    @pytest.mark.parametrize(
        "kind, length, v, value, passes",
        [("euler", 6, 1, 2, 1), ("trails", 6, 4, 0, 1), ("trails", 3, 4, 2, 0)],
    )
    def test_parity_pass_runs_once_per_graph(self, monkeypatch, kind, length, v, value, passes):
        # every engine reads the odd-degree set its graph caches; below |E|
        # the edge count alone answers
        seen = []
        real = Graph.odd_vertices.func

        def counted(g):
            seen.append(g)
            return real(g)

        prop = functools.cached_property(counted)
        prop.__set_name__(Graph, "odd_vertices")
        monkeypatch.setattr(Graph, "odd_vertices", prop)
        g = families.cycle_graph(6)
        report = reports.run_count_query(g, "c6", kind, length, 1, v)
        assert sorted(report.engines) == ["fock", "oracle", "symbolic"]
        assert {e.value for e in report.engines.values()} == {value}
        assert len(seen) == passes
