import _collections
import functools
import inspect
import itertools
import types

import pytest

from trailcounts import families, oracle
from trailcounts.errors import BudgetExceededError
from trailcounts.graphs import Graph, trails_ruled_out, walk_count
from trailcounts.nilpotent import PathVariant
from trailcounts.oracle import (
    WalkClass,
    _dni_tables,
    _trail_tables,
    _walk_table,
    count_closed_euler_trails,
    count_dni_and_paths,
    count_hamiltonian_cycles_through,
    count_walks,
    enumerate_walks,
    trail_edge_set_histogram,
)
from trailcounts.reports import PROP2_LITERAL_OVERCOUNT, run_count_query


class TestEnumerate:
    def test_c4_walks_length3(self, c4):
        # all four walks 1 -> 2 of length 3, hand-enumerable on a square
        assert enumerate_walks(c4, 3, 1, 2) == [
            (1, 2, 1, 2),
            (1, 2, 4, 2),
            (1, 3, 1, 2),
            (1, 3, 4, 2),
        ]

    def test_c4_trail_is_unique(self, c4):
        assert enumerate_walks(c4, 3, 1, 2, WalkClass.TRAIL) == [(1, 3, 4, 2)]

    def test_c4_distinct_non_initial(self, c4):
        # the path plus the walk that bounces back through the start
        assert enumerate_walks(c4, 3, 1, 2, WalkClass.DISTINCT_NON_INITIAL) == [
            (1, 3, 1, 2),
            (1, 3, 4, 2),
        ]

    def test_adjacent_path_length_one(self, c4):
        assert enumerate_walks(c4, 1, 1, 2, WalkClass.PATH) == [(1, 2)]

    def test_length_zero(self, c4):
        for cls in WalkClass:
            assert enumerate_walks(c4, 0, 2, 2, cls) == [(2,)]
            assert enumerate_walks(c4, 0, 1, 2, cls) == []

    def test_lexicographic_and_unique(self, bowtie):
        for cls in WalkClass:
            seqs = enumerate_walks(bowtie, 4, 1, 1, cls)
            assert seqs == sorted(set(seqs))

    def test_closed_paths_are_cycles(self, bowtie):
        cycles = enumerate_walks(bowtie, 3, 1, 1, WalkClass.PATH)
        assert cycles == [(1, 2, 3, 1), (1, 3, 2, 1), (1, 4, 5, 1), (1, 5, 4, 1)]
        # no 2-cycles in a simple graph
        assert enumerate_walks(bowtie, 2, 1, 1, WalkClass.PATH) == []

    def test_start_once_per_edge_set(self, bowtie):
        # all 8 closed length-6 trails share one edge set; one representative
        reps = enumerate_walks(bowtie, 6, 1, 1, WalkClass.START_ONCE_TRAIL_EDGE_SET)
        assert len(reps) == 1
        assert reps[0] == enumerate_walks(bowtie, 6, 1, 1, WalkClass.TRAIL)[0]

    def test_predicates_hold(self, k4):
        for cls, seqs in [
            (WalkClass.TRAIL, enumerate_walks(k4, 3, 1, 2, WalkClass.TRAIL)),
            (WalkClass.PATH, enumerate_walks(k4, 3, 1, 2, WalkClass.PATH)),
        ]:
            for seq in seqs:
                edges = [tuple(sorted(seq[i : i + 2])) for i in range(len(seq) - 1)]
                assert len(set(edges)) == len(edges)
                if cls is WalkClass.PATH:
                    assert len(set(seq)) == len(seq)


class TestCount:
    def test_count_matches_enumerate(self, c4, k4, bowtie):
        for g in (c4, k4, bowtie):
            for cls in WalkClass:
                for l in range(0, 5):
                    for u in (1, 2):
                        for v in (1, g.n):
                            assert count_walks(g, l, u, v, cls) == len(
                                enumerate_walks(g, l, u, v, cls)
                            )

    def test_known_c4_counts(self, c4):
        assert count_walks(c4, 3, 1, 2, WalkClass.TRAIL) == 1
        assert count_walks(c4, 3, 1, 2, WalkClass.PATH) == 1
        assert count_walks(c4, 3, 1, 2, WalkClass.DISTINCT_NON_INITIAL) == 2
        assert count_walks(c4, 3, 1, 2, WalkClass.WALK) == 4

    def test_walks_match_matrix_power(self, bowtie):
        for l in range(0, 6):
            for u in range(1, 6):
                for v in range(1, 6):
                    assert count_walks(bowtie, l, u, v) == walk_count(bowtie, l, u, v)

    def test_monotone_class_inclusions(self, k4):
        for l in range(1, 5):
            for u in (1, 2):
                for v in (1, 3):
                    p = count_walks(k4, l, u, v, WalkClass.PATH)
                    t = count_walks(k4, l, u, v, WalkClass.TRAIL)
                    w = count_walks(k4, l, u, v, WalkClass.WALK)
                    d = count_walks(k4, l, u, v, WalkClass.DISTINCT_NON_INITIAL)
                    assert p <= t <= w
                    assert p <= d <= w

    def test_reversal_symmetry(self, bowtie):
        for cls in (WalkClass.WALK, WalkClass.TRAIL, WalkClass.PATH):
            for l in range(1, 6):
                assert count_walks(bowtie, l, 2, 4, cls) == count_walks(bowtie, l, 4, 2, cls)

    def test_aimed_search_costs_only_the_levels_it_reaches(self, k2, set_node_budget):
        # no path on K2 is longer than 1, so every search here dies at depth 2
        # and allocates nothing per level of its length
        set_node_budget(10)
        huge = 10**12
        assert count_walks(k2, huge, 1, 2, WalkClass.PATH) == 0
        assert count_walks(k2, huge, 1, 1, WalkClass.PATH) == 0
        assert count_dni_and_paths(k2, huge, 1, 2) == (0, 0)
        assert enumerate_walks(k2, huge, 1, 2, WalkClass.PATH) == []
        assert enumerate_walks(k2, huge, 1, 2, WalkClass.DISTINCT_NON_INITIAL) == []

    def test_budget_exceeded(self, set_node_budget):
        k6 = families.complete_graph(6)
        set_node_budget(10)
        with pytest.raises(BudgetExceededError):
            count_walks(k6, 6, 1, 2, WalkClass.WALK)

    def test_budget_boundary(self, k4, set_node_budget):
        # the root and every admitted step cost one node: 1 + 3 + 9 + 27 = 40;
        # enumeration charges the admitted last-level steps that miss v too
        for fn, label in ((count_walks, "walk tally"), (enumerate_walks, "walk enumeration")):
            set_node_budget(40)
            fn(k4, 3, 1, 2, WalkClass.WALK)
            set_node_budget(39)
            with pytest.raises(BudgetExceededError, match=label):
                fn(k4, 3, 1, 2, WalkClass.WALK)


# Smallest passing node budget for K4, l = 4, 1 -> 2, per walk class: the
# root plus every admitted step of the search. A count searches with the
# class's rule, aimed at v. An open PATH count and its enumeration both refuse the
# start vertex from the outset, so they run the same search and charge the
# same nodes; a DISTINCT_NON_INITIAL count may re-enter the start and admits
# more.
_K4_BUDGETS = [
    (WalkClass.WALK, 121, "walk tally", 121),
    (WalkClass.TRAIL, 40, "trail tally", 40),
    (WalkClass.PATH, 16, "path tally", 16),
    (WalkClass.DISTINCT_NON_INITIAL, 49, "path tally", 49),
    (WalkClass.START_ONCE_TRAIL_EDGE_SET, 40, "trail tally", 40),
]


@pytest.mark.parametrize("cls, count_budget, label, enum_budget", _K4_BUDGETS, ids=lambda x: getattr(x, "name", None))
def test_budget_boundaries_k4_length4(k4, set_node_budget, cls, count_budget, label, enum_budget):
    for fn, budget, what in ((count_walks, count_budget, label), (enumerate_walks, enum_budget, "walk enumeration")):
        set_node_budget(budget)
        fn(k4, 4, 1, 2, cls)
        set_node_budget(budget - 1)
        with pytest.raises(BudgetExceededError, match=f"{what} exceeded its budget of {budget - 1}"):
            fn(k4, 4, 1, 2, cls)


# Smallest passing walk-tally budget from vertex 1, recorded before walk
# tallies left the generic search: 1 + d + d^2 + ... + d^l on a d-regular
# graph.
_WALK_TALLY_BUDGETS = [
    ("K6", families.complete_graph(6), 6, 19531),
    ("petersen", families.petersen_graph(), 8, 9841),
    ("K7", families.complete_graph(7), 7, 335923),
]


@pytest.mark.parametrize("g, length, budget", [case[1:] for case in _WALK_TALLY_BUDGETS], ids=[case[0] for case in _WALK_TALLY_BUDGETS])
def test_walk_tally_budget_boundary(set_node_budget, g, length, budget):
    set_node_budget(budget)
    assert count_walks(g, length, 1, 2, WalkClass.WALK) == walk_count(g, length, 1, 2)
    set_node_budget(budget - 1)
    with pytest.raises(BudgetExceededError, match=f"walk tally exceeded its budget of {budget - 1}$"):
        count_walks(g, length, 1, 2, WalkClass.WALK)


def test_walk_tally_counts_in_c():
    # a pure-Python _count_elements would keep every result and lose the
    # walk tally's speed without any test failing
    assert oracle._count_elements is _collections._count_elements
    assert isinstance(oracle._count_elements, types.BuiltinFunctionType)


def _forbid_search(monkeypatch):
    """Make both search kernels raise: stricter than a budget of 0, which
    the environment cannot hold."""
    def refuse(*args, **kwargs):
        raise AssertionError("searched")

    monkeypatch.setattr(oracle, "_search", refuse)
    monkeypatch.setattr(oracle, "_walk_tally", refuse)


@pytest.mark.parametrize("length", [1, 2])
def test_short_closed_paths_need_no_search(monkeypatch, length):
    # a closed path shorter than 3 is no cycle, so it is 0 without a search
    k6 = families.complete_graph(6)
    _forbid_search(monkeypatch)
    assert count_walks(k6, length, 1, 1, WalkClass.PATH) == 0
    assert enumerate_walks(k6, length, 1, 1, WalkClass.PATH) == []


def _passes(set_node_budget, fn, g, length, u, v, walk_class, budget) -> bool:
    set_node_budget(budget)
    try:
        fn(g, length, u, v, walk_class)
    except BudgetExceededError:
        return False
    return True


@pytest.mark.parametrize("name", ["K5", "petersen", "bowtie"])
def test_path_count_and_enumeration_share_a_budget(set_node_budget, name):
    # an open PATH count and its enumeration run the same search, so one node
    # budget is enough for both or for neither; the enumeration's smallest
    # passing budget is found by bisection
    g = {"K5": families.complete_graph(5), "petersen": families.petersen_graph(), "bowtie": families.bowtie_graph()}[name]
    for v in range(2, g.n + 1):
        for length in range(1, 5):
            fails, passes = 0, 10**6
            while passes - fails > 1:
                mid = (fails + passes) // 2
                if _passes(set_node_budget, enumerate_walks, g, length, 1, v, WalkClass.PATH, mid):
                    passes = mid
                else:
                    fails = mid
            for budget in range(passes - 2, passes + 2):
                listed = _passes(set_node_budget, enumerate_walks, g, length, 1, v, WalkClass.PATH, budget)
                counted = _passes(set_node_budget, count_walks, g, length, 1, v, WalkClass.PATH, budget)
                assert listed == counted == (budget >= passes), (v, length, budget)


# Smallest passing node budget from an independent count: the root plus
# every prefix of length 1..l (1..l - 1 for a closed PATH count) that the
# search's rule admits, listed with itertools. The charge never depends on
# v, so it is counted once per (graph, start, rule, length).
_PREFIX_RULES = {
    "walk": lambda seq: True,
    "trail": lambda seq: len({frozenset(e) for e in zip(seq, seq[1:])}) == len(seq) - 1,
    "dni": lambda seq: len(set(seq[1:])) == len(seq) - 1,
    "path": lambda seq: len(set(seq)) == len(seq),
}


@functools.cache
def _walks_of_length(g, u, k):
    return [
        (u, *rest)
        for rest in itertools.product(range(1, g.n + 1), repeat=k)
        if all(g.has_edge(a, b) for a, b in zip((u, *rest), rest))
    ]


def _admitted_prefixes(g, u, rule, length):
    admits = _PREFIX_RULES[rule]
    return 1 + sum(1 for k in range(1, length + 1) for seq in _walks_of_length(g, u, k) if admits(seq))


def _reference_budget(g, fn, length, u, v, cls):
    if length == 0 or (cls is WalkClass.PATH and u == v and length < 3):
        return 0  # answered without a search
    if cls in (WalkClass.TRAIL, WalkClass.START_ONCE_TRAIL_EDGE_SET):
        return 0 if trails_ruled_out(g, length, u, v) else _admitted_prefixes(g, u, "trail", length)
    if cls is WalkClass.PATH and u == v:
        # a cycle count sums open paths one step shorter; enumerating the
        # cycles lists the closed distinct-non-initial walks
        if fn is count_walks:
            return _admitted_prefixes(g, u, "path", length - 1)
        return _admitted_prefixes(g, u, "dni", length)
    rule = {WalkClass.WALK: "walk", WalkClass.DISTINCT_NON_INITIAL: "dni", WalkClass.PATH: "path"}[cls]
    return _admitted_prefixes(g, u, rule, length)


@pytest.mark.parametrize("name", ["K4", "bowtie", "petersen"])
@pytest.mark.parametrize("cls", list(WalkClass), ids=lambda c: c.name)
def test_budget_matches_admitted_prefixes(monkeypatch, set_node_budget, name, cls):
    g = {"K4": families.complete_graph(4), "bowtie": families.bowtie_graph(), "petersen": families.petersen_graph()}[name]
    for fn in (count_walks, enumerate_walks):
        for length in range(6):
            for u, v in ((1, 1), (1, 2), (2, 1), (2, g.n)):
                budget = _reference_budget(g, fn, length, u, v, cls)
                if not budget:
                    with monkeypatch.context() as patch:
                        _forbid_search(patch)
                        fn(g, length, u, v, cls)
                    continue
                set_node_budget(budget)
                fn(g, length, u, v, cls)
                set_node_budget(budget - 1)
                with pytest.raises(BudgetExceededError):
                    fn(g, length, u, v, cls)


@pytest.mark.parametrize("table", [_walk_table, _trail_tables, _dni_tables])
def test_table_cache_is_bounded(table):
    # a process that sees many graphs must not keep every table it built;
    # 16 holds one swept graph's starts plus its spot-check tables
    assert table.cache_info().maxsize is not None
    assert table.cache_info().maxsize <= 16


def _spy_kernels(monkeypatch) -> list[tuple[str, dict]]:
    """Record every call of the two search kernels, with its arguments by
    name (defaults filled in)."""
    calls = []
    for name in ("_search", "_walk_tally"):
        kernel = getattr(oracle, name)
        signature = inspect.signature(kernel)

        def spy(*args, _name=name, _kernel=kernel, _signature=signature, **kwargs):
            bound = _signature.bind(*args, **kwargs)
            bound.apply_defaults()
            calls.append((_name, dict(bound.arguments)))
            return _kernel(*args, **kwargs)

        monkeypatch.setattr(oracle, name, spy)
    return calls


def _oracle_query(g, kind, length, v, variant=PathVariant.LITERAL):
    return run_count_query(g, "g", kind, length, 1, v, engines=("oracle",), variant=variant)


@pytest.mark.parametrize(
    "kind, length, v, variant",
    [("paths", 5, 2, PathVariant.START_GUARDED), ("cycles", 5, 1, PathVariant.LITERAL), ("hamiltonian", 6, 1, PathVariant.LITERAL)],
    ids=["guarded-paths", "cycles", "hamiltonian"],
)
def test_path_queries_run_no_distinct_non_initial_search(monkeypatch, kind, length, v, variant):
    # guarded paths, cycles and Hamiltonian cycles on n >= 3 vertices run one
    # search with the start's bit set from the outset, so it never re-enters
    # the start; a closed count aims at the start's neighbours, one level
    # shorter
    g = families.complete_graph(6)
    calls = _spy_kernels(monkeypatch)
    report = _oracle_query(g, kind, length, v, variant)
    assert report.engines["oracle"].value == (24 if kind == "paths" else 120)
    [(name, call)] = calls
    assert name == "_search"
    assert (call["rule"], call["mask"], call["keep"]) == (WalkClass.DISTINCT_NON_INITIAL, 1, 0)
    closed = kind != "paths"
    assert (call["max_len"], call["ends"]) == ((length - 1, set(g.neighbors(1))) if closed else (length, {v}))


def test_literal_paths_run_one_distinct_non_initial_search(monkeypatch):
    # the overcount note's literal and path counts both come from the
    # oracle engine's own search, which keeps the start bit: no second search
    g = families.complete_graph(6)
    calls = _spy_kernels(monkeypatch)
    report = run_count_query(g, "K6", "paths", 5, 1, 2, engines=("oracle",), variant=PathVariant.LITERAL)
    assert [note["code"] for note in report.notes] == [PROP2_LITERAL_OVERCOUNT]
    [(name, call)] = calls
    assert name == "_search"
    assert (call["rule"], call["mask"], call["keep"], call["ends"]) == (WalkClass.DISTINCT_NON_INITIAL, 0, 1, {2})


@pytest.mark.parametrize("kind, length, v", [("trails", 5, 2), ("euler", 6, 1)], ids=["trails", "euler"])
def test_trail_queries_keep_no_edge_set_masks(monkeypatch, kind, length, v):
    # trail counts and the euler kind run one trail search keeping no mask bit
    g = families.bowtie_graph()
    calls = _spy_kernels(monkeypatch)
    report = _oracle_query(g, kind, length, v)
    assert report.engines["oracle"].value == (2 if kind == "trails" else 8)
    [(name, call)] = calls
    assert name == "_search"
    assert (call["rule"], call["mask"], call["keep"], call["max_len"], call["ends"]) == (WalkClass.TRAIL, 0, 0, length, {v})


def test_walk_queries_run_one_aimed_walk_tally(monkeypatch):
    g = families.petersen_graph()
    calls = _spy_kernels(monkeypatch)
    assert _oracle_query(g, "walks", 6, 2).engines["oracle"].value == walk_count(g, 6, 1, 2)
    [(name, call)] = calls
    assert (name, call["max_len"], call["ends"]) == ("_walk_tally", 6, {2})


_COUNT_KINDS = [
    ("walks", 5, 2, PathVariant.LITERAL),
    ("trails", 5, 2, PathVariant.LITERAL),
    ("paths", 4, 2, PathVariant.LITERAL),
    ("paths", 4, 2, PathVariant.START_GUARDED),
    ("cycles", 4, 1, PathVariant.LITERAL),
    ("euler", 6, 1, PathVariant.LITERAL),
    ("hamiltonian", 5, 1, PathVariant.LITERAL),
]


@pytest.mark.parametrize("kind, length, v, variant", _COUNT_KINDS, ids=lambda x: getattr(x, "value", x))
def test_count_queries_read_no_table_and_repeat_their_search(monkeypatch, kind, length, v, variant):
    # a count's timing is its own search, never a memo: it leaves every
    # table cache as it was, and an identical repeat searches again
    g = families.bowtie_graph()
    tables = [_walk_table, _trail_tables, _dni_tables]
    before = [t.cache_info() for t in tables]
    calls = _spy_kernels(monkeypatch)
    first = _oracle_query(g, kind, length, v, variant).engines["oracle"].value
    assert len(calls) == 1
    assert _oracle_query(g, kind, length, v, variant).engines["oracle"].value == first
    assert len(calls) == 2 and calls[0] == calls[1]
    assert [t.cache_info() for t in tables] == before


def test_count_dni_and_paths(c4, bowtie):
    assert count_dni_and_paths(c4, 3, 1, 2) == (2, 1)
    assert count_dni_and_paths(c4, 0, 1, 1) == (1, 1)
    assert count_dni_and_paths(c4, 0, 1, 2) == (0, 0)
    for l in range(1, 7):
        for u in range(1, 6):
            for v in range(1, 6):
                expected = tuple(count_walks(bowtie, l, u, v, c) for c in (WalkClass.DISTINCT_NON_INITIAL, WalkClass.PATH))
                assert count_dni_and_paths(bowtie, l, u, v) == expected


class TestLongWalks:
    # the search keeps an explicit stack, so lengths far past Python's
    # recursion limit work
    def test_walks_on_k2(self, k2):
        assert count_walks(k2, 3000, 1, 1) == 1
        assert count_walks(k2, 3000, 1, 2) == 0
        assert enumerate_walks(k2, 3000, 1, 1) == [(1, 2) * 1500 + (1,)]

    def test_closed_trails_and_cycles_on_c1500(self):
        c = families.cycle_graph(1500)
        assert count_closed_euler_trails(c, 1) == 2
        assert count_walks(c, 1500, 1, 1, WalkClass.PATH) == 2
        assert count_walks(c, 1500, 1, 1, WalkClass.DISTINCT_NON_INITIAL) == 2
        assert len(enumerate_walks(c, 1500, 1, 1, WalkClass.TRAIL)) == 2

    def test_end_to_end_path_on_p2000(self):
        p = families.path_graph(2000)
        assert count_walks(p, 1999, 1, 2000, WalkClass.PATH) == 1
        assert enumerate_walks(p, 1999, 1, 2000, WalkClass.PATH) == [tuple(range(1, 2001))]


class TestEuler:
    def test_c4_two_directions(self, c4):
        assert count_closed_euler_trails(c4, 1) == 2

    def test_k2_impossible(self, k2):
        assert count_closed_euler_trails(k2, 1) == 0

    def test_star_odd_degrees(self, star3):
        assert count_closed_euler_trails(star3, 1) == 0

    def test_bowtie_from_center(self, bowtie):
        # 4 choices of first edge, then the first triangle is forced; 2
        # choices into the second triangle: 8 traversal sequences
        assert count_closed_euler_trails(bowtie, 1) == 8

    def test_bowtie_from_leaf(self, bowtie):
        assert count_closed_euler_trails(bowtie, 2) == 4

    def test_edgeless_counts_empty_circuit(self):
        g = Graph(2, frozenset())
        assert count_closed_euler_trails(g, 1) == 1

    @pytest.mark.parametrize("n", [7, 8])
    @pytest.mark.parametrize("cls", [WalkClass.TRAIL, WalkClass.START_ONCE_TRAIL_EDGE_SET])
    def test_wrong_parity_needs_no_search(self, set_node_budget, n, cls):
        # an open trail through every edge needs exactly its ends odd, but
        # K7 has no odd vertex and K8 has eight; no trail is longer than
        # |E| either. Neither query charges a node.
        g = families.complete_graph(n)
        m = g.edge_count
        set_node_budget(1)
        assert count_walks(g, m, 1, 2, cls) == 0
        assert enumerate_walks(g, m, 1, 2, cls) == []
        for u, v in ((1, 2), (1, 1)):
            assert count_walks(g, m + 1, u, v, cls) == 0
            assert enumerate_walks(g, m + 1, u, v, cls) == []

    def test_right_parity_still_searches(self, set_node_budget):
        k7 = families.complete_graph(7)
        set_node_budget(1000)
        with pytest.raises(BudgetExceededError, match="trail tally"):
            count_closed_euler_trails(k7, 1)
        p4 = families.path_graph(4)  # odd ends 1 and 4
        set_node_budget(4)
        assert count_walks(p4, 3, 1, 4, WalkClass.TRAIL) == 1
        set_node_budget(1)
        assert count_walks(p4, 3, 1, 3, WalkClass.TRAIL) == 0


class TestHamiltonian:
    def test_c4(self, c4):
        assert count_hamiltonian_cycles_through(c4, 1) == 1
        assert count_hamiltonian_cycles_through(c4, 1, directed=True) == 2

    def test_k4_matches_formula(self, k4):
        # (n-1)!/2 Hamiltonian cycles in a complete graph
        assert count_hamiltonian_cycles_through(k4, 1) == 3
        assert count_hamiltonian_cycles_through(k4, 1, directed=True) == 6

    def test_k5_matches_formula(self):
        k5 = families.complete_graph(5)
        assert count_hamiltonian_cycles_through(k5, 1) == 12

    def test_petersen_has_none(self, petersen):
        assert count_hamiltonian_cycles_through(petersen, 1) == 0

    def test_every_vertex_sees_all_cycles(self, k4):
        counts = {count_hamiltonian_cycles_through(k4, u) for u in range(1, 5)}
        assert counts == {3}

    def test_k2_degenerate_sequence(self, k2):
        # 1-2-1 is a closed sequence with distinct non-initial vertices but
        # not a cycle
        assert count_hamiltonian_cycles_through(k2, 1, directed=True) == 1
        assert count_hamiltonian_cycles_through(k2, 1) == 0


class TestHistogram:
    def test_c4_single_set(self, c4):
        hist = trail_edge_set_histogram(c4, 3, 1, 2)
        assert hist == {frozenset({(1, 3), (3, 4), (2, 4)}): 1}

    def test_k2_single_edge(self, k2):
        assert trail_edge_set_histogram(k2, 1, 1, 2) == {frozenset({(1, 2)}): 1}

    def test_bowtie_shared_set(self, bowtie):
        hist = trail_edge_set_histogram(bowtie, 6, 1, 1)
        assert len(hist) == 1
        (count,) = hist.values()
        assert count == 8

    def test_sum_equals_trail_count(self, k4):
        for l in range(1, 6):
            hist = trail_edge_set_histogram(k4, l, 1, 2)
            assert sum(hist.values()) == count_walks(k4, l, 1, 2, WalkClass.TRAIL)

    def test_length_must_be_non_negative(self, c4):
        with pytest.raises(ValueError, match="^length must be >= 0, got -1$"):
            trail_edge_set_histogram(c4, -1, 1, 1)

    @pytest.mark.parametrize("length", [21, 22])
    def test_wrong_parity_needs_no_search(self, set_node_budget, length):
        # K7 has 21 edges and no odd vertex: no trail from 1 to 2 is that long
        k7 = families.complete_graph(7)
        set_node_budget(1)
        assert trail_edge_set_histogram(k7, length, 1, 2) == {}
        assert trail_edge_set_histogram(k7, 0, 1, 2) == {}
        with pytest.raises(ValueError, match="^length must be >= 0, got -1$"):
            trail_edge_set_histogram(k7, -1, 1, 2)
