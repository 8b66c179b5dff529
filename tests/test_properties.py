"""Property-based cross-validation of the engines on random graphs."""

import itertools
from collections import Counter

import pytest
from hypothesis import example, given, settings, strategies as st

from trailcounts import fock
from trailcounts.errors import BudgetExceededError
from trailcounts.fock import (
    LadderKind,
    LadderOp,
    MatrixKind,
    Register,
    RegisterKind,
    StateVector,
    _amplitudes_at,
    _evolve,
    apply_ladder,
    d_matrix_quadratic_form,
    expand_walk_terms,
    f_matrix_amplitude,
    graph_state,
    normal_ordered_expectation,
    walk_count_expectation,
)
from trailcounts.graphs import Graph, matrix_power, pair_slots, slot_of_pair, walk_count
from trailcounts.nilpotent import (
    Generator,
    PathVariant,
    Polynomial,
    _row_power_entry,
    formal_adjacency_edges,
    matrix_power_nilpotent,
    path_count_symbolic,
    trail_count_symbolic,
    vertex_observable_matrix,
)
from trailcounts.oracle import (
    WalkClass,
    _dni_tables,
    _search,
    _trail_tables,
    _walk_table,
    _walk_tally,
    count_dni_and_paths,
    count_walks,
    enumerate_walks,
    trail_edge_set_histogram,
)


@st.composite
def graphs(draw, max_n=5):
    n = draw(st.integers(min_value=1, max_value=max_n))
    slots = pair_slots(n)
    picks = draw(st.lists(st.booleans(), min_size=len(slots), max_size=len(slots)))
    edges = frozenset(pair for pair, keep in zip(slots, picks) if keep)
    return Graph(n, edges)


@st.composite
def graph_queries(draw, max_n=5, min_l=0, max_l=4):
    g = draw(graphs(max_n=max_n))
    l = draw(st.integers(min_value=min_l, max_value=max_l))
    u = draw(st.integers(min_value=1, max_value=g.n))
    v = draw(st.integers(min_value=1, max_value=g.n))
    return g, l, u, v


@settings(max_examples=60, deadline=None)
@given(graphs(max_n=6))
@example(Graph(1, frozenset()))
@example(Graph(4, frozenset({(1, 2), (2, 3)})))  # vertex 4 isolated
def test_walk_count_matches_nested_list_product(g):
    # reference: the textbook product, one dense nested-list multiplication
    # per length
    n = g.n
    a = [[int(g.has_edge(u, v)) for v in range(1, n + 1)] for u in range(1, n + 1)]
    power = [[int(i == j) for j in range(n)] for i in range(n)]
    for l in range(9):
        assert matrix_power(a, l) == power
        for u in range(1, n + 1):
            for v in range(1, n + 1):
                assert walk_count(g, l, u, v) == power[u - 1][v - 1]
        power = [[sum(power[i][k] * a[k][j] for k in range(n)) for j in range(n)] for i in range(n)]


@settings(max_examples=80, deadline=None)
@given(graph_queries())
def test_walk_count_symmetry(query):
    g, l, u, v = query
    assert walk_count(g, l, u, v) == walk_count(g, l, v, u)


@settings(max_examples=80, deadline=None)
@given(graph_queries())
def test_enumeration_matches_matrix_power(query):
    g, l, u, v = query
    assert count_walks(g, l, u, v, WalkClass.WALK) == walk_count(g, l, u, v)


@settings(max_examples=80, deadline=None)
@given(graph_queries())
def test_class_monotonicity(query):
    g, l, u, v = query
    p = count_walks(g, l, u, v, WalkClass.PATH)
    d = count_walks(g, l, u, v, WalkClass.DISTINCT_NON_INITIAL)
    t = count_walks(g, l, u, v, WalkClass.TRAIL)
    w = count_walks(g, l, u, v, WalkClass.WALK)
    assert p <= t <= w
    assert p <= d <= w


@settings(max_examples=80, deadline=None)
@given(graph_queries(min_l=1))
def test_reversal_symmetry(query):
    g, l, u, v = query
    for cls in (WalkClass.WALK, WalkClass.TRAIL, WalkClass.PATH):
        assert count_walks(g, l, u, v, cls) == count_walks(g, l, v, u, cls)


@settings(max_examples=60, deadline=None)
@given(graph_queries(min_l=1))
def test_three_engines_agree_on_trails(query):
    g, l, u, v = query
    expected = count_walks(g, l, u, v, WalkClass.TRAIL)
    assert trail_count_symbolic(g, l, u, v) == expected
    assert normal_ordered_expectation(g, l, u, v, MatrixKind.N_EDGE) == expected


@settings(max_examples=60, deadline=None)
@given(graph_queries(min_l=1))
def test_edge_power_terms_match_trail_edge_sets(query):
    # monomial by monomial against the oracle: each surviving term is one
    # edge set, its coefficient the number of trails traversing exactly it
    g, l, u, v = query
    edges = g.sorted_edges()
    entry = matrix_power_nilpotent(formal_adjacency_edges(g), l).entry(u, v)
    by_edge_set = {frozenset(edges[i] for i in gens): c for gens, c in entry.terms()}
    assert by_edge_set == trail_edge_set_histogram(g, l, u, v)
    assert trail_count_symbolic(g, l, u, v) == entry.coefficient_sum()


@settings(max_examples=60, deadline=None)
@given(graph_queries(min_l=1))
def test_row_power_matches_matrix_power_term_for_term(query):
    # the generator row step against the general _mul_into product, in
    # both generator spaces; a start seed multiplies into every term
    g, l, u, v = query
    for kind, build in ((Generator.EDGE, formal_adjacency_edges), (Generator.VERTEX, vertex_observable_matrix)):
        literal = _row_power_entry(kind, g, l, u, v)
        assert literal == matrix_power_nilpotent(build(g), l).entry(u, v)
        if u != v:
            seeded = _row_power_entry(kind, g, l, u, v, 1 << (u - 1))
            assert seeded == Polynomial.generator(u - 1) * literal


@settings(max_examples=60, deadline=None)
@given(graph_queries(min_l=1))
@example((Graph(3, frozenset({(1, 2), (1, 3), (2, 3)})), 2, 1, 2))
def test_aimed_fock_level_matches_the_unaimed_level(query):
    # each per-query evaluator aims its evolution's last step at its end
    # vertex: that level must hold the unaimed level's map there and nothing
    # else, in both spaces, with clearing and number steps, guarded or not
    g, l, u, v = query
    calls = []

    def recording(*args):
        levels = list(_evolve(*args))
        calls.append((args, levels[-1]))
        return iter(levels)

    cases = [
        (lambda: normal_ordered_expectation(g, l, u, v, MatrixKind.N_EDGE), v),
        (lambda: normal_ordered_expectation(g, l, u, v, MatrixKind.M_VERTEX), v),
        (lambda: walk_count_expectation(g, l, u, v), v),
        (lambda: f_matrix_amplitude(g, l, u), u),
    ]
    if u != v:
        cases.append((lambda: normal_ordered_expectation(g, l, u, v, MatrixKind.M_VERTEX, guard_vertex=u), v))
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(fock, "_evolve", recording)
        for evaluate, aim in cases:
            calls.clear()
            evaluate()
            for args, last in calls:
                assert args[7:] == (aim,)
                unaimed = list(_evolve(*args[:7]))[-1]
                assert last == ({aim: unaimed[aim]} if aim in unaimed else {})


@settings(max_examples=60, deadline=None)
@given(graph_queries(min_l=1))
def test_vertex_observable_characterizations(query):
    g, l, u, v = query
    assert path_count_symbolic(g, l, u, v) == count_walks(
        g, l, u, v, WalkClass.DISTINCT_NON_INITIAL
    )
    assert normal_ordered_expectation(g, l, u, v, MatrixKind.M_VERTEX) == count_walks(
        g, l, u, v, WalkClass.DISTINCT_NON_INITIAL
    )
    if u != v:
        assert path_count_symbolic(g, l, u, v, PathVariant.START_GUARDED) == count_walks(
            g, l, u, v, WalkClass.PATH
        )


@settings(max_examples=60, deadline=None)
@given(graph_queries(min_l=1))
def test_quadratic_form_squares_histogram(query):
    g, l, u, v = query
    hist = trail_edge_set_histogram(g, l, u, v)
    assert d_matrix_quadratic_form(g, l, u, v) == sum(c * c for c in hist.values())
    assert sum(hist.values()) == count_walks(g, l, u, v, WalkClass.TRAIL)


def _on_pair_register(g, amplitudes):
    """|E|-slot register amplitudes moved to the pair register: |E| slot s
    is pair slot slot_of_pair(n, *g.sorted_edges()[s])."""
    compact, pairs = Register.present_edges(g), Register.all_pairs(g.n)
    slot_bits = [
        (1 << compact.bit(s), 1 << pairs.bit(slot_of_pair(g.n, a, b))) for s, (a, b) in enumerate(g.sorted_edges())
    ]
    return {sum(pair for bit, pair in slot_bits if index & bit): amp for index, amp in amplitudes.items()}


@settings(max_examples=40, deadline=None)
@given(graph_queries(min_l=1))
def test_evolution_matches_dense_ladder_algebra(query):
    # the compact evolution, amplitude for amplitude, against the sum of
    # every walk term applied literally to the paper's reference state: the
    # graph state on the pair register in edge space
    g, l, u, v = query
    for kind, clears in (
        (MatrixKind.D_EDGE, True),
        (MatrixKind.F_VERTEX, True),
        (MatrixKind.N_EDGE, False),
        (MatrixKind.M_VERTEX, False),
    ):
        if kind.space is RegisterKind.EDGE_SPACE:
            state, moved = graph_state(g), lambda amplitudes: _on_pair_register(g, amplitudes)
        else:
            state, moved = StateVector.all_ones(Register.vertices(g.n)), dict
        dense = StateVector.zero(state.register)
        for _, term in expand_walk_terms(g, l, u, v, kind):
            dense = dense + term.apply(state)
        levels = _evolve(g, kind.space, u, l, clears, "test")
        [(start, reference)] = next(levels).items()
        assert start == u and moved(reference) == {state.basis_index(): 1}  # the reference state
        assert moved(_amplitudes_at(levels, v)) == dict(dense.nonzero())


@settings(max_examples=60, deadline=None)
@given(graph_queries(min_l=0, max_l=5), st.sampled_from(RegisterKind), st.booleans())
def test_evolution_levels_hold_no_empty_map_or_zero_amplitude(query, space, clears):
    g, l, u, _ = query
    for level in _evolve(g, space, u, l, clears, "test"):
        for states in level.values():
            assert states and all(states.values())


@settings(max_examples=60, deadline=None)
@given(graph_queries(min_l=0, max_l=3))
def test_enumerate_unique_sorted_and_valid(query):
    g, l, u, v = query
    for cls in WalkClass:
        seqs = enumerate_walks(g, l, u, v, cls)
        assert seqs == sorted(set(seqs))
        for seq in seqs:
            assert seq[0] == u and seq[-1] == v
            assert all(g.has_edge(a, b) for a, b in zip(seq, seq[1:]))


def _class_members(g, l, u, v, cls):
    """Every vertex sequence of the class, in lexicographic order, from the
    WalkClass docstring's predicates applied to itertools.product; no search."""
    seqs = [
        (u, *mid, v)
        for mid in itertools.product(range(1, g.n + 1), repeat=l - 1)
        if all(g.has_edge(a, b) for a, b in zip((u, *mid), (*mid, v)))
    ] if l >= 1 else [(u,)] * (u == v)
    edge_lists = {s: [frozenset(e) for e in zip(s, s[1:])] for s in seqs}
    if cls is WalkClass.WALK:
        return seqs
    trails = [s for s in seqs if len(set(edge_lists[s])) == l]
    if cls is WalkClass.TRAIL:
        return trails
    if cls is WalkClass.DISTINCT_NON_INITIAL:
        return [s for s in seqs if len(set(s[1:])) == l]
    if cls is WalkClass.PATH:
        if u == v:
            return [s for s in seqs if l == 0 or (l >= 3 and len(set(s[:-1])) == l)]
        return [s for s in seqs if len(set(s)) == l + 1]
    first_per_set = {}
    for s in trails:
        first_per_set.setdefault(frozenset(edge_lists[s]), s)
    return sorted(first_per_set.values())


@settings(max_examples=80, deadline=None)
@given(graph_queries())
@example((Graph(2, frozenset({(1, 2)})), 2, 1, 1))  # a closed walk too short to be a cycle
@example((Graph(4, frozenset(pair_slots(4))), 4, 1, 1))
def test_enumerate_matches_product_filter(query):
    # the independent reference for the oracle: walk counts come from
    # _walk_tally and walk enumeration from _search, but trail and path
    # counts share _search with enumeration, so they cannot check each other
    g, l, u, v = query
    for cls in WalkClass:
        expected = _class_members(g, l, u, v, cls)
        assert enumerate_walks(g, l, u, v, cls) == expected
        assert count_walks(g, l, u, v, cls) == len(expected)


@settings(max_examples=40, deadline=None)
@given(graphs(max_n=7))
@example(Graph(1, frozenset()))
@example(Graph(7, frozenset(pair_slots(7))))
def test_walk_tally_matches_generic_search(g):
    # the walk kernel against the rule-driven search it replaced for walk
    # counts: the same tally, and the same budget boundary and message, in
    # both modes; aimed at v (closed, and the last vertex; from two starts),
    # both count the walks that end at v
    for start in range(1, g.n + 1):
        for max_len in range(7):
            reference = _search(g, start, max_len, WalkClass.WALK, 10**9, "walk tally", keep=0)
            flat = [{w: row[0] for w, row in level.items()} for level in reference]
            total = 1 + sum(sum(level.values()) for level in flat)  # the root and every step
            refused = f"^walk tally exceeded its budget of {total - 1}$"
            for v in (None, start, g.n) if start <= 2 else (None,):
                ends = None if v is None else {v}
                expected = flat if v is None else (flat[max_len].get(v, 0) if max_len else 0)
                assert _walk_tally(g, start, max_len, total, "walk tally", ends) == expected
                aimed = _search(g, start, max_len, WalkClass.WALK, total, "walk tally", keep=0, ends=ends)
                if v is not None:
                    assert sum(aimed.values()) == expected
                with pytest.raises(BudgetExceededError, match=refused):
                    _walk_tally(g, start, max_len, total - 1, "walk tally", ends)
                with pytest.raises(BudgetExceededError, match=refused):
                    _search(g, start, max_len, WalkClass.WALK, total - 1, "walk tally", keep=0, ends=ends)


@st.composite
def table_queries(draw, max_n=6, max_len=5):
    g = draw(graphs(max_n=max_n))
    return g, draw(st.integers(min_value=1, max_value=g.n)), draw(st.integers(min_value=1, max_value=max_len))


@settings(max_examples=60, deadline=None)
@given(table_queries())
@example((Graph(1, frozenset()), 1, 3))
@example((Graph(4, frozenset(pair_slots(4))), 1, 4))
def test_oracle_tables_match_product_filter(query):
    # every (length, end vertex) entry of the sweep's three tables, not only
    # the longest length, and every per-query count at each (length, u, v)
    g, u, max_len = query
    walks, trails, dni, paths = Counter(), Counter(), Counter(), Counter()
    sets: dict[tuple[int, int], Counter] = {}  # trails per traversed edge set
    for l in range(1, max_len + 1):
        for rest in itertools.product(range(1, g.n + 1), repeat=l):
            seq = (u, *rest)
            edges = [(min(a, b), max(a, b)) for a, b in zip(seq, seq[1:])]
            if not all(g.has_edge(*e) for e in edges):
                continue
            key = l, seq[-1]
            walks[key] += 1
            if len(set(edges)) == l:
                trails[key] += 1
                sets.setdefault(key, Counter())[frozenset(edges)] += 1
            if len(set(rest)) == l:
                dni[key] += 1
                if (l >= 3) if seq[-1] == u else u not in rest:
                    paths[key] += 1
    edge_bit = {e: 1 << i for i, e in enumerate(g.sorted_edges())}
    masks = {key: {sum(edge_bit[e] for e in s): c for s, c in hist.items()} for key, hist in sets.items()}
    assert _walk_table(g, u, max_len, 10**9) == dict(walks)
    assert _trail_tables(g, u, max_len, 10**9) == (dict(trails), masks)
    assert _dni_tables(g, u, max_len, 10**9) == (dict(dni), dict(paths))
    for l in range(1, max_len + 1):
        for v in range(1, g.n + 1):
            key = l, v
            expected = {
                WalkClass.WALK: walks[key],
                WalkClass.TRAIL: trails[key],
                WalkClass.PATH: paths[key],
                WalkClass.DISTINCT_NON_INITIAL: dni[key],
                WalkClass.START_ONCE_TRAIL_EDGE_SET: len(sets.get(key, {})),
            }
            assert {cls: count_walks(g, l, u, v, cls) for cls in WalkClass} == expected
            assert count_dni_and_paths(g, l, u, v) == (dni[key], paths[key])
            assert trail_edge_set_histogram(g, l, u, v) == dict(sets.get(key, {}))


@settings(max_examples=100, deadline=None)
@given(
    st.integers(min_value=1, max_value=5),
    st.data(),
)
def test_ladder_anticommutation(width, data):
    register = Register.vertices(width)
    amplitudes = data.draw(
        st.lists(
            st.integers(min_value=-4, max_value=4),
            min_size=register.dimension,
            max_size=register.dimension,
        )
    )
    state = StateVector(register, dict(enumerate(amplitudes)))
    slot = data.draw(st.integers(min_value=0, max_value=width - 1))
    a = LadderOp(LadderKind.ANNIHILATE, slot)
    c = LadderOp(LadderKind.CREATE, slot)
    combined = apply_ladder(c, apply_ladder(a, state)) + apply_ladder(a, apply_ladder(c, state))
    assert combined == state


@settings(max_examples=100, deadline=None)
@given(st.sets(st.integers(min_value=0, max_value=12), min_size=1, max_size=4))
def test_monomial_nilpotency(generators):
    mono = Polynomial.one()
    for i in generators:
        mono = mono * Polynomial.generator(i)
    assert (mono * mono).is_zero()


@settings(max_examples=100, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 9)), min_size=0, max_size=5),
    st.lists(st.tuples(st.integers(0, 10), st.integers(1, 9)), min_size=0, max_size=5),
)
def test_polynomial_ring_laws(a_terms, b_terms):
    def build(terms):
        p = Polynomial.zero()
        for gen, coeff in terms:
            p = p + coeff * Polynomial.generator(gen)
        return p

    a, b = build(a_terms), build(b_terms)
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) * a == a * a + b * a
