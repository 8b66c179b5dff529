"""Every public engine operation and graphs.walk_count refuse a vertex
outside 1..n and a length below the operation's least with the same
ValueError messages, from Graph.require_vertex and Graph.require_query.
At length 0 every count is the identity power's entry."""

import random
import re

import pytest

from trailcounts import families, fock, nilpotent, oracle
from trailcounts.fock import MatrixKind
from trailcounts.graphs import Graph, walk_count
from trailcounts.nilpotent import PathVariant
from trailcounts.oracle import WalkClass
from trailcounts.reports import ENGINES, run_count_query

# name -> (op(g, length, u, v), least length or None when the op takes no
# length, whether it has an end vertex of its own)
OPS = {
    "graphs.walk_count": (walk_count, 0, True),
    "oracle.enumerate_walks": (oracle.enumerate_walks, 0, True),
    "oracle.count_walks[trail]": (lambda g, l, u, v: oracle.count_walks(g, l, u, v, WalkClass.TRAIL), 0, True),
    "oracle.count_walks[path]": (lambda g, l, u, v: oracle.count_walks(g, l, u, v, WalkClass.PATH), 0, True),
    "oracle.count_dni_and_paths": (oracle.count_dni_and_paths, 0, True),
    "oracle.trail_edge_set_histogram": (oracle.trail_edge_set_histogram, 0, True),
    "oracle.count_closed_euler_trails": (lambda g, l, u, v: oracle.count_closed_euler_trails(g, u), None, False),
    "oracle.count_hamiltonian_cycles_through": (
        lambda g, l, u, v: oracle.count_hamiltonian_cycles_through(g, u), None, False
    ),
    "nilpotent.trail_count_symbolic": (nilpotent.trail_count_symbolic, 0, True),
    "nilpotent.euler_trail_count_symbolic": (lambda g, l, u, v: nilpotent.euler_trail_count_symbolic(g, u, v), None, True),
    "nilpotent.path_count_symbolic[literal]": (nilpotent.path_count_symbolic, 0, True),
    "nilpotent.path_count_symbolic[guarded]": (
        lambda g, l, u, v: nilpotent.path_count_symbolic(g, l, u, v, PathVariant.START_GUARDED), 0, True
    ),
    "nilpotent.cycle_count_symbolic": (lambda g, l, u, v: nilpotent.cycle_count_symbolic(g, l, u), 3, False),
    "fock.expand_walk_terms": (lambda g, l, u, v: fock.expand_walk_terms(g, l, u, v, MatrixKind.N_EDGE), 1, True),
    "fock.normal_ordered_expectation[n-edge]": (
        lambda g, l, u, v: fock.normal_ordered_expectation(g, l, u, v, MatrixKind.N_EDGE), 0, True
    ),
    "fock.normal_ordered_expectation[m-vertex]": (
        lambda g, l, u, v: fock.normal_ordered_expectation(g, l, u, v, MatrixKind.M_VERTEX), 0, True
    ),
    "fock.normal_ordered_expectation_table": (
        lambda g, l, u, v: fock.normal_ordered_expectation_table(g, u, 3, MatrixKind.N_EDGE), None, False
    ),
    "fock.walk_count_expectation": (fock.walk_count_expectation, 0, True),
    "fock.d_matrix_quadratic_form": (fock.d_matrix_quadratic_form, 0, True),
    "fock.annihilation_form_table": (lambda g, l, u, v: fock.annihilation_form_table(g, u, 3), None, False),
    "fock.f_matrix_amplitude": (lambda g, l, u, v: fock.f_matrix_amplitude(g, l, u), 0, False),
}

CASES = [
    pytest.param(name, case, id=f"{name}-{case}")
    for name, (_, least, two_ends) in OPS.items()
    for case in (
        "from=0", "from=n+1", *(("to=0", "to=n+1") if two_ends else ()), *(("short",) if least is not None else ())
    )
]


@pytest.mark.parametrize("name, case", CASES)
def test_refusal_message(c4, name, case):
    op, least, _ = OPS[name]
    n = c4.n
    length, u, v = max(least or 0, 3), 1, 2
    if case == "short":
        length = least - 1
        message = f"length must be >= {least}, got {length}"
    else:
        end, bad = case.split("=")
        bad = 0 if bad == "0" else n + 1
        u, v = (bad, v) if end == "from" else (u, bad)
        message = f"vertex {bad} out of range 1..{n}"
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        op(c4, length, u, v)


LENGTH_ZERO_GRAPHS = {
    "K1": families.complete_graph(1),
    "K2": families.complete_graph(2),
    "P3": families.path_graph(3),
    "edgeless3": Graph(3, frozenset()),
    "C4": families.cycle_graph(4),
    "gnp6": families.gnp_random_graph(6, 0.5, random.Random(25)),
}

# the counts whose length-0 value is the identity's entry: 1 when u == v
IDENTITY_AT_ZERO = [
    "graphs.walk_count",
    "oracle.count_walks[trail]",
    "oracle.count_walks[path]",
    "nilpotent.trail_count_symbolic",
    "nilpotent.path_count_symbolic[literal]",
    "fock.normal_ordered_expectation[n-edge]",
    "fock.normal_ordered_expectation[m-vertex]",
    "fock.walk_count_expectation",
    "fock.d_matrix_quadratic_form",
]


@pytest.mark.parametrize("g", LENGTH_ZERO_GRAPHS.values(), ids=LENGTH_ZERO_GRAPHS)
def test_length_zero_is_the_identity(g):
    for u in range(1, g.n + 1):
        # the all-zeros amplitude of the all-ones vertex state
        assert fock.f_matrix_amplitude(g, 0, u) == 0
        for v in range(1, g.n + 1):
            for name in IDENTITY_AT_ZERO:
                assert OPS[name][0](g, 0, u, v) == (u == v), name
            assert oracle.trail_edge_set_histogram(g, 0, u, v) == ({frozenset(): 1} if u == v else {})
            if u != v:
                assert nilpotent.path_count_symbolic(g, 0, u, v, PathVariant.START_GUARDED) == 0
                assert fock.normal_ordered_expectation(g, 0, u, v, MatrixKind.M_VERTEX, guard_vertex=u) == 0
            # euler is trails at |E|: the empty trail on an edgeless graph
            euler = run_count_query(g, "g", "euler", g.edge_count, u, v)
            trails = run_count_query(g, "g", "trails", g.edge_count, u, v)
            assert [euler.engines[e].value for e in ENGINES] == [trails.engines[e].value for e in ENGINES]
            assert euler.notes == trails.notes


@pytest.mark.parametrize("g", LENGTH_ZERO_GRAPHS.values(), ids=LENGTH_ZERO_GRAPHS)
def test_length_zero_builds_no_symbolic_matrix(g, monkeypatch):
    # the symbolic row power answers length 0 from the identity row and
    # reads Graph.incidence only at its first step
    def refuse(*args):
        raise AssertionError("built a matrix at length 0")

    for builder in ("formal_adjacency_edges", "vertex_observable_matrix", "_matrix"):
        monkeypatch.setattr(nilpotent, builder, refuse)
    g = Graph(g.n, g.edges)  # a fresh graph: no cached table yet
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            assert nilpotent.trail_count_symbolic(g, 0, u, v) == (u == v)
            assert nilpotent.path_count_symbolic(g, 0, u, v) == (u == v)
            if u != v:
                assert nilpotent.path_count_symbolic(g, 0, u, v, PathVariant.START_GUARDED) == 0
    assert "incidence" not in vars(g)


@pytest.mark.parametrize("g", LENGTH_ZERO_GRAPHS.values(), ids=LENGTH_ZERO_GRAPHS)
def test_length_zero_builds_no_neighbour_table(g):
    # walk_rows yields the identity row before it reads g.adjacency
    g = Graph(g.n, g.edges)  # a fresh graph: no cached table yet
    for u in range(1, g.n + 1):
        for v in range(1, g.n + 1):
            assert walk_count(g, 0, u, v) == (u == v)
    assert "adjacency" not in vars(g) and "incidence" not in vars(g)


@pytest.mark.parametrize("g", LENGTH_ZERO_GRAPHS.values(), ids=LENGTH_ZERO_GRAPHS)
def test_length_zero_needs_no_budget(g, set_node_budget, set_term_budget):
    # the identity takes no step, so no engine charges a table or a level for it
    set_node_budget(1)
    set_term_budget(1)
    for u in range(1, g.n + 1):
        assert fock.f_matrix_amplitude(g, 0, u) == 0
        for v in range(1, g.n + 1):
            for name in IDENTITY_AT_ZERO:
                assert OPS[name][0](g, 0, u, v) == (u == v), name
