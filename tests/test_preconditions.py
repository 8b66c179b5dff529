"""Every public engine operation and graphs.walk_count refuse a vertex
outside 1..n and a length below the operation's least with the same
ValueError messages, from Graph.require_vertex and Graph.require_query."""

import re

import pytest

from trailcounts import fock, nilpotent, oracle
from trailcounts.fock import MatrixKind
from trailcounts.graphs import walk_count
from trailcounts.nilpotent import PathVariant
from trailcounts.oracle import WalkClass

# name -> (op(g, length, u, v), least length or None when the op takes no
# length, whether it has an end vertex of its own)
OPS = {
    "graphs.walk_count": (walk_count, 0, True),
    "oracle.enumerate_walks": (oracle.enumerate_walks, 0, True),
    "oracle.count_walks[trail]": (lambda g, l, u, v: oracle.count_walks(g, l, u, v, WalkClass.TRAIL), 0, True),
    "oracle.count_walks[path]": (lambda g, l, u, v: oracle.count_walks(g, l, u, v, WalkClass.PATH), 0, True),
    "oracle.count_dni_and_paths": (oracle.count_dni_and_paths, 0, True),
    "oracle.trail_edge_set_histogram": (oracle.trail_edge_set_histogram, 1, True),
    "oracle.count_closed_euler_trails": (lambda g, l, u, v: oracle.count_closed_euler_trails(g, u), None, False),
    "oracle.count_hamiltonian_cycles_through": (
        lambda g, l, u, v: oracle.count_hamiltonian_cycles_through(g, u), None, False
    ),
    "nilpotent.trail_count_symbolic": (nilpotent.trail_count_symbolic, 1, True),
    "nilpotent.euler_trail_count_symbolic": (lambda g, l, u, v: nilpotent.euler_trail_count_symbolic(g, u, v), None, True),
    "nilpotent.path_count_symbolic[literal]": (nilpotent.path_count_symbolic, 1, True),
    "nilpotent.path_count_symbolic[guarded]": (
        lambda g, l, u, v: nilpotent.path_count_symbolic(g, l, u, v, PathVariant.START_GUARDED), 1, True
    ),
    "nilpotent.cycle_count_symbolic": (lambda g, l, u, v: nilpotent.cycle_count_symbolic(g, l, u), 3, False),
    "fock.expand_walk_terms": (lambda g, l, u, v: fock.expand_walk_terms(g, l, u, v, MatrixKind.N_EDGE), 1, True),
    "fock.normal_ordered_expectation[n-edge]": (
        lambda g, l, u, v: fock.normal_ordered_expectation(g, l, u, v, MatrixKind.N_EDGE), 1, True
    ),
    "fock.normal_ordered_expectation[m-vertex]": (
        lambda g, l, u, v: fock.normal_ordered_expectation(g, l, u, v, MatrixKind.M_VERTEX), 1, True
    ),
    "fock.normal_ordered_expectation_table": (
        lambda g, l, u, v: fock.normal_ordered_expectation_table(g, u, 3, MatrixKind.N_EDGE), None, False
    ),
    "fock.walk_count_expectation": (fock.walk_count_expectation, 0, True),
    "fock.d_matrix_quadratic_form": (fock.d_matrix_quadratic_form, 1, True),
    "fock.annihilation_form_table": (lambda g, l, u, v: fock.annihilation_form_table(g, u, 3), None, False),
    "fock.f_matrix_amplitude": (lambda g, l, u, v: fock.f_matrix_amplitude(g, l, u), 1, False),
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
