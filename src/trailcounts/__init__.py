"""Exact counting of walks, trails, paths, Eulerian trails and Hamiltonian
cycles in simple undirected graphs, via three independent engines that
cross-check each other:

- an exhaustive backtracking oracle (``trailcounts.oracle``),
- a symbolic engine over commuting nilpotent generators, x*x = 0
  (``trailcounts.nilpotent``),
- a literal occupation-basis evaluator applying ladder operators, one per
  walk step, to sparse maps from basis index to exact amplitude; states keep
  only their nonzero amplitudes (``trailcounts.fock``).

Walk counts come from exact adjacency-power rows (``trailcounts.graphs``).
Everything is plain Python integers, with no third-party dependency; the
exhaustive corpus (``trailcounts.corpus``) keeps the smallest edge mask of
each isomorphism class, found by orbit marking.
"""

from .errors import BudgetExceededError, CapacityError, EdgeListError
from .families import (
    bowtie_graph,
    complete_graph,
    cycle_graph,
    gnp_random_graph,
    path_graph,
    petersen_graph,
    star_graph,
)
from .fock import (
    LadderKind,
    LadderOp,
    MatrixKind,
    OperatorTerm,
    Register,
    RegisterKind,
    StateVector,
    apply_ladder,
    d_matrix_quadratic_form,
    expand_walk_terms,
    f_matrix_amplitude,
    graph_state,
    is_hamiltonian,
    normal_ordered_expectation,
    walk_count_expectation,
)
from .graphs import (
    Graph,
    adjacency_matrix,
    matrix_power,
    occupation_string,
    pair_slots,
    parse_edge_list,
    slot_of_pair,
    walk_count,
)
from .nilpotent import (
    PathVariant,
    PolyMatrix,
    Polynomial,
    cycle_count_symbolic,
    euler_trail_count_symbolic,
    formal_adjacency_edges,
    matrix_power_nilpotent,
    path_count_symbolic,
    trail_count_symbolic,
    vertex_observable_matrix,
)
from .oracle import (
    WalkClass,
    count_closed_euler_trails,
    count_hamiltonian_cycles_through,
    count_walks,
    enumerate_walks,
    trail_edge_set_histogram,
)

__version__ = "0.1.0"
