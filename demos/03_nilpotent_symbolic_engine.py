"""Counting trails and paths with commuting nilpotent generators (x*x = 0).

Replace each adjacency entry by an independent generator and multiply
matrices in the quotient ring where every generator squares to zero: a walk
term survives exactly when it repeats no edge, so the matrix power literally
keeps one monomial per trail.

Run: python demos/03_nilpotent_symbolic_engine.py
"""

from trailcounts import (
    PathVariant,
    cycle_count_symbolic,
    cycle_graph,
    euler_trail_count_symbolic,
    formal_adjacency_edges,
    matrix_power_nilpotent,
    path_count_symbolic,
    trail_count_symbolic,
    vertex_observable_matrix,
)

c4 = cycle_graph(4)

m = formal_adjacency_edges(c4)
print("formal adjacency entry (1,2):", m.entry(1, 2))
print("entries (1,2) and (2,1) share one generator per edge:", m.entry(1, 2) == m.entry(2, 1))

# Of the four length-3 walks from 1 to 2, three repeat an edge; their terms
# die under x*x = 0 and a single degree-3 monomial survives.
cube = matrix_power_nilpotent(m, 3)
print("entry (1,2) of the cube:", cube.entry(1, 2))
print("trail count = coefficient sum:", trail_count_symbolic(c4, 3, 1, 2))

# Eulerian circuits are trails at length |E|.
print("closed Eulerian trails from 1:", euler_trail_count_symbolic(c4, 1, 1))

# Paths use one generator per *vertex*, placed on the destination of each
# step. The literal observable counts walks whose non-initial vertices are
# distinct; revisiting the start slips through. The start-guarded variant
# multiplies the start vertex's generator into every term, which removes
# exactly those walks.
mv = vertex_observable_matrix(c4)
print("\ndestination-vertex matrix entry (1,2):", mv.entry(1, 2))
print("literal count, l=3, 1->2:", path_count_symbolic(c4, 3, 1, 2, PathVariant.LITERAL))
print("start-guarded count (true paths):", path_count_symbolic(c4, 3, 1, 2, PathVariant.START_GUARDED))

# On the diagonal the literal observable counts directed cycles.
print("directed 4-cycles through vertex 1:", cycle_count_symbolic(c4, 4, 1))
print("directed triangles through vertex 1:", cycle_count_symbolic(c4, 3, 1))
