"""Parsing edge lists and counting walks with exact adjacency-matrix powers.

Run: python demos/01_graphs_and_walk_counting.py
"""

from trailcounts import adjacency_matrix, matrix_power, occupation_string, parse_edge_list, walk_count

# A graph is a plain edge list: one "u v" pair per line, '#' comments,
# optional "n <count>" header. Labels are 1-based.
square = parse_edge_list(
    """
# the 4-cycle on the pairs (1,2), (1,3), (2,4), (3,4)
1 2
1 3
2 4
3 4
"""
)
print("graph:", square)
print("edge-slot occupation string:", occupation_string(square))

a = adjacency_matrix(square)
print("adjacency matrix:")
for row in a:
    print(" ", row)

# A(G)^l counts walks of length l; matrices are lists of rows of Python
# integers, exact no matter how large the entries grow.
print("A^3:")
for row in matrix_power(a, 3):
    print(" ", row)
print("walks of length 3 from 1 to 2:", walk_count(square, 3, 1, 2))
print("walks of length 0 (identity convention):", walk_count(square, 0, 2, 2))

# counts grow exponentially and never overflow
from trailcounts import complete_graph

k6 = complete_graph(6)
print("walks of length 64 in K6 from 1 to 1:")
print(" ", walk_count(k6, 64, 1, 1))
