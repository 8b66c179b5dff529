"""Literal statevector evaluation: registers, ladder operators, observables.

Evaluations use one qubit slot per present edge (or per vertex); the
paper's pair register, one slot per vertex pair, displays the graph state.
States hold their nonzero exact amplitudes, and walk-expanded operator
products apply exactly as written.

Run: python demos/04_fock_space_observables.py
"""

from trailcounts import (
    LadderKind,
    LadderOp,
    MatrixKind,
    apply_ladder,
    complete_graph,
    cycle_graph,
    d_matrix_quadratic_form,
    expand_walk_terms,
    f_matrix_amplitude,
    graph_state,
    is_hamiltonian,
    normal_ordered_expectation,
    petersen_graph,
)
from trailcounts.errors import CapacityError
from trailcounts.fock import normal_ordered_term_expectation

c4 = cycle_graph(4)

# on the pair register the graph state occupies the slots of present edges,
# slots ordered (1,2), (1,3), ...
psi = graph_state(c4)
print("|psi> =", psi, " (slot order:", psi.register.slots, ")")

# number operators read slot occupations
n12 = LadderOp(LadderKind.NUMBER, psi.register.slot_index((1, 2)))
n14 = LadderOp(LadderKind.NUMBER, psi.register.slot_index((1, 4)))
print("<psi|N_(1,2)|psi> =", psi.inner(apply_ladder(n12, psi)))
print("<psi|N_(1,4)|psi> =", psi.inner(apply_ladder(n14, psi)))

# an entry of a matrix power is a sum over walks of operator products;
# normally ordered, a term with a repeated slot vanishes
print("\nlength-3 walk terms from 1 to 2 and their normally ordered expectations:")
for walk, term in expand_walk_terms(c4, 3, 1, 2, MatrixKind.N_EDGE):
    slots = [psi.register.slots[s] for s in term.slots()]
    value = normal_ordered_term_expectation(term, psi)
    print("  ", "-".join(map(str, walk)), slots, "->", value)
print("trail count as an expectation value:", normal_ordered_expectation(c4, 3, 1, 2, MatrixKind.N_EDGE))

# annihilation operators instead of number operators: evolve the state and
# take the squared norm; equal to the trail count only while every edge set
# is traversed by at most one trail
print("\nannihilation quadratic form on the 4-cycle:", d_matrix_quadratic_form(c4, 3, 1, 2))

# Hamiltonicity as a transition amplitude on the vertex register: annihilate
# the destination of every step, then overlap with the all-zeros state
print("\n<0...0|F^4|1...1> on the 4-cycle:", f_matrix_amplitude(c4, 4, 1))
print("<0...0|F^3|1...1> (too short to empty the register):", f_matrix_amplitude(c4, 3, 1))
print("petersen graph Hamiltonian?", is_hamiltonian(petersen_graph()))

# registers are capped: evaluations need one slot per edge, and K8 has 28
try:
    normal_ordered_expectation(complete_graph(8), 3, 1, 2, MatrixKind.N_EDGE)
except CapacityError as exc:
    print("\nK8 refused:", exc)
k7 = complete_graph(7)
print("K7 fits (21 slots); trails of length 3, 1->2:",
      normal_ordered_expectation(k7, 3, 1, 2, MatrixKind.N_EDGE))
# Petersen's 45 vertex pairs exceed the cap, but its 15 edges fit
print("petersen via the |E|-slot register:",
      normal_ordered_expectation(petersen_graph(), 5, 1, 2, MatrixKind.N_EDGE))
