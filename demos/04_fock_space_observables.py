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

# evaluations run on one slot per edge with no width cap: the node budget,
# charged before each level is built, bounds them. K8's 28 slots are fine
print("\nK8 trails of length 3, 1->2, on its 28-slot edge register:",
      normal_ordered_expectation(complete_graph(8), 3, 1, 2, MatrixKind.N_EDGE))
# only the pair register, which renders the paper's occupation strings, is
# capped: Petersen's 45 vertex pairs exceed it, while its 15 edges evaluate
try:
    graph_state(petersen_graph())
except CapacityError as exc:
    print("petersen pair register refused:", exc)
print("petersen via the |E|-slot register:",
      normal_ordered_expectation(petersen_graph(), 5, 1, 2, MatrixKind.N_EDGE))
