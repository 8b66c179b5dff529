"""Literal occupation-basis evaluation of the counting observables.

A Register assigns one qubit slot per present edge (edge space, width |E|),
per unordered vertex pair (the paper's edge space, width C(n,2)), or per
vertex (vertex space, width n). Walk steps only touch slots of present
edges, so every evaluator runs on the |E|-slot register; the pair register
serves graph_state and expand_walk_terms, which render the paper's
occupation strings. StateVector holds only the nonzero amplitudes, as a
map from basis index to exact integer amplitude: every operator used here
maps basis states to 0/1-weighted basis states, so the whole pipeline is
exact, matching the arbitrary-precision counts of the other engines, and a
basis state such as the graph state costs one entry however wide its
register is.

Slot s occupies bit (width-1-s) of a basis index, so the binary rendering of
an index, left to right, is the slot occupation string: the 4-cycle's graph
state renders as "110011".

Matrix powers of the observable matrices are never materialized: an entry of
a power is the sum over walks of the corresponding operator products. Both
spaces share one kernel, _evolve, which evolves the space's reference state
level by level, one ladder operator per walk step. A level holds one sparse
map per current vertex, from basis index to exact amplitude, so a query reads
its end vertex's map directly; every evaluator reduces one evolution, and a
per-query evaluator aims its last step at its end vertex: that step keeps
only the steps into it, so that level holds that vertex's map only (the
sweep's tables read every vertex). Each step is read off Graph.incidence as
the level is built, its bit made from the (neighbour, edge position) pair;
no table of bits is kept. Terms that reach the same vertex and basis state
merge into one amplitude, and a term that annihilates to zero (an operator
on an empty slot) is dropped as soon as it does. No evaluator allocates a
2**width array. The node budget charges, in words of a basis index, each
step a level will try (a live state times a step from its vertex, or only
the steps into the end vertex on an aimed level) before the level is
built; what it leaves uncharged, the register's slot labels and the
graph's own incidence, is linear in n and |E|.
"""

from __future__ import annotations

import enum
import operator
import sys
from dataclasses import dataclass

from . import limits
from .errors import BudgetExceededError, CapacityError
from .graphs import Graph, decimal_str, pair_slots, trails_ruled_out

# qubit slots of the C(n,2)-slot pair register that graph_state and
# expand_walk_terms render (n <= 7); the evaluators' registers have no cap,
# since the node budget bounds them
PAIR_REGISTER_CAP = 24


class RegisterKind(enum.Enum):
    EDGE_SPACE = "edge-space"
    VERTEX_SPACE = "vertex-space"


@dataclass(frozen=True)
class Register:
    """A named qubit register: ordered slot labels ((u, v) edges in edge
    space, vertices in vertex space), one qubit per slot."""

    kind: RegisterKind
    slots: tuple | range

    def __post_init__(self):
        """No per-slot work. Kept as a hook for a wrapper that reads each
        new register's width: a dataclass calls it only if it is defined."""

    @property
    def width(self) -> int:
        return len(self.slots)

    @property
    def dimension(self) -> int:
        return 1 << self.width

    def slot_index(self, label) -> int:
        try:
            return self.slots.index(label)
        except ValueError:
            raise ValueError(f"no slot {label!r} in this register") from None

    def bit(self, slot: int) -> int:
        """Bit position of a slot within a basis index."""
        if not 0 <= slot < self.width:
            raise ValueError(f"slot {slot} out of range 0..{self.width - 1}")
        return self.width - 1 - slot

    @classmethod
    def all_pairs(cls, n: int) -> "Register":
        """Edge space over every unordered pair of distinct vertices, the only
        register with a cap, PAIR_REGISTER_CAP: C(n,2) is checked before any
        slot is built."""
        width = n * (n - 1) // 2
        if width > PAIR_REGISTER_CAP:
            raise CapacityError(width, PAIR_REGISTER_CAP)
        return cls(RegisterKind.EDGE_SPACE, pair_slots(n))

    @classmethod
    def present_edges(cls, g: Graph) -> "Register":
        """Edge space with slots only for actual edges; entries of the
        observable matrices that would reference non-edges are zero from the
        start."""
        return cls(RegisterKind.EDGE_SPACE, g.sorted_edges())

    @classmethod
    def vertices(cls, n: int) -> "Register":
        return cls(RegisterKind.VERTEX_SPACE, range(1, n + 1))


def _occupied_index(register: Register, labels) -> int:
    """Basis index with exactly the given slots occupied."""
    index = 0
    for label in labels:
        index |= 1 << register.bit(register.slot_index(label))
    return index


def basis_label(register: Register, index: int) -> str:
    """Occupation string of a basis index, slot 0 leftmost."""
    return format(index, f"0{register.width}b")


class Amplitudes(dict):
    """Basis index -> nonzero exact amplitude."""

    @property
    def nbytes(self) -> int:
        """Bytes of the map's own table, as an array's ``nbytes`` gives its
        buffer's (perfbench's tracer sums it over every state built)."""
        return sys.getsizeof(self)


class StateVector:
    """Amplitude vector over a register, holding only its nonzero exact int
    amplitudes; every absent basis index has amplitude 0."""

    __slots__ = ("register", "amplitudes")

    def __init__(self, register: Register, amplitudes):
        """`amplitudes` maps basis indices to amplitudes; zeros are dropped."""
        for index in amplitudes:
            if not 0 <= index < register.dimension:
                raise ValueError(f"basis index {index} out of range 0..{register.dimension - 1}")
        self.register = register
        self.amplitudes = Amplitudes((i, a) for i, a in amplitudes.items() if a)

    @classmethod
    def zero(cls, register: Register) -> "StateVector":
        return cls(register, Amplitudes())

    @classmethod
    def basis(cls, register: Register, index: int) -> "StateVector":
        return cls(register, Amplitudes({index: 1}))

    @classmethod
    def from_occupied(cls, register: Register, occupied_labels) -> "StateVector":
        return cls.basis(register, _occupied_index(register, occupied_labels))

    @classmethod
    def all_ones(cls, register: Register) -> "StateVector":
        return cls.basis(register, register.dimension - 1)

    def basis_index(self) -> int:
        """Index of the single nonzero amplitude; errors if not a basis state."""
        if len(self.amplitudes) == 1:
            ((index, amp),) = self.amplitudes.items()
            if amp == 1:
                return index
        raise ValueError("not a computational basis state")

    def _same_register(self, other: "StateVector") -> None:
        if self.register != other.register:
            raise ValueError("states live on different registers")

    def inner(self, other: "StateVector") -> int:
        self._same_register(other)
        theirs = other.amplitudes
        return sum(a * theirs.get(i, 0) for i, a in self.amplitudes.items())

    def squared_norm(self) -> int:
        return sum(a * a for a in self.amplitudes.values())

    def nonzero(self) -> list[tuple[int, int]]:
        """(basis index, amplitude) pairs in increasing index order."""
        return sorted(self.amplitudes.items())

    def __add__(self, other: "StateVector") -> "StateVector":
        self._same_register(other)
        total = Amplitudes(self.amplitudes)
        for i, a in other.amplitudes.items():
            total[i] = total.get(i, 0) + a
        return StateVector(self.register, total)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, StateVector)
            and self.register == other.register
            and self.amplitudes == other.amplitudes
        )

    def to_json_obj(self) -> dict:
        return {
            "width": self.register.width,
            "kind": self.register.kind.value,
            "nonzero": [
                {"index": i, "amplitude": decimal_str(a)} for i, a in self.nonzero()
            ],
        }

    def __repr__(self) -> str:
        parts = [
            f"{decimal_str(a)}|{basis_label(self.register, i)}>" for i, a in self.nonzero()
        ]
        return " + ".join(parts) if parts else "0"


class LadderKind(enum.Enum):
    ANNIHILATE = "a"
    CREATE = "a+"
    NUMBER = "n"


@dataclass(frozen=True)
class LadderOp:
    """A single-slot ladder operator: a|0>=0, a+|0>=|1>, a|1>=|0>, a+|1>=0,
    and the number operator n=a+a with n|k>=k|k>."""

    kind: LadderKind
    slot: int


def apply_ladder(op: LadderOp, state: StateVector) -> StateVector:
    """Apply a ladder operator to a state, returning a fresh state. Each
    operator keeps the basis states whose slot holds what it needs (1 for
    a and n, 0 for a+) and flips that slot (a, a+) or leaves it (n)."""
    width = state.register.width
    if not 0 <= op.slot < width:
        raise ValueError(f"slot {op.slot} out of range 0..{width - 1}")
    bit = 1 << state.register.bit(op.slot)
    if op.kind is LadderKind.ANNIHILATE:
        need, flip = bit, bit
    elif op.kind is LadderKind.CREATE:
        need, flip = 0, bit
    elif op.kind is LadderKind.NUMBER:
        need, flip = bit, 0
    else:
        raise ValueError(f"unknown ladder kind {op.kind!r}")
    out = Amplitudes((i ^ flip, a) for i, a in state.amplitudes.items() if i & bit == need)
    return StateVector(state.register, out)


def graph_state(g: Graph) -> StateVector:
    """The basis state marking the graph's edges as occupied slots of the
    C(n,2)-slot pair register, rendering the paper's occupation string: a
    single amplitude, whatever the register's width. (The evaluators start
    from the |E|-slot register instead, where the graph state is |1...1>.)"""
    return StateVector.from_occupied(Register.all_pairs(g.n), g.sorted_edges())


class MatrixKind(enum.Enum):
    """Which observable matrix a walk term belongs to.

    N_EDGE   number operators on traversed edge slots (trail counting).
    M_VERTEX number operators on destination vertices (path counting).
    D_EDGE   annihilation operators on traversed edge slots.
    F_VERTEX annihilation operators on destination vertices (cycle /
             Hamiltonicity transition amplitudes).
    """

    N_EDGE = "n-edge"
    M_VERTEX = "m-vertex"
    D_EDGE = "d-edge"
    F_VERTEX = "f-vertex"

    @property
    def space(self) -> RegisterKind:
        """The space whose slots the matrix's ladder operators act on."""
        edge = self in (MatrixKind.N_EDGE, MatrixKind.D_EDGE)
        return RegisterKind.EDGE_SPACE if edge else RegisterKind.VERTEX_SPACE


_NUMBER_KINDS = (MatrixKind.N_EDGE, MatrixKind.M_VERTEX)


@dataclass(frozen=True)
class OperatorTerm:
    """Ordered product of ladder operators; ops[0] is the first walk step
    (leftmost factor), and products apply right-to-left to kets."""

    ops: tuple[LadderOp, ...]

    def slots(self) -> tuple[int, ...]:
        return tuple(op.slot for op in self.ops)

    def apply(self, state: StateVector) -> StateVector:
        out = state
        for op in reversed(self.ops):
            out = apply_ladder(op, out)
        return out


def _step_slot(register: Register, a: int, b: int) -> int:
    """Slot of the step a -> b: the edge in edge space, the destination
    vertex in vertex space."""
    if register.kind is RegisterKind.EDGE_SPACE:
        return register.slot_index((min(a, b), max(a, b)))
    return register.slot_index(b)


def expand_walk_terms(
    g: Graph, length: int, u: int, v: int, matrix_kind: MatrixKind
) -> list[tuple[tuple[int, ...], OperatorTerm]]:
    """One (walk, operator term) pair per length-l walk from u to v: the
    term the corresponding matrix-power entry contains for that walk, on the
    pair register in edge space (graph_state's) and the vertex register in
    vertex space. Unpruned and exponential; meant for inspection at desk
    scale."""
    g.require_query(length, u, v, 1)
    edge = matrix_kind.space is RegisterKind.EDGE_SPACE
    register = Register.all_pairs(g.n) if edge else Register.vertices(g.n)
    op_kind = LadderKind.NUMBER if matrix_kind in _NUMBER_KINDS else LadderKind.ANNIHILATE
    budget = limits.node_budget()
    out: list[tuple[tuple[int, ...], OperatorTerm]] = []
    seq = [u]
    ops: list[LadderOp] = []
    # depth-first over walk prefixes; each prefix shorter than length costs
    # one node when it is expanded, and stack[i] iterates seq[i]'s neighbours
    remaining = budget - 1
    if remaining < 0:
        raise BudgetExceededError("walk-term expansion", budget)
    stack = [iter(g.neighbors(u))]
    while stack:
        current, last = seq[-1], len(stack) == length
        for w in stack[-1]:
            if last and w != v:
                continue
            op = LadderOp(op_kind, _step_slot(register, current, w))
            if last:
                out.append(((*seq, w), OperatorTerm((*ops, op))))
                continue
            remaining -= 1
            if remaining < 0:
                raise BudgetExceededError("walk-term expansion", budget)
            seq.append(w)
            ops.append(op)
            stack.append(iter(g.neighbors(w)))
            break
        else:
            stack.pop()
            seq.pop()
            if ops:
                ops.pop()
    return out


def normal_ordered_term_expectation(term: OperatorTerm, state: StateVector) -> int:
    """Expectation of the normally ordered term on a state: zero when any
    slot repeats (a repeated number operator normally orders to a+a+aa = 0),
    otherwise the occupation product, amplitude-squared weighted. Only
    number-operator terms are diagonal, so only those are accepted."""
    for op in term.ops:
        if op.kind is not LadderKind.NUMBER:
            raise ValueError("normal-ordered expectation is defined here for number-operator terms")
    slots = term.slots()
    if len(set(slots)) != len(slots):
        return 0
    total = 0
    for index, amp in state.nonzero():
        if all((index >> state.register.bit(s)) & 1 for s in slots):
            total += amp * amp
    return total


def _evolve(
    g: Graph,
    space: RegisterKind,
    start: int,
    max_len: int,
    clears: bool,
    what: str,
    guard_vertex: int | None = None,
    aim: int = 0,
):
    """Yield the evolved state at each of the lengths 0..max_len, as one
    sparse map per current vertex, {vertex: {basis index: exact amplitude}};
    a vertex holds a map only while some state is live there, and every
    amplitude in it is nonzero. The first empty level is the last yielded,
    since every later one is empty too.

    Level 0 is the space's reference state at `start`: |1...1> on the
    |E|-slot register in edge space (the graph state, every present edge
    occupied) and on the vertex register in vertex space, with
    guard_vertex's slot emptied when one is given. Each step applies
    one ladder operator on the traversed slot (the edge in edge space, the
    destination vertex in vertex space): an annihilation operator when
    steps clear their slot, a number operator otherwise; either drops the
    term when the slot is empty. Terms that reach the same vertex and index
    merge into one amplitude. With `aim`, a vertex, the last step is aimed
    at it: each live vertex keeps only those of its own steps that lead into
    aim, so that level holds aim's map only. Each step w -> x reads its
    (x, edge position i) pair off Graph.incidence and makes its bit there,
    slot i in edge space and x - 1 in vertex space; it needs that bit set
    and moves a surviving state to index ^ flip, flip being the bit when
    steps clear their slot, else 0. Level 0 is yielded before anything is
    charged. Before a level is built, each step it will try costs
    limits.words(width) nodes, an index's words: a live state times a step
    from its vertex, or on the aimed level only the states of aim's
    neighbours, one step each."""
    register = Register.present_edges(g) if space is RegisterKind.EDGE_SPACE else Register.vertices(g.n)
    reference = register.dimension - 1  # |11...1>
    if guard_vertex is not None:
        # the guard's number operator uses up its slot before the first step
        reference &= ~(1 << register.bit(register.slot_index(guard_vertex)))
    level = {start: {reference: 1}}
    yield level
    if not max_len:
        return
    budget, words = limits.node_budget(), limits.words(register.width)
    remaining, steps = budget, g.incidence
    top, vertex = register.width - 1, space is RegisterKind.VERTEX_SPACE  # slot s is bit top - s
    for length in range(1, max_len + 1):
        target = aim if length == max_len else 0
        if target:  # the states of aim's neighbours, one step into aim each
            tried = sum(len(level.get(x, ())) for x, _ in steps[target])
        else:
            tried = sum(map(operator.mul, map(len, level.values()), map(len, map(steps.__getitem__, level))))
        remaining -= words * tried
        if remaining < 0:
            raise BudgetExceededError(what, budget)
        nxt: dict[int, dict[int, int]] = {}
        for w, states in level.items():
            for x, i in steps[w]:
                if target and x != target:
                    continue
                bit = 1 << (top - (x - 1 if vertex else i))
                flip = bit if clears else 0
                into = nxt.get(x) or {}
                for index, amp in states.items():
                    if index & bit:
                        key = index ^ flip
                        into[key] = into.get(key, 0) + amp
                if into:
                    nxt[x] = into
        level = nxt
        yield level
        if not level:
            return


def _amplitudes_at(levels, v: int) -> dict[int, int]:
    """The last level's map for vertex v, basis index -> amplitude; empty
    when no state is live there."""
    for level in levels:
        pass
    return level.get(v, {})


def _tally(levels) -> tuple[dict[tuple[int, int], int], dict[tuple[int, int], int]]:
    """Per-(length >= 1, vertex) sums of the amplitudes of each level's
    vertex map and of their squares, in one pass over the levels."""
    sums: dict[tuple[int, int], int] = {}
    squares: dict[tuple[int, int], int] = {}
    next(levels)  # level 0, the reference state
    for length, level in enumerate(levels, 1):
        for w, states in level.items():
            amps = states.values()
            sums[length, w] = sum(amps)
            squares[length, w] = sum(map(operator.mul, amps, amps))
    return sums, squares


def normal_ordered_expectation(
    g: Graph,
    length: int,
    u: int,
    v: int,
    matrix_kind: MatrixKind,
    guard_vertex: int | None = None,
) -> int:
    """Expectation of the normally ordered matrix-power entry (u, v) on the
    reference state: the graph state for N_EDGE, the all-ones vertex state
    for M_VERTEX. Each expanded walk term contributes 1 when its slots are
    pairwise distinct and all occupied, else 0.

    guard_vertex (M_VERTEX only) prepends a number operator on that vertex's
    slot to every term; with guard_vertex=u the value drops from the
    distinct-non-initial count to the true path count. This guard is an
    artifact extension, not part of the literal observable.

    An N_EDGE query that graphs.trails_ruled_out settles is 0 before any
    register is built."""
    return _normal_ordered_pair(g, length, u, v, matrix_kind, guard_vertex)[0]


def _normal_ordered_pair(
    g: Graph, length: int, u: int, v: int, matrix_kind: MatrixKind, guard_vertex=None,
    what: str = "normal-ordered evaluation",
) -> tuple[int, int]:
    """normal_ordered_expectation's value and, from the same evolution, the
    number its count note compares it with: for N_EDGE the squared amplitudes'
    sum (d_matrix_quadratic_form), for M_VERTEX the sum of those whose start
    slot, bit n - u, is still occupied (the path count when u != v)."""
    g.require_query(length, u, v, 0)
    if matrix_kind not in _NUMBER_KINDS:
        raise ValueError("normal-ordered expectation applies to the number-operator matrices")
    if guard_vertex is not None:
        if matrix_kind is not MatrixKind.M_VERTEX:
            raise ValueError("guard_vertex applies to the destination-vertex observable only")
        g.require_vertex(guard_vertex)
    if matrix_kind is MatrixKind.N_EDGE and trails_ruled_out(g, length, u, v):
        return 0, 0
    # a term whose slots are distinct and occupied survives annihilating each
    # slot in turn from the reference state, and every other term vanishes
    levels = _evolve(g, matrix_kind.space, u, length, True, what, guard_vertex, v)
    amplitudes = _amplitudes_at(levels, v)
    if matrix_kind is MatrixKind.N_EDGE:
        return sum(amplitudes.values()), sum(a * a for a in amplitudes.values())
    return sum(amplitudes.values()), sum(a for index, a in amplitudes.items() if index >> (g.n - u) & 1)


def normal_ordered_expectation_table(
    g: Graph, start: int, max_len: int, matrix_kind: MatrixKind
) -> dict[tuple[int, int], int]:
    """All (length <= max_len, end vertex) expectations from one start in a
    single evolution; the same evolution and semantics as the per-query
    evaluator, tallied at every length."""
    g.require_vertex(start)
    if matrix_kind not in _NUMBER_KINDS:
        raise ValueError("normal-ordered expectation applies to the number-operator matrices")
    levels = _evolve(g, matrix_kind.space, start, max_len, True, "normal-ordered tally")
    return _tally(levels)[0]


def walk_count_expectation(g: Graph, length: int, u: int, v: int) -> int:
    """Expectation of the PLAIN (not normally ordered) number-matrix power
    entry on the graph state: every walk term evaluates to its occupation
    product, which is 1 for every walk inside the graph, so this equals the
    walk count."""
    g.require_query(length, u, v, 0)
    levels = _evolve(g, RegisterKind.EDGE_SPACE, u, length, False, "plain expectation", None, v)
    return sum(_amplitudes_at(levels, v).values())


def d_matrix_quadratic_form(g: Graph, length: int, u: int, v: int) -> int:
    """Apply the annihilation-matrix power entry (u, v) to the graph state as
    an actual state evolution and return the squared norm of the result.

    Each surviving walk term annihilates a distinct edge set S and lands on
    the basis state with S cleared, so amplitudes accumulate to t_S per set
    and the value is the sum of t_S**2. That equals the trail count exactly
    when every t_S <= 1; otherwise it exceeds it. This is the N_EDGE
    evolution, so graphs.trails_ruled_out settles a query first."""
    return _normal_ordered_pair(g, length, u, v, MatrixKind.N_EDGE, None, "annihilation evolution")[1]


def annihilation_form_table(g: Graph, start: int, max_len: int) -> dict[tuple[int, int], int]:
    """Squared norms of the annihilation evolution for every (length <=
    max_len, end vertex) from one start; the same evolution as the
    per-query evaluator."""
    g.require_vertex(start)
    levels = _evolve(g, RegisterKind.EDGE_SPACE, start, max_len, True, "annihilation tally")
    return _tally(levels)[1]


def f_matrix_amplitude(g: Graph, length: int, u: int) -> int:
    """Amplitude of the all-zeros state after applying the closed-walk
    annihilation terms (destination-vertex slots) to the all-ones vertex
    state. Zero whenever length < n (fewer than n slots get annihilated);
    at length n it equals the number of directed Hamiltonian traversals
    through u."""
    g.require_query(length, u, u, 0)
    levels = _evolve(g, RegisterKind.VERTEX_SPACE, u, length, True, "transition-amplitude evaluation", None, u)
    return _amplitudes_at(levels, u).get(0, 0)


def is_hamiltonian(g: Graph) -> bool:
    """Whether the graph has a Hamiltonian cycle, decided by the transition
    amplitude at length n from vertex 1 (the value is the same from every
    vertex, since every Hamiltonian cycle passes through every vertex).
    Graphs on fewer than 3 vertices have no cycles at all."""
    if g.n < 3:
        return False
    return f_matrix_amplitude(g, g.n, 1) > 0
