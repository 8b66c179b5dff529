"""Ground-truth counting by exhaustive backtracking.

Everything here enumerates walk sequences directly and filters them by a
predicate; the other engines are validated against this module. One
explicit-stack depth-first search (`_search`) backs every count, table and
enumeration. It extends the current sequence one step at a time, in sorted-
neighbour order, and refuses a step whose bit is already in the sequence's
mask. The bit depends on the step rule:

    walk                  0 (no step is ever refused)
    trail                 the traversed edge's bit (its position in
                          g.sorted_edges()), so no edge repeats
    distinct-non-initial  the destination vertex's bit, so v1..vl are
                          pairwise distinct

The search never merges equal states and charges a configurable node budget
(the root and every admitted step), so it is strictly a desk-scale oracle.

Walks are vertex sequences v0 v1 ... vl with every consecutive pair an edge;
the length l is the number of edges traversed. Direction matters: a trail and
its reversal are two distinct sequences. For closed sequences (u == v) the
path class means a cycle, which requires l >= 3 in a simple graph.
"""

from __future__ import annotations

import enum
import functools
from collections import Counter

from . import limits
from .errors import BudgetExceededError
from .graphs import Graph

WalkSeq = tuple[int, ...]


class WalkClass(enum.Enum):
    """Predicate filtering a walk sequence.

    WALK              no constraint.
    TRAIL             no repeated edges.
    PATH              no repeated vertices (closed form: a cycle, l >= 3).
    DISTINCT_NON_INITIAL  v1..vl pairwise distinct, v0 unconstrained; this is
                      the class the literal destination-vertex observable
                      counts.
    START_ONCE_TRAIL_EDGE_SET  one trail per distinct traversed edge set (the
                      lexicographically first); its count equals the number
                      of distinct edge sets, which is what the annihilation-
                      matrix check needs.
    """

    WALK = "walk"
    TRAIL = "trail"
    PATH = "path"
    DISTINCT_NON_INITIAL = "distinct-non-initial"
    START_ONCE_TRAIL_EDGE_SET = "start-once-trail-edge-set"


def enumerate_walks(
    g: Graph,
    length: int,
    u: int,
    v: int,
    walk_class: WalkClass = WalkClass.WALK,
    node_budget: int | None = None,
) -> list[WalkSeq]:
    """All walks of exactly the given length from u to v satisfying the class
    predicate, each once, in lexicographic order."""
    g.require_vertex(u)
    g.require_vertex(v)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length == 0:
        return [(u,)] if u == v else []

    budget = node_budget if node_budget is not None else limits.node_budget()
    rule, mask = walk_class, 0
    if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
        rule = WalkClass.TRAIL
    elif walk_class is WalkClass.PATH:
        # an open path is a distinct-non-initial walk that never enters its
        # start; a closed one (a cycle) returns to it only at the end
        rule, mask = WalkClass.DISTINCT_NON_INITIAL, (1 << (u - 1) if u != v else 0)
    too_short_cycle = walk_class is WalkClass.PATH and u == v and length < 3
    out: list[WalkSeq] = []
    seen_edge_sets: set[int] = set()
    # the search yields in depth-first order, so seq[:depth] is always the
    # prefix of the step just yielded
    seq = [u] * (length + 1)
    for depth, w, step_mask in _search(g, u, length, rule, budget, "walk enumeration", mask):
        seq[depth] = w
        if depth < length or w != v or too_short_cycle:
            continue
        if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
            if step_mask in seen_edge_sets:
                continue
            seen_edge_sets.add(step_mask)
        out.append(tuple(seq))
    return out


def count_walks(
    g: Graph,
    length: int,
    u: int,
    v: int,
    walk_class: WalkClass = WalkClass.WALK,
    node_budget: int | None = None,
) -> int:
    """Number of walks enumerate_walks would return, without materializing
    the sequences. Tallies one depth-first search per (graph, start) and
    memoizes the table, so sweeps over many (length, v) queries are cheap."""
    g.require_vertex(u)
    g.require_vertex(v)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length == 0:
        return 1 if u == v else 0
    budget = node_budget if node_budget is not None else limits.node_budget()
    if walk_class is WalkClass.WALK:
        return _walk_table(g, u, length, budget).get((length, v), 0)
    if walk_class is WalkClass.TRAIL:
        counts, _ = _trail_tables(g, u, length, budget)
        return counts.get((length, v), 0)
    if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
        _, sets = _trail_tables(g, u, length, budget)
        return len(sets.get((length, v), ()))
    if walk_class is WalkClass.DISTINCT_NON_INITIAL:
        dni, _ = _dni_tables(g, u, length, budget)
        return dni.get((length, v), 0)
    if walk_class is WalkClass.PATH:
        _, path = _dni_tables(g, u, length, budget)
        return path.get((length, v), 0)
    raise ValueError(f"unknown walk class {walk_class!r}")


def trail_edge_set_histogram(
    g: Graph, length: int, u: int, v: int, node_budget: int | None = None
) -> dict[frozenset[tuple[int, int]], int]:
    """For each edge set S, the number of trails of the given length from u
    to v traversing exactly S. Zero entries are omitted."""
    g.require_vertex(u)
    g.require_vertex(v)
    if length < 1:
        raise ValueError(f"length must be >= 1, got {length}")
    budget = node_budget if node_budget is not None else limits.node_budget()
    _, sets = _trail_tables(g, u, length, budget)
    counter = sets.get((length, v))
    if not counter:
        return {}
    edges = g.sorted_edges()  # trail mask bit i is edges[i]
    return {
        frozenset(e for i, e in enumerate(edges) if mask >> i & 1): count
        for mask, count in counter.items()
    }


def count_closed_euler_trails(g: Graph, u: int, node_budget: int | None = None) -> int:
    """Closed trails from u traversing every edge exactly once; each
    traversal direction is a distinct trail. 0 when no Eulerian circuit
    through u exists; the edgeless graph counts one empty circuit."""
    g.require_vertex(u)
    return count_walks(g, g.edge_count, u, u, WalkClass.TRAIL, node_budget)


def count_hamiltonian_cycles_through(
    g: Graph, u: int, directed: bool = False, node_budget: int | None = None
) -> int:
    """Hamiltonian cycles containing u (every Hamiltonian cycle contains
    every vertex); nonzero only for n >= 3. With directed=True, counts
    closed length-n sequences visiting every vertex exactly once, which is
    2x the undirected count for n >= 3 but also admits the degenerate
    back-and-forth traversal on K2 (a sequence, not a cycle)."""
    g.require_vertex(u)
    seq = count_walks(g, g.n, u, u, WalkClass.DISTINCT_NON_INITIAL, node_budget)
    if directed:
        return seq
    return seq // 2 if g.n >= 3 else 0


def _search(g: Graph, start: int, max_len: int, rule: WalkClass, budget: int, what: str, mask: int = 0):
    """Every walk from start of length 1..max_len whose steps obey the rule
    (WALK, TRAIL or DISTINCT_NON_INITIAL), as (length, end vertex, mask)
    after each admitted step, in lexicographic depth-first order. The mask
    ORs the initial mask with every step's bit. The root and every admitted
    step charge one node against the budget."""
    adjacency = {a: g.neighbors(a) for a in range(1, g.n + 1)}
    if rule is WalkClass.TRAIL:
        edge_bit = {e: 1 << i for i, e in enumerate(g.sorted_edges())}
        steps = {a: tuple((w, edge_bit[min(a, w), max(a, w)]) for w in ws) for a, ws in adjacency.items()}
    elif rule is WalkClass.DISTINCT_NON_INITIAL:
        steps = {a: tuple((w, 1 << (w - 1)) for w in ws) for a, ws in adjacency.items()}
    else:
        steps = {a: tuple((w, 0) for w in ws) for a, ws in adjacency.items()}
    remaining = budget - 1
    if remaining < 0:
        raise BudgetExceededError(what, budget)
    # one (unvisited steps, mask) pair per vertex of the current sequence
    stack = [(iter(steps[start]), mask)] if max_len > 0 else []
    while stack:
        depth = len(stack)
        pending, current = stack[-1]
        for w, bit in pending:
            if current & bit:
                continue
            remaining -= 1
            if remaining < 0:
                raise BudgetExceededError(what, budget)
            extended = current | bit
            yield depth, w, extended
            if depth < max_len:
                stack.append((iter(steps[w]), extended))
                break
        else:
            stack.pop()


# One search per (graph, start) covers every length <= max_len and every end
# vertex at once; the lru_cache key includes max_len and budget so repeated
# queries at the same scale reuse the tables. Each cache keeps its 128 most
# recently used tables (functools' default), so a process that sees many
# graphs does not keep every table it built. Concurrent callers may at worst
# recompute a table; results are immutable after construction.


@functools.lru_cache
def _walk_table(g: Graph, start: int, max_len: int, budget: int) -> dict:
    return Counter((depth, w) for depth, w, _ in _search(g, start, max_len, WalkClass.WALK, budget, "walk tally"))


@functools.lru_cache
def _trail_tables(g: Graph, start: int, max_len: int, budget: int) -> tuple[dict, dict]:
    """Trail counts plus, per (length, end vertex), how many trails traverse
    each edge-set mask."""
    counts: dict[tuple[int, int], int] = Counter()
    sets: dict[tuple[int, int], Counter] = {}
    for depth, w, mask in _search(g, start, max_len, WalkClass.TRAIL, budget, "trail tally"):
        key = depth, w  # one key object shared by both tables
        counts[key] += 1
        sets.setdefault(key, Counter())[mask] += 1
    return counts, sets


@functools.lru_cache
def _dni_tables(g: Graph, start: int, max_len: int, budget: int) -> tuple[dict, dict]:
    """DISTINCT_NON_INITIAL counts plus PATH counts (open paths avoid the
    start vertex entirely; closed paths are cycles, l >= 3)."""
    dni: dict[tuple[int, int], int] = Counter()
    path: dict[tuple[int, int], int] = Counter()
    start_bit = 1 << (start - 1)
    for depth, w, mask in _search(g, start, max_len, WalkClass.DISTINCT_NON_INITIAL, budget, "path tally"):
        key = depth, w  # one key object shared by both tables
        dni[key] += 1
        if (depth >= 3) if w == start else not mask & start_bit:
            path[key] += 1
    return dni, path
