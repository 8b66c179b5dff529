"""Ground-truth counting by exhaustive backtracking.

Everything here enumerates walk sequences directly and filters them by a
predicate; the other engines are validated against this module. One
explicit-stack depth-first search (`_search`) backs every enumeration and the
trail and path tables. It extends the current sequence one step at a time, in
sorted-neighbour order, and refuses a step whose bit is already in the
sequence's mask. The bit depends on the step rule:

    walk                  0 (no step is ever refused)
    trail                 the traversed edge's bit (its position in
                          g.sorted_edges()), so no edge repeats
    distinct-non-initial  the destination vertex's bit, so v1..vl are
                          pairwise distinct

The search tallies as it goes: per length it keeps a sparse map from end
vertex to {mask & keep: count}, where keep selects the mask bits a table
needs (none for counts, every edge bit for the trail edge-set histogram, the
start vertex's bit for the distinct-non-initial table's path column). The
last level is tested in place: each step's bit is checked and tallied without
pushing a frame. The search never merges equal states and charges a
configurable node budget (the root and every admitted step), so it is
strictly a desk-scale oracle.

Each count runs the smallest search that holds its answer:

    WALK                  `_walk_tally`, below
    TRAIL                 the trail rule, counts only (`_trail_counts`)
    PATH                  the distinct-non-initial rule with the start
                          vertex's bit set from the outset, so the search
                          never re-enters the start and lists exactly the
                          open paths (`_path_table`); a cycle is one open
                          path that ends next to the start, plus the edge back
    DISTINCT_NON_INITIAL  the distinct-non-initial rule, which may re-enter
                          the start once (`_dni_tables`)
    START_ONCE_TRAIL_EDGE_SET  the trail rule keeping every edge-set mask
                          (`_trail_tables`)

The walk tally runs the same depth-first search without the rule
(`_walk_tally`): a walk step is never refused, so each visited vertex's whole
neighbour tuple is admitted and counted into the next level by one call to
`collections._count_elements`, the C helper behind `Counter`. It still visits
every walk once, merges no states and charges the same nodes.

Walks are vertex sequences v0 v1 ... vl with every consecutive pair an edge;
the length l is the number of edges traversed. Direction matters: a trail and
its reversal are two distinct sequences. For closed sequences (u == v) the
path class means a cycle, which requires l >= 3 in a simple graph.
"""

from __future__ import annotations

import enum
import functools
from collections import _count_elements

from . import limits
from .errors import BudgetExceededError
from .graphs import Graph, trails_ruled_out

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


def _without_search(g: Graph, length: int, u: int, v: int, walk_class: WalkClass) -> list[WalkSeq] | None:
    """Check a query's vertices and length. Return its walks when they need
    no search (length 0, a closed path too short to be a cycle, or a trail
    too long or of the wrong degree parity to be one), else None."""
    g.require_vertex(u)
    g.require_vertex(v)
    if length < 0:
        raise ValueError(f"length must be >= 0, got {length}")
    if length == 0:
        return [(u,)] if u == v else []
    if walk_class is WalkClass.PATH and u == v and length < 3:
        return []  # no cycle in a simple graph is that short
    if walk_class in (WalkClass.TRAIL, WalkClass.START_ONCE_TRAIL_EDGE_SET) and trails_ruled_out(g, length, u, v):
        return []  # longer than |E|, or through every edge with ends of the wrong parity
    return None


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
    trivial = _without_search(g, length, u, v, walk_class)
    if trivial is not None:
        return trivial
    budget = node_budget if node_budget is not None else limits.node_budget()
    rule, mask = walk_class, 0
    if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
        rule = WalkClass.TRAIL
    elif walk_class is WalkClass.PATH:
        # an open path is a distinct-non-initial walk that never enters its
        # start; a closed one (a cycle) returns to it only at the end
        rule, mask = WalkClass.DISTINCT_NON_INITIAL, (1 << (u - 1) if u != v else 0)
    _, found = _search(g, u, length, rule, budget, "walk enumeration", keep=0, mask=mask, target=v)
    if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
        # the first trail found for each edge-set mask, still in order
        first: dict[int, WalkSeq] = {}
        for edge_set, seq in found:
            first.setdefault(edge_set, seq)
        return list(first.values())
    return [seq for _, seq in found]


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
    memoizes the table, so sweeps over many (length, v) queries are cheap.

    The search behind each class is listed in the module docstring. A PATH
    count never re-enters the start: an open one's node budget charges the
    root and every open path from u of length 1..length, as enumerating it
    does. A cycle (u, v1, ..., v(l-1), u), l >= 3, is exactly one open path
    (u, v1, ..., v(l-1)) ending next to u plus the edge back, a bijection;
    so a closed count sums the open paths of length l - 1 that end at u's
    neighbours, and charges only the open paths up to that length. A TRAIL
    count keeps no edge-set masks."""
    trivial = _without_search(g, length, u, v, walk_class)
    if trivial is not None:
        return len(trivial)
    budget = node_budget if node_budget is not None else limits.node_budget()
    if walk_class is WalkClass.WALK:
        return _walk_table(g, u, length, budget).get((length, v), 0)
    if walk_class is WalkClass.TRAIL:
        return _trail_counts(g, u, length, budget).get((length, v), 0)
    if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
        _, sets = _trail_tables(g, u, length, budget)
        return len(sets.get((length, v), ()))
    if walk_class is WalkClass.DISTINCT_NON_INITIAL:
        return count_dni_and_paths(g, length, u, v, budget)[0]
    if walk_class is WalkClass.PATH:
        if u == v:
            shorter = _path_table(g, u, length - 1, budget)
            return sum(shorter.get((length - 1, w), 0) for w in g.neighbors(u))
        return _path_table(g, u, length, budget).get((length, v), 0)
    raise ValueError(f"unknown walk class {walk_class!r}")


def count_dni_and_paths(
    g: Graph, length: int, u: int, v: int, node_budget: int | None = None
) -> tuple[int, int]:
    """The DISTINCT_NON_INITIAL count and the PATH count from u to v, both
    read from one distinct-non-initial table: the pair the literal
    destination-vertex observable's overcount compares, for the price of
    the literal count alone."""
    trivial = _without_search(g, length, u, v, WalkClass.DISTINCT_NON_INITIAL)
    if trivial is not None:
        return len(trivial), len(trivial)  # length 0: both count the empty walk
    budget = node_budget if node_budget is not None else limits.node_budget()
    dni, path = _dni_tables(g, u, length, budget)
    return dni.get((length, v), 0), path.get((length, v), 0)


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
    # a cycle through every vertex; on n <= 2 vertices the closed
    # distinct-non-initial sequences are the degenerate traversals
    walk_class = WalkClass.PATH if g.n >= 3 else WalkClass.DISTINCT_NON_INITIAL
    seq = count_walks(g, g.n, u, u, walk_class, node_budget)
    if directed:
        return seq
    return seq // 2 if g.n >= 3 else 0


def _search(
    g: Graph,
    start: int,
    max_len: int,
    rule: WalkClass,
    budget: int,
    what: str,
    keep: int,
    mask: int = 0,
    target: int = 0,
) -> tuple[list[dict[int, dict[int, int]]], list[tuple[int, WalkSeq]]]:
    """Visit every walk from start of length 1..max_len whose steps obey the
    rule (WALK, TRAIL or DISTINCT_NON_INITIAL), in lexicographic depth-first
    order, and tally it as it is admitted.

    Returns (tally, found). tally[d] maps each end vertex w of a length-d
    walk to {mask & keep: how many such walks}, the mask being the initial
    mask ORed with every step's bit; tally[0] is empty. found lists, as
    (mask, sequence), every length-max_len walk ending at target (none when
    target is 0), in lexicographic order. The root and every admitted step
    charge one node against the budget; each expansion charges its admitted
    steps together."""
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
    tally: list[dict[int, dict[int, int]]] = [{} for _ in range(max_len + 1)]
    found: list[tuple[int, WalkSeq]] = []
    if max_len == 0:
        return tally, found
    last = tally[max_len]
    seq = [start] * (max_len + 1)
    # one iterator over the admitted (vertex, mask) steps from seq[depth] per
    # depth below max_len - 2; the vertices at depth max_len - 1 are expanded
    # in place as soon as their parent admits them, and get no frame
    stack: list = []
    w, current = start, mask
    while True:
        depth = len(stack)
        if depth + 1 < max_len:
            admitted = [(x, current | bit) for x, bit in steps[w] if not current & bit]
            remaining -= len(admitted)
            if remaining < 0:
                raise BudgetExceededError(what, budget)
            level = tally[depth + 1]
            for x, extended in admitted:
                key = extended & keep
                row = level.get(x)
                if row is None:
                    row = level[x] = {}
                row[key] = row.get(key, 0) + 1
            if depth + 2 < max_len:
                stack.append(iter(admitted))
                frontier = ()
            else:
                frontier = admitted
        else:
            frontier = ((w, current),)  # max_len == 1: the root is the last expansion
        # the last level: test each step's bit in place, push no frame
        for y, current in frontier:
            seq[max_len - 1] = y
            taken = 0
            for x, bit in steps[y]:
                if current & bit:
                    continue
                taken += 1
                key = (current | bit) & keep
                row = last.get(x)
                if row is None:
                    row = last[x] = {}
                row[key] = row.get(key, 0) + 1
                if x == target:
                    seq[max_len] = x
                    found.append((current | bit, tuple(seq)))
            remaining -= taken
            if remaining < 0:
                raise BudgetExceededError(what, budget)
        # the next vertex to expand is the deepest frame's next admitted step
        while stack:
            step = next(stack[-1], None)
            if step is not None:
                w, current = step
                seq[len(stack)] = w
                break
            stack.pop()
        else:
            return tally, found


def _walk_tally(g: Graph, start: int, max_len: int, budget: int, what: str) -> list[dict[int, int]]:
    """Visit every walk from start of length 1..max_len, in the same
    depth-first order as `_search` under the walk rule, and tally it.

    Returns tally, where tally[d] maps each end vertex w of a length-d walk
    to how many such walks there are; tally[0] is empty. The root and every
    step charge one node against the budget, exactly as in `_search`: each
    visited vertex charges its degree, and its neighbour tuple is counted
    into the next level at once."""
    adjacency = [()] + [g.neighbors(a) for a in range(1, g.n + 1)]
    remaining = budget - 1
    if remaining < 0:
        raise BudgetExceededError(what, budget)
    tally: list[dict[int, int]] = [{} for _ in range(max_len + 1)]
    if max_len == 0:
        return tally
    last = tally[max_len]
    # one iterator over the neighbours of the vertex at each depth below
    # max_len - 2; the vertices at depth max_len - 1 get no frame, and each
    # counts its neighbour tuple into the last level
    stack: list = []
    w = start
    while True:
        depth = len(stack)
        if depth + 1 < max_len:
            ws = adjacency[w]
            remaining -= len(ws)
            if remaining < 0:
                raise BudgetExceededError(what, budget)
            _count_elements(tally[depth + 1], ws)
            if depth + 2 < max_len:
                stack.append(iter(ws))
                frontier = ()
            else:
                frontier = ws
        else:
            frontier = (w,)  # max_len == 1: the root is the last expansion
        for y in frontier:
            ys = adjacency[y]
            remaining -= len(ys)
            if remaining < 0:
                raise BudgetExceededError(what, budget)
            _count_elements(last, ys)
        # the next vertex to expand is the deepest frame's next neighbour
        while stack:
            w = next(stack[-1], None)
            if w is not None:
                break
            stack.pop()
        else:
            return tally


# One search per (graph, start) covers every length <= max_len and every end
# vertex at once; the lru_cache key includes max_len and budget so repeated
# queries at the same scale reuse the tables. Each cache keeps its 16 most
# recently used tables: one swept graph's starts (n <= 6 by default) plus
# the tables of its spot checks. The sweep keeps every graph's tables in its
# own record and a `count` query re-reads at most its own engine's table, so
# older tables, mostly of graphs nobody reads again, are dropped. Concurrent
# callers may at worst recompute a table; results are immutable after
# construction.


@functools.lru_cache(maxsize=16)
def _walk_table(g: Graph, start: int, max_len: int, budget: int) -> dict:
    tally = _walk_tally(g, start, max_len, budget, "walk tally")
    return {(depth, w): count for depth, level in enumerate(tally) for w, count in level.items()}


@functools.lru_cache(maxsize=16)
def _trail_counts(g: Graph, start: int, max_len: int, budget: int) -> dict:
    """Trail counts per (length, end vertex), with no edge-set masks."""
    tally, _ = _search(g, start, max_len, WalkClass.TRAIL, budget, "trail tally", keep=0)
    return {(depth, w): row[0] for depth, level in enumerate(tally) for w, row in level.items()}


@functools.lru_cache(maxsize=16)
def _trail_tables(g: Graph, start: int, max_len: int, budget: int) -> tuple[dict, dict]:
    """Trail counts plus, per (length, end vertex), how many trails traverse
    each edge-set mask."""
    tally, _ = _search(g, start, max_len, WalkClass.TRAIL, budget, "trail tally", keep=-1)  # every edge bit
    sets = {(depth, w): row for depth, level in enumerate(tally) for w, row in level.items()}
    return {key: sum(row.values()) for key, row in sets.items()}, sets


@functools.lru_cache(maxsize=16)
def _path_table(g: Graph, start: int, max_len: int, budget: int) -> dict:
    """Open PATH counts per (length, end vertex); zero entries are left out.
    The search starts with the start vertex's bit in its mask, so it never
    re-enters the start and tallies exactly the open paths."""
    tally, _ = _search(
        g, start, max_len, WalkClass.DISTINCT_NON_INITIAL, budget, "path tally", keep=0, mask=1 << (start - 1)
    )
    return {(depth, w): row[0] for depth, level in enumerate(tally) for w, row in level.items()}


@functools.lru_cache(maxsize=16)
def _dni_tables(g: Graph, start: int, max_len: int, budget: int) -> tuple[dict, dict]:
    """DISTINCT_NON_INITIAL counts plus PATH counts (open paths avoid the
    start vertex entirely; closed paths are cycles, l >= 3)."""
    start_bit = 1 << (start - 1)
    tally, _ = _search(g, start, max_len, WalkClass.DISTINCT_NON_INITIAL, budget, "path tally", keep=start_bit)
    dni: dict[tuple[int, int], int] = {}
    path: dict[tuple[int, int], int] = {}
    for depth, level in enumerate(tally):
        for w, row in level.items():
            key = depth, w  # one key object shared by both tables
            dni[key] = sum(row.values())
            # a walk that never entered the start carries no start bit
            paths = (dni[key] if depth >= 3 else 0) if w == start else row.get(0, 0)
            if paths:
                path[key] = paths
    return dni, path
