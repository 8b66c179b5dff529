"""Ground-truth counting by exhaustive backtracking.

Everything here enumerates walk sequences directly and filters them by a
predicate; the other engines are validated against this module. One
explicit-stack depth-first search (`_search`) backs every enumeration and
every trail and path count. It extends the current sequence one step at a
time, in sorted-neighbour order, and refuses a step whose bit is already in
the sequence's mask. The bit depends on the step rule:

    walk                  0 (no step is ever refused)
    trail                 the traversed edge's bit (its position in
                          g.sorted_edges()), so no edge repeats
    distinct-non-initial  the destination vertex's bit, so v1..vl are
                          pairwise distinct

Each search first builds its step table, every vertex's (neighbour, bit)
pairs in ascending neighbour order, read off Graph.incidence
(`_step_table`). Walk counts run the same search without the rule
(`_walk_tally`), straight on Graph.adjacency: each visited vertex's whole
neighbour tuple is admitted at once, in C.

Without `ends`, both kernels tally every walk, per length and end vertex;
the sweep reads these tables through caches. With `ends`, a per-query
operation runs one uncached search aimed at its end vertices: shorter walks
are visited but not tallied, and only the last steps into an end vertex are
tested, with one mask operation per walk one step short (the walk tally
sums, per walk two steps short, how many of its neighbours are next to an
end vertex). Neither merges equal states, and both charge a node budget the
same nodes: the root and every admitted step, last steps that miss the end
vertices included. A step table or walk-tally stack that would outgrow the
budget is refused before it is built. So the oracle stays a desk-scale
ground truth.

The aimed search behind each count:

    WALK                  the walk tally
    TRAIL                 the trail rule, keeping no mask bits
    PATH                  the distinct-non-initial rule with the start
                          vertex's bit set from the outset, so it never
                          re-enters the start; a cycle is one open path
                          that ends next to the start, plus the edge back,
                          so a closed count aims at the start's neighbours,
                          one level shorter
    DISTINCT_NON_INITIAL  the distinct-non-initial rule, which may re-enter
                          the start once, keeping the start vertex's bit:
                          the walks without it are the paths
    START_ONCE_TRAIL_EDGE_SET  the trail rule keeping every edge bit (so
                          does the trail edge-set histogram)

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
    g.require_query(length, u, v, 0)
    if length == 0:
        return [(u,)] if u == v else []
    if walk_class is WalkClass.PATH and u == v and length < 3:
        return []  # no cycle in a simple graph is that short
    if walk_class in (WalkClass.TRAIL, WalkClass.START_ONCE_TRAIL_EDGE_SET) and trails_ruled_out(g, length, u, v):
        return []  # longer than |E|, or through every edge with ends of the wrong parity
    return None


def enumerate_walks(g: Graph, length: int, u: int, v: int, walk_class: WalkClass = WalkClass.WALK) -> list[WalkSeq]:
    """All walks of exactly the given length from u to v satisfying the class
    predicate, each once, in lexicographic order."""
    trivial = _without_search(g, length, u, v, walk_class)
    if trivial is not None:
        return trivial
    rule, mask, keep = walk_class, 0, 0
    if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
        rule, keep = WalkClass.TRAIL, -1  # every edge bit: the walk's edge set
    elif walk_class is WalkClass.PATH:
        # an open path is a distinct-non-initial walk that never enters its
        # start; a closed one (a cycle) returns to it only at the end
        rule, mask = WalkClass.DISTINCT_NON_INITIAL, (1 << (u - 1) if u != v else 0)
    found: list[tuple[int, WalkSeq]] = []
    _search(g, u, length, rule, limits.node_budget(), "walk enumeration", keep, mask, ends={v}, found=found)
    if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
        # the first trail found for each edge set, still in order
        first: dict[int, WalkSeq] = {}
        for edge_set, seq in found:
            first.setdefault(edge_set, seq)
        return list(first.values())
    return [seq for _, seq in found]


def count_walks(g: Graph, length: int, u: int, v: int, walk_class: WalkClass = WalkClass.WALK) -> int:
    """Number of walks enumerate_walks would return, without materializing
    the sequences. Each call runs one search aimed at v and caches nothing,
    so a repeated query searches again.

    The search behind each class is listed in the module docstring. Its node
    budget charges the root and every admitted step up to the query's
    length, as enumerating does. A PATH count never re-enters the start. A
    cycle (u, v1, ..., v(l-1), u), l >= 3, is exactly one open path
    (u, v1, ..., v(l-1)) ending next to u plus the edge back, a bijection;
    so a closed count counts the open paths of length l - 1 that end at u's
    neighbours, and charges only the open paths up to that length."""
    trivial = _without_search(g, length, u, v, walk_class)
    if trivial is not None:
        return len(trivial)
    budget = limits.node_budget()
    if walk_class is WalkClass.WALK:
        return _walk_tally(g, u, length, budget, "walk tally", ends={v})
    if walk_class is WalkClass.TRAIL:
        return _search(g, u, length, WalkClass.TRAIL, budget, "trail tally", keep=0, ends={v}).get(0, 0)
    if walk_class is WalkClass.START_ONCE_TRAIL_EDGE_SET:
        return len(_search(g, u, length, WalkClass.TRAIL, budget, "trail tally", keep=-1, ends={v}))
    if walk_class is WalkClass.DISTINCT_NON_INITIAL:
        return count_dni_and_paths(g, length, u, v)[0]
    if walk_class is WalkClass.PATH:
        length, ends = (length - 1, {x for x, _ in g.incidence[u]}) if u == v else (length, {v})
        rule = WalkClass.DISTINCT_NON_INITIAL
        return _search(g, u, length, rule, budget, "path tally", keep=0, mask=1 << (u - 1), ends=ends).get(0, 0)
    raise ValueError(f"unknown walk class {walk_class!r}")


def count_dni_and_paths(g: Graph, length: int, u: int, v: int) -> tuple[int, int]:
    """The DISTINCT_NON_INITIAL count and the PATH count from u to v, both
    from one distinct-non-initial search: the pair the literal
    destination-vertex observable's overcount compares, for the price of
    the literal count alone."""
    trivial = _without_search(g, length, u, v, WalkClass.DISTINCT_NON_INITIAL)
    if trivial is not None:
        return len(trivial), len(trivial)  # length 0: both count the empty walk
    budget, start_bit = limits.node_budget(), 1 << (u - 1)
    hits = _search(g, u, length, WalkClass.DISTINCT_NON_INITIAL, budget, "path tally", keep=start_bit, ends={v})
    return _dni_and_paths(hits, length, u == v)


def _dni_and_paths(row: dict[int, int], length: int, closed: bool) -> tuple[int, int]:
    """The DISTINCT_NON_INITIAL count and the PATH count of the
    distinct-non-initial walks of one length and end vertex, from row:
    {the walk's mask & the start bit: how many such walks}. The one path
    rule that count_dni_and_paths and the sweep's _dni_tables share."""
    dni = sum(row.values())
    if closed:
        return dni, (dni if length >= 3 else 0)  # a closed one is a cycle unless it turns straight back
    return dni, row.get(0, 0)  # a walk that never entered the start carries no start bit


def trail_edge_set_histogram(g: Graph, length: int, u: int, v: int) -> dict[frozenset[tuple[int, int]], int]:
    """For each edge set S, the number of trails of the given length from u
    to v traversing exactly S. Zero entries are omitted, so a query that
    graphs.trails_ruled_out settles is {} without a search, and length 0
    has the empty edge set's one empty trail when u == v."""
    trivial = _without_search(g, length, u, v, WalkClass.START_ONCE_TRAIL_EDGE_SET)
    if trivial is not None:
        return {frozenset(): 1} if trivial else {}
    counter = _search(g, u, length, WalkClass.TRAIL, limits.node_budget(), "trail tally", keep=-1, ends={v})  # every edge bit
    edges = g.sorted_edges()  # trail mask bit i is edges[i]
    return {
        frozenset(e for i, e in enumerate(edges) if mask >> i & 1): count
        for mask, count in counter.items()
    }


def count_closed_euler_trails(g: Graph, u: int) -> int:
    """Closed trails from u traversing every edge exactly once; each
    traversal direction is a distinct trail. 0 when no Eulerian circuit
    through u exists; the edgeless graph counts one empty circuit."""
    return count_walks(g, g.edge_count, u, u, WalkClass.TRAIL)


def count_hamiltonian_cycles_through(g: Graph, u: int, directed: bool = False) -> int:
    """Hamiltonian cycles containing u (every Hamiltonian cycle contains
    every vertex); nonzero only for n >= 3. With directed=True, counts
    closed length-n sequences visiting every vertex exactly once, which is
    2x the undirected count for n >= 3 but also admits the degenerate
    back-and-forth traversal on K2 (a sequence, not a cycle)."""
    # a cycle through every vertex; on n <= 2 vertices the closed
    # distinct-non-initial sequences are the degenerate traversals
    walk_class = WalkClass.PATH if g.n >= 3 else WalkClass.DISTINCT_NON_INITIAL
    seq = count_walks(g, g.n, u, u, walk_class)
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
    ends: set[int] | None = None,
    found: list[tuple[int, WalkSeq]] | None = None,
) -> list[dict[int, dict[int, int]]] | dict[int, int]:
    """Visit every walk from start of length 1..max_len whose steps obey the
    rule (WALK, TRAIL or DISTINCT_NON_INITIAL), in lexicographic depth-first
    order. A walk's mask is the initial mask ORed with every step's bit.

    Without ends, tally each walk as it is admitted and return tally:
    tally[d] maps each end vertex w of a length-d walk to {mask & keep: how
    many such walks}; tally[0] is empty.

    With ends, aim the search at them. Shorter walks are visited but not
    tallied, and each length-(max_len - 1) walk ending at y finds its last
    steps into ends as the set bits of aim[y] & ~mask, one walk per bit.
    Return {mask & keep: how many length-max_len walks end in ends}; if found
    is a list, also append (mask & keep, walk) for each, in lexicographic
    order. Under the walk rule, whose steps carry no bit and whose mask must
    be 0, the aim bits are the end vertices' bits.

    The steps come from `_step_table`, built before the root is charged and
    refused first if its 2|E| entries' words past the first exceed the
    budget. The root and every admitted step charge one node against the
    budget; each expansion charges its admitted steps together."""
    widest = {WalkClass.TRAIL: g.edge_count, WalkClass.DISTINCT_NON_INITIAL: g.top_vertex}.get(rule, 0)
    if 2 * g.edge_count * (limits.words(widest) - 1) > budget:
        raise BudgetExceededError(what, budget)
    steps = _step_table(g, rule)
    remaining = budget - 1
    if remaining < 0:
        raise BudgetExceededError(what, budget)
    hits: dict[int, int] = {}
    # an aimed search allocates nothing per level, so a length far beyond
    # what the rule admits costs only the levels it reaches
    if ends is None:
        tally: list[dict[int, dict[int, int]]] = [{} for _ in range(max_len + 1)]
        last = tally[max_len]
    if max_len == 0:
        return tally if ends is None else hits
    # y -> (the bits of y's steps, the bits of those into ends, {such a bit:
    # its end vertex}), built when a length-(max_len - 1) walk first ends at y
    aims: dict[int, tuple[int, int, dict[int, int]]] = {}
    seq = None if found is None else [start]  # the walk to the vertex being expanded
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
            if ends is None:
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
        # the last level: push no frame
        if ends is None:
            for y, current in frontier:
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
                remaining -= taken
        else:
            for y, current in frontier:
                aim = aims.get(y)
                if aim is None:
                    marks = [(x, bit or 1 << (x - 1)) for x, bit in steps[y]]
                    into = {bit: x for x, bit in marks if x in ends}
                    aim = aims[y] = sum(bit for _, bit in marks), sum(into), into
                reach, into_bits, into = aim
                free = ~current
                remaining -= (reach & free).bit_count()  # every admitted last step
                hit = into_bits & free
                while hit:
                    bit = hit & -hit
                    hit ^= bit
                    key = (current | bit) & keep
                    hits[key] = hits.get(key, 0) + 1
                    if found is not None:
                        found.append((key, (*seq[: max_len - 1], y, into[bit])))
        if remaining < 0:
            raise BudgetExceededError(what, budget)
        # the next vertex to expand is the deepest frame's next admitted step
        while stack:
            step = next(stack[-1], None)
            if step is not None:
                w, current = step
                if seq is not None:
                    seq[len(stack):] = (w,)
                break
            stack.pop()
        else:
            return tally if ends is None else hits


def _step_table(g: Graph, rule: WalkClass) -> list[list[tuple[int, int]] | tuple[()]]:
    """steps[a]: the (neighbour, bit) pairs of the steps from vertex a under
    the rule, in Graph.incidence's ascending neighbour order; steps[0] and
    an edgeless vertex's entry are (). A step's bit is its edge's under
    TRAIL, its neighbour's under DISTINCT_NON_INITIAL and 0 under WALK."""
    incidence = g.incidence
    if rule is WalkClass.TRAIL:
        return [[(x, 1 << i) for x, i in pairs] if pairs else () for pairs in incidence]
    if rule is WalkClass.DISTINCT_NON_INITIAL:
        return [[(x, 1 << (x - 1)) for x, _ in pairs] if pairs else () for pairs in incidence]
    return [[(x, 0) for x, _ in pairs] if pairs else () for pairs in incidence]


def _walk_tally(
    g: Graph, start: int, max_len: int, budget: int, what: str, ends: set[int] | None = None
) -> list[dict[int, int]] | int:
    """Visit every walk from start of length 1..max_len, in the same
    depth-first order as `_search` under the walk rule.

    Without ends, tally each walk and return tally, where tally[d] maps each
    end vertex w of a length-d walk to how many such walks there are;
    tally[0] is empty. With ends, return how many length-max_len walks end
    in ends: the search stops at the walks of length max_len - 2, and each
    adds, over its neighbours y, how many ends are next to y, in C.

    It reads the neighbour tuples of Graph.adjacency directly, with no
    step table. The root and every step charge one node against the budget,
    exactly as in `_search`: each vertex a walk visits below the last level
    charges its degree. A start with a neighbour pushes a frame of about 8
    words per depth below rim - 1; if those past the first 1024 would
    exceed the budget, the search is refused before it starts."""
    adjacency = g.adjacency
    remaining = budget - 1
    if remaining < 0:
        raise BudgetExceededError(what, budget)
    if ends is None:
        tally: list[dict[int, int]] = [{} for _ in range(max_len + 1)]
        last = tally[max_len]
    if max_len == 0:
        return tally if ends is None else 0
    # the vertices at depth rim get no frame: each is expanded in place as
    # soon as its parent admits it. Without ends, each counts its neighbour
    # tuple into the last level. With ends, the rim is one level higher, and
    # each sums how many ends its neighbours are next to.
    rim = max_len - 1 if ends is None else max_len - 2
    if adjacency[start] and 8 * (rim - 1 - 1024) > budget:  # the node budget alone bounds a short walk
        raise BudgetExceededError(what, budget)
    if ends is not None:
        degree = list(map(len, adjacency)).__getitem__
        hits = [0] * len(adjacency)  # how many ends each vertex is next to
        for e in ends:
            for y in adjacency[e]:
                hits[y] += 1
        hit, count = hits.__getitem__, 0
        if rim < 0:  # max_len == 1: the root's steps are the last
            if remaining < len(adjacency[start]):
                raise BudgetExceededError(what, budget)
            return hit(start)
    # one iterator over the neighbours of the vertex at each depth below
    # rim - 1
    stack: list = []
    w = start
    while True:
        depth = len(stack)
        if depth < rim:
            ws = adjacency[w]
            remaining -= len(ws)
            if ends is None:
                _count_elements(tally[depth + 1], ws)
            if depth + 1 < rim:
                stack.append(iter(ws))
                frontier = ()
            else:
                frontier = ws
        else:
            frontier = (w,)  # the root is on the rim
        if ends is None:
            for y in frontier:
                ys = adjacency[y]
                remaining -= len(ys)
                _count_elements(last, ys)
        else:
            for y in frontier:
                ys = adjacency[y]
                remaining -= len(ys) + sum(map(degree, ys))  # its steps and theirs
                count += sum(map(hit, ys))
        if remaining < 0:
            raise BudgetExceededError(what, budget)
        # the next vertex to expand is the deepest frame's next neighbour
        while stack:
            w = next(stack[-1], None)
            if w is not None:
                break
            stack.pop()
        else:
            return tally if ends is None else count


# The sweep reads every (length, end vertex) entry of these tables, so each
# is one unaimed search per (graph, start) covering every length <= max_len;
# the lru_cache key includes max_len and budget. Per-query operations never
# read them: each runs its own aimed search. Each cache keeps its 16 most
# recently used tables: one swept graph's starts (n <= 6 by default) plus
# its spot-check tables. The sweep keeps every graph's tables in its own
# record, so older tables are dropped. Concurrent callers may at worst
# recompute a table; results are immutable after construction.


@functools.lru_cache(maxsize=16)
def _walk_table(g: Graph, start: int, max_len: int, budget: int) -> dict:
    tally = _walk_tally(g, start, max_len, budget, "walk tally")
    return {(depth, w): count for depth, level in enumerate(tally) for w, count in level.items()}


@functools.lru_cache(maxsize=16)
def _trail_tables(g: Graph, start: int, max_len: int, budget: int) -> tuple[dict, dict]:
    """Trail counts plus, per (length, end vertex), how many trails traverse
    each edge-set mask."""
    tally = _search(g, start, max_len, WalkClass.TRAIL, budget, "trail tally", keep=-1)  # every edge bit
    sets = {(depth, w): row for depth, level in enumerate(tally) for w, row in level.items()}
    return {key: sum(row.values()) for key, row in sets.items()}, sets


@functools.lru_cache(maxsize=16)
def _dni_tables(g: Graph, start: int, max_len: int, budget: int) -> tuple[dict, dict]:
    """DISTINCT_NON_INITIAL counts plus PATH counts (open paths avoid the
    start vertex entirely; closed paths are cycles, l >= 3)."""
    start_bit = 1 << (start - 1)
    tally = _search(g, start, max_len, WalkClass.DISTINCT_NON_INITIAL, budget, "path tally", keep=start_bit)
    dni: dict[tuple[int, int], int] = {}
    path: dict[tuple[int, int], int] = {}
    for depth, level in enumerate(tally):
        for w, row in level.items():
            key = depth, w  # one key object shared by both tables
            dni[key], paths = _dni_and_paths(row, depth, w == start)
            if paths:
                path[key] = paths
    return dni, path
