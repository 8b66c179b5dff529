"""Simple undirected graphs with canonical vertex and edge-slot indexing.

Vertices carry 1-based external labels. Edge slots enumerate ALL unordered
pairs of distinct vertices in lexicographic order (1,2), (1,3), ..., (1,n),
(2,3), ..., so a graph on n vertices maps to an occupation string of length
C(n,2). Under this ordering the 4-cycle with edges {1,2},{1,3},{2,4},{3,4}
reads "110011". The pair {a, b} with a < b sits at slot
(a-1)*(2n-a)//2 + (b-a-1): the pairs whose smaller vertex is below a come
first, (n-1) + (n-2) + ... + (n-a+1) of them. slot_of_pair computes it
without a table, so a slot lookup on a large graph costs O(1), not C(n,2).

Counts are plain Python integers throughout (arbitrary precision), so walk
counts and matrix powers stay exact at any length, and decimal_str prints
them at any size. A matrix is a list of int rows. Walk counts never build a
matrix: walk_rows steps one sparse row {vertex: count}, so row `u` of A^l
costs l steps. On a dense graph a step takes each dense vertex's count back
from its non-neighbours instead of pushing it to its neighbours: O(n) per step
on K_n, not O(n^2).
"""

from __future__ import annotations

import decimal
import functools
import re
from collections.abc import Iterator
from dataclasses import dataclass

from . import limits
from .errors import BudgetExceededError, EdgeListError

Edge = tuple[int, int]


@dataclass(frozen=True)
class Graph:
    """Immutable simple undirected graph on vertices 1..n.

    ``edges`` holds normalized pairs (u, v) with u < v. No self-loops, no
    duplicates, every endpoint in 1..n.
    """

    n: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.n < 1:
            raise ValueError(f"vertex count must be positive, got {self.n}")
        for u, v in self.edges:
            if u == v:
                raise ValueError(f"self-loop on vertex {u} is not allowed")
            if not (1 <= u < v <= self.n):
                raise ValueError(f"edge ({u},{v}) out of range for n={self.n}")

    @classmethod
    def from_edges(cls, n: int, edges) -> "Graph":
        """Build a graph from any iterable of (u, v) pairs, normalizing order
        and collapsing duplicates."""
        normalized = frozenset((min(u, v), max(u, v)) for u, v in edges)
        return cls(n, normalized)

    @property
    def edge_count(self) -> int:
        return len(self.edges)

    def has_edge(self, u: int, v: int) -> bool:
        return (min(u, v), max(u, v)) in self.edges

    @functools.cached_property
    def adjacency(self) -> tuple[tuple[int, ...], ...]:
        """adjacency[u]: u's neighbours in ascending order, read off
        `incidence`; entry 0 and each edgeless vertex hold the empty tuple."""
        return tuple(tuple(x for x, _ in pairs) if pairs else () for pairs in self.incidence)

    @functools.cached_property
    def incidence(self) -> tuple[tuple[tuple[int, int], ...], ...]:
        """incidence[u]: u's (neighbour, edge position) pairs in ascending
        neighbour order, an edge's position in sorted_edges() being the bit
        a trail step carries in every engine; entry 0 and each edgeless
        vertex hold the empty tuple. One pass over the sorted edges appends
        each to both ends: vertex r gets its edges (a, r), a < r, before its
        edges (r, b), each group ascending, so the neighbours ascend."""
        rows: list = [()] * (self.n + 1)  # a list only once a vertex has an edge
        for i, (a, b) in enumerate(self.sorted_edges()):
            rows[a] = rows[a] or []
            rows[a].append((b, i))
            rows[b] = rows[b] or []
            rows[b].append((a, i))
        return tuple(map(tuple, rows))

    @functools.cached_property
    def odd_vertices(self) -> frozenset[int]:
        """The vertices of odd degree, found once per graph from the edges
        alone, O(|E|): each edge flips the parity of both its ends."""
        odd: set[int] = set()
        for edge in self.edges:
            odd.symmetric_difference_update(edge)
        return frozenset(odd)

    @functools.cached_property
    def top_vertex(self) -> int:
        """The largest vertex with an edge (0 if none): the widest vertex bit's width."""
        return max((b for _, b in self.edges), default=0)

    def neighbors(self, u: int) -> tuple[int, ...]:
        """Sorted neighbors of u (sorted order drives lexicographic walk
        enumeration everywhere)."""
        self.require_vertex(u)
        return self.adjacency[u]

    def degree(self, u: int) -> int:
        return len(self.neighbors(u))

    def require_vertex(self, u: int) -> None:
        if not (1 <= u <= self.n):
            raise ValueError(f"vertex {u} out of range 1..{self.n}")

    def require_query(self, length: int, u: int, v: int, least: int) -> None:
        """Refuse a query from u to v whose ends are not vertices or whose
        length is below the operation's least."""
        self.require_vertex(u)
        self.require_vertex(v)
        if length < least:
            raise ValueError(f"length must be >= {least}, got {length}")

    def sorted_edges(self) -> tuple[Edge, ...]:
        """The edges in lexicographic order, sorted once per graph: the
        edge-slot order that fixes every edge bit."""
        return self._sorted_edges

    @functools.cached_property
    def _sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def __repr__(self) -> str:  # compact, deterministic
        return f"Graph(n={self.n}, edges={sorted(self.edges)})"


def decimal_str(count: int) -> str:
    """Exact decimal digits of an integer count of any size, for every
    output. str() refuses an int longer than sys.get_int_max_str_digits()
    (4300 digits by default); decimal.Decimal converts every int exactly,
    without that limit, and leaves the process-wide setting alone."""
    return str(decimal.Decimal(count))


@functools.lru_cache(maxsize=128)
def pair_slots(n: int) -> tuple[Edge, ...]:
    """All C(n,2) unordered pairs in lexicographic order."""
    return tuple((u, v) for u in range(1, n + 1) for v in range(u + 1, n + 1))


def slot_of_pair(n: int, u: int, v: int) -> int:
    """Slot of the unordered pair {u, v} of distinct vertices in 1..n, in
    either argument order: (a-1)*(2n-a)//2 + (b-a-1) with a = min(u, v) and
    b = max(u, v), the position of (a, b) in pair_slots(n)."""
    if u == v:
        raise ValueError(f"pair slots are indexed by distinct vertices, got ({u},{v})")
    a, b = (u, v) if u < v else (v, u)
    if a < 1 or b > n:
        raise ValueError(f"vertex {a if a < 1 else b} out of range 1..{n}")
    return (a - 1) * (2 * n - a) // 2 + (b - a - 1)


# Largest vertex label or `n` header an edge list may give. Graph.incidence,
# Graph.adjacency and the oracle and Fock step tables hold an entry per label in
# 1..n, so one huge label would cost memory and time in proportion to it,
# whatever the edge count; at this bound each engine answers walks, trails
# and paths at l = 2 within about 0.4 s and 55 MB on a 2 vCPU host.
MAX_LABEL = 10**6


def parse_edge_list(text: str) -> Graph:
    """Parse a line-oriented edge list.

    Each non-comment line reads "u v" with 1-based integer labels; '#' starts
    a comment (whole line or trailing); blank lines are skipped. An optional
    header line "n <count>" fixes the vertex count, otherwise n is the largest
    label seen. Duplicate edge lines (in either order) collapse to one edge.

    Raises EdgeListError (with the line number) on self-loops, non-integer
    tokens, labels below 1 or above a declared n, labels or a header above
    MAX_LABEL, and on empty input without a header.
    """
    declared_n: int | None = None
    edges: set[Edge] = set()
    max_seen = 0

    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        if tokens[0] == "n":
            if declared_n is not None:
                raise EdgeListError("duplicate 'n' header", line_no)
            if len(tokens) != 2:
                raise EdgeListError("header must read 'n <count>'", line_no)
            declared_n = _int_token(tokens[1], line_no)
            if declared_n < 1:
                raise EdgeListError(f"vertex count must be positive, got {declared_n}", line_no)
            if declared_n > MAX_LABEL:
                raise EdgeListError(f"vertex count {declared_n} exceeds the limit of {MAX_LABEL}", line_no)
            if max_seen > declared_n:
                raise EdgeListError(
                    f"vertex label {max_seen} exceeds declared n={declared_n}", line_no
                )
            continue
        if len(tokens) != 2:
            raise EdgeListError(f"expected 'u v', got {line!r}", line_no)
        u = _int_token(tokens[0], line_no)
        v = _int_token(tokens[1], line_no)
        if u < 1 or v < 1:
            raise EdgeListError(f"vertex labels start at 1, got ({u},{v})", line_no)
        if u == v:
            raise EdgeListError(f"self-loop {u} {v} not allowed in a simple graph", line_no)
        if max(u, v) > MAX_LABEL:
            raise EdgeListError(f"vertex label {max(u, v)} exceeds the limit of {MAX_LABEL}", line_no)
        if declared_n is not None and max(u, v) > declared_n:
            raise EdgeListError(
                f"vertex label {max(u, v)} exceeds declared n={declared_n}", line_no
            )
        edges.add((min(u, v), max(u, v)))
        max_seen = max(max_seen, u, v)

    n = declared_n if declared_n is not None else max_seen
    if n == 0:
        raise EdgeListError("empty edge list and no 'n' header; vertex count unknown")
    return Graph(n, frozenset(edges))


_INT_TOKEN = re.compile(r"-?[0-9]+")


def _int_token(token: str, line_no: int) -> int:
    """An optional minus sign and ASCII digits only: int() alone would also
    read other scripts' digits, underscores and a plus sign."""
    try:
        if _INT_TOKEN.fullmatch(token):
            return int(token)
    except ValueError:  # more digits than int() converts
        pass
    raise EdgeListError(f"expected an integer, got {token!r}", line_no)


Matrix = list[list[int]]


def adjacency_matrix(g: Graph) -> Matrix:
    """0/1 symmetric matrix with zero diagonal, as rows of Python ints."""
    vertices = range(1, g.n + 1)
    return [[int(g.has_edge(u, v)) for v in vertices] for u in vertices]


def identity_matrix(n: int) -> Matrix:
    return [[int(i == j) for j in range(n)] for i in range(n)]


def _matrix_product(a: Matrix, b: Matrix) -> Matrix:
    columns = list(zip(*b))
    return [[sum(x * y for x, y in zip(row, col)) for col in columns] for row in a]


def matrix_power(matrix: Matrix, exponent: int) -> Matrix:
    """Exact integer matrix power by repeated squaring; exponent 0 gives the
    identity."""
    if exponent < 0:
        raise ValueError(f"exponent must be >= 0, got {exponent}")
    result = identity_matrix(len(matrix))
    square = matrix
    while exponent:
        if exponent & 1:
            result = _matrix_product(result, square)
        exponent >>= 1
        if exponent:
            square = _matrix_product(square, square)
    return result


def walk_rows(g: Graph, start: int, max_len: int) -> Iterator[dict[int, int]]:
    """Yield row `start` of A^0, A^1, ..., A^max_len as {vertex: count}, zero
    entries left out: entry w of row l is the number of length-l walks from
    start to w.

    A vertex pushes its count to its neighbours, unless the graph is dense
    enough to step by A = J - I - C, with J all ones and C the complement's
    adjacency: then every vertex first gets the total of the dense vertices'
    counts, each dense count is taken back from its own vertex and its
    non-neighbours, and the zeros this leaves are dropped. A vertex of degree
    d pushes to d entries and takes back from n - d, so a take-back saves
    2d - n additions a step; paying out the total and scanning for zeros cost
    about 3n. Take-backs are used only when the vertices with 2d > n together
    save more than 3n a step. Each saves at most n - 2, so that needs four of
    them and more than 7n/4 edges: a sparse or small graph pushes without a
    degree being read. A step on K_n then costs O(n) additions, not n(n-1).
    The lists are built once per call from g.adjacency, after level 0 is
    yielded, so length 0 reads no table.

    Each level is charged against the node budget before it is yielded: its
    live entries times the 64-bit words of its largest count. A count grows
    by a word every few dozen levels, so the charge grows with the square of
    the length, and a length far beyond desk scale stops with
    BudgetExceededError("adjacency power") instead of running for hours."""
    budget = limits.node_budget()
    remaining = budget - 1  # level 0: one entry of one word
    if remaining < 0:
        raise BudgetExceededError("adjacency power", budget)
    row = {start: 1}
    yield row
    if not max_len:
        return
    adj = g.adjacency
    # pull: dense vertex -> itself and its non-neighbours, the entries its count is taken back from
    push, pull = adj, {}
    if 4 * len(g.edges) > 7 * g.n:
        n = g.n
        dense = [w for w, near in enumerate(adj) if 2 * len(near) > n]
        if sum(2 * len(adj[w]) - n for w in dense) > 3 * n:
            vertices = range(1, n + 1)
            everyone = set(vertices)
            pull = {w: tuple(everyone.difference(adj[w])) for w in dense}
            push = [() if w in pull else near for w, near in enumerate(adj)]
    for _ in range(max_len):
        if pull:
            total = 0
            for w in pull:
                count = row.get(w)
                if count:
                    total += count
            nxt = dict.fromkeys(vertices, total)
        else:
            nxt = {}
        for w, count in row.items():
            for x in push[w]:
                nxt[x] = nxt.get(x, 0) + count
        if pull:
            for w, back in pull.items():
                count = row.get(w)
                if count:
                    for x in back:
                        nxt[x] -= count
            if 0 in nxt.values():
                nxt = {x: c for x, c in nxt.items() if c}
        row = nxt
        if row:
            remaining -= len(row) * limits.words(max(row.values()).bit_length())
            if remaining < 0:
                raise BudgetExceededError("adjacency power", budget)
        yield row


def walk_count(g: Graph, length: int, u: int, v: int) -> int:
    """Number of walks of the given length from u to v, the (u, v) entry of
    the adjacency-matrix power, read from the last of walk_rows, or 0 at
    the first empty row, since every later row is empty too. Length 0 uses
    the identity convention: one empty walk at each vertex.
    """
    g.require_query(length, u, v, 0)
    for row in walk_rows(g, u, length):
        if not row:
            return 0
    return row.get(v, 0)


def trails_ruled_out(g: Graph, length: int, u: int, v: int) -> bool:
    """Whether the edge count and degree parity alone leave no trail of this
    length from u to v. A trail repeats no edge, so it is at most |E| long;
    one of exactly |E| edges is Eulerian, so its ends, and no other vertex,
    have odd degree (none when it is closed). Every engine answers 0 here
    without counting."""
    m = len(g.edges)
    if length != m:
        return length > m
    return g.odd_vertices != ({u, v} if u != v else set())


def occupation_string(g: Graph) -> str:
    """The graph's edge-occupation string over all pair slots, e.g. "110011"
    for the 4-cycle on edges {1,2},{1,3},{2,4},{3,4}."""
    slots = pair_slots(g.n)
    return "".join("1" if pair in g.edges else "0" for pair in slots)


def graph_signature(g: Graph) -> str:
    """Deterministic short identifier: n plus the hex of the edge-slot mask."""
    mask = 0
    for u, v in g.edges:
        mask |= 1 << slot_of_pair(g.n, u, v)
    return f"n{g.n}-{mask:x}"
