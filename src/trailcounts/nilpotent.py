"""Polynomial matrices over commuting nilpotent generators (x*x = 0).

The quotient ring is the zeon algebra behind Schott & Staples' nilpotent
adjacency matrices, and it models normally ordered products of qubit number
operators: a product touching the same slot twice is identically zero, so a
monomial is just a set of generator indices, stored as a bitmask, and
multiplication drops any term whose factors share a generator. Matrix powers
of the formal adjacency matrix therefore keep exactly one monomial per trail;
summing coefficients of an entry counts trails.

Two generator universes are used: edge generators indexed by the edge's
position in g.sorted_edges() (trail counting, the same bit the oracle's trail
search and the Fock edge register use) and vertex generators indexed by
vertex-1 (path counting with the destination-vertex observable; the
start-guarded count seeds the start's generator into the identity row the
power starts from). Edge monomial masks are therefore |E| bits wide, not
C(n,2).

Every count is one entry (u, v) of a power, taken as row steps: the power
starts from row u of the identity and steps it through Graph.incidence,
each vertex's (neighbour, edge position) pairs in ascending neighbour order.
Every entry of the base matrix is one generator, so a row step
(`_row_times`) makes its bit from the pair, ORs it into each term of a row
entry that lacks it and drops the others; no table of bits is built.
`_row_levels` yields the levels of row u. A count aims the last step at v,
as the oracle's search is: each live entry keeps only the steps of its own
incidence row that lead into v, so the last level holds entry v only; the
verify sweep's symbolic tables are the unaimed levels from every start.
The term budget counts the live monomials of the level being built, and
is checked inside the row step, while the level is being built. Each live
monomial is charged the 64-bit words of the widest mask it can hold, as the
Fock engine charges a basis index: limits.words(|E|) for edge generators,
limits.words(g.top_vertex) for vertex generators.

A PolyMatrix stores only its nonzero entries, row by row. The public
builders read the same incidence (`_matrix`), each entry a one-term
polynomial shared by every entry with the same generator, built past the
public constructors' zero filter and column range check (`_trusted`): a
generator's coefficient is 1, and every column comes from an edge of the
graph; a view whose monomials' words past one each exceed the term budget
is refused before it is built. PolyMatrix.mul is the general product, on
the one monomial-product helper `_mul_into`: an independent product that
the sweep checks the row levels against, charging each monomial the words
of the widest mask in either operand. `_mul_into` loops over the right
factor's terms first.

Coefficients are plain Python integers; they never go negative here, but zero
coefficients are always dropped so equality is structural.
"""

from __future__ import annotations

import enum
import types
from typing import Iterator, ValuesView

from . import limits
from .errors import BudgetExceededError
from .graphs import Graph, decimal_str, trails_ruled_out


class Polynomial:
    """Sparse polynomial: bitmask of generator indices -> coefficient."""

    __slots__ = ("_terms",)

    def __init__(self, terms: dict[int, int] | None = None):
        self._terms = {m: c for m, c in (terms or {}).items() if c != 0}

    @classmethod
    def zero(cls) -> "Polynomial":
        return cls()

    @classmethod
    def one(cls) -> "Polynomial":
        return cls({0: 1})

    @classmethod
    def generator(cls, index: int) -> "Polynomial":
        if index < 0:
            raise ValueError(f"generator index must be >= 0, got {index}")
        return cls({1 << index: 1})

    def is_zero(self) -> bool:
        return not self._terms

    def __bool__(self) -> bool:
        return bool(self._terms)

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self._terms == other._terms

    def __hash__(self) -> int:
        return hash(frozenset(self._terms.items()))

    def __add__(self, other: "Polynomial") -> "Polynomial":
        if not isinstance(other, Polynomial):
            return NotImplemented
        out = dict(self._terms)
        for m, c in other._terms.items():
            out[m] = out.get(m, 0) + c
        return Polynomial(out)

    def __mul__(self, other):
        if isinstance(other, int):
            return Polynomial({m: c * other for m, c in self._terms.items()})
        if not isinstance(other, Polynomial):
            return NotImplemented
        out: dict[int, int] = {}
        _mul_into(out, self._terms, other._terms)
        return Polynomial(out)

    __rmul__ = __mul__

    def term_count(self) -> int:
        return len(self._terms)

    def coefficient_sum(self) -> int:
        return sum(self._terms.values())

    def coefficient(self, generators) -> int:
        mask = 0
        for i in generators:
            mask |= 1 << i
        return self._terms.get(mask, 0)

    def terms(self) -> Iterator[tuple[tuple[int, ...], int]]:
        """(sorted generator indices, coefficient) pairs in canonical order
        (monomial bitmask ascending)."""
        for mask in sorted(self._terms):
            yield _mask_generators(mask), self._terms[mask]

    def degrees(self) -> set[int]:
        return {m.bit_count() for m in self._terms}

    def coefficients(self) -> ValuesView[int]:
        """The nonzero coefficients, read in place (no monomial is decoded)."""
        return self._terms.values()

    def to_json_obj(self) -> list[dict]:
        return [
            {"generators": list(gens), "coeff": decimal_str(coeff)}
            for gens, coeff in self.terms()
        ]

    def __repr__(self) -> str:
        if not self._terms:
            return "Polynomial(0)"
        parts = []
        for gens, coeff in self.terms():
            mono = "*".join(f"x{i}" for i in gens) if gens else "1"
            parts.append(f"{decimal_str(coeff)}*{mono}" if coeff != 1 or not gens else mono)
        return "Polynomial(" + " + ".join(parts) + ")"


def _mul_into(acc: dict[int, int], left: dict[int, int], right: dict[int, int]) -> None:
    """acc += left * right on raw term dicts: the one monomial-product loop.
    The right factor's terms are the outer loop, so a one-term right factor
    costs one pass over the left's terms."""
    for m2, c2 in right.items():
        for m1, c1 in left.items():
            if m1 & m2:
                continue  # x*x = 0
            m = m1 | m2
            acc[m] = acc.get(m, 0) + c1 * c2


def _trusted(terms: dict[int, int]) -> Polynomial:
    """terms as a Polynomial, past Polynomial.__init__'s zero filter: the
    trusted path for term dicts that hold no zero coefficient."""
    p = object.__new__(Polynomial)
    p._terms = terms
    return p


def _mask_generators(mask: int) -> tuple[int, ...]:
    out = []
    i = 0
    while mask:
        if mask & 1:
            out.append(i)
        mask >>= 1
        i += 1
    return tuple(out)


class PolyMatrix:
    """Square matrix of Polynomial entries; 1-based entry access.

    Stored sparsely: rows[i] maps a 0-based column to the nonzero Polynomial
    at (i+1, column+1); a missing column is a zero entry."""

    __slots__ = ("rows",)

    def __init__(self, rows: list[dict[int, Polynomial]]):
        n = len(rows)
        if any(not 0 <= j < n for row in rows for j in row):
            raise ValueError("column index outside the square matrix")
        self.rows = [{j: p for j, p in row.items() if p} for row in rows]

    @property
    def n(self) -> int:
        return len(self.rows)

    def entry(self, u: int, v: int) -> Polynomial:
        """Entry (u, v); both ends must be vertices 1..n."""
        for end in (u, v):
            if not 1 <= end <= self.n:
                raise ValueError(f"vertex {end} out of range 1..{self.n}")
        return self.rows[u - 1].get(v - 1) or Polynomial.zero()

    def __eq__(self, other) -> bool:
        return isinstance(other, PolyMatrix) and self.rows == other.rows

    def total_terms(self) -> int:
        return sum(p.term_count() for row in self.rows for p in row.values())

    def mul(self, other: "PolyMatrix") -> "PolyMatrix":
        if self.n != other.n:
            raise ValueError("matrix dimensions differ")
        budget, live = limits.term_budget(), 0
        widest = max((max(p._terms) for m in (self, other) for row in m.rows for p in row.values()), default=0)
        words = limits.words(widest.bit_length())
        out: list[dict[int, Polynomial]] = []
        for row in self.rows:
            product: dict[int, dict[int, int]] = {}
            for k, left in row.items():
                for j, right in other.rows[k].items():
                    acc = product.setdefault(j, {})
                    before = len(acc)
                    _mul_into(acc, left._terms, right._terms)
                    live += (len(acc) - before) * words
                    if live > budget:
                        raise BudgetExceededError("polynomial matrix product", budget)
            out.append({j: Polynomial(acc) for j, acc in product.items()})
        return PolyMatrix(out)


class Generator(enum.Enum):
    """A power's generators: bit i for the edge at position i, or x - 1 for vertex x."""

    EDGE = "edge"
    VERTEX = "vertex"


# an edgeless vertex's row in the matrix views: one shared read-only
# mapping, as Graph.incidence shares (); PolyMatrix.__init__ and mul build
# rows of their own, so no shared row is written through
_NO_ENTRIES = types.MappingProxyType({})


def _matrix(g: Graph, kind: Generator) -> PolyMatrix:
    """The matrix of g's `kind` generators read off Graph.incidence, rows
    0-based, past PolyMatrix.__init__'s column range check and empty-entry
    filter (its columns are edges): one shared monomial per generator.
    Refused before it is built if its distinct monomials hold more 64-bit
    words past their first than the term budget, as the oracle refuses a
    step table (one word a monomial is not charged)."""
    vertex = kind is Generator.VERTEX
    # the bit-lengths of its monomials: vertex x's is x, edge position i's i + 1
    widths = [x for x, pairs in enumerate(g.incidence) if pairs] if vertex else range(1, g.edge_count + 1)
    budget = limits.term_budget()
    if sum(limits.words(w) - 1 for w in widths) > budget:
        raise BudgetExceededError("polynomial matrix", budget)
    monomials: dict[int, Polynomial] = {}
    m = object.__new__(PolyMatrix)
    m.rows = []
    for pairs in g.incidence[1:]:
        row = {}
        for x, i in pairs:
            k = x - 1 if vertex else i
            row[x - 1] = monomials.get(k) or monomials.setdefault(k, _trusted({1 << k: 1}))
        m.rows.append(row or _NO_ENTRIES)
    return m


def _row_times(row: dict[int, dict[int, int]], g: Graph, vertex: bool, words: int, budget: int, aim: int = 0) -> dict[int, dict[int, int]]:
    """The sparse row vector `row` (vertex -> term dict) times the matrix of
    g's edge generators, or vertex generators if `vertex`: one level of a row
    power. A step's entry is one generator, so its product ORs its bit into
    each term that lacks it and drops the rest (x*x = 0). The monomials built
    so far, `words` each, are checked after every entry product, so a
    blow-up stops while the level is being built. No entry is empty.

    With `aim`, a vertex, only entry aim is built: each entry k keeps only
    the steps of incidence[k] that lead into aim."""
    steps = g.incidence
    out: dict[int, dict[int, int]] = {}
    live = 0
    for k, left in row.items():
        for j, i in steps[k]:
            if aim and j != aim:
                continue
            bit = 1 << (j - 1 if vertex else i)
            acc = out.get(j) or {}
            before = len(acc)
            for m, c in left.items():
                if not m & bit:
                    m |= bit
                    acc[m] = acc.get(m, 0) + c
            if len(acc) > before:  # else the count is unchanged and was checked
                out[j] = acc
                live += (len(acc) - before) * words
                if live > budget:
                    raise BudgetExceededError("polynomial row product", budget)
    return out


def matrix_power_nilpotent(m: PolyMatrix, exponent: int) -> PolyMatrix:
    """m**exponent with the x*x = 0 reduction applied inside every product.
    Exponent must be >= 1 (the recursion is power(l) = power(l-1) * m)."""
    if exponent < 1:
        raise ValueError(f"exponent must be >= 1, got {exponent}")
    result = m
    for _ in range(exponent - 1):
        result = result.mul(m)
    return result


def formal_adjacency_edges(g: Graph) -> PolyMatrix:
    """Adjacency matrix with each 1 replaced by the generator of its edge,
    indexed by the edge's position in g.sorted_edges(); entries (u, v) and
    (v, u) share one generator, matching one qubit per edge."""
    return _matrix(g, Generator.EDGE)


class PathVariant(enum.Enum):
    """LITERAL is the destination-vertex observable exactly as defined (it
    counts walks whose non-initial vertices are pairwise distinct, which can
    exceed the path count when the start vertex is revisited). START_GUARDED
    additionally multiplies the start vertex's generator into every term,
    which is the minimal correction making the count equal the path count:
    the same literal row power, seeded with the start generator before the
    first step, so any step back into the start kills its term. The oracle
    and the Fock engine apply the same guard as the start's bit set before
    the first step. START_GUARDED is an artifact-introduced variant, not part
    of the original observable definition."""

    LITERAL = "literal"
    START_GUARDED = "guarded"


def vertex_observable_matrix(g: Graph) -> PolyMatrix:
    """Matrix with entry (a, b) the generator of the destination vertex b
    whenever {a, b} is an edge, else zero. Column b's entries share one
    generator."""
    return _matrix(g, Generator.VERTEX)


def _row_levels(kind: Generator, g: Graph, length: int, u: int, seed: int = 0, aim: int = 0) -> Iterator[dict[int, dict[int, int]]]:
    """Levels l = 1..length of row u of m**l, m the matrix of g's `kind`
    generators, each {v: the terms of entry (u, v)}, stepped from row u of
    the identity holding the monomial `seed` (the path start guard; 0 is the
    monomial 1); with `aim`, a vertex, the last level holds entry aim alone.
    Stops after the first empty level: every later level is empty too."""
    budget, row, vertex = limits.term_budget(), {u: {seed: 1}}, kind is Generator.VERTEX
    words = limits.words(g.top_vertex if vertex else g.edge_count) if length else 0  # the widest bit's
    for step in range(1, length + 1):
        row = _row_times(row, g, vertex, words, budget, aim if step == length else 0)
        yield row
        if not row:
            return


def _row_power_entry(kind: Generator, g: Graph, length: int, u: int, v: int, seed: int = 0) -> Polynomial:
    """matrix_power_nilpotent(m, length).entry(u, v) from the row levels
    aimed at v, at a fraction of the work; length 0 reads no incidence."""
    row = {u: {seed: 1}}
    for row in _row_levels(kind, g, length, u, seed, v):
        pass
    return _trusted(row.get(v, {}))


def trail_count_symbolic(g: Graph, length: int, u: int, v: int) -> int:
    """Sum of coefficients of entry (u, v) of the formal adjacency matrix to
    the given power under x*x = 0; equals the trail count. A query that
    graphs.trails_ruled_out settles is 0 without a product."""
    g.require_query(length, u, v, 0)
    if trails_ruled_out(g, length, u, v):
        return 0
    return _row_power_entry(Generator.EDGE, g, length, u, v).coefficient_sum()


def euler_trail_count_symbolic(g: Graph, u: int, v: int) -> int:
    """Trail count at length |E|: trails traversing every edge exactly once.
    For u == v this is the closed Eulerian-circuit count (each direction a
    distinct trail). The edgeless graph counts one empty circuit."""
    return trail_count_symbolic(g, g.edge_count, u, v)


def path_count_symbolic(g: Graph, length: int, u: int, v: int, variant: PathVariant = PathVariant.LITERAL) -> int:
    """Sum of coefficients of entry (u, v) of the destination-vertex
    observable power under x*x = 0.

    LITERAL counts walks whose non-initial vertices are pairwise distinct
    (DISTINCT_NON_INITIAL), which exceeds the path count whenever a walk
    revisits the start vertex. START_GUARDED seeds the row power with the
    start vertex's generator, so it is in every term, and equals the path
    count; it requires u != v (a closed walk always revisits the start)."""
    return _path_entry(g, length, u, v, variant).coefficient_sum()


def _path_entry(g: Graph, length: int, u: int, v: int, variant: PathVariant) -> Polynomial:
    """The power entry (u, v) that path_count_symbolic sums, after its checks."""
    g.require_query(length, u, v, 0)
    if variant is PathVariant.START_GUARDED and u == v:
        raise ValueError("START_GUARDED counts open paths; u must differ from v")
    guard = 1 << (u - 1) if variant is PathVariant.START_GUARDED else 0
    return _row_power_entry(Generator.VERTEX, g, length, u, v, guard)


def guarded_sum_from_literal(entry: Polynomial, start: int) -> int:
    """Path count extracted from a LITERAL power entry: multiplying by the
    start generator kills exactly the terms already containing it, so the
    guarded count is the coefficient sum over terms free of that generator,
    read in place."""
    bit = 1 << (start - 1)
    return sum(c for m, c in entry._terms.items() if not m & bit)


def cycle_count_symbolic(g: Graph, length: int, u: int) -> int:
    """Sum of coefficients of the LITERAL observable power's diagonal entry
    (u, u): the number of directed cycles of the given length through u
    (each undirected cycle traversed in two directions). At length n this is
    the directed Hamiltonian count through u."""
    g.require_query(length, u, u, 3)
    return _row_power_entry(Generator.VERTEX, g, length, u, u).coefficient_sum()
