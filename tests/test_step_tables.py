"""Graph.incidence and every engine's steps read off it equal the per-entry
constructions they replace, and the monomial product gives the same terms in
either operand order."""

import random

import pytest

from trailcounts import families, fock, nilpotent, oracle
from trailcounts.fock import Register, RegisterKind
from trailcounts.graphs import Graph
from trailcounts.nilpotent import PathVariant, PolyMatrix, Polynomial
from trailcounts.oracle import WalkClass


def _relabeled(g: Graph, seed: int) -> Graph:
    """g with its vertex labels shuffled, so edge order and label order differ."""
    labels = list(range(1, g.n + 1))
    random.Random(seed).shuffle(labels)
    return Graph.from_edges(g.n, ((labels[a - 1], labels[b - 1]) for a, b in g.edges))


GRAPHS = {
    "C7": families.cycle_graph(7),
    "C40": families.cycle_graph(40),
    "P9": families.path_graph(9),
    "P40": families.path_graph(40),
    "petersen-relabeled": _relabeled(families.petersen_graph(), 3),
    "K6-relabeled": _relabeled(families.complete_graph(6), 5),
    **{f"gnp-{seed}": families.gnp_random_graph(12, 0.35, random.Random(seed)) for seed in (1, 2, 3)},
    "isolated-vertices": Graph.from_edges(9, [(2, 7), (7, 4), (4, 9)]),
}
graphs = pytest.mark.parametrize("g", GRAPHS.values(), ids=GRAPHS.keys())


def _edge_index(g: Graph) -> dict:
    return {e: i for i, e in enumerate(g.sorted_edges())}


def _ascending(rows) -> bool:
    return all(list(row) == sorted(row) for row in rows)


@graphs
def test_incidence(g):
    index = _edge_index(g)
    incidence = g.incidence
    assert len(incidence) == g.n + 1 and incidence[0] == ()
    for a in range(1, g.n + 1):
        neighbours = [x for x, _ in incidence[a]]
        assert neighbours == sorted(neighbours) == list(g.adjacency[a])
        assert all(index[min(a, x), max(a, x)] == i for x, i in incidence[a])
    # each edge position sits once at each of its two ends
    ends = sorted((i, a) for a in range(1, g.n + 1) for _, i in incidence[a])
    assert ends == sorted((i, a) for i, e in enumerate(g.sorted_edges()) for a in e)


class TestNilpotentBuilders:
    @graphs
    def test_formal_adjacency_edges(self, g):
        index = _edge_index(g)
        public = PolyMatrix([
            {b - 1: Polynomial.generator(index[min(a, b), max(a, b)]) for b in g.neighbors(a)}
            for a in range(1, g.n + 1)
        ])
        built = nilpotent.formal_adjacency_edges(g)
        assert built == public
        assert _ascending(built.rows)
        assert built.total_terms() == 2 * g.edge_count

    @graphs
    @pytest.mark.parametrize("variant", list(PathVariant), ids=lambda v: v.value)
    def test_vertex_observable_matrix(self, g, variant):
        rows = [{b - 1: Polynomial.generator(b - 1) for b in g.neighbors(a)} for a in range(1, g.n + 1)]
        if variant is PathVariant.LITERAL:
            built = nilpotent.vertex_observable_matrix(g)
            assert built == PolyMatrix(rows)
            assert _ascending(built.rows)
            assert all(p.term_count() == 1 for row in built.rows for p in row.values())
            return
        # the guarded count seeds the literal row power with the start
        # generator; the reference multiplies it into the start's row
        for start in (1, g.n // 2 + 1, g.n):
            guard = Polynomial.generator(start - 1)
            guarded = list(rows)
            guarded[start - 1] = {b: p * guard for b, p in rows[start - 1].items()}
            for length in (1, 2, 3, 5):
                power = nilpotent.matrix_power_nilpotent(PolyMatrix(guarded), length)
                for v in {1, 2, g.n // 2, g.n} - {start}:
                    assert nilpotent._path_entry(g, length, start, v, variant) == power.entry(start, v)


@graphs
def test_nilpotent_step_tables(g):
    # no table is kept: one row step from each vertex's identity row makes
    # the (neighbour, generator bit) pairs a table held, from Graph.incidence
    index = _edge_index(g)
    for a in range(1, g.n + 1):
        for vertex in (False, True):
            stepped = nilpotent._row_times({a: {0: 1}}, g, vertex, 1, 10**9)
            assert list(stepped) == list(g.neighbors(a))
            for w, terms in stepped.items():
                assert terms == {1 << (w - 1 if vertex else index[min(a, w), max(a, w)]): 1}


def _reference_product(left: dict, right: dict) -> dict:
    out: dict = {}
    for m1, c1 in left.items():
        for m2, c2 in right.items():
            if not m1 & m2:
                out[m1 | m2] = out.get(m1 | m2, 0) + c1 * c2
    return out


@pytest.mark.parametrize("seed", range(8))
def test_mul_into_matches_the_double_loop_in_both_orders(seed):
    rng = random.Random(seed)

    def terms(count: int) -> dict:
        return {rng.getrandbits(10): rng.randint(1, 9) for _ in range(count)}

    for left, right in ((terms(12), terms(7)), (terms(9), terms(1)), (terms(1), terms(15)), (terms(0), terms(3))):
        expected = _reference_product(left, right)
        for a, b in ((left, right), (right, left)):
            acc: dict = {}
            nilpotent._mul_into(acc, a, b)
            assert acc == expected
        seeded = {mask: 1 for mask in expected}  # an accumulator that already holds terms adds to them
        nilpotent._mul_into(seeded, right, left)
        assert seeded == {mask: c + 1 for mask, c in expected.items()}


@graphs
@pytest.mark.parametrize("rule", [WalkClass.WALK, WalkClass.TRAIL, WalkClass.DISTINCT_NON_INITIAL], ids=lambda r: r.value)
def test_oracle_step_table(g, rule):
    index = _edge_index(g)

    def bit(a: int, w: int) -> int:
        if rule is WalkClass.TRAIL:
            return 1 << index[min(a, w), max(a, w)]
        return 1 << (w - 1) if rule is WalkClass.DISTINCT_NON_INITIAL else 0

    steps = oracle._step_table(g, rule)
    assert len(steps) == g.n + 1 and not steps[0]
    for a in range(1, g.n + 1):
        assert list(steps[a]) == [(w, bit(a, w)) for w in g.neighbors(a)]


@graphs
@pytest.mark.parametrize("space", list(RegisterKind), ids=lambda s: s.value)
@pytest.mark.parametrize("clears", [True, False], ids=["clears", "keeps"])
def test_fock_step_table(g, space, clears):
    register = Register.present_edges(g) if space is RegisterKind.EDGE_SPACE else Register.vertices(g.n)
    steps = fock._step_table(g, register, clears)
    assert len(steps) == g.n + 1 and not steps[0]
    for a in range(1, g.n + 1):
        expected = []
        for w in g.neighbors(a):
            bit = 1 << register.bit(fock._step_slot(register, a, w))
            expected.append((w, bit, bit if clears else 0))
        assert list(steps[a]) == expected
