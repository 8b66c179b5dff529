import decimal
import tracemalloc

import pytest

from trailcounts import corpus, families, fock, graphs, reports
from trailcounts.errors import BudgetExceededError
from trailcounts.graphs import Graph, slot_of_pair
from trailcounts.nilpotent import (
    PathVariant,
    PolyMatrix,
    Polynomial,
    cycle_count_symbolic,
    euler_trail_count_symbolic,
    formal_adjacency_edges,
    guarded_sum_from_literal,
    matrix_power_nilpotent,
    path_count_symbolic,
    trail_count_symbolic,
    vertex_observable_matrix,
)
from trailcounts.oracle import WalkClass, count_closed_euler_trails, count_walks


class TestPolynomial:
    def test_generator_squares_to_zero(self):
        x = Polynomial.generator(3)
        assert (x * x).is_zero()

    def test_unit_is_idempotent(self):
        one = Polynomial.one()
        assert one * one == one

    def test_commutative_product(self):
        x, y, z = (Polynomial.generator(i) for i in (0, 4, 7))
        assert x * y * z == z * (y * x)

    def test_shared_generator_kills_product(self):
        p = Polynomial.generator(0) * Polynomial.generator(1)
        q = Polynomial.generator(1) * Polynomial.generator(2)
        assert (p * q).is_zero()

    def test_addition_merges_and_drops_zeros(self):
        x = Polynomial.generator(2)
        s = x + x
        assert s.coefficient([2]) == 2
        assert Polynomial({0b100: 1, 0b1: 0}).term_count() == 1

    def test_scalar_multiplication(self):
        x = Polynomial.generator(0)
        assert (3 * x).coefficient([0]) == 3

    def test_terms_canonical_order(self):
        p = Polynomial.generator(5) + Polynomial.generator(1) + Polynomial.one()
        assert [gens for gens, _ in p.terms()] == [(), (1,), (5,)]

    def test_coefficient_sum(self):
        p = 2 * Polynomial.generator(0) + 3 * Polynomial.generator(1)
        assert p.coefficient_sum() == 5

    def test_json_serialization(self):
        p = 2 * (Polynomial.generator(0) * Polynomial.generator(3))
        assert p.to_json_obj() == [{"generators": [0, 3], "coeff": "2"}]

    def test_coefficient_past_the_digit_limit_prints_in_full(self):
        big = 7**6000  # 5,071 digits
        digits = str(decimal.Decimal(big))
        p = big * Polynomial.generator(2)
        assert p.to_json_obj() == [{"generators": [2], "coeff": digits}]
        assert repr(p) == f"Polynomial({digits}*x2)"

    def test_coefficients_and_degrees_read_the_masks(self):
        p = 2 * Polynomial.generator(0) * Polynomial.generator(3) + 5 * Polynomial.generator(1)
        assert sorted(p.coefficients()) == sorted(k for _, k in p.terms()) == [2, 5]
        assert p.degrees() == {len(gens) for gens, _ in p.terms()} == {1, 2}

    def test_guarded_sum_skips_terms_with_the_start_generator(self):
        g0, g1, g2 = (Polynomial.generator(i) for i in range(3))
        p = 3 * g0 + 2 * g1 + 5 * g0 * g2 + Polynomial.one() * 7
        assert guarded_sum_from_literal(p, 1) == 2 + 7  # vertex 1 is generator 0
        assert guarded_sum_from_literal(p, 2) == 3 + 5 + 7
        assert guarded_sum_from_literal(p, 4) == p.coefficient_sum()
        assert p == 3 * g0 + 2 * g1 + 5 * g0 * g2 + Polynomial.one() * 7


class TestFormalAdjacency:
    def test_c4_entries_share_generator_per_pair(self, c4):
        m = formal_adjacency_edges(c4)
        e12 = Polynomial.generator(c4.sorted_edges().index((1, 2)))
        assert m.entry(1, 2) == e12
        assert m.entry(2, 1) == e12
        assert m.entry(1, 4).is_zero()
        assert m.entry(2, 2).is_zero()

    @pytest.mark.parametrize("u, v, bad", [(0, 2, 0), (2, 0, 0), (4, 1, 4), (1, 4, 4), (-1, 1, -1)])
    def test_entry_refuses_ends_outside_the_vertices(self, p3, u, v, bad):
        # entry (0, 2) would read row 3 through a negative index
        m = formal_adjacency_edges(p3)
        with pytest.raises(ValueError, match=f"^vertex {bad} out of range 1..3$"):
            m.entry(u, v)

    def test_edgeless_all_zero(self):
        m = formal_adjacency_edges(Graph(3, frozenset()))
        assert all(m.entry(u, v).is_zero() for u in (1, 2, 3) for v in (1, 2, 3))

    def test_k2_single_generator(self, k2):
        m = formal_adjacency_edges(k2)
        assert m.entry(1, 2) == Polynomial.generator(0)

    def test_c4_cube_collapses_to_single_trail_monomial(self, c4):
        # of the four length-3 walk terms only the trail survives x*x = 0
        cube = matrix_power_nilpotent(formal_adjacency_edges(c4), 3)
        entry = cube.entry(1, 2)
        edges = c4.sorted_edges()
        gens = (edges.index((1, 3)), edges.index((3, 4)), edges.index((2, 4)))
        assert list(entry.terms()) == [(tuple(sorted(gens)), 1)]

    def test_generator_masks_fit_in_edge_count(self, petersen):
        # one generator per present edge, not per vertex pair
        for g in (families.cycle_graph(600), petersen, families.complete_graph(7)):
            rows = formal_adjacency_edges(g).rows
            masks = [m for row in rows for p in row.values() for m in p._terms]
            assert len(masks) == 2 * g.edge_count
            assert all(m.bit_length() <= g.edge_count for m in masks)

    def test_term_order_matches_pair_slot_order(self, c4, bowtie):
        # sorted_edges() and pair slots are both lexicographic, so indexing
        # by edge relabels the bits monotonically and terms() keeps its order
        for g in (c4, bowtie):
            edges = g.sorted_edges()
            m = formal_adjacency_edges(g)
            for l in range(1, g.edge_count + 1):
                for row in matrix_power_nilpotent(m, l).rows:
                    for p in row.values():
                        terms = list(p.terms())
                        by_slot = sorted(
                            terms,
                            key=lambda t: sum(1 << slot_of_pair(g.n, *edges[i]) for i in t[0]),
                        )
                        assert terms == by_slot

    def test_power_one_is_identity_operation(self, c4):
        m = formal_adjacency_edges(c4)
        assert matrix_power_nilpotent(m, 1) == m

    def test_k2_square_diagonal_vanishes(self, k2):
        sq = matrix_power_nilpotent(formal_adjacency_edges(k2), 2)
        assert sq.entry(1, 1).is_zero()


class TestTrailCounts:
    def test_c4_known(self, c4):
        assert trail_count_symbolic(c4, 3, 1, 2) == 1

    def test_nonadjacent_pair(self, c4):
        assert trail_count_symbolic(c4, 1, 1, 4) == 0

    def test_matches_oracle(self, k4, bowtie):
        for g in (k4, bowtie):
            for l in range(1, 6):
                for u in (1, 2):
                    for v in (1, g.n):
                        assert trail_count_symbolic(g, l, u, v) == count_walks(
                            g, l, u, v, WalkClass.TRAIL
                        )

    def test_row_route_matches_matrix_route(self, bowtie):
        m = formal_adjacency_edges(bowtie)
        for l in (2, 4):
            full = matrix_power_nilpotent(m, l)
            for u in (1, 3):
                for v in (2, 5):
                    assert trail_count_symbolic(bowtie, l, u, v) == full.entry(
                        u, v
                    ).coefficient_sum()

    def test_length_validation(self, c4):
        with pytest.raises(ValueError, match="^length must be >= 0, got -1$"):
            trail_count_symbolic(c4, -1, 1, 2)

    def test_budget(self, set_term_budget):
        k6 = families.complete_graph(6)
        set_term_budget(5)
        with pytest.raises(BudgetExceededError):
            trail_count_symbolic(k6, 6, 1, 2)


class TestEulerSymbolic:
    def test_c4_closed(self, c4):
        assert euler_trail_count_symbolic(c4, 1, 1) == 2

    def test_k2_open(self, k2):
        assert euler_trail_count_symbolic(k2, 1, 2) == 1

    def test_star_center_closed(self, star3):
        assert euler_trail_count_symbolic(star3, 1, 1) == 0

    def test_edgeless(self):
        g = Graph(1, frozenset())
        assert euler_trail_count_symbolic(g, 1, 1) == 1

    def test_matches_oracle(self, bowtie):
        for u in range(1, 6):
            assert euler_trail_count_symbolic(bowtie, u, u) == count_closed_euler_trails(
                bowtie, u
            )


class TestVertexObservable:
    def test_c4_destination_generators(self, c4):
        m = vertex_observable_matrix(c4)
        assert m.entry(1, 2) == Polynomial.generator(1)  # destination vertex 2
        assert m.entry(2, 1) == Polynomial.generator(0)  # destination vertex 1
        assert m.entry(1, 4).is_zero()

    def test_k2_structure(self, k2):
        m = vertex_observable_matrix(k2)
        assert m.entry(1, 2) == Polynomial.generator(1)
        assert m.entry(2, 1) == Polynomial.generator(0)
        assert m.entry(1, 1).is_zero()


class TestPathCounts:
    def test_c4_guarded_equals_path_count(self, c4):
        assert path_count_symbolic(c4, 3, 1, 2, PathVariant.START_GUARDED) == 1

    def test_c4_literal_overcounts(self, c4):
        assert path_count_symbolic(c4, 3, 1, 2, PathVariant.LITERAL) == 2

    def test_k2_both_variants(self, k2):
        for variant in PathVariant:
            assert path_count_symbolic(k2, 1, 1, 2, variant) == 1

    def test_literal_matches_distinct_non_initial(self, k4, bowtie):
        for g in (k4, bowtie):
            for l in range(1, 5):
                for u in (1, 2):
                    for v in (1, g.n):
                        assert path_count_symbolic(g, l, u, v) == count_walks(
                            g, l, u, v, WalkClass.DISTINCT_NON_INITIAL
                        )

    def test_guarded_matches_paths(self, k4, bowtie):
        for g in (k4, bowtie):
            for l in range(1, 5):
                for u, v in ((1, 2), (2, g.n)):
                    assert path_count_symbolic(
                        g, l, u, v, PathVariant.START_GUARDED
                    ) == count_walks(g, l, u, v, WalkClass.PATH)

    def test_guarded_closed_rejected(self, c4):
        with pytest.raises(ValueError):
            path_count_symbolic(c4, 3, 1, 1, PathVariant.START_GUARDED)

    def test_guarded_equals_literal_filter(self, bowtie):
        m = vertex_observable_matrix(bowtie)
        for l in (2, 3, 4):
            entry = matrix_power_nilpotent(m, l).entry(1, 2)
            assert path_count_symbolic(
                bowtie, l, 1, 2, PathVariant.START_GUARDED
            ) == guarded_sum_from_literal(entry, 1)


class TestCycleCounts:
    def test_c4_square(self, c4):
        assert cycle_count_symbolic(c4, 4, 1) == 2

    def test_k4_triangles(self, k4):
        assert cycle_count_symbolic(k4, 3, 1) == 6

    def test_c4_has_no_triangle(self, c4):
        assert cycle_count_symbolic(c4, 3, 1) == 0

    def test_short_lengths_rejected(self, c4):
        with pytest.raises(ValueError):
            cycle_count_symbolic(c4, 2, 1)

    def test_matches_oracle_directed(self, bowtie):
        for l in (3, 4, 5):
            for u in (1, 2):
                assert cycle_count_symbolic(bowtie, l, u) == count_walks(
                    bowtie, l, u, u, WalkClass.DISTINCT_NON_INITIAL
                )


class TestBudgets:
    @pytest.mark.parametrize(
        "evaluate",
        [
            lambda g: trail_count_symbolic(g, 4, 1, 2),
            lambda g: path_count_symbolic(g, 4, 1, 2),
            lambda g: path_count_symbolic(g, 4, 1, 2, PathVariant.START_GUARDED),
            lambda g: cycle_count_symbolic(g, 4, 1),
            # every vertex of K4 has odd degree, so parity alone answers its
            # Euler queries; K4 less {3, 4} has open Euler trails from 1 to 2
            lambda g: euler_trail_count_symbolic(Graph(g.n, g.edges - {(3, 4)}), 1, 2),
        ],
        ids=["trails", "paths-literal", "paths-guarded", "cycles", "euler"],
    )
    def test_every_symbolic_entry_point_raises(self, k4, set_term_budget, evaluate):
        set_term_budget(2)
        with pytest.raises(BudgetExceededError, match="polynomial row product"):
            evaluate(k4)
        set_term_budget(10_000)
        evaluate(k4)

    @pytest.mark.parametrize(
        "g, length, smallest, value",
        [
            (families.complete_graph(6), 5, 30, 24),
            (families.petersen_graph(), 7, 48, 8),
            (families.complete_graph(7), 6, 60, 120),
        ],
        ids=["K6", "petersen", "K7"],
    )
    def test_guarded_path_budget_boundary(self, set_term_budget, g, length, smallest, value):
        # the smallest budgets the guarded observable matrix needed: the
        # start-generator seed charges the same terms (on Petersen, level 6's
        # 48 monomials; the aimed last level holds entry 2's 8)
        set_term_budget(smallest)
        assert path_count_symbolic(g, length, 1, 2, PathVariant.START_GUARDED) == value
        set_term_budget(smallest - 1)
        with pytest.raises(BudgetExceededError, match="polynomial row product"):
            path_count_symbolic(g, length, 1, 2, PathVariant.START_GUARDED)

    @pytest.mark.parametrize(
        "count, smallest, value",
        [
            (lambda: cycle_count_symbolic(families.cycle_graph(600), 600, 1), 40, 2),
            (lambda: euler_trail_count_symbolic(families.cycle_graph(600), 1, 1), 20, 2),
            (lambda: path_count_symbolic(families.path_graph(600), 599, 1, 600, PathVariant.START_GUARDED), 10, 1),
            (lambda: trail_count_symbolic(families.complete_graph(7), 8, 1, 2), 12270, 29040),
        ],
        ids=["C600-cycles", "C600-euler", "P600-guarded-paths", "K7-trails"],
    )
    def test_generator_row_step_boundary(self, set_term_budget, count, smallest, value):
        # the smallest passing budgets of the long row powers and of a
        # term-heavy one; a 600-bit mask is charged its 10 words, a 21-bit
        # one a single word
        set_term_budget(smallest)
        assert count() == value
        set_term_budget(smallest - 1)
        with pytest.raises(BudgetExceededError, match="polynomial row product"):
            count()

    def test_row_power_boundary(self, set_term_budget):
        # the largest level of K6 trails at l=6 is level 5, with exactly 510
        # monomials; the aimed last level holds entry 2's 160
        k6 = families.complete_graph(6)
        set_term_budget(510)
        assert trail_count_symbolic(k6, 6, 1, 2) == count_walks(k6, 6, 1, 2, WalkClass.TRAIL)
        set_term_budget(509)
        with pytest.raises(BudgetExceededError, match="polynomial row product"):
            trail_count_symbolic(k6, 6, 1, 2)

    def test_first_row_step_is_charged(self, set_term_budget):
        # the power starts from the identity row, so its first level is a
        # row product too: K7 trails at l=2 build vertex 1's 6 edge monomials,
        # then the aimed last level's 5
        k7 = families.complete_graph(7)
        set_term_budget(6)
        assert trail_count_symbolic(k7, 2, 1, 2) == 5
        set_term_budget(5)
        with pytest.raises(BudgetExceededError, match="polynomial row product"):
            trail_count_symbolic(k7, 2, 1, 2)

    def test_matrix_power_raises(self, k4, set_term_budget):
        set_term_budget(2)
        with pytest.raises(BudgetExceededError, match="polynomial matrix product"):
            matrix_power_nilpotent(formal_adjacency_edges(k4), 2)

    def test_matrix_views_are_checked_before_they_are_built(self, set_term_budget):
        # K300's 44,850 edge monomials hold 15,693,300 words past their
        # first, over the default budget, so the view is refused before any
        # monomial is built; K200's 19,900 hold 3,084,190, and a vertex
        # monomial at most 300 bits
        k200, k300 = families.complete_graph(200), families.complete_graph(300)
        k300.incidence  # the graph's own table, built before the trace
        tracemalloc.start()
        try:
            with pytest.raises(BudgetExceededError, match="polynomial matrix exceeded"):
                formal_adjacency_edges(k300)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1 << 20, peak
        assert vertex_observable_matrix(k300).total_terms() == 300 * 299
        set_term_budget(3_084_190)
        assert formal_adjacency_edges(k200).total_terms() == 200 * 199
        assert vertex_observable_matrix(k200).total_terms() == 200 * 199
        set_term_budget(3_084_189)
        with pytest.raises(BudgetExceededError, match="polynomial matrix exceeded"):
            formal_adjacency_edges(k200)

    def test_matrix_product_charges_each_monomial_its_words(self, set_term_budget):
        # the widest operand mask is 101 bits, 2 words: the product's two
        # monomials charge 4
        x0, x100 = Polynomial.generator(0), Polynomial.generator(100)
        m = PolyMatrix([{1: x100}, {0: x0}])
        set_term_budget(4)
        assert m.mul(m) == PolyMatrix([{0: x0 * x100}, {1: x0 * x100}])
        set_term_budget(3)
        with pytest.raises(BudgetExceededError, match="polynomial matrix product"):
            m.mul(m)

    def test_matrix_power_budget_is_cumulative_over_the_product(self, set_term_budget):
        m = formal_adjacency_edges(families.complete_graph(6))
        set_term_budget(1260)
        assert matrix_power_nilpotent(m, 4).total_terms() == 1260
        set_term_budget(1259)
        with pytest.raises(BudgetExceededError, match="polynomial matrix product"):
            matrix_power_nilpotent(m, 4)


class TestSparseStorage:
    def test_row_power_builds_no_table_of_generator_bits(self):
        # K120 has 7140 edges: their 1 << position bits, one at each end of
        # each edge, would take about 6 MB; each row step makes its own bits
        g = families.complete_graph(120)
        g.incidence, g.odd_vertices  # the graph's own tables, built before the trace
        tracemalloc.start()
        try:
            assert trail_count_symbolic(g, 1, 1, 2) == 1
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 << 20, peak

    def test_builders_store_one_entry_per_neighbor(self):
        g = families.cycle_graph(600)
        for m in (formal_adjacency_edges(g), vertex_observable_matrix(g)):
            assert [len(row) for row in m.rows] == [2] * 600
            assert m.entry(1, 300).is_zero()

    def test_c600_queries_build_no_pair_table(self, monkeypatch):
        # slots come from the closed form; C(600,2) = 179,700 pair tuples
        # would be built by any call to these
        def no_table(n):
            raise AssertionError(f"pair table for n={n} built")

        for module in (graphs, fock, corpus):
            if hasattr(module, "pair_slots"):
                monkeypatch.setattr(module, "pair_slots", no_table)
        g = families.cycle_graph(600)
        assert trail_count_symbolic(g, 600, 1, 1) == 2
        assert euler_trail_count_symbolic(g, 1, 1) == 2
        report = reports.run_count_query(g, "c600", "euler", 600, 1, 1, ("oracle", "symbolic"))
        assert {name: e.value for name, e in report.engines.items()} == {"oracle": 2, "symbolic": 2}

    def test_c5000_trails_stay_small(self):
        # trail monomials are |E| bits wide; with pair-slot bits C5000
        # carried 12.5M-bit masks and ran out of memory
        g = families.cycle_graph(5000)
        assert trail_count_symbolic(g, 5000, 1, 1) == 2
        assert euler_trail_count_symbolic(g, 1, 1) == 2

    def test_products_store_no_zero_entries(self, c4, bowtie):
        for g in (c4, bowtie):
            for m in (formal_adjacency_edges(g), vertex_observable_matrix(g)):
                for l in (2, 3, 4, 5):
                    power = matrix_power_nilpotent(m, l)
                    assert all(p for row in power.rows for p in row.values())

    def test_constructor_drops_zero_entries(self):
        x = Polynomial.generator(0)
        m = PolyMatrix([{1: x, 0: Polynomial.zero()}, {}])
        assert m.rows == [{1: x}, {}]
        assert m == PolyMatrix([{1: x}, {}])

    def test_constructor_rejects_columns_outside_the_matrix(self):
        with pytest.raises(ValueError):
            PolyMatrix([{2: Polynomial.one()}, {}])


class TestEmptyLevels:
    def test_counts_vanish_past_the_last_nonempty_level(self, k4):
        # trail levels empty after |E| steps, vertex levels after n steps;
        # the row power stops there instead of stepping to the full length
        l = 10**6
        assert trail_count_symbolic(k4, l, 1, 2) == count_walks(k4, l, 1, 2, WalkClass.TRAIL) == 0
        assert path_count_symbolic(k4, l, 1, 2) == count_walks(
            k4, l, 1, 2, WalkClass.DISTINCT_NON_INITIAL
        ) == 0
        assert path_count_symbolic(k4, l, 1, 2, PathVariant.START_GUARDED) == count_walks(
            k4, l, 1, 2, WalkClass.PATH
        ) == 0
        assert cycle_count_symbolic(k4, l, 1) == count_walks(
            k4, l, 1, 1, WalkClass.DISTINCT_NON_INITIAL
        ) == 0


class TestStructuralProperties:
    def test_degree_equals_length(self, k4):
        m = formal_adjacency_edges(k4)
        for l in (1, 2, 3, 4):
            power = matrix_power_nilpotent(m, l)
            for u in range(1, 5):
                for v in range(1, 5):
                    assert all(len(gens) == l for gens, _ in power.entry(u, v).terms())

    def test_coefficients_positive(self, k4):
        power = matrix_power_nilpotent(formal_adjacency_edges(k4), 3)
        for u in range(1, 5):
            for v in range(1, 5):
                assert all(c >= 1 for _, c in power.entry(u, v).terms())

    def test_trail_bounded_by_walk_count(self, k4):
        from trailcounts.graphs import walk_count

        for l in range(1, 6):
            assert trail_count_symbolic(k4, l, 1, 2) <= walk_count(k4, l, 1, 2)
