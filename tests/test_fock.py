import decimal
import tracemalloc
from collections import Counter

import pytest

from trailcounts import families, fock, verify
from trailcounts.errors import BudgetExceededError, CapacityError
from trailcounts.fock import (
    LadderKind,
    LadderOp,
    MatrixKind,
    Register,
    StateVector,
    annihilation_form_table,
    apply_ladder,
    basis_label,
    d_matrix_quadratic_form,
    expand_walk_terms,
    f_matrix_amplitude,
    graph_state,
    is_hamiltonian,
    normal_ordered_expectation,
    normal_ordered_expectation_table,
    normal_ordered_term_expectation,
    walk_count_expectation,
)
from trailcounts.graphs import Graph, walk_count
from trailcounts.oracle import (
    WalkClass,
    count_dni_and_paths,
    count_hamiltonian_cycles_through,
    count_walks,
    trail_edge_set_histogram,
)


class TestRegister:
    def test_pair_register_width(self):
        assert Register.all_pairs(4).width == 6
        assert Register.all_pairs(7).width == 21

    def test_capacity_cap(self):
        with pytest.raises(CapacityError, match="28"):
            Register.all_pairs(8)

    def test_cap_env_override(self, monkeypatch):
        # the cap is the module constant: the environment no longer raises it
        monkeypatch.setenv("TRAILCOUNTS_REGISTER_CAP", "30")
        with pytest.raises(CapacityError, match="^register needs 28 qubit slots but the cap is 24$"):
            Register.all_pairs(8)

    def test_refused_pair_register_builds_no_slots(self, monkeypatch):
        def no_slots(n):
            raise AssertionError(f"pair_slots({n}) built")

        monkeypatch.setattr(fock, "pair_slots", no_slots)
        with pytest.raises(CapacityError, match="179700"):
            graph_state(families.cycle_graph(600))

    def test_present_edges_register(self, petersen):
        assert Register.present_edges(petersen).width == 15
        with pytest.raises(CapacityError):
            Register.all_pairs(petersen.n)
        with pytest.raises(CapacityError, match="45"):
            graph_state(petersen)

    def test_evaluators_pick_the_edge_register(self, petersen):
        # the 45-slot pair register exceeds the cap; the evaluators run on
        # the 15-slot register without being asked
        for l, u, v in ((5, 1, 2), (4, 1, 1), (6, 3, 8)):
            trails = count_walks(petersen, l, u, v, WalkClass.TRAIL)
            assert normal_ordered_expectation(petersen, l, u, v, MatrixKind.N_EDGE) == trails
            hist = trail_edge_set_histogram(petersen, l, u, v)
            assert d_matrix_quadratic_form(petersen, l, u, v) == sum(c * c for c in hist.values())
            assert walk_count_expectation(petersen, l, u, v) == count_walks(petersen, l, u, v, WalkClass.WALK)

    def test_only_the_pair_register_has_a_cap(self, petersen):
        # the node budget bounds the evaluators, so the cap guards only the
        # C(n,2)-slot register that graph_state renders
        assert fock.PAIR_REGISTER_CAP == 24
        assert Register.all_pairs(7).width == 21
        k8 = families.complete_graph(8)
        for g, slots in ((k8, 28), (petersen, 45)):
            with pytest.raises(CapacityError, match=f"{slots} qubit slots but the cap is 24"):
                Register.all_pairs(g.n)
            with pytest.raises(CapacityError, match=f"{slots} qubit slots"):
                graph_state(g)
        assert normal_ordered_expectation(k8, 3, 1, 2, MatrixKind.N_EDGE) == 30
        assert normal_ordered_expectation(petersen, 5, 1, 2, MatrixKind.N_EDGE) == count_walks(
            petersen, 5, 1, 2, WalkClass.TRAIL
        )
        k9 = families.complete_graph(9)  # 36 edges
        assert Register.present_edges(k9).width == 36
        assert Register.vertices(500).width == 500
        assert normal_ordered_expectation(k9, 2, 1, 2, MatrixKind.N_EDGE) == 7
        assert d_matrix_quadratic_form(k9, 2, 1, 2) == 7
        assert walk_count_expectation(k9, 2, 1, 2) == 7
        assert annihilation_form_table(k9, 1, 2)[2, 2] == 7
        p500 = families.path_graph(500)
        guarded = normal_ordered_expectation(p500, 499, 1, 500, MatrixKind.M_VERTEX, guard_vertex=1)
        assert guarded == 1
        assert f_matrix_amplitude(families.cycle_graph(30), 30, 1) == 2

    def test_vertex_register(self):
        reg = Register.vertices(5)
        assert reg.width == 5
        assert reg.slot_index(3) == 2

    def test_unknown_slot(self):
        with pytest.raises(ValueError):
            Register.vertices(3).slot_index(9)

    def test_vertex_register_holds_no_per_slot_table(self):
        # the labels 1..n are a range, which finds a slot without a table
        tracemalloc.start()
        try:
            reg = Register.vertices(10**6)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert reg.slot_index(10**6) == 999_999
        assert peak < 2**20, peak


class TestStateVector:
    def test_graph_state_c4(self, c4):
        psi = graph_state(c4)
        assert basis_label(psi.register, psi.basis_index()) == "110011"

    def test_graph_state_edgeless(self):
        psi = graph_state(Graph(2, frozenset()))
        assert psi.basis_index() == 0

    def test_graph_state_triangle(self):
        psi = graph_state(families.complete_graph(3))
        assert basis_label(psi.register, psi.basis_index()) == "111"

    def test_inner_and_norm(self):
        reg = Register.vertices(2)
        s = StateVector(reg, {0: 1, 1: 2, 2: 0, 3: -1})
        assert s.squared_norm() == 6
        assert s.inner(StateVector.basis(reg, 1)) == 2

    def test_basis_index_rejects_superposition(self):
        reg = Register.vertices(1)
        s = StateVector(reg, {0: 1, 1: 1})
        with pytest.raises(ValueError):
            s.basis_index()

    def test_zero_amplitudes_are_dropped(self):
        reg = Register.vertices(2)
        s = StateVector(reg, {0: 0, 2: 3, 3: 0})
        assert s.amplitudes == {2: 3}
        assert s.nonzero() == [(2, 3)]
        assert s == StateVector(reg, {2: 3})
        assert StateVector(reg, {1: 0}) == StateVector.zero(reg)
        assert repr(StateVector.zero(reg)) == "0"
        assert repr(StateVector(reg, {3: -1, 1: 2})) == "2|01> + -1|11>"

    def test_index_out_of_range(self):
        reg = Register.vertices(2)
        with pytest.raises(ValueError):
            StateVector(reg, {4: 1})
        with pytest.raises(ValueError):
            StateVector.basis(reg, -1)

    def test_basis_index_rejects_non_basis_states(self):
        reg = Register.vertices(2)
        for amplitudes in ({}, {1: 2}, {1: -1}, {0: 1, 3: 1}):
            with pytest.raises(ValueError):
                StateVector(reg, amplitudes).basis_index()
        assert StateVector(reg, {2: 1, 3: 0}).basis_index() == 2

    def test_graph_state_holds_one_amplitude(self):
        # the full pair register of K7 spans 2**21 basis states
        psi = graph_state(families.complete_graph(7))
        assert psi.register.width == 21
        assert psi.amplitudes == {2**21 - 1: 1}

    def test_add_and_inner(self):
        reg = Register.vertices(2)
        s = StateVector(reg, {0: 1, 1: 2})
        t = StateVector(reg, {1: -2, 3: 5})
        assert (s + t).nonzero() == [(0, 1), (3, 5)]
        assert s.inner(t) == t.inner(s) == -4
        with pytest.raises(ValueError):
            s + StateVector.zero(Register.vertices(1))

    def test_json_shape(self, c4):
        obj = graph_state(c4).to_json_obj()
        assert obj["width"] == 6
        assert obj["kind"] == "edge-space"
        assert obj["nonzero"] == [{"index": 0b110011, "amplitude": "1"}]

    def test_amplitude_past_the_digit_limit_prints_in_full(self):
        big = 7**6000  # 5,071 digits
        digits = str(decimal.Decimal(big))
        state = StateVector(Register.vertices(2), {0b01: big})
        assert state.to_json_obj()["nonzero"] == [{"index": 1, "amplitude": digits}]
        assert repr(state) == f"{digits}|01>"


class TestLadderOps:
    def test_single_qubit_action_table(self):
        reg = Register.vertices(1)
        zero = StateVector.basis(reg, 0)
        one = StateVector.basis(reg, 1)
        a = LadderOp(LadderKind.ANNIHILATE, 0)
        c = LadderOp(LadderKind.CREATE, 0)
        n = LadderOp(LadderKind.NUMBER, 0)
        assert apply_ladder(a, zero).squared_norm() == 0
        assert apply_ladder(c, zero) == one
        assert apply_ladder(a, one) == zero
        assert apply_ladder(c, one).squared_norm() == 0
        assert apply_ladder(n, one) == one
        assert apply_ladder(n, zero).squared_norm() == 0

    def test_anticommutation_on_mixed_state(self):
        reg = Register.vertices(3)
        state = StateVector(reg, dict(enumerate([1, -2, 3, 0, 5, 1, -1, 2])))
        for slot in range(3):
            a = LadderOp(LadderKind.ANNIHILATE, slot)
            c = LadderOp(LadderKind.CREATE, slot)
            total = apply_ladder(c, apply_ladder(a, state)) + apply_ladder(a, apply_ladder(c, state))
            assert total == state

    def test_double_annihilation_vanishes(self, c4):
        psi = graph_state(c4)
        a = LadderOp(LadderKind.ANNIHILATE, 0)
        assert apply_ladder(a, apply_ladder(a, psi)).squared_norm() == 0

    def test_number_expectations_match_adjacency(self, c4):
        psi = graph_state(c4)
        n12 = LadderOp(LadderKind.NUMBER, psi.register.slot_index((1, 2)))
        n14 = LadderOp(LadderKind.NUMBER, psi.register.slot_index((1, 4)))
        assert psi.inner(apply_ladder(n12, psi)) == 1
        assert psi.inner(apply_ladder(n14, psi)) == 0

    def test_slot_out_of_range(self, c4):
        psi = graph_state(c4)
        with pytest.raises(ValueError):
            apply_ladder(LadderOp(LadderKind.NUMBER, 6), psi)


class TestWalkTermExpansion:
    def test_c4_number_terms(self, c4):
        terms = expand_walk_terms(c4, 3, 1, 2, MatrixKind.N_EDGE)
        register = Register.all_pairs(4)
        monomials = sorted(
            tuple(sorted(register.slots[s] for s in term.slots())) for _, term in terms
        )
        assert monomials == sorted(
            [
                ((1, 2), (1, 2), (1, 2)),
                ((1, 2), (2, 4), (2, 4)),
                ((1, 2), (1, 3), (1, 3)),
                ((1, 3), (2, 4), (3, 4)),
            ]
        )

    def test_k2_annihilation_term(self, k2):
        terms = expand_walk_terms(k2, 1, 1, 2, MatrixKind.D_EDGE)
        assert len(terms) == 1
        walk, term = terms[0]
        assert walk == (1, 2)
        assert term.ops == (LadderOp(LadderKind.ANNIHILATE, 0),)

    def test_c4_vertex_terms(self, c4):
        terms = expand_walk_terms(c4, 2, 1, 4, MatrixKind.M_VERTEX)
        register = Register.vertices(4)
        got = sorted((walk, term.slots()) for walk, term in terms)
        assert got == [
            ((1, 2, 4), (register.slot_index(2), register.slot_index(4))),
            ((1, 3, 4), (register.slot_index(3), register.slot_index(4))),
        ]

    def test_term_count_is_walk_count(self, k4):
        from trailcounts.graphs import walk_count

        terms = expand_walk_terms(k4, 4, 1, 2, MatrixKind.N_EDGE)
        assert len(terms) == walk_count(k4, 4, 1, 2)

    def test_plain_apply_versus_normal_ordering(self, c4):
        # plain number products leave the occupied graph state fixed, while
        # the normally ordered repeated-slot term vanishes
        psi = graph_state(c4)
        terms = expand_walk_terms(c4, 3, 1, 2, MatrixKind.N_EDGE)
        repeated = next(t for w, t in terms if w == (1, 2, 1, 2))
        assert psi.inner(repeated.apply(psi)) == 1
        assert normal_ordered_term_expectation(repeated, psi) == 0
        surviving = next(t for w, t in terms if w == (1, 3, 4, 2))
        assert normal_ordered_term_expectation(surviving, psi) == 1

    def test_beyond_the_recursion_limit(self, k2):
        # the expansion keeps an explicit stack
        terms = expand_walk_terms(k2, 3000, 1, 1, MatrixKind.N_EDGE)
        assert len(terms) == 1
        walk, term = terms[0]
        assert walk == (1, 2) * 1500 + (1,)
        assert len(term.ops) == 3000

    def test_budget_boundary(self, k4, set_node_budget):
        # every prefix shorter than the length costs one node: 1 + 3 + 9 = 13
        set_node_budget(13)
        assert len(expand_walk_terms(k4, 3, 1, 2, MatrixKind.N_EDGE)) == 7
        set_node_budget(12)
        with pytest.raises(BudgetExceededError, match="walk-term expansion"):
            expand_walk_terms(k4, 3, 1, 2, MatrixKind.N_EDGE)


class TestNormalOrderedExpectation:
    def test_c4_trails(self, c4):
        assert normal_ordered_expectation(c4, 3, 1, 2, MatrixKind.N_EDGE) == 1

    def test_c4_vertex_observable(self, c4):
        assert normal_ordered_expectation(c4, 3, 1, 2, MatrixKind.M_VERTEX) == 2

    def test_edgeless_zero(self):
        g = Graph(3, frozenset())
        assert normal_ordered_expectation(g, 2, 1, 2, MatrixKind.N_EDGE) == 0

    def test_guard_vertex_gives_paths(self, c4):
        assert (
            normal_ordered_expectation(c4, 3, 1, 2, MatrixKind.M_VERTEX, guard_vertex=1)
            == 1
        )

    def test_matches_oracle(self, k4, bowtie):
        for g in (k4, bowtie):
            for l in range(1, 5):
                for u, v in ((1, 2), (2, g.n), (1, 1)):
                    assert normal_ordered_expectation(
                        g, l, u, v, MatrixKind.N_EDGE
                    ) == count_walks(g, l, u, v, WalkClass.TRAIL)
                    assert normal_ordered_expectation(
                        g, l, u, v, MatrixKind.M_VERTEX
                    ) == count_walks(g, l, u, v, WalkClass.DISTINCT_NON_INITIAL)

    def test_table_matches_per_query(self, bowtie):
        table = normal_ordered_expectation_table(bowtie, 1, 4, MatrixKind.N_EDGE)
        for l in range(1, 5):
            for v in range(1, 6):
                assert table.get((l, v), 0) == normal_ordered_expectation(
                    bowtie, l, 1, v, MatrixKind.N_EDGE
                )

    def test_annihilation_kinds_rejected(self, c4):
        with pytest.raises(ValueError):
            normal_ordered_expectation(c4, 2, 1, 2, MatrixKind.D_EDGE)


class TestAnnihilationQuadraticForm:
    def test_c4(self, c4):
        assert d_matrix_quadratic_form(c4, 3, 1, 2) == 1

    def test_k2(self, k2):
        assert d_matrix_quadratic_form(k2, 1, 1, 2) == 1

    def test_bowtie_squares_the_shared_set(self, bowtie):
        hist = trail_edge_set_histogram(bowtie, 6, 1, 1)
        expected = sum(c * c for c in hist.values())
        assert expected == 64
        assert d_matrix_quadratic_form(bowtie, 6, 1, 1) == expected
        assert count_walks(bowtie, 6, 1, 1, WalkClass.TRAIL) == 8

    def test_matches_squared_histogram(self, k4):
        for l in range(1, 6):
            for u, v in ((1, 2), (1, 1)):
                hist = trail_edge_set_histogram(k4, l, u, v) if l else {}
                assert d_matrix_quadratic_form(k4, l, u, v) == sum(
                    c * c for c in hist.values()
                )

    def test_table_matches_per_query(self, bowtie):
        table = annihilation_form_table(bowtie, 1, 5)
        for l in range(1, 6):
            for v in range(1, 6):
                assert table.get((l, v), 0) == d_matrix_quadratic_form(bowtie, l, 1, v)



class TestNoteNumbers:
    # the second number of each count note comes from the evolution that
    # gives the count itself
    def test_vertex_evolution_gives_the_path_count(self, c4, bowtie, petersen):
        for g in (families.complete_graph(5), bowtie, petersen, c4):
            for l in range(1, 7):
                for u in range(1, g.n + 1):
                    for v in range(1, g.n + 1):
                        if u != v:
                            pair = fock._normal_ordered_pair(g, l, u, v, MatrixKind.M_VERTEX)
                            assert pair == count_dni_and_paths(g, l, u, v), (g, l, u, v)

    def test_edge_evolution_gives_the_quadratic_form(self, k4, bowtie):
        for g in (k4, bowtie):
            for l in range(1, g.edge_count + 2):
                for v in range(1, g.n + 1):
                    hist = trail_edge_set_histogram(g, l, 1, v)
                    expected = (sum(hist.values()), sum(c * c for c in hist.values()))
                    assert fock._normal_ordered_pair(g, l, 1, v, MatrixKind.N_EDGE) == expected


class TestTransitionAmplitude:
    def test_c4_hamiltonian_count(self, c4):
        assert f_matrix_amplitude(c4, 4, 1) == 2

    def test_c4_below_n_vanishes(self, c4):
        assert f_matrix_amplitude(c4, 3, 1) == 0

    def test_k4(self, k4):
        assert f_matrix_amplitude(k4, 4, 1) == 6

    def test_petersen(self, petersen):
        assert f_matrix_amplitude(petersen, 10, 1) == 0

    def test_matches_oracle_per_vertex(self, bowtie):
        for u in range(1, 6):
            assert f_matrix_amplitude(bowtie, 5, u) == count_hamiltonian_cycles_through(
                bowtie, u, directed=True
            )

    def test_is_hamiltonian(self, k4, petersen, p3):
        assert is_hamiltonian(k4)
        assert not is_hamiltonian(petersen)
        assert not is_hamiltonian(p3)
        for n in (3, 5, 8):
            assert is_hamiltonian(families.cycle_graph(n))
        assert not is_hamiltonian(families.star_graph(4))
        assert not is_hamiltonian(families.complete_graph(2))


class TestWalkExpectation:
    def test_matches_walk_count(self, c4, k4):
        from trailcounts.graphs import walk_count

        for g in (c4, k4):
            for l in range(0, 5):
                assert walk_count_expectation(g, l, 1, 2) == walk_count(g, l, 1, 2)


class TestSweepTables:
    def test_one_edge_space_evolution_per_start(self, monkeypatch, bowtie):
        # the trail counts and the annihilation forms come from one edge-space
        # evolution, the vertex observable from one vertex-space evolution
        spaces = []
        evolve = fock._evolve

        def counting(g, space, *args, **kwargs):
            spaces.append(space)
            return evolve(g, space, *args, **kwargs)

        monkeypatch.setattr(fock, "_evolve", counting)
        t = verify._build_tables("bowtie", bowtie, 4, ("fock",))
        assert Counter(spaces) == {fock.RegisterKind.EDGE_SPACE: 5, fock.RegisterKind.VERTEX_SPACE: 5}
        for u in range(1, 6):
            trails, forms = t.fock_edge[u]
            assert trails == normal_ordered_expectation_table(bowtie, u, 4, MatrixKind.N_EDGE)
            assert forms == annihilation_form_table(bowtie, u, 4)


class TestReferenceState:
    def test_edge_space_starts_from_every_present_edge_occupied(self, k4, bowtie):
        # evaluations run on the |E|-slot register, where the graph state
        # is |1...1>, whether or not the C(n,2)-slot pair register fits
        for g in (k4, bowtie):
            for u in range(1, g.n + 1):
                levels = fock._evolve(g, fock.RegisterKind.EDGE_SPACE, u, 0, True, "test")
                assert next(levels) == {u: {2**g.edge_count - 1: 1}}


class TestEvolutionBudget:
    @pytest.mark.parametrize(
        "evaluate, what",
        [
            (lambda g: normal_ordered_expectation(g, 3, 1, 2, MatrixKind.N_EDGE), "normal-ordered evaluation"),
            (lambda g: normal_ordered_expectation_table(g, 1, 3, MatrixKind.M_VERTEX), "normal-ordered tally"),
            (lambda g: walk_count_expectation(g, 3, 1, 2), "plain expectation"),
            (lambda g: d_matrix_quadratic_form(g, 3, 1, 2), "annihilation evolution"),
            (lambda g: annihilation_form_table(g, 1, 3), "annihilation tally"),
            (lambda g: f_matrix_amplitude(g, 4, 1), "transition-amplitude evaluation"),
        ],
    )
    def test_each_evaluator_enforces_the_budget(self, k4, set_node_budget, evaluate, what):
        set_node_budget(3)
        with pytest.raises(BudgetExceededError, match=what):
            evaluate(k4)
        set_node_budget(10_000)
        evaluate(k4)

    # smallest passing node budget on K4, K6, the bowtie and Petersen: the
    # step table's 2|E| entries, then the steps every level but the last
    # tries, its live states times their degrees
    @pytest.mark.parametrize(
        "evaluate, budgets",
        [
            (lambda g: normal_ordered_expectation(g, 5, 1, 2, MatrixKind.N_EDGE), (96, 1560, 48, 168)),
            (lambda g: normal_ordered_expectation(g, 4, 1, 2, MatrixKind.M_VERTEX, guard_vertex=1), (51, 310, 32, 96)),
            (lambda g: normal_ordered_expectation_table(g, 1, 5, MatrixKind.M_VERTEX), (99, 785, 104, 231)),
            (lambda g: walk_count_expectation(g, 5, 1, 2), (60, 150, 60, 120)),
            (lambda g: d_matrix_quadratic_form(g, 5, 1, 2), (96, 1560, 48, 168)),
            (lambda g: annihilation_form_table(g, 1, 5), (96, 1560, 48, 168)),
            (lambda g: f_matrix_amplitude(g, g.n, 1), (87, 935, 104, 1698)),
        ],
        ids=["n-edge", "m-vertex-guarded", "m-vertex-table", "walks", "d-form", "d-form-table", "f-amplitude"],
    )
    def test_smallest_passing_budget(self, k4, bowtie, petersen, set_node_budget, evaluate, budgets):
        for g, budget in zip((k4, families.complete_graph(6), bowtie, petersen), budgets):
            set_node_budget(budget)
            evaluate(g)
            set_node_budget(budget - 1)
            with pytest.raises(BudgetExceededError):
                evaluate(g)

    def test_budget_counts_merged_live_states(self, k4, set_node_budget):
        # 3**20 walks, but at most 4 live states per level, each trying its 3
        # steps: the 12-entry step table, then 3 * (1 + 3 + 18 * 4)
        set_node_budget(240)
        assert walk_count_expectation(k4, 20, 1, 2) == walk_count(k4, 20, 1, 2)
        set_node_budget(239)
        with pytest.raises(BudgetExceededError):
            walk_count_expectation(k4, 20, 1, 2)

    def test_budget_is_charged_per_word_of_the_basis_index(self, k4, set_node_budget):
        # K4 on 128 vertices: the vertex register's indices are 128 bits, so
        # each node costs 1 + 128 // 64 = 3, and K4 alone passes with 51;
        # K12's 66-slot edge register costs 2 a node: (132 + 11 + 121) * 2
        for g, evaluate, budget in (
            (Graph.from_edges(128, k4.edges),
             lambda g: normal_ordered_expectation(g, 4, 1, 2, MatrixKind.M_VERTEX, guard_vertex=1), 3 * 51),
            (families.complete_graph(12), lambda g: walk_count_expectation(g, 2, 1, 2), 528),
        ):
            set_node_budget(budget)
            evaluate(g)
            set_node_budget(budget - 1)
            with pytest.raises(BudgetExceededError):
                evaluate(g)

    def test_budget_refuses_a_level_before_building_it(self, monkeypatch, k4, set_node_budget):
        # K4 trails at l = 5 cost 12 step-table entries and 84 steps; one
        # node short, the last level is refused before any state of it is
        # stored
        built = []
        real = fock._evolve

        def recording(*args):
            for level in real(*args):
                built.append(sum(map(len, level.values())))
                yield level

        monkeypatch.setattr(fock, "_evolve", recording)
        set_node_budget(95)
        with pytest.raises(BudgetExceededError):
            normal_ordered_expectation(k4, 5, 1, 2, MatrixKind.N_EDGE)
        assert len(built) == 5  # levels 0..4

    def test_evolution_stops_after_its_first_empty_level(self, set_node_budget):
        # a vertex-space evolution on K3 empties after three steps, so a
        # length of 10**9 costs three levels, and an empty level charges
        # nothing
        k3 = families.complete_graph(3)
        set_node_budget(100)
        levels = list(fock._evolve(k3, fock.RegisterKind.VERTEX_SPACE, 1, 10**9, True, "test"))
        assert len(levels) == 5 and levels[-1] == {} and all(levels[:-1])
        assert normal_ordered_expectation(k3, 10**9, 1, 2, MatrixKind.M_VERTEX) == 0
        assert normal_ordered_expectation(k3, 10**9, 1, 2, MatrixKind.M_VERTEX, guard_vertex=1) == 0
        assert f_matrix_amplitude(k3, 10**9, 1) == 0


class TestLongWalks:
    def test_plain_expectation_beyond_the_recursion_limit(self, k2):
        assert walk_count_expectation(k2, 3000, 1, 1) == 1

    def test_annihilation_beyond_the_recursion_limit(self):
        c = families.cycle_graph(1500)
        assert f_matrix_amplitude(c, 1500, 1) == 2
        assert normal_ordered_expectation(c, 1500, 1, 1, MatrixKind.N_EDGE) == 2
        # both directions clear the same edge set, so its amplitude is 2
        assert d_matrix_quadratic_form(c, 1500, 1, 1) == 4
