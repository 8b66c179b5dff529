"""Acceptance checklist for the package, one test per criterion.

Every criterion is exact (tolerance 0) and prints a single PASS/FAIL line;
run `pytest tests/test_acceptance.py -v -s` to see them. The heavyweight
cross-engine sweep (every connected graph up to 6 vertices, all lengths up
to 6, all vertex pairs, plus named graphs and seeded random draws at n = 7
and 8) runs once and is shared across criteria.
"""

import hashlib
import time

import pytest

from trailcounts import families, verify
from trailcounts.fock import MatrixKind, f_matrix_amplitude, is_hamiltonian, normal_ordered_expectation
from trailcounts.graphs import Graph
from trailcounts.nilpotent import euler_trail_count_symbolic
from trailcounts.oracle import count_closed_euler_trails, count_hamiltonian_cycles_through
from trailcounts.reports import DMATRIX_SQUARED, PROP2_LITERAL_OVERCOUNT, canonical_json

# sha256 of the default sweep's JSON without its elapsed_s; every invariant,
# case count, stored example and flag feeds it
DEFAULT_SWEEP_SHA256 = "3df6a942540365fb99677d3aebb1db0ecdab1d45be135f8bd39d5c6271f0e993"


@pytest.fixture(scope="module")
def sweep():
    return verify.run_sweep(verify.SweepConfig())


def _report(criterion: str, ok: bool, detail: str = ""):
    line = f"{'PASS' if ok else 'FAIL'} {criterion}" + (f" -- {detail}" if detail else "")
    print(line)
    assert ok, line


def _inv_ok(sweep, name: str, min_cases: int = 1) -> bool:
    inv = sweep.invariant(name)
    return inv.passed and inv.cases >= min_cases


def test_default_sweep_output_is_pinned(sweep):
    payload = sweep.to_json_obj()
    del payload["elapsed_s"]
    digest = hashlib.sha256(canonical_json(payload).encode()).hexdigest()
    assert digest == DEFAULT_SWEEP_SHA256


def test_criterion_1_reference_example_reproduction():
    start = time.perf_counter()
    checks = verify.reference_example_checks()
    elapsed = time.perf_counter() - start
    ok_count = sum(1 for c in checks if c.ok)
    _report(
        "criterion 1 (reference example, exact, <1s)",
        ok_count == len(checks) == 8 and elapsed < 1.0,
        f"{ok_count}/{len(checks)} values reproduced in {elapsed:.3f}s",
    )


def test_criterion_2_trail_count_equivalence(sweep):
    names = (
        "trail-agreement-oracle-vs-nilpotent",
        "trail-agreement-oracle-vs-fock",
        "annihilation-form-matches-trails-when-sets-unique",
        "walk-count-matches-adjacency-power",
    )
    ok = all(_inv_ok(sweep, n) for n in names)
    cases = sweep.invariant("trail-agreement-oracle-vs-nilpotent").cases
    ok = ok and cases > 10_000 and sweep.elapsed_s < 600.0
    _report(
        "criterion 2 (trail equivalence sweep, exact, <10min)",
        ok,
        f"{cases} (graph,l,u,v) agreements in {sweep.elapsed_s:.1f}s",
    )


def test_criterion_3_vertex_observable_characterization(sweep):
    ok = _inv_ok(sweep, "literal-observable-counts-distinct-non-initial") and _inv_ok(
        sweep, "guarded-observable-counts-paths"
    )
    c4_flags = [
        f
        for f in sweep.find_flags(PROP2_LITERAL_OVERCOUNT)
        if f["graph_id"] == "c4" and f["l"] == 3 and f["u"] == 1 and f["v"] == 2
    ]
    ok = ok and len(c4_flags) == 1
    ok = ok and c4_flags[0]["literal"] == 2 and c4_flags[0]["paths"] == 1
    _report(
        "criterion 3 (literal vs guarded characterization + stored counterexample)",
        ok,
        f"flag {PROP2_LITERAL_OVERCOUNT} on c4 l=3 1->2: literal 2 vs paths 1",
    )


def test_criterion_4_annihilation_form_characterization(sweep):
    ok = _inv_ok(sweep, "annihilation-form-matches-squared-histogram") and _inv_ok(
        sweep, "annihilation-form-exceeds-trails-when-sets-repeat"
    )
    bowtie_flags = [
        f
        for f in sweep.find_flags(DMATRIX_SQUARED)
        if f["graph_id"] == "bowtie" and f["l"] == 6 and f["u"] == 1 and f["v"] == 1
    ]
    ok = ok and len(bowtie_flags) == 1
    ok = ok and bowtie_flags[0]["quadratic_form"] == 64 and bowtie_flags[0]["trails"] == 8
    _report(
        "criterion 4 (quadratic form = sum of squared edge-set counts, bowtie flagged)",
        ok,
        f"flag {DMATRIX_SQUARED} on bowtie l=6 closed: 64 vs 8",
    )


def test_criterion_5_hamiltonicity(sweep):
    ok = all(
        _inv_ok(sweep, name)
        for name in (
            "hamiltonian-amplitude-agreement",
            "hamiltonian-amplitude-zero-below-n",
            "hamiltonicity-decision-agreement",
            "hamiltonian-symbolic-agreement",
        )
    )
    # explicit named values, timed: the 10-vertex run must stay under 1min
    start = time.perf_counter()
    petersen = families.petersen_graph()
    ok = ok and f_matrix_amplitude(petersen, 10, 1) == 0
    ok = ok and not is_hamiltonian(petersen)
    ok = ok and count_hamiltonian_cycles_through(petersen, 1, directed=True) == 0
    petersen_elapsed = time.perf_counter() - start

    ok = ok and f_matrix_amplitude(families.cycle_graph(4), 4, 1) == 2
    ok = ok and f_matrix_amplitude(families.complete_graph(4), 4, 1) == 6
    ok = ok and is_hamiltonian(families.complete_graph(4))
    for n in (3, 4, 5, 6, 7, 8):
        ok = ok and is_hamiltonian(families.cycle_graph(n))
    trees = [
        families.path_graph(4),
        families.star_graph(4),
        Graph.from_edges(7, [(1, 2), (1, 3), (2, 4), (2, 5), (3, 6), (6, 7)]),
    ]
    for tree in trees:
        ok = ok and not is_hamiltonian(tree)
    ok = ok and petersen_elapsed < 60.0
    _report(
        "criterion 5 (Hamiltonicity: amplitudes match oracle; named graphs; <1min)",
        ok,
        f"petersen decided in {petersen_elapsed:.3f}s",
    )


def test_criterion_6_euler_convention(sweep):
    c4 = families.cycle_graph(4)
    ok = euler_trail_count_symbolic(c4, 1, 1) == 2
    ok = ok and count_closed_euler_trails(c4, 1) == 2
    ok = ok and _inv_ok(sweep, "euler-closed-agreement")
    ok = ok and _inv_ok(sweep, "euler-closed-agreement-fock")
    _report(
        "criterion 6 (Eulerian sequence-counting convention, exact)",
        ok,
        "closed circuits counted per traversal direction (c4 -> 2)",
    )


# OEIS A007082: a(n) Eulerian circuits of K_n, n odd, each direction its
# own. A closed trail from vertex 1 is a circuit cut open at one of its
# (n - 1) / 2 visits to 1, so there are ((n - 1) / 2) a(n); past the
# oracle's range (K7) only the symbolic and Fock engines are asked
@pytest.mark.parametrize(
    "n, circuits, engines",
    [
        (3, 2, ("oracle", "symbolic", "fock")),
        (5, 264, ("oracle", "symbolic", "fock")),
        (7, 129_976_320, ("symbolic", "fock")),
    ],
    ids=["K3", "K5", "K7"],
)
def test_closed_euler_trails_of_complete_graphs_match_oeis(n, circuits, engines):
    g = families.complete_graph(n)
    evaluate = {
        "oracle": lambda: count_closed_euler_trails(g, 1),
        "symbolic": lambda: euler_trail_count_symbolic(g, 1, 1),
        "fock": lambda: normal_ordered_expectation(g, g.edge_count, 1, 1, MatrixKind.N_EDGE),
    }
    assert {e: evaluate[e]() for e in engines} == dict.fromkeys(engines, (n - 1) // 2 * circuits)


def test_criterion_7_randomized_property_suite():
    results = verify.random_property_checks(seed=1729, per_property=250)
    total = sum(r.cases for r in results)
    failures = sum(r.failure_count for r in results)
    _report(
        "criterion 7 (randomized algebra/count properties)",
        total == 1000 and failures == 0,
        f"{total} checks, {failures} failures",
    )
