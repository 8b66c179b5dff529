"""Metamorphic rows: changes to a graph that must leave every count as it is,
so they need no reference count (Chen, Cheung and Yiu, "Metamorphic
testing", HKUST-CS98-01, 1998). Each query runs through run_count_query on
every engine, and its per-engine values and notes are compared.
"""

import random

import pytest

from trailcounts import families
from trailcounts.graphs import Graph
from trailcounts.nilpotent import PathVariant
from trailcounts.reports import ENGINES, run_count_query

LITERAL, GUARDED = PathVariant.LITERAL, PathVariant.START_GUARDED
GRAPHS = {"bowtie": families.bowtie_graph(), "C5": families.cycle_graph(5), "petersen": families.petersen_graph()}
EXTRA = families.complete_graph(4)


def _queries(g: Graph) -> list[tuple[str, int, int, int, PathVariant]]:
    """(kind, length, u, v, variant): walks, trails and both path variants up
    to length 5 from vertex 1 to every vertex, cycles through 1 and 2 up to
    length 6, and the kinds whose length comes from the whole graph."""
    out = []
    for v in range(1, g.n + 1):
        out += [("walks", length, 1, v, LITERAL) for length in range(6)]
        out += [(kind, length, 1, v, LITERAL) for kind in ("trails", "paths") for length in range(1, 6)]
        if v != 1:
            out += [("paths", length, 1, v, GUARDED) for length in range(1, 6)]
        out.append(("euler", g.edge_count, 1, v, LITERAL))
    for u in (1, 2):
        out += [("cycles", length, u, u, LITERAL) for length in range(3, 7)]
        out.append(("hamiltonian", g.n, u, u, LITERAL))
    return out


def _counts(g: Graph, kind: str, length: int, u: int, v: int, variant: PathVariant):
    report = run_count_query(g, "g", kind, length, u, v, ENGINES, variant)
    assert all(ev.error is None for ev in report.engines.values()), report.to_text()
    return {name: ev.value for name, ev in report.engines.items()}, report.notes


@pytest.mark.parametrize("name", GRAPHS)
def test_a_disjoint_component_changes_no_count(name):
    # a K4 on the fresh labels n + 1 .. n + 4; euler and hamiltonian take
    # their length from the whole graph, so the extended graph is asked for
    # trails at g's |E| and cycles at g's n instead
    g = GRAPHS[name]
    h = Graph(g.n + EXTRA.n, g.edges | {(a + g.n, b + g.n) for a, b in EXTRA.edges})
    whole = {"euler": "trails", "hamiltonian": "cycles"}
    found = 0
    for kind, length, u, v, variant in _queries(g):
        counts = _counts(g, kind, length, u, v, variant)
        assert _counts(h, whole.get(kind, kind), length, u, v, variant) == counts, (kind, length, u, v, variant)
        found += sum(counts[0].values())
    assert found


@pytest.mark.parametrize("name", GRAPHS)
def test_relabelling_changes_no_count(name):
    g = GRAPHS[name]
    labels = list(range(1, g.n + 1))
    random.Random(2).shuffle(labels)
    to = dict(zip(range(1, g.n + 1), labels))
    h = Graph.from_edges(g.n, ((to[a], to[b]) for a, b in g.edges))
    assert h.edges != g.edges  # not an automorphism
    for kind, length, u, v, variant in _queries(g):
        counts = _counts(g, kind, length, u, v, variant)
        assert _counts(h, kind, length, to[u], to[v], variant) == counts, (kind, length, u, v, variant)
