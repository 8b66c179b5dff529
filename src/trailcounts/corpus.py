"""Deterministic graph corpora for verification sweeps.

The exhaustive corpus holds one representative per isomorphism class of
connected graphs: the class's smallest edge-slot bitmask, found by visiting
the masks in increasing order and marking the orbit of each unseen one under
every vertex permutation; feasible up to n = 6. Larger sizes are covered by
seeded random draws.
"""

from __future__ import annotations

import functools
import itertools
import operator
import random

from . import families
from .graphs import Graph, graph_signature, pair_slots, slot_of_pair


def is_connected(g: Graph) -> bool:
    if g.n == 1:
        return True
    seen = {1}
    stack = [1]
    while stack:
        u = stack.pop()
        for w in g.neighbors(u):
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return len(seen) == g.n


def mask_to_graph(n: int, mask: int) -> Graph:
    slots = pair_slots(n)
    return Graph(n, frozenset(slots[i] for i in range(len(slots)) if mask & (1 << i)))


@functools.cache
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """Every connected graph on exactly n vertices, one per isomorphism
    class, in increasing edge-bitmask order. Each class is first met at its
    smallest mask, which then marks its whole orbit as seen: the image under
    every vertex permutation at once, as the OR of one column of target slot
    bits per edge."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n > 6:
        raise ValueError(f"exhaustive corpus is limited to n <= 6, got n = {n}")
    slots = pair_slots(n)
    perms = list(itertools.permutations(range(1, n + 1)))
    columns = [[1 << slot_of_pair(n, p[u - 1], p[v - 1]) for p in perms] for (u, v) in slots]
    seen = bytearray(1 << len(slots))
    out = []
    for mask in range(len(seen)):
        if seen[mask]:
            continue
        images = [0] * len(perms)
        for s, column in enumerate(columns):
            if mask >> s & 1:
                images = map(operator.or_, images, column)
        for image in images:
            seen[image] = 1
        g = mask_to_graph(n, mask)
        if is_connected(g):
            out.append(g)
    return tuple(out)


def all_connected_up_to(n_max: int) -> list[tuple[str, Graph]]:
    """(graph id, graph) pairs for every connected graph with n <= n_max."""
    out = []
    for n in range(1, n_max + 1):
        for g in connected_graphs(n):
            out.append((f"conn-{graph_signature(g)}", g))
    return out


def random_graphs(count: int, n: int, p: float, seed: int) -> list[tuple[str, Graph]]:
    """Seeded G(n, p) draws; ids carry the seed and draw index."""
    rng = random.Random(seed)
    out = []
    for i in range(count):
        g = families.gnp_random_graph(n, p, rng)
        out.append((f"gnp-s{seed}-{i}-{graph_signature(g)}", g))
    return out


def named_graphs() -> list[tuple[str, Graph]]:
    """The named graphs the acceptance checks refer to by name."""
    return [
        ("c4", families.cycle_graph(4)),
        ("k4", families.complete_graph(4)),
        ("bowtie", families.bowtie_graph()),
        ("p3", families.path_graph(3)),
        ("star3", families.star_graph(3)),
        ("k2", families.complete_graph(2)),
        ("petersen", families.petersen_graph()),
    ]
