"""Deterministic graph corpora for verification sweeps.

The exhaustive corpus holds one representative per isomorphism class of
connected graphs (the representative whose edge-slot bitmask is the
lexicographic minimum over all vertex permutations); feasible up to n = 6.
Larger sizes are covered by seeded random draws. Canonicalization is the
package's one use of numpy, imported only when a corpus is first built.
"""

from __future__ import annotations

import functools
import itertools
import random
from typing import TYPE_CHECKING

from . import families
from .graphs import Graph, graph_signature, pair_slot_index, pair_slots

if TYPE_CHECKING:
    import numpy as np


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
def _canonical_mask_flags(n: int) -> np.ndarray:
    """Boolean flag per edge bitmask: is it the lexicographic minimum of its
    isomorphism class? Vectorized over all 2**C(n,2) masks."""
    import numpy as np

    m = n * (n - 1) // 2
    if m > 20:
        raise ValueError(f"exhaustive corpus is limited to n <= 6, got n = {n}")
    masks = np.arange(1 << m, dtype=np.int64)
    canon = masks.copy()
    slots = pair_slots(n)
    index = pair_slot_index(n)
    for perm in itertools.permutations(range(1, n + 1)):
        if perm == tuple(range(1, n + 1)):
            continue
        target = [
            index[(min(perm[u - 1], perm[v - 1]), max(perm[u - 1], perm[v - 1]))]
            for (u, v) in slots
        ]
        permuted = np.zeros_like(masks)
        for s, t in enumerate(target):
            permuted |= ((masks >> s) & 1) << t
        np.minimum(canon, permuted, out=canon)
    return masks == canon


@functools.cache
def connected_graphs(n: int) -> tuple[Graph, ...]:
    """Every connected graph on exactly n vertices, one per isomorphism
    class, in increasing edge-bitmask order."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    if n == 1:
        return (Graph(1, frozenset()),)
    import numpy as np

    flags = _canonical_mask_flags(n)
    out = []
    for mask in np.flatnonzero(flags):
        g = mask_to_graph(n, int(mask))
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
