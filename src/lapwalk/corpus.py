"""Deterministic graph corpora for the identity suites and property checks.

Random graphs are drawn from a seeded generator (spanning tree plus extra
edges, so they stay connected); nothing here depends on global RNG state.
"""

from __future__ import annotations

import numpy as np

from .graphs import (
    Graph,
    complete,
    cycle,
    disjoint_union,
    empty,
    hypercube,
    join,
    make_graph,
    path,
)

__all__ = ["named_small_graphs", "random_connected_graphs"]


def named_small_graphs() -> list[tuple[str, Graph]]:
    """Fixed gallery of structurally varied graphs on at most 10 vertices."""
    two_k2 = disjoint_union(complete(2), complete(2))
    gallery = [
        ("P2", path(2)),
        ("P3", path(3)),
        ("P4", path(4)),
        ("P5", path(5)),
        ("P6", path(6)),
        ("C3", cycle(3)),
        ("C4", cycle(4)),
        ("C5", cycle(5)),
        ("C6", cycle(6)),
        ("K3", complete(3)),
        ("K4", complete(4)),
        ("K5", complete(5)),
        ("Q2", hypercube(2)),
        ("Q3", hypercube(3)),
        ("2K2", two_k2),
        ("star5", join(empty(1), empty(5))),
        ("double-cone-K2", join(empty(2), complete(2))),
        ("double-cone-2K2", join(empty(2), two_k2)),
        ("connected-cone-K2", join(complete(2), complete(2))),
        ("wheel5", join(empty(1), cycle(5))),
        ("paw", make_graph(4, [(0, 1), (1, 2), (2, 0), (2, 3)])),
        ("bull", make_graph(5, [(0, 1), (1, 2), (2, 0), (1, 3), (2, 4)])),
    ]
    return gallery


def _random_connected(rng: np.random.Generator, n: int, extra_prob: float) -> Graph:
    edges = set()
    order = rng.permutation(n)
    for i in range(1, n):
        a = int(order[i])
        b = int(order[rng.integers(0, i)])
        edges.add((min(a, b), max(a, b)))
    for u in range(n):
        for v in range(u + 1, n):
            if (u, v) not in edges and rng.random() < extra_prob:
                edges.add((u, v))
    return make_graph(n, sorted(edges))


def random_connected_graphs(
    count: int, n_min: int = 4, n_max: int = 10, *, seed: int
) -> list[Graph]:
    rng = np.random.default_rng(seed)
    out = []
    for _ in range(count):
        n = int(rng.integers(n_min, n_max + 1))
        out.append(_random_connected(rng, n, extra_prob=float(rng.uniform(0.15, 0.5))))
    return out

