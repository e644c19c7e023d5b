"""Independent brute-force oracles for cross-checking the implementations.

The oracles here deliberately use the most direct definition available
(exhaustive enumeration, component splitting) so they share no code path
with the implementations they cross-check.
"""

from __future__ import annotations

import itertools

import numpy as np

from kecsm.core import MetricInstance, MultiEdgeSet, NotConnectedError, spanning_forest
from kecsm.sampler import RngStream, SpanningTree, tree_from_edges
from kecsm.split import SplitGraph
from kecsm.treedist import EdgeGraph


def exhaustive_min_cut(weights: dict, n: int) -> float:
    """Minimum cut weight by trying all 2^(n-1) - 1 sides containing vertex 0."""
    best = float("inf")
    for mask in range(0, (1 << (n - 1)) - 1):
        side = {0} | {v for v in range(1, n) if mask >> (v - 1) & 1}
        value = sum(w for (u, v), w in weights.items() if (u in side) != (v in side))
        best = min(best, value)
    return best


def exhaustive_opt(inst: MetricInstance, cap: int) -> float:
    """Plain exhaustive optimum over all multiplicity vectors up to ``cap``.

    No pruning and no branch ordering; tractable only for n = 3.
    """
    edges = inst.edges()
    best = float("inf")
    for vec in itertools.product(range(cap + 1), repeat=len(edges)):
        mult = MultiEdgeSet({e: m for e, m in zip(edges, vec) if m})
        feasible = all(
            _cut_count(mult, side) >= inst.k
            for side in _proper_sides(inst.n)
        )
        if feasible:
            best = min(best, mult.total_cost(inst.cost))
    return best


def _proper_sides(n: int):
    for mask in range(0, (1 << (n - 1)) - 1):
        yield {0} | {v for v in range(1, n) if mask >> (v - 1) & 1}


def _cut_count(mult: MultiEdgeSet, side: set) -> int:
    return sum(m for (u, v), m in mult.multiplicity.items() if (u in side) != (v in side))


def direct_fundamental_counts(tree: SpanningTree, t_star: MultiEdgeSet,
                              g0: SplitGraph) -> dict[int, int]:
    """Quadratic-definition oracle: split at each tree edge, count crossings."""
    out = {}
    for v in range(1, tree.n):
        e = tree.parent_edge[v]
        keep = [i for i in tree.edge_indices if i != e]
        side = _component_of(tree.n, [g0.edges[i] for i in keep], v)
        count = sum(
            m for (a, b), m in t_star.multiplicity.items() if (a in side) != (b in side)
        )
        out[e] = count
    return out


def _component_of(n: int, edges, start: int) -> set[int]:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def enumerate_spanning_trees(graph: EdgeGraph, max_vertices: int = 8) -> list[tuple[int, ...]]:
    """All spanning trees as sorted edge-index tuples (small graphs only)."""
    if graph.n > max_vertices:
        raise ValueError(f"tree enumeration limited to {max_vertices} vertices, got {graph.n}")
    return [combo for combo in itertools.combinations(range(len(graph.edges)), graph.n - 1)
            if len(spanning_forest(graph.n, [graph.edges[i] for i in combo])[0]) == graph.n - 1]


def tree_weight(lam, tree_indices) -> float:
    lam = np.asarray(lam, dtype=float)
    out = 1.0
    for i in tree_indices:
        out *= float(lam[i])
    return out


def sample_tree_enumeration(lam, graph: EdgeGraph, rng: RngStream) -> SpanningTree:
    """Oracle sampler: enumerate all trees and draw one with probability ~ weight."""
    lam = np.asarray(lam, dtype=float)
    trees = enumerate_spanning_trees(graph)
    weights = np.array([tree_weight(lam, t) for t in trees])
    total = weights.sum()
    if total <= 0:
        raise NotConnectedError("no spanning tree has positive weight")
    gen = rng.generator()
    pick = int(np.searchsorted(np.cumsum(weights), gen.random() * total, side="right"))
    pick = min(pick, len(trees) - 1)
    return tree_from_edges(graph, trees[pick])


def enumerated_marginals(lam, graph: EdgeGraph) -> np.ndarray:
    """Edge marginals by explicit tree enumeration and normalization."""
    lam = np.asarray(lam, dtype=float)
    trees = enumerate_spanning_trees(graph)
    weights = np.array([tree_weight(lam, t) for t in trees])
    total = weights.sum()
    p = np.zeros(len(graph.edges))
    for t, w in zip(trees, weights):
        for i in t:
            p[i] += w
    return p / total


def complete_graph(n: int) -> EdgeGraph:
    return EdgeGraph(n=n, edges=tuple((u, v) for u in range(n) for v in range(u + 1, n)))
