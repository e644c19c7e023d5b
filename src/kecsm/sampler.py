"""Exact spanning-tree sampling from weighted tree laws.

The production path is Wilson's loop-erased random walk, which is exact for
arbitrary positive weights and supports parallel edges.  A full-enumeration
sampler doubles as a distributional oracle on tiny graphs.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

import numpy as np

from .core import NotConnectedError, spanning_forest
from .treedist import EdgeGraph, LambdaWeights, is_connected

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class RngStream:
    """Counter-based random stream: (seed, stream) fully determines the draws.

    Distinct streams of one seed are independent by construction (Philox keys),
    so batches are reproducible under any execution order.
    """

    seed: int
    stream: int = 0

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=[self.seed & _MASK64, self.stream & _MASK64]))


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree as edge indices into its graph, rooted at vertex 0."""

    n: int
    edge_indices: tuple[int, ...]
    parent: tuple[int, ...]
    parent_edge: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_indices) != self.n - 1:
            raise ValueError(f"a spanning tree on {self.n} vertices needs {self.n - 1} edges")


def _tree_from_parents(n: int, parent: list[int], parent_edge: list[int]) -> SpanningTree:
    idx = tuple(sorted(parent_edge[v] for v in range(n) if v != 0))
    return SpanningTree(n=n, edge_indices=idx, parent=tuple(parent), parent_edge=tuple(parent_edge))


def tree_from_edges(graph: EdgeGraph, edge_indices) -> SpanningTree:
    """Build a rooted SpanningTree from explicit edge indices (validating spanning)."""
    idx = list(edge_indices)
    if len(set(idx)) != graph.n - 1:
        raise ValueError(f"a spanning tree on {graph.n} vertices needs {graph.n - 1} distinct edges")
    parent, parent_edge = _rooted_arrays(graph, idx)
    return _tree_from_parents(graph.n, parent, parent_edge)


def _rooted_arrays(graph: EdgeGraph, edge_indices) -> tuple[list[int], list[int]]:
    """Parent arrays for the tree given by ``edge_indices``, rooted at 0."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for i in edge_indices:
        a, b = graph.edges[i]
        inc[a].append((b, i))
        inc[b].append((a, i))
    parent = [-1] * graph.n
    parent_edge = [-1] * graph.n
    seen = [False] * graph.n
    stack = [0]
    seen[0] = True
    while stack:
        v = stack.pop()
        for w, i in inc[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                parent_edge[w] = i
                stack.append(w)
    if not all(seen):
        raise ValueError("edge set does not span the graph")
    return parent, parent_edge


def _wilson(lam: np.ndarray, graph: EdgeGraph, gen: np.random.Generator) -> SpanningTree:
    """Wilson's loop-erased random walk on an explicit generator."""
    support = [i for i in range(len(graph.edges)) if lam[i] > 0.0]
    if not is_connected(graph, active=support):
        raise NotConnectedError("weight support does not connect the graph")

    neighbors: list[list[int]] = [[] for _ in range(graph.n)]
    edge_ids: list[list[int]] = [[] for _ in range(graph.n)]
    for i in support:
        a, b = graph.edges[i]
        neighbors[a].append(b)
        edge_ids[a].append(i)
        neighbors[b].append(a)
        edge_ids[b].append(i)
    cumw = [np.cumsum([lam[i] for i in edge_ids[v]]) for v in range(graph.n)]

    in_tree = [False] * graph.n
    in_tree[0] = True
    parent = [-1] * graph.n
    parent_edge = [-1] * graph.n
    for start in range(1, graph.n):
        v = start
        while not in_tree[v]:
            # overwrite on revisit: this is the loop erasure
            c = cumw[v]
            j = int(np.searchsorted(c, gen.random() * c[-1], side="right"))
            j = min(j, len(c) - 1)
            parent[v] = neighbors[v][j]
            parent_edge[v] = edge_ids[v][j]
            v = parent[v]
        v = start
        while not in_tree[v]:
            in_tree[v] = True
            v = parent[v]
    return _tree_from_parents(graph.n, parent, parent_edge)


def sample_tree(lam, graph: EdgeGraph, rng: RngStream) -> SpanningTree:
    """Exact sample from the weighted tree law via Wilson's algorithm.

    Edges with zero weight are treated as absent; the remaining support must
    be connected.  The walk steps to an incident edge with probability
    proportional to its weight, so parallel edges are handled natively.
    """
    lam = np.asarray(lam, dtype=float)
    if np.any(lam < 0):
        raise ValueError("edge weights must be nonnegative")
    return _wilson(lam, graph, rng.generator())


def enumerate_spanning_trees(graph: EdgeGraph, max_vertices: int = 8) -> list[tuple[int, ...]]:
    """All spanning trees as sorted edge-index tuples (small graphs only)."""
    if graph.n > max_vertices:
        raise ValueError(f"tree enumeration limited to {max_vertices} vertices, got {graph.n}")
    return [combo for combo in combinations(range(len(graph.edges)), graph.n - 1)
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


def sample_batch(lam, graph: EdgeGraph, t: int, seed: int) -> list[SpanningTree]:
    """``t`` independent trees on streams 0..t-1 of ``seed``.

    Stream indexing makes the result independent of draw order, so the batch
    could be filled concurrently and still assemble identically.
    """
    if t < 1:
        raise ValueError("tree count must be at least 1")
    return [sample_tree(lam, graph, RngStream(seed=seed, stream=s)) for s in range(t)]


def sample_fitted_tree(dist: LambdaWeights, rng: RngStream) -> SpanningTree:
    """Sample from a fitted distribution: forced edges plus one tree per piece.

    Pieces are independent factors of the law; their samples are lifted back
    to original edge indices and merged with the always-present edges, which
    yields a spanning tree of the original graph.  One generator drives all
    pieces in order, so the draw is a pure function of the stream.
    """
    gen = rng.generator()
    chosen: list[int] = list(dist.forced)
    for piece in dist.pieces:
        sub = _wilson(piece.lam, piece.graph, gen)
        chosen.extend(piece.kept[i] for i in sub.edge_indices)
    return tree_from_edges(dist.graph, chosen)


def sample_fitted_batch(dist: LambdaWeights, t: int, seed: int) -> list[SpanningTree]:
    if t < 1:
        raise ValueError("tree count must be at least 1")
    return [sample_fitted_tree(dist, RngStream(seed=seed, stream=s)) for s in range(t)]
