"""Exact spanning-tree sampling from weighted tree laws.

The sampler is Wilson's loop-erased random walk, which is exact for
arbitrary positive weights and supports parallel edges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property
from itertools import accumulate

import numpy as np

from .core import NotConnectedError
from .treedist import EdgeGraph, LambdaWeights, is_connected

_MASK64 = (1 << 64) - 1
_BLOCK = 32  # draws per generator call; a fitted tree on the n = 32 benchmark laws takes 2-20


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

    @cached_property
    def depth(self) -> list[int]:
        """Edge count from each vertex up to the root, computed on first use."""
        depth = [-1] * self.n
        depth[0] = 0
        for v in range(1, self.n):
            chain = []
            u = v
            while depth[u] < 0:
                chain.append(u)
                u = self.parent[u]
            d = depth[u]
            for w in reversed(chain):
                d += 1
                depth[w] = d
        return depth


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


def _incidence(graph: EdgeGraph, edge_indices) -> list[list[tuple[int, int]]]:
    """(neighbour, edge index) pairs at each vertex, in the order of ``edge_indices``."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for i in edge_indices:
        a, b = graph.edges[i]
        inc[a].append((b, i))
        inc[b].append((a, i))
    return inc


def _rooted_arrays(graph: EdgeGraph, edge_indices) -> tuple[list[int], list[int]]:
    """Parent arrays for the tree given by ``edge_indices``, rooted at 0."""
    inc = _incidence(graph, edge_indices)
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


class _Walk:
    """Wilson's loop-erased random walk, built once per (lam, graph) for a whole batch.

    ``itertools.accumulate`` adds left to right as ``np.cumsum`` does, so each
    step picks the same edge as a walk rebuilt for every tree.
    """

    def __init__(self, lam, graph: EdgeGraph):
        lam = np.asarray(lam, dtype=float)
        if np.any(lam < 0):
            raise ValueError("edge weights must be nonnegative")
        support = [i for i in range(len(graph.edges)) if lam[i] > 0.0]
        if not is_connected(graph, active=support):
            raise NotConnectedError("weight support does not connect the graph")
        self.n = graph.n
        self.inc = _incidence(graph, support)
        weights = lam.tolist()
        self.cumw = [list(accumulate(weights[i] for _, i in steps)) for steps in self.inc]

    def parents(self, uniform) -> tuple[list[int], list[int]]:
        """Parent and parent-edge arrays of one tree rooted at 0; ``uniform()`` gives each step's draw."""
        n, inc, cumw = self.n, self.inc, self.cumw
        in_tree = [False] * n
        in_tree[0] = True
        parent = [-1] * n
        parent_edge = [-1] * n
        for start in range(1, n):
            v = start
            while not in_tree[v]:
                # overwrite on revisit: this is the loop erasure
                c = cumw[v]
                j = min(bisect_right(c, uniform() * c[-1]), len(c) - 1)
                parent[v], parent_edge[v] = inc[v][j]
                v = parent[v]
            v = start
            while not in_tree[v]:
                in_tree[v] = True
                v = parent[v]
        return parent, parent_edge

    def tree(self, rng: RngStream) -> SpanningTree:
        return _tree_from_parents(self.n, *self.parents(_uniforms(rng).__next__))


def _uniforms(rng: RngStream):
    """Yield the stream's ``random()`` draws in order (``random(size)`` gives the same numbers)."""
    gen = rng.generator()
    while True:
        yield from gen.random(_BLOCK).tolist()


def sample_tree(lam, graph: EdgeGraph, rng: RngStream) -> SpanningTree:
    """Exact sample from the weighted tree law via Wilson's algorithm.

    Edges with zero weight are treated as absent; the remaining support must
    be connected.  The walk steps to an incident edge with probability
    proportional to its weight, so parallel edges are handled natively.
    """
    return _Walk(lam, graph).tree(rng)


def sample_batch(lam, graph: EdgeGraph, t: int, seed: int) -> list[SpanningTree]:
    """``t`` independent trees on streams 0..t-1 of ``seed``.

    Stream indexing makes the result independent of draw order, so the batch
    could be filled concurrently and still assemble identically.
    """
    if t < 1:
        raise ValueError("tree count must be at least 1")
    walk = _Walk(lam, graph)
    return [walk.tree(RngStream(seed=seed, stream=s)) for s in range(t)]


def _fitted_sampler(dist: LambdaWeights):
    """Draw function of the fitted law: forced edges plus one walk per piece, on one stream."""
    walks = [(_Walk(piece.lam, piece.graph), piece.kept) for piece in dist.pieces]

    def draw(rng: RngStream) -> SpanningTree:
        uniform = _uniforms(rng).__next__
        chosen: list[int] = list(dist.forced)
        for walk, kept in walks:
            chosen.extend(kept[i] for i in sorted(walk.parents(uniform)[1][1:]))
        return tree_from_edges(dist.graph, chosen)

    return draw


def sample_fitted_tree(dist: LambdaWeights, rng: RngStream) -> SpanningTree:
    """Sample from a fitted distribution: forced edges plus one tree per piece.

    Pieces are independent factors of the law; their samples are lifted back
    to original edge indices and merged with the always-present edges, which
    yields a spanning tree of the original graph.  One stream drives all
    pieces in order, so the draw is a pure function of the stream.
    """
    return _fitted_sampler(dist)(rng)


def sample_fitted_batch(dist: LambdaWeights, t: int, seed: int) -> list[SpanningTree]:
    if t < 1:
        raise ValueError("tree count must be at least 1")
    draw = _fitted_sampler(dist)
    return [draw(RngStream(seed=seed, stream=s)) for s in range(t)]
