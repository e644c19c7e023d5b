"""Exact spanning-tree sampling from weighted tree laws.

The sampler is Wilson's loop-erased random walk, which is exact for
arbitrary positive weights and supports parallel edges.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
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

    @property
    def key(self) -> np.ndarray:
        return np.array([self.seed & _MASK64, self.stream & _MASK64], dtype=np.uint64)

    def generator(self) -> np.random.Generator:
        return np.random.Generator(np.random.Philox(key=self.key))


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree as edge indices into its graph, rooted at vertex 0.

    ``preorder`` lists the vertices in the order a stack DFS from the root
    visits them, so the subtree of v is the block of ``size[v]`` vertices
    that starts at v.
    """

    n: int
    edge_indices: tuple[int, ...]
    parent: tuple[int, ...]
    parent_edge: tuple[int, ...]
    preorder: tuple[int, ...]
    size: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_indices) != self.n - 1:
            raise ValueError(f"a spanning tree on {self.n} vertices needs {self.n - 1} edges")


def tree_from_edges(graph: EdgeGraph, edge_indices) -> SpanningTree:
    """Root the tree given by ``edge_indices`` at 0, validating that they are
    n - 1 distinct edges that span ``graph``."""
    n = graph.n
    idx = sorted(set(edge_indices))
    if len(idx) != n - 1:
        raise ValueError(f"a spanning tree on {n} vertices needs {n - 1} distinct edges")
    inc = _incidence(graph, idx)
    parent = [-1] * n
    parent_edge = [-1] * n
    seen = [False] * n
    seen[0] = True
    order = []
    stack = [0]
    while stack:
        v = stack.pop()
        order.append(v)
        for w, i in inc[v]:
            if not seen[w]:
                seen[w] = True
                parent[w] = v
                parent_edge[w] = i
                stack.append(w)
    if len(order) != n:
        raise ValueError("edge set does not span the graph")
    size = [1] * n
    for v in reversed(order[1:]):  # every vertex after its ancestors
        size[parent[v]] += size[v]
    return SpanningTree(n=n, edge_indices=tuple(idx), parent=tuple(parent),
                        parent_edge=tuple(parent_edge), preorder=tuple(order), size=tuple(size))


def _incidence(graph: EdgeGraph, edge_indices) -> list[list[tuple[int, int]]]:
    """(neighbour, edge index) pairs at each vertex, in the order of ``edge_indices``."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for i in edge_indices:
        a, b = graph.edges[i]
        inc[a].append((b, i))
        inc[b].append((a, i))
    return inc


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
        self.graph = graph
        self.inc = _incidence(graph, support)
        weights = lam.tolist()
        self.cumw = [list(accumulate(weights[i] for _, i in steps)) for steps in self.inc]

    def parent_edges(self, uniform) -> list[int]:
        """Parent edge of each vertex in one tree rooted at 0 (-1 at the root);
        ``uniform()`` gives each step's draw."""
        n, inc, cumw = self.graph.n, self.inc, self.cumw
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
        return parent_edge

    def tree(self, uniform) -> SpanningTree:
        return tree_from_edges(self.graph, self.parent_edges(uniform)[1:])


def _draw_streams(draw, rngs) -> list:
    """``draw(uniform)`` once per stream, ``uniform()`` giving the stream's
    ``random()`` draws in order (``random(size)`` gives the same numbers).

    One Philox serves every stream: reset to the stream's key with counter 0
    and an empty buffer, it is in the state of a fresh ``rng.generator()``,
    at a quarter of the cost of building one.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)

    def uniforms():
        while True:
            yield from gen.random(_BLOCK).tolist()

    out = []
    for rng in rngs:
        bits.state = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": rng.key},
                      "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
        out.append(draw(uniforms().__next__))
    return out


def _streams(t: int, seed: int) -> list[RngStream]:
    if t < 1:
        raise ValueError("tree count must be at least 1")
    return [RngStream(seed=seed, stream=s) for s in range(t)]


def sample_tree(lam, graph: EdgeGraph, rng: RngStream) -> SpanningTree:
    """Exact sample from the weighted tree law via Wilson's algorithm.

    Edges with zero weight are treated as absent; the remaining support must
    be connected.  The walk steps to an incident edge with probability
    proportional to its weight, so parallel edges are handled natively.
    """
    return _draw_streams(_Walk(lam, graph).tree, [rng])[0]


def sample_batch(lam, graph: EdgeGraph, t: int, seed: int) -> list[SpanningTree]:
    """``t`` independent trees on streams 0..t-1 of ``seed``.

    Stream indexing makes the result independent of draw order, so the batch
    could be filled concurrently and still assemble identically.
    """
    rngs = _streams(t, seed)
    return _draw_streams(_Walk(lam, graph).tree, rngs)


def _fitted_sampler(dist: LambdaWeights):
    """Draw function of the fitted law: forced edges plus one walk per piece, on one stream."""
    walks = [(_Walk(piece.lam, piece.graph), piece.kept) for piece in dist.pieces]

    def draw(uniform) -> SpanningTree:
        chosen: list[int] = list(dist.forced)
        for walk, kept in walks:
            chosen.extend(kept[i] for i in walk.parent_edges(uniform)[1:])
        return tree_from_edges(dist.graph, chosen)

    return draw


def sample_fitted_tree(dist: LambdaWeights, rng: RngStream) -> SpanningTree:
    """Sample from a fitted distribution: forced edges plus one tree per piece.

    Pieces are independent factors of the law; their samples are lifted back
    to original edge indices and merged with the always-present edges, which
    yields a spanning tree of the original graph.  One stream drives all
    pieces in order, so the draw is a pure function of the stream.
    """
    return _draw_streams(_fitted_sampler(dist), [rng])[0]


def sample_fitted_batch(dist: LambdaWeights, t: int, seed: int) -> list[SpanningTree]:
    rngs = _streams(t, seed)
    return _draw_streams(_fitted_sampler(dist), rngs)
