"""Exact spanning-tree sampling from weighted tree laws.

The sampler is Wilson's loop-erased random walk, which is exact for
arbitrary positive weights and supports parallel edges.  Every law is drawn
one way: its forced edges plus one walk per piece, rooted into a
:class:`TreeBatch`.  A plain weight vector is the law with no forced edge and
one piece, the whole graph.
"""

from __future__ import annotations

from bisect import bisect_right
from collections.abc import Sequence
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from .core import NotConnectedError
from .treedist import EdgeGraph, LambdaWeights, SamplingPiece, check_finite, is_connected

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
    def key(self) -> tuple[int, int]:
        return self.seed & _MASK64, self.stream & _MASK64

    def generator(self) -> np.random.Generator:
        # Philox(key=...) casts a tuple holding a value >= 2**63 through float64
        return np.random.Generator(np.random.Philox(key=np.array(self.key, dtype=np.uint64)))


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


class TreeBatch(Sequence):
    """Spanning trees of one graph on n vertices as integer arrays, one row per tree.

    Row t of the (T, n) arrays ``parent``, ``parent_edge``, ``preorder`` and
    ``size`` is tree t rooted at 0 as its :class:`SpanningTree` holds it, and
    row t of the (T, n - 1) ``edge_indices`` its edges in increasing order.
    Indexing and iteration give the trees as :class:`SpanningTree`.
    """

    def __init__(self, rooted):
        """``rooted``: one (parent, parent_edge, preorder, size) tuple per tree."""
        self.parent, self.parent_edge, self.preorder, self.size = (
            np.array(column, dtype=np.intp) for column in zip(*rooted))
        self.edge_indices = np.sort(self.parent_edge[:, 1:], axis=1)

    def __len__(self) -> int:
        return len(self.parent)

    def __getitem__(self, t: int) -> SpanningTree:
        rows = self.edge_indices[t], self.parent[t], self.parent_edge[t], self.preorder[t], self.size[t]
        return SpanningTree(self.parent.shape[1], *(tuple(row.tolist()) for row in rows))


def _root(n: int, inc) -> tuple[list[int], list[int], list[int], list[int]]:
    """Parent, parent edge (-1 at the root), preorder and subtree size of the
    tree whose incidence lists are ``inc``, rooted at 0 by a stack DFS that
    follows each list in order; ValueError unless the tree spans all n vertices."""
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
    return parent, parent_edge, order, size


def _incidence(graph: EdgeGraph, edge_indices) -> list[list[tuple[int, int]]]:
    """(neighbour, edge index) pairs at each vertex, in the order of ``edge_indices``."""
    inc: list[list[tuple[int, int]]] = [[] for _ in range(graph.n)]
    for i in edge_indices:
        a, b = graph.edges[i]
        inc[a].append((b, i))
        inc[b].append((a, i))
    return inc


class _Walk:
    """Wilson's loop-erased random walk on one piece, built once per law for every draw.

    Vertex v is held as v - 1 and the root 0 as n - 1, so the tree edge of
    vertex v lands at v - 1 of the list a walk returns.  Each step bisects
    the cumulative weights but the last, the total, so a draw that rounds up
    to the total takes the last edge.  ``itertools.accumulate`` adds left to
    right as ``np.cumsum`` does, so each step picks the same edge as a walk
    rebuilt for every tree.
    """

    def __init__(self, lam, graph: EdgeGraph):
        lam = np.asarray(lam, dtype=float)
        check_finite("lam", lam)
        if np.any(lam < 0):
            raise ValueError("edge weights must be nonnegative")
        support = [i for i in range(len(graph.edges)) if lam[i] > 0.0]
        if not is_connected(graph, active=support):
            raise NotConnectedError("weight support does not connect the graph")
        n = self.n = graph.n
        inc = _incidence(graph, support)
        self.inc = [[((w - 1) % n, i) for w, i in inc[v]] for v in range(1, n)]
        weights = lam.tolist()
        cumw = [list(accumulate(weights[i] for _, i in steps)) for steps in self.inc]
        self.cuts = [c[:-1] for c in cumw]
        self.total = [c[-1] for c in cumw]

    def edges(self, uniform) -> list[int]:
        """Tree edge of each vertex 1..n-1 of one tree, in vertex order;
        ``uniform()`` gives each step's draw."""
        n, inc, cuts, total = self.n, self.inc, self.cuts, self.total
        if n == 2:  # the walk from vertex 1 takes one step, to the root
            return [inc[0][bisect_right(cuts[0], uniform() * total[0])][1]]
        in_tree = [False] * (n - 1) + [True]
        parent = [0] * (n - 1)
        tree = [0] * (n - 1)
        for start in range(n - 1):
            v = start
            while not in_tree[v]:
                # overwrite on revisit: this is the loop erasure
                parent[v], tree[v] = inc[v][bisect_right(cuts[v], uniform() * total[v])]
                v = parent[v]
            v = start
            while not in_tree[v]:
                in_tree[v] = True
                v = parent[v]
        return tree


def _draw_streams(draw, rngs) -> list:
    """``draw(uniform)`` once per stream, ``uniform()`` giving the stream's
    ``random()`` draws in order (``random(size)`` gives the same numbers).

    One Philox serves every stream: set to a state with the stream's key,
    counter 0 and an empty buffer, it is in the state of a fresh
    ``rng.generator()``, at a quarter of the cost of building one.  The state
    setter copies the arrays and takes the key as a tuple of ints, so one state
    dict serves too, with its key swapped.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}

    def uniforms():
        while True:
            yield from gen.random(_BLOCK).tolist()

    out = []
    for rng in rngs:
        fresh["state"]["key"] = rng.key
        bits.state = fresh
        out.append(draw(uniforms().__next__))
    return out


def _streams(t: int, seed: int) -> list[RngStream]:
    if t < 1:
        raise ValueError("tree count must be at least 1")
    return [RngStream(seed=seed, stream=s) for s in range(t)]


def _sampler(graph: EdgeGraph, forced, pieces):
    """Draw function of the tree law on ``graph`` that holds the ``forced`` edges
    and one tree of every piece, built once per law (``LambdaWeights._sampler``).

    The forced edges and the pieces' kept edges must be distinct, and the
    forced edges plus one tree per piece must number n - 1, so every draw has
    n - 1 distinct edges.  It keeps a walk per piece, each piece edge lifted
    to its two incidence entries in ``graph``, and the incidence lists of the
    forced edges.  A draw copies those lists, appends the entries of the edges
    the walks return on one stream, and roots the tree with ``_root``.
    """
    # the draw keeps no reference to the law, which caches it: a cycle would
    # hold every law until the cyclic garbage collector runs
    n, m = graph.n, len(graph.edges)
    kept = [i for piece in pieces for i in piece.kept]
    distinct = {*forced, *kept}
    outside = sorted(i for i in distinct if not 0 <= i < m)
    if outside:
        raise ValueError(f"edge index {outside[0]} is not in 0..{m - 1}")
    if len(distinct) < len(forced) + len(kept) or len(forced) + sum(p.graph.n - 1 for p in pieces) != n - 1:
        raise ValueError(f"a spanning tree on {n} vertices needs {n - 1} distinct edges")
    forced_inc = _incidence(graph, forced)
    walks = [(_Walk(piece.lam, piece.graph),
              [(a, (b, i), b, (a, i)) for i in piece.kept for a, b in [graph.edges[i]]])
             for piece in pieces]

    def draw(uniform) -> tuple[list[int], list[int], list[int], list[int]]:
        inc = list(map(list, forced_inc))
        for walk, lifted in walks:
            for j in walk.edges(uniform):
                a, at_a, b, at_b = lifted[j]
                inc[a].append(at_a)
                inc[b].append(at_b)
        return _root(n, inc)

    return draw


def sample_batch(lam, graph: EdgeGraph, t: int, seed: int) -> TreeBatch:
    """``t`` independent trees of the law with edge weights ``lam`` on ``graph``,
    on streams 0..t-1 of ``seed``: the law with no forced edge and one piece
    that is the whole graph.

    Edges with zero weight are treated as absent; the remaining support must
    be connected.  Stream indexing makes tree s independent of ``t`` and of
    draw order, so the batch could be filled concurrently and still assemble
    identically.
    """
    whole = SamplingPiece(graph=graph, lam=lam, kept=tuple(range(len(graph.edges))))
    return TreeBatch(_draw_streams(_sampler(graph, (), (whole,)), _streams(t, seed)))


def sample_fitted_batch(dist: LambdaWeights, t: int, seed: int) -> TreeBatch:
    """``t`` fitted trees on streams 0..t-1 of ``seed``: the forced edges plus
    one tree per piece, all pieces drawn in order on one stream."""
    return TreeBatch(_draw_streams(dist._sampler, _streams(t, seed)))
