"""Exact spanning-tree sampling from weighted tree laws.

The sampler is Wilson's loop-erased random walk, which is exact for
arbitrary positive weights and supports parallel edges.  Every law is drawn
one way: its forced edges plus one walk per piece, rooted into a
:class:`TreeBatch`.

A law with few trees also keeps a memo from the walks' picks to the rooted
rows of the tree they give, so that a repeated tree skips the rooting; the
walks still run, so every draw is the same with or without it.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from itertools import accumulate, chain
from struct import Struct

import numpy as np

from .core import as_int
from .treedist import EdgeGraph, LambdaWeights, SamplingPiece

_MASK64 = (1 << 64) - 1
_BLOCK = 32  # draws per generator call; a fitted tree on the n = 32 benchmark laws takes 2-20
_MEMO_BYTES = 1 << 20  # a law keeps a memo when the rooted rows of all its trees fit in this


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


class TreeBatch:
    """Spanning trees of one graph on n vertices as integer arrays, one row per tree.

    Row t of the (T, n) arrays is tree t rooted at vertex 0: ``parent`` and
    ``parent_edge`` give each vertex's parent and the edge to it (-1 at the
    root), ``preorder`` the vertices in the order a stack DFS from the root
    visits them, and ``size`` each subtree's size, so the subtree of v is
    the block of ``size[v]`` vertices of ``preorder`` that starts at v.  Row
    t of the (T, n - 1) ``edge_indices`` is its edges in increasing order.
    """

    def __init__(self, rows):
        """``rows``: a (T, 4, n) integer array-like, tree t's parent, parent_edge,
        preorder and size; the arrays are copies, cast to ``intp``."""
        rows = np.asarray(rows).transpose(1, 0, 2).astype(np.intp, order="C")
        self.parent, self.parent_edge, self.preorder, self.size = rows
        self.edge_indices = np.sort(self.parent_edge[:, 1:], axis=1)

    def __len__(self) -> int:
        return len(self.parent)


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

    def __init__(self, piece: SamplingPiece):
        n = self.n = piece.graph.n
        inc = _incidence(piece.graph, range(len(piece.graph.edges)))
        self.inc = [[((w - 1) % n, i) for w, i in inc[v]] for v in range(1, n)]
        weights = piece.lam.tolist()
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
    t, seed = as_int(t, "t"), as_int(seed, "seed")
    if t < 1:
        raise ValueError("tree count must be at least 1")
    return [RngStream(seed=seed, stream=s) for s in range(t)]


def _fits(pieces, room: int) -> bool:
    """Whether the product over the pieces of C(edges, vertices - 1), which
    bounds the law's tree count, is at most ``room``; stops once it is not."""
    bound = 1
    for piece in pieces:
        m, r = len(piece.graph.edges), piece.graph.n - 1
        for i in range(1, r + 1):  # this piece's factor is now C(m - r + i, i), exact and rising
            bound = bound * (m - r + i) // i
            if bound > room:
                return False
    return bound <= room


def _sampler(graph: EdgeGraph, forced, pieces):
    """Draw function of the tree law on ``graph`` that holds the ``forced`` edges
    and one tree of every piece, built once per law (``LambdaWeights._sampler``).

    The forced edges and the pieces' kept edges must be distinct, and the
    forced edges plus one tree per piece must number n - 1, so every draw has
    n - 1 distinct edges.  It keeps a walk per piece, each piece edge lifted
    to its two incidence entries in ``graph``, and the incidence lists of the
    forced edges.  A draw runs the walks on one stream, copies those lists,
    appends the entries of the edges the walks return, roots the tree with
    ``_root`` and returns its parent, parent edge, preorder and size rows as
    one block of bytes of ``draw.dtype``, the smallest signed integer that
    holds n and every edge index.  When the blocks of every tree the pieces
    could give fit in ``_MEMO_BYTES``, ``draw.memo`` maps the edges the walks
    returned to the block of each tree rooted so far, and a draw that finds
    them there returns that block; otherwise ``draw.memo`` is None.
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
    walks = [_Walk(piece) for piece in pieces]
    lifts = [[(a, (b, i), b, (a, i)) for i in piece.kept for a, b in [graph.edges[i]]] for piece in pieces]
    dtype = np.min_scalar_type(-max(n, m) - 1)  # -max - 1 fits, so does max
    pack = Struct(f"{4 * n}{dtype.char}").pack
    memo = {} if _fits(pieces, _MEMO_BYTES // (4 * n * dtype.itemsize)) else None

    def draw(uniform) -> bytes:
        picks = [walk.edges(uniform) for walk in walks]
        if memo is not None:
            key = tuple(chain.from_iterable(picks))
            block = memo.get(key)
            if block is not None:
                return block
        inc = list(map(list, forced_inc))
        for lifted, edges in zip(lifts, picks):
            for j in edges:
                a, at_a, b, at_b = lifted[j]
                inc[a].append(at_a)
                inc[b].append(at_b)
        parent, parent_edge, order, size = _root(n, inc)
        block = pack(*parent, *parent_edge, *order, *size)
        if memo is not None:
            memo[key] = block
        return block

    draw.dtype, draw.memo = dtype, memo
    return draw


def _batch(draw, rngs) -> TreeBatch:
    """The trees ``draw`` gives on the streams ``rngs``, one ``TreeBatch`` row each."""
    blocks = _draw_streams(draw, rngs)
    return TreeBatch(np.frombuffer(b"".join(blocks), draw.dtype).reshape(len(blocks), 4, -1))


def sample_fitted_batch(dist: LambdaWeights, t: int, seed: int) -> TreeBatch:
    """``t`` fitted trees on streams 0..t-1 of ``seed``: the forced edges plus
    one tree per piece, all pieces drawn in order on one stream."""
    return _batch(dist._sampler, _streams(t, seed))
