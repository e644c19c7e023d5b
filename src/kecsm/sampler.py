"""Exact spanning-tree sampling from weighted tree laws.

A law is its forced edges plus one tree per piece, rooted into a
:class:`TreeBatch`.  A law with few trees draws a whole batch at once: one
bisection picks every piece of every tree in the tables of the pieces'
spanning trees, and each tree is rooted once and then gathered from a table
of rooted rows.  Any other law runs Wilson's loop-erased random walk, exact
for any positive weights and parallel edges, per piece and tree.  Both draw
the same law, and a two-vertex piece the same edge from the same uniform.
"""

from __future__ import annotations

import math
from bisect import bisect_right
from itertools import accumulate, chain, combinations
from struct import Struct
from typing import TYPE_CHECKING

import numpy as np

from .core import as_int, spanning_forest

if TYPE_CHECKING:
    from .treedist import EdgeGraph, LambdaWeights, SamplingPiece

_MASK64 = (1 << 64) - 1
_BLOCK = 32  # draws per generator call of a walk; a tree of the random-closure n = 48 laws takes 12-36
_MEMO_BYTES = 1 << 20  # a law draws by tables when the rooted rows of all its trees fit in this
# trees times vertices of one batch: its four (T, n) intp arrays stay within 1 GiB
MAX_BATCH_ENTRIES = 1 << 25


class BatchTooLargeError(ValueError):
    """A tree batch asked for more trees times vertices than ``MAX_BATCH_ENTRIES``."""


def generator(seed: int, stream: int) -> np.random.Generator:
    """The counter-based random stream ``stream`` of ``seed``: the pair fully
    determines the draws.

    Distinct streams of one seed are independent by construction (Philox keys),
    so batches are reproducible under any execution order.
    """
    # Philox(key=...) casts a tuple holding a value >= 2**63 through float64
    key = np.array((as_int(seed, "seed") & _MASK64, as_int(stream, "stream") & _MASK64), dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


class TreeBatch:
    """Spanning trees of one graph on n vertices as integer arrays, one row per tree.

    Row t of the (T, n) arrays is tree t rooted at vertex 0: ``parent_edge``
    gives the edge from each vertex to its parent (-1 at the root),
    ``preorder`` the vertices in the order a stack DFS from the root visits
    them, and ``size`` each subtree's size, so the subtree of v is the block
    of ``size[v]`` vertices of ``preorder`` that starts at v.  Row t of the
    (T, n - 1) ``edge_indices`` is its edges in increasing order.
    """

    def __init__(self, rows):
        """``rows``: a (T, 3, n) integer array-like, tree t's parent_edge,
        preorder and size; the arrays are copies, cast to ``intp``."""
        rows = np.asarray(rows).transpose(1, 0, 2).astype(np.intp, order="C")
        self.parent_edge, self.preorder, self.size = rows
        self.edge_indices = np.sort(self.parent_edge[:, 1:], axis=1)

    def __len__(self) -> int:
        return len(self.parent_edge)


def _root(n: int, inc) -> tuple[list[int], list[int], list[int]]:
    """Parent edge (-1 at the root), preorder and subtree size of the tree
    whose incidence lists are ``inc``, rooted at 0 by a stack DFS that
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
    return parent_edge, order, size


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


def _table(piece: SamplingPiece) -> tuple[list[tuple[int, ...]], list[float], float]:
    """The spanning trees of ``piece`` as its edge indices in increasing
    order, the trees in lexicographic order, the cumulative weights of all
    but the last, and their total, built once per law for every draw; a draw
    bisects as a walk step does.

    The trees are the (n - 1)-subsets of the edges that ``spanning_forest``
    finds spanning: a law draws by tables only when ``_fits`` bounds their
    count.  A tree's weight is the product of its lambda_e, each split by
    ``math.frexp`` into a mantissa in [1/2, 1) and a power of two, so no
    product overflows or underflows; all weights are then scaled by the one
    power of two that puts the largest exponent at 0.  On a two-vertex piece
    the trees are its edges in order, weighted lambda_e times that power of
    two exactly, so a draw picks the edge the walk's one step picks from the
    same uniform.
    """
    n, edges = piece.graph.n, piece.graph.edges
    trees = [tree for tree in combinations(range(len(edges)), n - 1)
             if len(spanning_forest(n, [edges[i] for i in tree])[0]) == n - 1]
    parts = [math.frexp(w) for w in piece.lam.tolist()]
    products = []
    for tree in trees:
        mantissa, exponent = 1.0, 0
        for j in tree:
            f, e = parts[j]
            mantissa *= f
            exponent += e
        products.append((mantissa, exponent))
    top = max(exponent for _, exponent in products)
    cumw = list(accumulate(math.ldexp(mantissa, exponent - top) for mantissa, exponent in products))
    return trees, cumw[:-1], cumw[-1]


def _generators(keys):
    """A generator in the state of a fresh ``generator(seed, stream)`` for
    each stream's Philox key (``_streams``) in turn, one object reset per key.

    One Philox serves every stream: set to a state with the stream's key,
    counter 0 and an empty buffer, it is in the state of a fresh generator,
    at a quarter of the cost of building one.  The state setter copies the
    arrays and takes the key as a tuple of ints, so one state dict serves
    too, with its key swapped.
    """
    bits = np.random.Philox(key=0)
    gen = np.random.Generator(bits)
    fresh = {"bit_generator": "Philox", "state": {"counter": np.zeros(4, np.uint64), "key": None},
             "buffer": np.zeros(4, np.uint64), "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for key in keys:
        fresh["state"]["key"] = key
        bits.state = fresh
        yield gen


def _uniforms(keys):
    """``uniform()`` for each stream, given by its Philox key (``_streams``),
    in turn: the stream's ``random()`` draws in order, read ``_BLOCK`` at a
    time (``random(size)`` gives the same numbers).  Each one is read to its
    last use before the next is taken, as every stream shares one generator
    (``_generators``)."""
    for gen in _generators(keys):
        yield chain.from_iterable(iter(lambda: gen.random(_BLOCK).tolist(), [])).__next__


def _streams(t: int, seed: int) -> list[tuple[int, int]]:
    """The Philox keys of streams 0..t-1 of ``seed``, as ``generator`` sets them."""
    t, seed = as_int(t, "t"), as_int(seed, "seed")
    if t < 1:
        raise ValueError("tree count must be at least 1")
    return [(seed & _MASK64, s) for s in range(t)]


def check_batch_size(t: int, n: int):
    """BatchTooLargeError when ``t`` trees on ``n`` vertices exceed
    ``MAX_BATCH_ENTRIES``, raised before anything is allocated per tree."""
    if t * n > MAX_BATCH_ENTRIES:
        raise BatchTooLargeError(f"{t} trees on {n} vertices exceed the batch limit of "
                                 f"{MAX_BATCH_ENTRIES} trees times vertices")


def _fits(pieces, room: int) -> bool:
    """Whether the product over the pieces of C(edges, vertices - 1), which
    bounds the law's tree count and each piece's (n - 1)-subsets, is at most
    ``room``."""
    return math.prod(math.comb(len(p.graph.edges), p.graph.n - 1) for p in pieces) <= room


def _sampler(graph: EdgeGraph, forced, pieces):
    """Batch draw of the tree law on ``graph`` that holds the ``forced`` edges
    and one tree of every piece, built once per law (``LambdaWeights._sampler``):
    ``draw(keys)`` is the ``TreeBatch`` of one tree per Philox key (``_streams``).

    The forced edges and the pieces' kept edges must be distinct, and the
    forced edges plus one tree per piece must number n - 1, so every tree has
    n - 1 distinct edges.  A tree, one tree of each piece in piece order on one
    stream, is rooted by ``_root`` into its parent edge, preorder and size rows
    in ``draw.dtype``, the smallest signed integer that holds n and every edge
    index.  When the rows of as many trees as ``_fits`` bounds fit in
    ``_MEMO_BYTES``, a batch takes the first len(pieces) uniforms of each
    stream and picks every piece of every tree by one ``np.searchsorted`` over
    the cuts of all the pieces' ``_table``, keyed as complex (piece, cut) and
    queried at (piece, uniform times total): numpy orders complex numbers
    lexicographically, so each pick is ``bisect_right`` within its piece.  A
    tree's picks fold into one mixed-radix code; ``draw.rows``, a (trees, 3, n)
    array, holds the rows of each code rooted so far, and the batch is one
    gather of it.  Otherwise each piece runs its ``_Walk`` on every stream's
    ``uniform()`` in turn (``_uniforms``), each tree is packed into bytes, and
    ``draw.rows`` is None.
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
    lifts = [[(a, (b, i), b, (a, i)) for i in piece.kept for a, b in [graph.edges[i]]] for piece in pieces]
    dtype = np.min_scalar_type(-max(n, m) - 1)  # -max - 1 fits, so does max

    def tree_rows(picks) -> tuple[list[int], list[int], list[int]]:
        inc = list(map(list, forced_inc))
        for lifted, edges in zip(lifts, picks):
            for j in edges:
                a, at_a, b, at_b = lifted[j]
                inc[a].append(at_a)
                inc[b].append(at_b)
        return _root(n, inc)

    if not _fits(pieces, _MEMO_BYTES // (3 * n * dtype.itemsize)):
        walks = [_Walk(piece) for piece in pieces]
        pack = Struct(f"{3 * n}{dtype.char}").pack

        def draw(keys) -> TreeBatch:
            trees = (tree_rows([walk.edges(uniform) for walk in walks]) for uniform in _uniforms(keys))
            blocks = b"".join(pack(*parent_edge, *order, *size) for parent_edge, order, size in trees)
            return TreeBatch(np.frombuffer(blocks, dtype).reshape(len(keys), 3, n))

        draw.dtype, draw.rows = dtype, None
        return draw

    tables = [_table(piece) for piece in pieces]
    sizes = [len(trees) for trees, _, _ in tables]
    radix = np.array([math.prod(sizes[p + 1:]) for p in range(len(sizes))], np.intp)  # code: sum of pick * radix
    cut_keys = np.array([complex(p, cut) for p, (_, cuts, _) in enumerate(tables) for cut in cuts], complex)
    places = np.arange(len(tables))
    offset = np.searchsorted(cut_keys.real, places) @ radix  # each pick counts the keys of the pieces before it
    totals = np.array([total for _, _, total in tables])
    rows = np.zeros((math.prod(sizes), 3, n), dtype)
    rooted = np.zeros(len(rows), bool)  # set after a code's rows are written: no batch reads a part

    def draw(keys) -> TreeBatch:
        uniforms = np.empty((len(keys), len(tables)))
        for row, gen in zip(uniforms, _generators(keys)):
            gen.random(out=row)
        query = np.empty(uniforms.shape, complex)
        query.real = places
        np.multiply(uniforms, totals, out=query.imag)
        codes = np.searchsorted(cut_keys, query, side="right") @ radix - offset
        for code in set(codes[~rooted[codes]].tolist()):
            rows[code] = tree_rows([trees[i] for (trees, _, _), i in zip(tables, np.unravel_index(code, sizes))])
            rooted[code] = True
        return TreeBatch(rows[codes])

    draw.dtype, draw.rows = dtype, rows
    return draw


def sample_fitted_batch(dist: LambdaWeights, t: int, seed: int) -> TreeBatch:
    """``t`` fitted trees on streams 0..t-1 of ``seed``: the forced edges plus
    one tree per piece, all pieces drawn in order on one stream;
    ``check_batch_size`` bounds t."""
    t = as_int(t, "t")
    check_batch_size(t, dist.graph.n)
    return dist._sampler(_streams(t, seed))
