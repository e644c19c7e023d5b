"""Vertex splitting and identification back.

One chosen vertex u is split into twin nodes u0/v0, every incident edge is
duplicated toward both twins at half its fractional value, and the scaled
vector (2/k)x0 then lies in the spanning tree polytope of the expanded graph.
Spanning trees of the expanded graph correspond to 1-trees (tree plus one
edge) of the original graph once the twins are identified again: an edge
at v0 goes back to the same edge at u0, and every other edge is its own.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import chain

import numpy as np

from .core import Edge, MetricInstance, MultiEdgeSet, make_edge
from .lp import FractionalSolution
from .treedist import EdgeGraph


@dataclass(frozen=True)
class SplitGraph:
    """Expanded graph with split vertex twins u0 (original index) and v0 (= n).

    ``edges[i]`` is the expanded-graph pair; ``x0`` and ``cost0`` run
    parallel to ``edges``.  ``graph`` is the expanded graph on n0 vertices,
    built once.
    """

    n: int
    split_vertex: int
    edges: tuple[Edge, ...]
    x0: np.ndarray
    cost0: np.ndarray
    graph: EdgeGraph = field(init=False, repr=False, compare=False)

    @property
    def n0(self) -> int:
        return self.n + 1

    @property
    def u0(self) -> int:
        return self.split_vertex

    @property
    def v0(self) -> int:
        return self.n

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=float).copy()
        cost0 = np.asarray(self.cost0, dtype=float).copy()
        x0.flags.writeable = False
        cost0.flags.writeable = False
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "cost0", cost0)
        object.__setattr__(self, "graph", EdgeGraph(n=self.n0, edges=tuple(self.edges)))

    def origin(self, e: Edge) -> Edge:
        """The original edge that the canonical expanded-graph edge ``e`` identifies back to."""
        return make_edge(self.u0, e[0]) if e[1] == self.v0 else e


def build_split_graph(inst: MetricInstance, x: FractionalSolution,
                      split_vertex: int = 0) -> SplitGraph:
    """Expand the instance at ``split_vertex``, halving incident fractional values.

    Every original edge (u, w) at the split vertex u becomes the two edges
    (u0, w) and (v0, w), each carrying x/2 and the original cost; all other
    edges are copied unchanged.  No edge joins the twins.
    """
    if not 0 <= split_vertex < inst.n:
        raise ValueError(f"split vertex {split_vertex} out of range")
    n, u = inst.n, split_vertex
    iu, iv = np.triu_indices(n, 1)  # the edges in lexicographic order
    xm = np.zeros((n, n))
    if x.values:  # x on the upper triangle; keys that are not edges count for none
        ends = np.fromiter(chain.from_iterable(x.values), int, 2 * len(x.values)).reshape(-1, 2)
        vals = np.fromiter(x.values.values(), float, len(x.values))
        ok = (0 <= ends[:, 0]) & (ends[:, 0] < ends[:, 1]) & (ends[:, 1] < n)
        xm[ends[ok, 0], ends[ok, 1]] = vals[ok]
    xe, at = xm[iu, iv], (iu == u) | (iv == u)
    copies = np.where(at, 2, 1)  # (u, w) is followed by its twin (w, v0)
    a, b = np.repeat(iu, copies), np.repeat(iv, copies)
    twin = np.cumsum(copies)[at] - 1
    a[twin], b[twin] = iu[at] + iv[at] - u, n
    return SplitGraph(
        n=n,
        split_vertex=u,
        edges=tuple(zip(a.tolist(), b.tolist())),
        x0=np.repeat(np.where(at, xe / 2.0, xe), copies),
        cost0=np.repeat(inst.cost[iu, iv], copies),
    )


def identify_back(g0: SplitGraph, *counts) -> MultiEdgeSet:
    """Merge the sum of ``counts``, mappings of expanded-graph edge indices to
    multiplicities, onto the original edges, keyed in the order of their first
    nonzero count (the mappings taken in order); cost is preserved exactly.
    An index outside 0..m-1 raises ValueError.
    """
    m = len(g0.edges)
    merged: dict[Edge, int] = {}
    for i, mult in chain.from_iterable(c.items() for c in counts):
        if not 0 <= i < m:
            raise ValueError(f"edge index {i} is not in 0..{m - 1}")
        if mult:
            orig = g0.origin(g0.edges[i])
            merged[orig] = merged.get(orig, 0) + mult
    return MultiEdgeSet(merged)
