"""Vertex splitting and identification back.

One chosen vertex u is split into twin nodes u0/v0, every incident edge is
duplicated toward both twins at half its fractional value, and the scaled
vector (2/k)x0 then lies in the spanning tree polytope of the expanded graph.
Spanning trees of the expanded graph correspond to 1-trees (tree plus one
edge) of the original graph once the twins are identified again.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Edge, MetricInstance, MultiEdgeSet, make_edge
from .lp import FractionalSolution
from .treedist import EdgeGraph


@dataclass(frozen=True)
class SplitGraph:
    """Expanded graph with split vertex twins u0 (original index) and v0 (= n).

    ``edges[i]`` is the expanded-graph pair, ``origin[i]`` the original-graph
    edge it identifies back to; ``x0`` and ``cost0`` run parallel to ``edges``.
    ``graph`` is the expanded graph on n0 vertices, built once.
    """

    n: int
    split_vertex: int
    edges: tuple[Edge, ...]
    origin: tuple[Edge, ...]
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
        object.__setattr__(self, "_index", {e: i for i, e in enumerate(self.edges)})
        object.__setattr__(self, "graph", EdgeGraph(n=self.n0, edges=tuple(self.edges)))

    def edge_index(self, e: Edge) -> int:
        return self._index[make_edge(*e)]


def build_split_graph(inst: MetricInstance, x: FractionalSolution,
                      split_vertex: int = 0) -> SplitGraph:
    """Expand the instance at ``split_vertex``, halving incident fractional values.

    Every original edge (u, w) at the split vertex u becomes the two edges
    (u0, w) and (v0, w), each carrying x/2 and the original cost; all other
    edges are copied unchanged.  No edge joins the twins.
    """
    if not 0 <= split_vertex < inst.n:
        raise ValueError(f"split vertex {split_vertex} out of range")
    u = split_vertex
    v0 = inst.n
    edges: list[Edge] = []
    origin: list[Edge] = []
    vals: list[float] = []
    costs: list[float] = []
    for e in inst.edges():
        xe = float(x.values.get(e, 0.0))
        ce = inst.edge_cost(e)
        if u in e:
            w = e[0] if e[1] == u else e[1]
            edges.append(make_edge(u, w))
            edges.append(make_edge(v0, w))
            origin.extend([e, e])
            vals.extend([xe / 2.0, xe / 2.0])
            costs.extend([ce, ce])
        else:
            edges.append(e)
            origin.append(e)
            vals.append(xe)
            costs.append(ce)
    return SplitGraph(
        n=inst.n,
        split_vertex=u,
        edges=tuple(edges),
        origin=tuple(origin),
        x0=np.array(vals),
        cost0=np.array(costs),
    )


def identify_back(g0: SplitGraph, m0: MultiEdgeSet) -> MultiEdgeSet:
    """Merge twin multiplicities onto the original edges; cost is preserved exactly."""
    merged: dict[Edge, int] = {}
    for e, mult in m0.multiplicity.items():
        orig = g0.origin[g0.edge_index(e)]
        merged[orig] = merged.get(orig, 0) + mult
    return MultiEdgeSet(merged)
