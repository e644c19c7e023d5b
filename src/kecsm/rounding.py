"""Randomized tree-based rounding of the fractional solution.

The rounded output is the multiset union of ceil(k/2) sampled spanning trees,
a block of MST copies, and per-tree augmentation edges: a tree edge gets one
extra copy when its fundamental cut is covered by fewer than
k - alpha*sqrt(k/2 - 1) union-tree edges and the cut keeps the split twins on
one side.  The result is always k-edge-connected after identification.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass

import numpy as np

from .core import MultiEdgeSet, min_spanning_tree
from .sampler import SpanningTree, sample_fitted_batch, tree_from_edges
from .split import SplitGraph, identify_back
from .treedist import LambdaWeights


def default_alpha(k: int) -> float:
    """Default augmentation threshold parameter sqrt(ln(k/2)); 0 for k in {2, 3}."""
    if k <= 3:
        return 0.0
    return math.sqrt(math.log(k / 2.0))


@dataclass(frozen=True)
class RoundingParams:
    """Resolved parameters of one rounding run."""

    k: int
    alpha: float
    tree_count: int
    mst_copies: int
    seed: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        cap = math.sqrt(max(self.k / 2.0 - 1.0, 0.0))
        if self.alpha < 0 or self.alpha > cap + 1e-12:
            raise ValueError(f"alpha={self.alpha} outside [0, sqrt(k/2-1)]={cap}")
        if self.tree_count < 1 or self.mst_copies < 0:
            raise ValueError("need tree_count >= 1 and mst_copies >= 0")

    @classmethod
    def make(cls, k: int, alpha: float | None = None, seed: int = 0) -> "RoundingParams":
        cap = math.sqrt(max(k / 2.0 - 1.0, 0.0))
        a = default_alpha(k) if alpha is None else min(float(alpha), cap)
        # mst_copies = ceil of the same float the threshold subtracts, so the
        # pair (threshold, copies) stays exactly consistent
        return cls(
            k=k,
            alpha=a,
            tree_count=math.ceil(k / 2),
            mst_copies=math.ceil(a * cap),
            seed=seed,
        )

    @property
    def threshold(self) -> float:
        """Fundamental-cut coverage below this triggers an augmentation copy."""
        return self.k - self.alpha * math.sqrt(max(self.k / 2.0 - 1.0, 0.0))


def mst(g0: SplitGraph) -> SpanningTree:
    """Minimum spanning tree of the expanded graph; ties break by edge index."""
    return tree_from_edges(g0.graph, min_spanning_tree(g0.n0, g0.edges, g0.cost0))


def fundamental_cut_counts(trees: list[SpanningTree], t_star: MultiEdgeSet,
                           g0: SplitGraph) -> tuple[np.ndarray, np.ndarray]:
    """Union-tree coverage of every fundamental cut of every tree, and which cuts split the twins.

    Entry (t, v) of both (T, n0) arrays belongs to the cut that removing the
    edge between v and its parent in ``trees[t]`` creates: the count of t_star
    edges (with multiplicity) crossing it, and whether u0 and v0 lie on
    opposite sides.  Column 0, the root, reads 0 and False.  A vertex w lies
    below that edge when tin[v] <= tin[w] < tin[v] + size[v], tin being the
    preorder position; an edge crosses the cut when exactly one end does.
    """
    n0 = g0.n0
    # unsigned positions that hold n0: a w before v wraps around above every size
    dtype = np.min_scalar_type(n0)
    tin = np.empty((len(trees), n0), dtype=dtype)
    np.put_along_axis(tin, np.array([tr.preorder for tr in trees]), np.arange(n0, dtype=dtype), axis=1)
    size = np.array([tr.size for tr in trees], dtype=dtype)
    # below[t, w, v]: w lies below the edge above v
    below = (tin[:, :, None] - tin[:, None, :]) < size[:, None, :]
    ends = np.array(list(t_star.multiplicity), dtype=np.intp).reshape(-1, 2)
    mult = np.fromiter(t_star.multiplicity.values(), dtype=np.int64, count=len(ends))
    crosses = below[:, ends[:, 0]]
    crosses ^= below[:, ends[:, 1]]
    counts = np.einsum("tev,e->tv", crosses, mult)
    return counts, below[:, g0.u0] != below[:, g0.v0]


@dataclass(frozen=True)
class RoundingOutput:
    """One rounding run: the three building blocks and the identified result."""

    t_star: MultiEdgeSet
    b_set: MultiEdgeSet
    f_set: MultiEdgeSet
    final: MultiEdgeSet
    cost_t_star: float
    cost_b: float
    cost_f: float
    augmentations_per_tree: tuple[int, ...]

    @property
    def total_cost(self) -> float:
        return self.cost_t_star + self.cost_b + self.cost_f

    @property
    def augmentation_count(self) -> int:
        return sum(self.augmentations_per_tree)


def run_rounding(g0: SplitGraph, dist: LambdaWeights, params: RoundingParams) -> RoundingOutput:
    """Sample, base, and augment; deterministic given (params.seed, params).

    The union multiset has exactly tree_count * (n0 - 1) edges; the base block
    is mst_copies identical MST copies; augmentation adds one extra copy of a
    tree edge itself, never a substitute.
    """
    trees = sample_fitted_batch(dist, params.tree_count, params.seed)
    tstar_idx: Counter[int] = Counter()
    for tr in trees:
        tstar_idx.update(tr.edge_indices)
    t_star = MultiEdgeSet({g0.edges[i]: m for i, m in tstar_idx.items()})

    base = mst(g0)
    b_idx: Counter[int] = Counter()
    if params.mst_copies:
        for i in base.edge_indices:
            b_idx[i] = params.mst_copies
    b_set = MultiEdgeSet({g0.edges[i]: m for i, m in b_idx.items()})

    counts, splits_twins = fundamental_cut_counts(trees, t_star, g0)
    # column 0 is the root, which has no tree edge
    augment = ((counts < params.threshold) & ~splits_twins)[:, 1:]
    edges = np.array([tr.parent_edge[1:] for tr in trees])
    f_idx = Counter(edges[augment].tolist())
    aug_counts = augment.sum(axis=1).tolist()
    f_set = MultiEdgeSet({g0.edges[i]: m for i, m in f_idx.items()})

    final = identify_back(g0, t_star.union(b_set).union(f_set))
    cost = lambda idx: float(sum(g0.cost0[i] * m for i, m in idx.items()))
    return RoundingOutput(
        t_star=t_star,
        b_set=b_set,
        f_set=f_set,
        final=final,
        cost_t_star=cost(tstar_idx),
        cost_b=cost(b_idx),
        cost_f=cost(f_idx),
        augmentations_per_tree=tuple(aug_counts),
    )
