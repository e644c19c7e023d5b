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
from .sampler import TreeBatch, sample_fitted_batch
from .split import SplitGraph, identify_back
from .treedist import LambdaWeights


def default_alpha(k: int) -> float:
    """Default augmentation threshold parameter sqrt(ln(k/2)); 0 for k in {2, 3}."""
    if k <= 3:
        return 0.0
    return math.sqrt(math.log(k / 2.0))


def _alpha_cap(k: int) -> float:
    """The largest alpha for k: sqrt(k/2 - 1), and 0 for k <= 2."""
    return math.sqrt(max(k / 2.0 - 1.0, 0.0))


@dataclass(frozen=True)
class RoundingParams:
    """Parameters of one rounding run; k and alpha fix the counts and the threshold."""

    k: int
    alpha: float
    seed: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError("k must be at least 2")
        cap = _alpha_cap(self.k)
        if not 0 <= self.alpha <= cap + 1e-12:  # also a NaN alpha
            raise ValueError(f"alpha={self.alpha} outside [0, sqrt(k/2-1)]={cap}")

    @classmethod
    def make(cls, k: int, alpha: float | None = None, seed: int = 0) -> "RoundingParams":
        """``default_alpha(k)`` when alpha is None; an alpha above sqrt(k/2 - 1) is lowered to it."""
        return cls(k=k, alpha=default_alpha(k) if alpha is None else min(float(alpha), _alpha_cap(k)),
                   seed=seed)

    @property
    def tree_count(self) -> int:
        return math.ceil(self.k / 2)

    @property
    def mst_copies(self) -> int:
        # the ceil of the float the threshold subtracts, so the two stay exactly consistent
        return math.ceil(self.alpha * _alpha_cap(self.k))

    @property
    def threshold(self) -> float:
        """Fundamental-cut coverage below this triggers an augmentation copy."""
        return self.k - self.alpha * _alpha_cap(self.k)


def mst(g0: SplitGraph) -> list[int]:
    """Edge indices of a minimum spanning tree of the expanded graph, in
    Kruskal order; ties break by edge index."""
    return min_spanning_tree(g0.n0, g0.edges, g0.cost0)


def fundamental_cut_counts(trees: TreeBatch, t_star: Counter,
                           g0: SplitGraph) -> tuple[np.ndarray, np.ndarray]:
    """Union-tree coverage of every fundamental cut of every tree, and which cuts split the twins.

    Entry (t, v) of both (T, n0) arrays belongs to the cut that removing the
    edge between v and its parent in ``trees[t]`` creates: the count of t_star
    edge indices (with multiplicity) crossing it, and whether u0 and v0 lie on
    opposite sides.  Column 0, the root, reads 0 and False.  A vertex w lies
    below that edge when tin[v] <= tin[w] < tin[v] + size[v], tin being the
    preorder position; an edge crosses the cut when exactly one end does.
    """
    n0 = g0.n0
    # unsigned positions that hold n0: a w before v wraps around above every size
    dtype = np.min_scalar_type(n0)
    tin = np.empty(trees.preorder.shape, dtype=dtype)
    np.put_along_axis(tin, trees.preorder, np.arange(n0, dtype=dtype), axis=1)
    size = trees.size.astype(dtype)
    # below[t, w, v]: w lies below the edge above v
    below = (tin[:, :, None] - tin[:, None, :]) < size[:, None, :]
    ends = np.array([g0.edges[i] for i in t_star], dtype=np.intp).reshape(-1, 2)
    mult = np.fromiter(t_star.values(), dtype=np.int64, count=len(ends))
    crosses = below[:, ends[:, 0]]
    crosses ^= below[:, ends[:, 1]]
    counts = np.einsum("tev,e->tv", crosses, mult)
    return counts, below[:, g0.u0] != below[:, g0.v0]


@dataclass(frozen=True)
class RoundingOutput:
    """One rounding run: T*, B and F as edge-index counts, and the identified result."""

    t_star: Counter[int]
    b_set: Counter[int]
    f_set: Counter[int]
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
    # tree by tree, each in increasing order: the first-seen order of the keys fixes the cost sums
    t_star: Counter[int] = Counter(trees.edge_indices.ravel().tolist())

    b_set: Counter[int] = Counter()
    copies = params.mst_copies
    if copies:
        for i in sorted(mst(g0)):
            b_set[i] = copies

    counts, splits_twins = fundamental_cut_counts(trees, t_star, g0)
    # column 0 is the root, which has no tree edge
    augment = ((counts < params.threshold) & ~splits_twins)[:, 1:]
    f_set = Counter(trees.parent_edge[:, 1:][augment].tolist())
    aug_counts = augment.sum(axis=1).tolist()

    cost = lambda idx: float(sum(g0.cost0[i] * m for i, m in idx.items()))
    return RoundingOutput(
        t_star=t_star,
        b_set=b_set,
        f_set=f_set,
        final=identify_back(g0, t_star, b_set, f_set),
        cost_t_star=cost(t_star),
        cost_b=cost(b_set),
        cost_f=cost(f_set),
        augmentations_per_tree=tuple(aug_counts),
    )
