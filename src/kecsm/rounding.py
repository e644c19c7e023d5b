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

from .core import MultiEdgeSet, min_spanning_tree
from .sampler import SpanningTree, sample_fitted_batch, tree_from_edges
from .split import SplitGraph, identify_back
from .treedist import LambdaWeights, graph_of_split


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
    return tree_from_edges(graph_of_split(g0), min_spanning_tree(g0.n0, g0.edges, g0.cost0))


def _lca(tree: SpanningTree, depth: list[int], a: int, b: int) -> int:
    while depth[a] > depth[b]:
        a = tree.parent[a]
    while depth[b] > depth[a]:
        b = tree.parent[b]
    while a != b:
        a = tree.parent[a]
        b = tree.parent[b]
    return a


def fundamental_cut_counts(tree: SpanningTree, t_star: MultiEdgeSet,
                           g0: SplitGraph) -> dict[int, int]:
    """Union-tree coverage of every fundamental cut of ``tree``.

    For each tree edge e, counts the t_star edges (with multiplicity) crossing
    the cut that removing e creates.  Computed by path increments: an edge
    (a, b) of t_star crosses exactly the fundamental cuts of the tree edges on
    the a-b tree path, so difference counters at a, b, and their meeting point
    accumulate all counts in one subtree-sum pass.

    Returns a mapping from expanded-graph edge index (tree edges only) to count.
    """
    depth = tree.depth
    diff = [0] * tree.n
    for (a, b), mult in t_star.multiplicity.items():
        meet = _lca(tree, depth, a, b)
        diff[a] += mult
        diff[b] += mult
        diff[meet] -= 2 * mult
    order = sorted(range(tree.n), key=lambda v: depth[v], reverse=True)
    sub = list(diff)
    for v in order:
        if tree.parent[v] >= 0:
            sub[tree.parent[v]] += sub[v]
    return {tree.parent_edge[v]: sub[v] for v in range(tree.n) if v != 0}


def u0v0_path_edges(tree: SpanningTree, u0: int, v0: int) -> frozenset[int]:
    """Edge indices on the unique tree path between the split twins."""
    meet = _lca(tree, tree.depth, u0, v0)
    edges = set()
    for v in (u0, v0):
        while v != meet:
            edges.add(tree.parent_edge[v])
            v = tree.parent[v]
    return frozenset(edges)


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

    f_idx: Counter[int] = Counter()
    aug_counts = []
    threshold = params.threshold
    for tr in trees:
        counts = fundamental_cut_counts(tr, t_star, g0)
        path = u0v0_path_edges(tr, g0.u0, g0.v0)
        n_aug = 0
        for e, covered in counts.items():
            if covered < threshold and e not in path:
                f_idx[e] += 1
                n_aug += 1
        aug_counts.append(n_aug)
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
