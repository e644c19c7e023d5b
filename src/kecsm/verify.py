"""Certification and ground truth: connectivity checks and the exact tiny-instance optimum."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import MetricInstance, MultiEdgeSet, global_min_cut, shrink_min_cut


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Minimum cut value of a multiset and the side of one minimum cut that holds vertex 0."""

    min_cut_value: int
    witness: frozenset[int]
    passes: bool


def verify_k_connectivity(m: MultiEdgeSet, n: int, k: int) -> ConnectivityCertificate:
    """Certify that every cut of the multiset carries at least k edges.

    Contracts edges that no minimum cut needs to cross (``shrink_min_cut``,
    on the integer multiplicities), then runs the one global min cut on the
    supervertices left.  The value is exact and the
    witness is one of the minimum cuts, on the side of vertex 0.  A multiset
    that misses some vertex fails with value 0.
    """
    if n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    for u, v in m.multiplicity:
        if not 0 <= u < v < n:
            raise ValueError(f"edge {(u, v)} has an endpoint outside 0..{n - 1}")
    cuts, rest, members = shrink_min_cut(m.multiplicity, n)
    if rest:
        value, side = global_min_cut(rest, len(members))
        cuts.append((int(value), [x for i in side for x in members[i]]))
    best_value, best_side = min(cuts, key=lambda cut: cut[0])
    side = frozenset(best_side)
    if 0 not in side:
        side = frozenset(range(n)) - side
    return ConnectivityCertificate(min_cut_value=best_value, witness=side, passes=best_value >= k)


class TooLargeError(ValueError):
    """Exact search requested beyond its tractable size."""


def brute_force_opt(inst: MetricInstance) -> tuple[float, MultiEdgeSet]:
    """Exact minimum-cost k-edge-connected multi-subgraph by branch and bound.

    Searches multiplicity vectors edge by edge, pruning on cost against the
    incumbent and on unreachable vertex degrees; each complete vector is
    certified by :func:`verify_k_connectivity` on its exact multiplicities.
    Multiplicity per edge is capped at k: lowering any multiplicity above k
    keeps every cut at k or more, so some optimum respects the cap
    (tested against a plain search up to 2k per edge).  Limited to n <= 5, k <= 6.
    """
    if inst.n > 5 or inst.k > 6:
        raise TooLargeError(f"exact search limited to n <= 5 and k <= 6, got n={inst.n}, k={inst.k}")
    k = inst.k
    edges = inst.edges()
    m = len(edges)
    costs = np.array([inst.edge_cost(e) for e in edges])

    # incumbent: ceil(k/2) copies of a doubled spanning tree is always feasible
    copies = 2 * math.ceil(k / 2)
    start = MultiEdgeSet({e: copies for e in inst.mst().multiplicity})
    best_cost = start.total_cost(inst.cost)
    best_vec = [start.multiplicity.get(e, 0) for e in edges]

    remaining_deg_cap = [np.zeros(m + 1) for _ in range(inst.n)]
    for v in range(inst.n):
        for j in range(m - 1, -1, -1):
            remaining_deg_cap[v][j] = remaining_deg_cap[v][j + 1] + (k if v in edges[j] else 0)

    vec = [0] * m

    def search(j: int, cost_so_far: float, degrees: list[int]):
        nonlocal best_cost, best_vec
        if cost_so_far >= best_cost - 1e-12:
            return
        if j == m:
            # the cost test on entry already holds, so only k-connectivity is left
            if verify_k_connectivity(MultiEdgeSet(dict(zip(edges, vec))), inst.n, k).passes:
                best_cost = cost_so_far
                best_vec = list(vec)
            return
        for v in range(inst.n):
            if degrees[v] + remaining_deg_cap[v][j] < k:
                return
        u, w = edges[j]
        for mult in range(k + 1):
            vec[j] = mult
            degrees[u] += mult
            degrees[w] += mult
            search(j + 1, cost_so_far + mult * costs[j], degrees)
            degrees[u] -= mult
            degrees[w] -= mult
        vec[j] = 0

    search(0, 0.0, [0] * inst.n)
    solution = MultiEdgeSet({e: best_vec[i] for i, e in enumerate(edges) if best_vec[i]})
    return float(best_cost), solution
