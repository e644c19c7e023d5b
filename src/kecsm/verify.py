"""Certification and ground truth: connectivity checks and the exact tiny-instance optimum."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CutSpec, MetricInstance, MultiEdgeSet, global_min_cut


@dataclass(frozen=True)
class ConnectivityCertificate:
    """Minimum cut value of a multiset together with a witnessing side."""

    min_cut_value: int
    witness: CutSpec
    passes: bool


def verify_k_connectivity(m: MultiEdgeSet, n: int, k: int) -> ConnectivityCertificate:
    """Certify that every cut of the multiset carries at least k edges.

    Contracts edges that no minimum cut needs to cross (the exact tests of
    Padberg and Rinaldi, on the integer multiplicities), then runs the one
    global min cut on the supervertices left.  The value is exact and the
    witness is one of the minimum cuts, on the side of vertex 0.  A multiset
    that misses some vertex fails with value 0.
    """
    if n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    adj: list[dict[int, int]] = [{} for _ in range(n)]
    for (u, v), mult in m.multiplicity.items():
        if not 0 <= u < v < n:
            raise ValueError(f"edge {(u, v)} has an endpoint outside 0..{n - 1}")
        adj[u][v] = adj[v][u] = mult
    deg = [sum(a.values()) for a in adj]
    members = [[v] for v in range(n)]
    low = min(range(n), key=deg.__getitem__)
    best_value, best_side = deg[low], [low]
    # The degree of a supervertex is the cut around it, and it is recorded in
    # best_value when the supervertex is formed, so the min cut of m is always
    # min(best_value, min cut of the shrunk graph).  Contracting uv keeps that:
    # 1. if w(uv) >= best_value, as a cut crossing uv carries at least w(uv);
    # 2. if 2 w(uv) >= d(u): for a side S with u in S, v not in S and S != {u},
    #    cut(S - u) - cut(S) = w(u, S - u) - w(u, V - S) <= d(u) - 2 w(uv) <= 0,
    #    so some minimum cut is {u}, already recorded, or keeps u and v together.
    # A merged-away vertex keeps an empty dict; while best_value > 0 no live
    # supervertex has one.
    alive, work = n, list(range(n))
    while work and best_value and alive > 2:
        u = work.pop()
        for v, w in adj[u].items():
            if w >= best_value or 2 * w >= deg[u] or 2 * w >= deg[v]:
                break
        else:
            continue
        if len(adj[u]) < len(adj[v]):
            u, v = v, u
        keep, gone = adj[u], adj[v]  # merge the smaller dict, v's, into u's
        del keep[v]
        for x, wx in gone.items():
            if x != u:
                del adj[x][v]
                keep[x] = adj[x][u] = keep.get(x, 0) + wx
        gone.clear()
        deg[u] += deg[v] - 2 * w
        members[u] += members[v]
        alive -= 1
        work.append(u)
        if deg[u] < best_value:
            best_value, best_side = deg[u], list(members[u])
            work = [x for x in range(n) if adj[x]]  # rule 1 may now hold anywhere
    rest = [v for v in range(n) if adj[v]]
    if best_value and len(rest) > 2:
        label = {v: i for i, v in enumerate(rest)}
        weights = {(label[u], label[v]): w for u in rest for v, w in adj[u].items() if u < v}
        value, spec = global_min_cut(weights, len(rest))
        if value < best_value:
            best_value, best_side = int(value), [x for i in spec.side for x in members[rest[i]]]
    side = frozenset(best_side)
    if 0 not in side:
        side = frozenset(range(n)) - side
    return ConnectivityCertificate(min_cut_value=best_value, witness=CutSpec(side=side, n=n),
                                   passes=best_value >= k)


class TooLargeError(ValueError):
    """Exact search requested beyond its tractable size."""


def brute_force_opt(inst: MetricInstance, cap: int | None = None) -> tuple[float, MultiEdgeSet]:
    """Exact minimum-cost k-edge-connected multi-subgraph by branch and bound.

    Searches multiplicity vectors edge by edge, pruning on cost against the
    incumbent and on unreachable vertex degrees.  Multiplicity per edge is
    capped at k: lowering any multiplicity above k keeps every cut at k or
    more, so some optimum respects the cap (unit-tested against a 2k-cap
    search).  Limited to n <= 5, k <= 6.
    """
    if inst.n > 5 or inst.k > 6:
        raise TooLargeError(f"exact search limited to n <= 5 and k <= 6, got n={inst.n}, k={inst.k}")
    k = inst.k
    cap = k if cap is None else cap
    edges = inst.edges()
    m = len(edges)
    costs = np.array([inst.edge_cost(e) for e in edges])

    # incumbent: ceil(k/2) copies of a doubled spanning tree is always feasible
    copies = 2 * math.ceil(k / 2)
    start = MultiEdgeSet({e: copies for e in inst.mst().multiplicity})
    best_cost = start.total_cost(inst.cost)
    best_vec = [start.multiplicity.get(e, 0) for e in edges]

    incident = [[j for j, e in enumerate(edges) if v in e] for v in range(inst.n)]
    remaining_deg_cap = [np.zeros(m + 1) for _ in range(inst.n)]
    for v in range(inst.n):
        for j in range(m - 1, -1, -1):
            remaining_deg_cap[v][j] = remaining_deg_cap[v][j + 1] + (cap if v in edges[j] else 0)

    vec = [0] * m

    def search(j: int, cost_so_far: float, degrees: list[int]):
        nonlocal best_cost, best_vec
        if cost_so_far >= best_cost - 1e-12:
            return
        if j == m:
            mult = MultiEdgeSet({e: vec[i] for i, e in enumerate(edges) if vec[i]})
            value, _ = global_min_cut({e: float(mu) for e, mu in mult.multiplicity.items()}, inst.n)
            if value >= k - 1e-9 and cost_so_far < best_cost - 1e-12:
                best_cost = cost_so_far
                best_vec = list(vec)
            return
        for v in range(inst.n):
            if degrees[v] + remaining_deg_cap[v][j] < k:
                return
        u, w = edges[j]
        for mult in range(cap + 1):
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
