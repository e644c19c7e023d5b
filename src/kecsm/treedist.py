"""Weighted spanning-tree distributions: marginals, counting, max-entropy fitting.

A positive edge-weight vector lam induces the tree law with probability
proportional to the product of tree-edge weights.  Edge marginals come from
the matrix-tree identity p_e = lam_e * R_eff(e); fitting searches for weights
whose marginals match a target tree-polytope point to within a one-sided
relative slack.

Targets on the polytope boundary have no finite-weight representation, so the
fitter decomposes them: an edge at z = 1 is contracted, and more generally a
tight vertex set S with z(E(S)) = |S| - 1 splits the law into independent
inside/outside factors, each fitted on its own piece.  Before a piece is
swept, one max flow per support pair finds the least tight set holding the
pair, or a set over its tree bound, which rejects z; a piece with no proper
tight set has a finite fit, swept from weights proportional to z.  Sampling
a tree per piece and merging is exact for the factored law, and a union of
independent weighted-tree pieces keeps every cut count a sum of independent
Bernoullis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Edge, NotConnectedError, component_labels, make_edge

# z at or above this is pinned into every tree; at or below the floor it is dropped.
FORCED_Z = 1.0 - 1e-9
DELETED_Z = 1e-12
# slack accepted when testing z(E(S)) = |S| - 1 for tight-set decomposition;
# a residual arc of the tight-set flow at or below it counts as saturated
TIGHT_SET_TOL = 1e-8
# a fitted marginal may exceed its target z_e by at most this relative slack
EPSILON_MARGINAL = 1e-6
# the fit gives up once its sweeps times the edges of the piece it fits reach this
MAX_UPDATES = 100_000


class FitConvergenceError(RuntimeError):
    """Marginal fitting failed to reach its slack within the update budget."""

    def __init__(self, message: str, max_ratio: float, sweeps: int):
        super().__init__(message)
        self.max_ratio = max_ratio
        self.sweeps = sweeps


@dataclass(frozen=True)
class EdgeGraph:
    """Multigraph as an explicit edge list; parallel edges are distinct entries."""

    n: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        for a, b in self.edges:
            if a == b or not (0 <= a < self.n and 0 <= b < self.n):
                raise ValueError(f"bad edge ({a},{b}) for n={self.n}")


def check_finite(name: str, values: np.ndarray):
    """ValueError naming the first entry of ``values`` that is NaN or infinite."""
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        raise ValueError(f"{name}[{bad[0]}] = {values[bad[0]]} is not finite")


def is_connected(graph: EdgeGraph) -> bool:
    return max(component_labels(graph.n, graph.edges)) == 0


def weighted_laplacian(graph: EdgeGraph, lam: np.ndarray) -> np.ndarray:
    lap = np.zeros((graph.n, graph.n))
    for i, (a, b) in enumerate(graph.edges):
        w = lam[i]
        lap[a, a] += w
        lap[b, b] += w
        lap[a, b] -= w
        lap[b, a] -= w
    return lap


def _grounded_inverse(graph: EdgeGraph, lam: np.ndarray) -> np.ndarray:
    """Inverse of the Laplacian with vertex 0 grounded: L = C C^T gives L^-1 = C^-T C^-1."""
    lap = weighted_laplacian(graph, lam)
    try:
        factor = np.linalg.cholesky(lap[1:, 1:])
    except np.linalg.LinAlgError as exc:
        raise NotConnectedError(f"weight support is disconnected or singular: {exc}") from exc
    inv_factor = np.linalg.inv(factor)
    return inv_factor.T @ inv_factor


def _pair_resistances(inv: np.ndarray, edges) -> np.ndarray:
    out = np.empty(len(edges))
    for i, (a, b) in enumerate(edges):
        if a == 0:
            out[i] = inv[b - 1, b - 1]
        elif b == 0:
            out[i] = inv[a - 1, a - 1]
        else:
            out[i] = inv[a - 1, a - 1] + inv[b - 1, b - 1] - 2.0 * inv[a - 1, b - 1]
    return out


def tree_marginals(lam, graph: EdgeGraph) -> np.ndarray:
    """Marginal inclusion probability of every edge under the weighted tree law.

    The marginals must sum to n - 1 (matrix-tree identity); an ArithmeticError
    reports a sum that lost that precision.
    """
    lam = np.asarray(lam, dtype=float)
    if lam.size != len(graph.edges):
        raise ValueError("one weight per edge required")
    if np.any(lam <= 0):
        raise ValueError("edge weights must be positive")
    if graph.n == 1:
        return np.zeros(0)
    p = lam * _pair_resistances(_grounded_inverse(graph, lam), graph.edges)
    total = float(p.sum())
    if not abs(total - (graph.n - 1)) <= 1e-9:  # also a NaN sum
        raise ArithmeticError(f"marginals sum to {total}, expected {graph.n - 1} (matrix-tree identity)")
    return p


def contract_edges(graph: EdgeGraph, label, edges) -> tuple[EdgeGraph, list[int], list[int]]:
    """Graph of the listed ``edges`` with each vertex v renamed ``label[v]``.

    The new graph has max(label) + 1 vertices.  Returns it, the indices of
    the edges it keeps, in order, and those of the edges whose two ends share
    a label: loops, left out of the new graph.
    """
    kept, loops = [], []
    for i in edges:
        a, b = graph.edges[i]
        (loops if label[a] == label[b] else kept).append(i)
    reduced = tuple(make_edge(label[a], label[b]) for a, b in (graph.edges[i] for i in kept))
    return EdgeGraph(n=max(label) + 1, edges=reduced), kept, loops


@dataclass(frozen=True)
class SamplingPiece:
    """One independent factor of a fitted tree law.

    ``graph`` is a connected local multigraph, ``lam`` its positive weights,
    and ``kept[j]`` the original edge index of local edge j.  A spanning tree
    of every piece plus all forced edges is a spanning tree of the original
    graph.  A weight that is not finite and positive, or weights that sum
    to half the float range or more, raise ValueError: below it the walk's
    sums at each vertex, added in another order, stay finite.  A
    disconnected graph raises NotConnectedError.
    """

    graph: EdgeGraph
    lam: np.ndarray
    kept: tuple[int, ...]

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float).copy()
        if lam.size != len(self.graph.edges):
            raise ValueError("one weight per edge required")
        if len(self.kept) != lam.size:
            raise ValueError(f"kept has {len(self.kept)} edge indices for {lam.size} piece edges")
        check_finite("lam", lam)
        if np.any(lam <= 0):
            raise ValueError("edge weights must be positive")
        with np.errstate(over="ignore"):
            total = lam.sum()
        if not total < np.finfo(float).max / 2:
            raise ValueError(f"piece weights sum to {total}, not below half the float range")
        if not is_connected(self.graph):
            raise NotConnectedError("piece graph is not connected")
        lam.flags.writeable = False  # the sampler state of a law is built from it once
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class LambdaWeights:
    """Fitted weights whose tree law has marginals dominated by the target z.

    The law is the ``forced`` edges plus one tree of each of ``pieces``,
    independent weighted-tree factors that hold the weights (scales only
    meaningful within a piece); no other edge of ``graph`` is in a tree.
    """

    graph: EdgeGraph
    fitted_marginals: np.ndarray
    forced: tuple[int, ...]
    sweeps: int
    max_ratio: float
    pieces: tuple[SamplingPiece, ...]

    def __post_init__(self):
        p = np.asarray(self.fitted_marginals, dtype=float).copy()
        p.flags.writeable = False
        object.__setattr__(self, "fitted_marginals", p)

    @cached_property
    def _sampler(self):
        """Draw function of this law, with a walk per piece and the forced
        edges' incidence built on the first draw and kept for every later one;
        for a law with few trees also a memo of the rooted trees it has drawn
        (``sampler._sampler``)."""
        from .sampler import _sampler  # the sampler module imports this one

        return _sampler(self.graph, self.forced, self.pieces)


def _tight_set(piece: EdgeGraph, z: np.ndarray) -> list[int] | None:
    """The least proper tight set S of the target ``z`` on ``piece``, with
    z(E(S)) = |S| - 1, that holds the ends of some support pair, as a sorted
    vertex list, or None when no proper set is tight.

    Source s feeds each v by max(d(v) - 2, 0) and each v drains to sink t by
    max(2 - d(v), 0), with d the z-degree and A the source capacities' sum;
    the piece edges carry z.  The cut around {s} + S is then
    A + 2 (|S| - z(E(S))) for any z.  For each support pair uv, heaviest
    first, u and v are tied to s: the max flow is the least such cut over
    S holding u and v, and the set the residual network reaches from s is the
    least S that attains it (Cunningham 1984; Padberg and Wolsey 1983).  A
    flow below A + 2 shows a set over its tree bound: ValueError.  A pair
    whose edges carry 1 is tight by itself and needs no flow.
    """
    n = piece.n
    cap = [[0.0] * (n + 2) for _ in range(n + 2)]  # s = n, t = n + 1
    for (a, b), w in zip(piece.edges, z.tolist()):
        cap[a][b] += w
        cap[b][a] += w
    # the arcs a residual network can use: v to its neighbours and to t, s to any v
    arcs = [[b for b, c in enumerate(row) if c > 0] for row in cap[:n]]
    pairs = sorted(((a, b) for a in range(n) for b in arcs[a] if a < b), key=lambda e: -cap[e[0]][e[1]])
    for v, row in enumerate(cap[:n]):
        d = sum(row)
        cap[n][v] = max(d - 2, 0.0)
        row[n + 1] = max(2 - d, 0.0)
        arcs[v].append(n + 1)
    arcs.append(list(range(n)))
    base = sum(cap[n])
    for u, v in pairs:
        if abs(cap[u][v] - 1) <= TIGHT_SET_TOL and n > 2:  # a bundle that carries 1 is a tight pair
            return [u, v]
        res = [row[:] for row in cap]
        res[n][u] = res[n][v] = np.inf
        flow, side = _max_flow(res, arcs, n, n + 1)
        slack = 2 * TIGHT_SET_TOL * (len(side) - 1)
        if flow < base + 2 - slack:
            raise ValueError(f"z outside polytope: z(E(S)) > |S| - 1 on S = {side}")
        if flow <= base + 2 + slack and len(side) < n:
            return side
    return None


def _max_flow(res: list[list[float]], arcs: list[list[int]], s: int, t: int) -> tuple[float, list[int]]:
    """Push a maximum s-t flow along shortest augmenting paths through the
    residual capacities ``res``, rows of a dense matrix changed in place; a
    path leaves each vertex a by the arcs to ``arcs[a]`` only.  Returns its
    value and the vertices other than s that the residual arcs above
    ``TIGHT_SET_TOL`` reach from s."""
    flow = 0.0
    while True:
        prev = [-1] * len(res)
        prev[s] = s
        queue = [s]
        for a in queue:
            row = res[a]
            for b in arcs[a]:
                if prev[b] < 0 and row[b] > TIGHT_SET_TOL:
                    prev[b] = a
                    queue.append(b)
            if prev[t] >= 0:
                break
        else:
            return flow, sorted(queue[1:])
        path = [t]
        while path[-1] != s:
            path.append(prev[path[-1]])
        push = min(res[a][b] for b, a in zip(path, path[1:]))
        for b, a in zip(path, path[1:]):
            res[a][b] -= push
            res[b][a] += push
        flow += push


def _split(piece: EdgeGraph, orig: list[int], tight) -> list[tuple]:
    """The inside and the outside of ``piece``, whose edge j is edge
    ``orig[j]`` of the fitted graph, at the tight vertex list ``tight``, each
    as (graph, fitted-graph index of each of its edges).

    The inner edges connect the tight set: its inside keeps them with
    vertices renamed by rank in ``tight``, its outside contracts them.
    """
    rank = [-1] * piece.n
    for i, v in enumerate(tight):
        rank[v] = i
    inner = [i for i, (a, b) in enumerate(piece.edges) if min(rank[a], rank[b]) >= 0]
    outer = [i for i, (a, b) in enumerate(piece.edges) if min(rank[a], rank[b]) < 0]
    outside = component_labels(piece.n, [piece.edges[i] for i in inner])
    subs = [contract_edges(piece, label, edges) for label, edges in ((rank, inner), (outside, outer))]
    return [(sub, [orig[i] for i in kept]) for sub, kept, _ in subs]


def fit_max_entropy(graph: EdgeGraph, z) -> LambdaWeights:
    """Fit weights so every edge marginal is at most z_e * (1 + EPSILON_MARGINAL).

    ``z`` holds one target per edge of ``graph``, a point of its spanning
    tree polytope.  Multiplicative fixed-point scheme: each sweep recomputes
    all marginals, then rescales every weight by z_e / p_e and renormalizes
    the geometric mean to 1.  Boundary targets are decomposed (contracted z=1
    edges, tight vertex sets) into independent pieces fitted separately:
    before any sweep, a piece of three or more vertices is split at the
    tight set ``_tight_set`` finds, and a piece with none is swept from
    lam = z / geomean(z), with no search after.  A vertex set S with
    z(E(S)) > |S| - 1 raises ValueError.  ``MAX_UPDATES`` bounds the
    coordinate updates (sweeps times edges).
    """
    z = np.asarray(z, dtype=float)
    if z.shape != (len(graph.edges),):
        raise ValueError("z must have one entry per edge")
    check_finite("z", z)
    if np.any(z < -1e-9) or np.any(z > 1.0 + 1e-9):
        raise ValueError("z outside polytope: entries must lie in [0, 1]")
    if abs(z.sum() - (graph.n - 1)) > 1e-6:
        raise ValueError(f"z outside polytope: total {z.sum():.9f} != {graph.n - 1}")

    forced = np.flatnonzero(z >= FORCED_Z)
    label = component_labels(graph.n, [graph.edges[i] for i in forced.tolist()])
    if len(forced) != graph.n - (max(label) + 1):
        raise ValueError("z outside polytope: the forced edges close a cycle")
    reduced, kept, loops = contract_edges(
        graph, label, np.flatnonzero((z > DELETED_Z) & (z < FORCED_Z)).tolist())
    if any(z[i] > 1e-6 for i in loops):
        raise ValueError("z outside polytope: positive value on a forced cycle chord")
    if not is_connected(reduced):
        raise NotConnectedError("support of z does not connect the graph")

    p = np.zeros(len(graph.edges))
    p[forced] = 1.0
    pieces: list[SamplingPiece] = []
    sweeps = 0
    max_ratio = 0.0
    # pieces still to fit, each with the original index of its local edges;
    # a split pushes its outside below its inside, so pieces fit depth first
    work = [(reduced, kept)] if kept else []
    while work:
        piece, orig = work.pop()
        z_piece = z[orig]
        tight = _tight_set(piece, z_piece) if piece.n > 2 else None
        if tight is not None:
            inner, outer = _split(piece, orig, tight)
            work += [outer, inner]
            continue
        lam_piece = z_piece / np.exp(np.mean(np.log(z_piece)))
        while True:
            try:
                p_piece = tree_marginals(lam_piece, piece)
            except ArithmeticError as exc:
                raise FitConvergenceError(
                    f"marginal computation lost precision after {sweeps} sweeps: {exc}",
                    max_ratio=max_ratio,
                    sweeps=sweeps,
                ) from exc
            max_ratio = float((p_piece / z_piece).max())
            if max_ratio <= 1.0 + EPSILON_MARGINAL:
                p[orig] = p_piece
                pieces.append(SamplingPiece(graph=piece, lam=lam_piece, kept=tuple(orig)))
                break
            if sweeps * len(orig) >= MAX_UPDATES:
                raise FitConvergenceError(
                    f"marginal fitting stalled at max ratio {max_ratio:.3e} "
                    f"after {sweeps} sweeps",
                    max_ratio=max_ratio,
                    sweeps=sweeps,
                )
            lam_piece = lam_piece * (z_piece / p_piece)
            lam_piece /= np.exp(np.mean(np.log(lam_piece)))
            sweeps += 1

    return LambdaWeights(
        graph=graph,
        fitted_marginals=p,
        forced=tuple(forced.tolist()),
        sweeps=sweeps,
        max_ratio=float((p[kept] / z[kept]).max()) if kept else 0.0,
        pieces=tuple(pieces),
    )
