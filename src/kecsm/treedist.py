"""Weighted spanning-tree distributions: marginals, counting, max-entropy fitting.

A positive edge-weight vector lam induces the tree law with probability
proportional to the product of tree-edge weights.  Edge marginals come from
the matrix-tree identity p_e = lam_e * R_eff(e); fitting searches for weights
whose marginals match a target tree-polytope point to within a one-sided
relative slack.

Targets on the polytope boundary have no finite-weight representation, so the
fitter decomposes them: an edge at z = 1 is contracted, and more generally a
tight vertex set S with z(E(S)) = |S| - 1 splits the law into independent
inside/outside factors, each fitted on its own piece.  Sampling a tree per
piece and merging is exact for the factored law, and a union of independent
weighted-tree pieces keeps every cut count a sum of independent Bernoullis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Edge, NotConnectedError, component_labels, make_edge

# z at or above this is pinned into every tree; at or below the floor it is dropped.
FORCED_Z = 1.0 - 1e-9
DELETED_Z = 1e-12
# slack accepted when testing z(E(S)) = |S| - 1 for tight-set decomposition
TIGHT_SET_TOL = 1e-8
# a fitted marginal may exceed its target z_e by at most this relative slack
EPSILON_MARGINAL = 1e-6


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


def is_connected(graph: EdgeGraph, active=None) -> bool:
    edges = [graph.edges[i] for i in active] if active is not None else graph.edges
    return max(component_labels(graph.n, edges)) == 0


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


@dataclass(frozen=True)
class Contraction:
    """Forced edges contracted away and dropped edges removed from a graph."""

    graph: EdgeGraph
    kept: tuple[int, ...]
    loops: tuple[int, ...]


def contract_edges(graph: EdgeGraph, forced, deleted) -> Contraction:
    """Contract ``forced`` edges, drop ``deleted`` ones, and relabel vertices.

    Component labels follow the smallest original vertex, so the reduced
    graph is deterministic.  Edges that close a contracted component become
    loops and are excluded from the reduced edge list.
    """
    forced = np.asarray(forced, dtype=int)
    rest = np.ones(len(graph.edges), dtype=bool)
    rest[forced] = False
    rest[np.asarray(deleted, dtype=int)] = False
    vmap = component_labels(graph.n, [graph.edges[i] for i in forced.tolist()])
    kept: list[int] = []
    reduced_edges: list[Edge] = []
    loops: list[int] = []
    for i in np.flatnonzero(rest).tolist():
        a, b = graph.edges[i]
        ra, rb = vmap[a], vmap[b]
        if ra == rb:
            loops.append(i)
            continue
        kept.append(i)
        reduced_edges.append(make_edge(ra, rb))
    nc = max(vmap) + 1
    return Contraction(
        graph=EdgeGraph(n=nc, edges=tuple(reduced_edges)),
        kept=tuple(kept),
        loops=tuple(loops),
    )


@dataclass(frozen=True)
class SamplingPiece:
    """One independent factor of a fitted tree law.

    ``graph`` is a connected local multigraph, ``lam`` its positive weights,
    and ``kept[j]`` the original edge index of local edge j.  A spanning tree
    of every piece plus all forced edges is a spanning tree of the original
    graph.
    """

    graph: EdgeGraph
    lam: np.ndarray
    kept: tuple[int, ...]

    def __post_init__(self):
        lam = np.asarray(self.lam, dtype=float).copy()
        lam.flags.writeable = False  # the sampler state of a law is built from it once
        object.__setattr__(self, "lam", lam)


@dataclass(frozen=True)
class LambdaWeights:
    """Fitted weights whose tree law has marginals dominated by the target z.

    ``lam`` holds per-edge weights (scales only meaningful within a piece),
    1.0 placeholders on forced edges and 0.0 on deleted ones.  Sampling uses
    ``pieces``: independent weighted-tree factors plus the forced edges.
    """

    graph: EdgeGraph
    lam: np.ndarray
    fitted_marginals: np.ndarray
    forced: tuple[int, ...]
    deleted: tuple[int, ...]
    sweeps: int
    max_ratio: float
    pieces: tuple[SamplingPiece, ...]

    def __post_init__(self):
        for name in ("lam", "fitted_marginals"):
            arr = np.asarray(getattr(self, name), dtype=float).copy()
            arr.flags.writeable = False
            object.__setattr__(self, name, arr)

    @cached_property
    def _sampler(self):
        """Draw function of this law, with a walk per piece and the forced
        edges' incidence built on the first draw and kept for every later one."""
        from .sampler import _sampler  # the sampler module imports this one

        return _sampler(self.graph, self.forced, self.pieces)


def _induced_tight_set(graph: EdgeGraph, z: np.ndarray, lam: np.ndarray):
    """Search for a proper vertex set S with z(E(S)) >= |S| - 1 - tol.

    Heavily weighted edges cluster inside tight sets, so candidates are the
    components formed while merging edges in decreasing lam order; each merge
    yields one candidate component to test.  Returns the vertex list or None.
    """
    ends = np.array(graph.edges).reshape(-1, 2)
    # label[v] names v's component and comp[r] lists the component named r;
    # the smaller component joins the larger and takes its name
    label = np.arange(graph.n)
    comp = {v: [v] for v in range(graph.n)}
    for i in np.argsort(-lam, kind="stable").tolist():
        a, b = label[ends[i]].tolist()
        if a == b:
            continue
        if len(comp[a]) < len(comp[b]):
            a, b = b, a
        big = comp[a]
        big += comp.pop(b)
        if len(big) == graph.n:
            return None
        label[big] = a
        inside = label[ends] == a
        internal = float(z[inside[:, 0] & inside[:, 1]].sum())
        if internal >= len(big) - 1 - TIGHT_SET_TOL * max(1, len(big) - 1):
            return sorted(big)
    return None


def _fit_interior(graph: EdgeGraph, z: np.ndarray, orig: list[int], state: dict):
    """Fit one connected piece, decomposing on tight sets when they surface.

    ``orig[j]`` is the original edge index of local edge j.  A converged piece
    writes its weights and marginals into ``state["lam"]`` and ``state["p"]``
    and appends its SamplingPiece, all in original indices.
    """
    m = len(graph.edges)
    lam = np.ones(m)
    sweeps_here = 0
    while True:
        try:
            p = tree_marginals(lam, graph)
        except ArithmeticError as exc:
            raise FitConvergenceError(
                f"marginal computation lost precision after {state['sweeps']} sweeps: {exc}",
                max_ratio=state["max_ratio"],
                sweeps=state["sweeps"],
            ) from exc
        max_ratio = float((p / z).max())
        state["max_ratio"] = max_ratio
        if max_ratio <= 1.0 + EPSILON_MARGINAL:
            state["lam"][orig] = lam
            state["p"][orig] = p
            state["pieces"].append(SamplingPiece(graph=graph, lam=lam, kept=tuple(orig)))
            return
        if sweeps_here:
            tight = _induced_tight_set(graph, z, lam)
            if tight is not None:
                return _fit_split(graph, z, orig, state, tight)
        if state["sweeps"] * m >= state["max_updates"]:
            raise FitConvergenceError(
                f"marginal fitting stalled at max ratio {max_ratio:.3e} "
                f"after {state['sweeps']} sweeps",
                max_ratio=max_ratio,
                sweeps=state["sweeps"],
            )
        lam = lam * (z / p)
        lam /= np.exp(np.mean(np.log(lam)))
        sweeps_here += 1
        state["sweeps"] += 1


def _fit_split(graph: EdgeGraph, z: np.ndarray, orig: list[int], state: dict, tight: list[int]):
    """Factor the law at a tight vertex set: fit inside, then outside, independently."""
    inside_v = set(tight)
    rank = {v: r for r, v in enumerate(tight)}
    inner_idx = [i for i, (a, b) in enumerate(graph.edges) if a in inside_v and b in inside_v]

    inner_graph = EdgeGraph(
        n=len(tight),
        edges=tuple(make_edge(rank[a], rank[b]) for i in inner_idx
                    for (a, b) in [graph.edges[i]]),
    )
    # outside: the inner edges connect the tight set, so contracting them
    # leaves one vertex for it and keeps every other edge
    outer = contract_edges(graph, inner_idx, ())
    for idx, sub in ((inner_idx, inner_graph), (list(outer.kept), outer.graph)):
        _fit_interior(sub, z[idx], [orig[i] for i in idx], state)


def fit_max_entropy(graph: EdgeGraph, z, max_iters: int = 100_000) -> LambdaWeights:
    """Fit weights so every edge marginal is at most z_e * (1 + EPSILON_MARGINAL).

    ``z`` holds one target per edge of ``graph``, a point of its spanning
    tree polytope.  Multiplicative fixed-point scheme: each sweep recomputes
    all marginals, then rescales every weight by z_e / p_e and renormalizes
    the geometric mean to 1.  Boundary targets are decomposed (contracted z=1
    edges, tight vertex sets) into independent pieces fitted separately.
    ``max_iters`` counts coordinate updates (sweeps times edges).
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
    deleted = np.flatnonzero(z <= DELETED_Z)
    red = contract_edges(graph, forced, deleted)
    if any(z[i] > 1e-6 for i in red.loops):
        raise ValueError("z outside polytope: positive value on a forced cycle chord")
    deleted = sorted(deleted.tolist() + list(red.loops))
    if not is_connected(red.graph):
        raise NotConnectedError("support of z does not connect the graph")

    lam = np.zeros(len(graph.edges))
    lam[forced] = 1.0
    p = lam.copy()
    kept = list(red.kept)
    state = {"sweeps": 0, "max_ratio": 0.0, "max_updates": max(1, max_iters),
             "lam": lam, "p": p, "pieces": []}
    if kept:
        _fit_interior(red.graph, z[kept], kept, state)

    return LambdaWeights(
        graph=graph,
        lam=lam,
        fitted_marginals=p,
        forced=tuple(forced.tolist()),
        deleted=tuple(deleted),
        sweeps=state["sweeps"],
        max_ratio=float((p[kept] / z[kept]).max()) if kept else 0.0,
        pieces=tuple(state["pieces"]),
    )
