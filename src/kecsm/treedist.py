"""Weighted spanning-tree distributions: marginals, counting, max-entropy fitting.

A positive edge-weight vector lam induces the tree law with probability
proportional to the product of tree-edge weights.  Edge marginals come from
the matrix-tree identity p_e = lam_e * R_eff(e); fitting searches for weights
whose marginals match a target tree-polytope point to within a one-sided
relative slack.

Targets on the polytope boundary have no finite-weight representation, so the
fitter decomposes them: an edge at z = 1 is contracted, and more generally a
tight vertex set S with z(E(S)) = |S| - 1 splits the law into independent
inside/outside factors, each fitted on its own piece.  When every vertex
has z-degree at most 2, as on the split LP point, the tight sets are minimum
cuts, and those one shrink of the support records (``core.shrink_min_cut``)
are split off before the first sweep; a search after each sweep finds the
rest.  Sampling a tree per piece and merging is exact for the factored law,
and a union of independent weighted-tree pieces keeps every cut count a sum
of independent Bernoullis.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import Edge, NotConnectedError, component_labels, make_edge, shrink_min_cut

# z at or above this is pinned into every tree; at or below the floor it is dropped.
FORCED_Z = 1.0 - 1e-9
DELETED_Z = 1e-12
# slack accepted when testing z(E(S)) = |S| - 1 for tight-set decomposition
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


def _is_tight(internal: float, size: int) -> bool:
    """Whether a vertex set S of ``size`` vertices with z(E(S)) = ``internal``
    is tight: z(E(S)) >= |S| - 1 - tol."""
    return internal >= size - 1 - TIGHT_SET_TOL * max(1, size - 1)


def _shrunk_tight_sets(graph: EdgeGraph, z: np.ndarray) -> list[list[int]]:
    """Proper tight sets of the target ``z`` on ``graph`` that one shrink
    records, smallest first, when every vertex has z-degree d(v) <= 2.

    With an auxiliary vertex joined to each v by 2 - d(v), a set S without
    it has cut z(delta(S)) + sum over S of (2 - d(v)) = 2 (|S| - z(E(S))),
    so the minimum cut is 2 and the sides at 2 are the tight sets.
    ``core.shrink_min_cut`` records the sides it forms as supervertices, a
    laminar family; each is oriented away from the auxiliary vertex, and kept
    when it holds no vertex with d(v) < 2 and passes ``_is_tight``.  Empty
    when some d(v) exceeds 2.
    """
    ends = np.array(graph.edges).reshape(-1, 2)
    degree = np.bincount(ends.ravel(), weights=np.repeat(z, 2), minlength=graph.n)
    if degree.max() > 2 + TIGHT_SET_TOL:
        return []
    weights = dict.fromkeys(graph.edges, 0.0)
    for e, w in zip(graph.edges, z.tolist()):
        weights[e] += w
    weights.update(((v, graph.n), 2 - d) for v, d in enumerate(degree.tolist()) if d < 2)
    short = set(np.flatnonzero(degree < 2 - TIGHT_SET_TOL).tolist())
    sides: dict[frozenset[int], list[int]] = {}  # keyed by vertex set: two sides may orient alike
    for _, side in shrink_min_cut(weights, graph.n + 1)[0]:
        side = sorted(set(range(graph.n)).difference(side)) if graph.n in side else sorted(side)
        if 2 <= len(side) < graph.n and short.isdisjoint(side):
            inside = np.zeros(graph.n, dtype=bool)
            inside[side] = True
            if _is_tight(float(z[inside[ends].all(axis=1)].sum()), len(side)):
                sides[frozenset(side)] = side
    return sorted(sides.values(), key=len)


def _split(piece: EdgeGraph, orig: list[int], tight) -> tuple[list[tuple], list[int]]:
    """The inside and the outside of ``piece``, whose edge j is edge
    ``orig[j]`` of the fitted graph, at the tight vertex list ``tight``: each
    as (graph, fitted-graph index of each of its edges), and the outside
    label of every piece vertex.

    The inner edges connect the tight set: its inside keeps them with
    vertices renamed by rank in ``tight``, its outside contracts them.
    """
    rank = np.full(piece.n, -1)
    rank[tight] = np.arange(len(tight))
    inside = (rank[np.array(piece.edges)] >= 0).all(axis=1)
    inner, outer = np.flatnonzero(inside).tolist(), np.flatnonzero(~inside).tolist()
    outside = component_labels(piece.n, [piece.edges[i] for i in inner])
    subs = [contract_edges(piece, label, edges) for label, edges in ((rank.tolist(), inner), (outside, outer))]
    return [(sub, [orig[i] for i in kept]) for sub, kept, _ in subs], outside


def _induced_tight_set(graph: EdgeGraph, z: np.ndarray, lam: np.ndarray):
    """Search for a proper vertex set S with z(E(S)) >= |S| - 1 - tol.

    Heavily weighted edges cluster inside tight sets, so candidates are the
    components formed while merging edges in decreasing lam order; each merge
    yields one candidate component to test.  Returns the vertex list or None.
    """
    ends = np.array(graph.edges).reshape(-1, 2)
    label = np.arange(graph.n)  # label[v] names v's component
    for i in np.argsort(-lam, kind="stable").tolist():
        a, b = label[ends[i]].tolist()
        if a == b:
            continue
        label[label == b] = a
        big = np.flatnonzero(label == a)
        if len(big) == graph.n:
            return None
        inside = label[ends] == a
        if _is_tight(float(z[inside[:, 0] & inside[:, 1]].sum()), len(big)):
            return big.tolist()
    return None


def fit_max_entropy(graph: EdgeGraph, z) -> LambdaWeights:
    """Fit weights so every edge marginal is at most z_e * (1 + EPSILON_MARGINAL).

    ``z`` holds one target per edge of ``graph``, a point of its spanning
    tree polytope.  Multiplicative fixed-point scheme: each sweep recomputes
    all marginals, then rescales every weight by z_e / p_e and renormalizes
    the geometric mean to 1.  Boundary targets are decomposed (contracted z=1
    edges, tight vertex sets) into independent pieces fitted separately:
    ``_shrunk_tight_sets`` gives tight sets before the first sweep, and
    ``_induced_tight_set`` searches for more on every sweep after a piece's
    first.  ``MAX_UPDATES`` bounds the coordinate updates (sweeps times edges).
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
    work = []
    if kept:
        # the shrink's tight sets, smallest first, each split off the outside
        # the smaller ones left; where[v] is the vertex of that outside that
        # holds vertex v of ``reduced``
        outer, where = (reduced, kept), np.arange(reduced.n)
        for side in _shrunk_tight_sets(reduced, z[kept]):
            (inner, outer), outside = _split(*outer, sorted(set(where[side].tolist())))
            work.append(inner)
            where = np.asarray(outside)[where]
        work = [outer] + work[::-1]
    while work:
        piece, orig = work.pop()
        z_piece = z[orig]
        lam_piece = np.ones(len(orig))
        first_sweep, searched = sweeps, None
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
            tight = None
            if sweeps > first_sweep:
                # the search sees lam only through this order: on the order it
                # last searched it would find no tight set again
                order = np.argsort(-lam_piece, kind="stable")
                if not np.array_equal(order, searched):
                    tight, searched = _induced_tight_set(piece, z_piece, lam_piece), order
            if tight is not None:
                (inner, outer), _ = _split(piece, orig, tight)
                work += [outer, inner]
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
