"""Independent brute-force oracles for cross-checking the implementations.

The oracles here deliberately use the most direct definition available
(exhaustive enumeration, component splitting) so they share no code path
with the implementations they cross-check; ``solve_lp_enumeration`` checks
every cut and solves with HiGHS (``scipy.optimize.linprog``), not the
library's simplex.  The exceptions: nine references are earlier versions of
library code, kept frozen so that tests can require identical results:
``global_min_cut_reference`` is the Stoer-Wagner over a numpy matrix that
``core.global_min_cut`` replaced, ``fundamental_cut_counts_reference`` the
per-tree LCA walk that the batched ``rounding.fundamental_cut_counts``
replaced, ``validate_metric_reference`` the triple loop that the
vectorised ``core.validate_metric`` replaced,
``induced_tight_set_reference`` the per-merge edge loop of the search
that split a fitted piece at a tight set after a sweep,
``build_split_graph_reference`` the per-edge loop that the array build of
``split.build_split_graph`` replaced, ``identify_back_reference`` the
pair-multiset identification that ``split.identify_back`` on edge-index
counts replaced, ``tree_from_edges`` the rooting of a sorted edge list
that the sampler's rooting of each draw replaced, and
``priced_columns_reference`` the pricing by two solves with a rebuilt basis
matrix that ``lp._priced_columns``, reading B^-1 and the duals from the
tableau, replaced (its results match within round-off, not bit for bit),
and ``fit_by_search_reference`` that search's fit, which split a piece
only at the tight sets the search found from its second sweep on, started
from lam proportional to z as ``treedist.fit_max_entropy`` is; the library
now splits every piece before its first sweep at the tight sets one max
flow per support pair finds.  ``over_and_tight_sets`` checks that rule by
enumerating the vertex sets.

Four test helpers read trees through the library: ``SpanningTree`` is one
rooted tree as tuples, ``parents`` rebuilds each vertex's parent from the
preorder blocks of a ``TreeBatch``, ``trees_of`` gives the rows of a
``TreeBatch`` as ``SpanningTree`` values, and ``sample_batch`` draws the
trees of a plain weight vector with the library's sampler, as the law with
no forced edge and one piece, the support of the weights.  Two rebuild what
a fitted law no longer stores from its forced edges and its pieces' weights
and edge indices: ``full_lambda``, one weight per edge, and
``deleted_edges``, the edges in no tree.

``CutSpec`` is the tests' cut type, a side of a vertex cut, as
``cut_size``, ``separate`` and ``global_min_cut_reference`` use it; the
library passes a cut as its side alone.

The formulas and helpers at the end (tail bounds, approximation factors,
dispersion statistics, effective resistance, tree counts, cut sizes) are
used by the tests only.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
from scipy.optimize import linprog

from kecsm.core import (TOL, Edge, MetricInstance, MetricViolation, MultiEdgeSet,
                        NotConnectedError, component_labels, make_edge, spanning_forest)
from kecsm import sampler
from kecsm.lp import PIVOT_TOL, FractionalSolution, _cut_rows, violated_cuts
from kecsm.sampler import TreeBatch
from kecsm.split import SplitGraph
from kecsm.treedist import (DELETED_Z, EPSILON_MARGINAL, FORCED_Z, MAX_UPDATES, TIGHT_SET_TOL, EdgeGraph,
                            LambdaWeights, SamplingPiece, _grounded_inverse,
                            _pair_resistances, check_finite, contract_edges, tree_marginals,
                            weighted_laplacian)


@dataclass(frozen=True)
class CutSpec:
    """A vertex cut: the nonempty proper subset ``side`` of {0..n-1}."""

    side: frozenset[int]
    n: int

    def __post_init__(self):
        side = frozenset(self.side)
        object.__setattr__(self, "side", side)
        if not side or len(side) >= self.n:
            raise ValueError(f"cut side must be a nonempty proper subset of {self.n} vertices")
        if any(v < 0 or v >= self.n for v in side):
            raise ValueError("cut side contains out-of-range vertices")


@dataclass(frozen=True)
class SpanningTree:
    """A spanning tree as edge indices into its graph, rooted at vertex 0,
    as one row of a ``TreeBatch`` holds it.

    ``preorder`` lists the vertices in the order a stack DFS from the root
    visits them, so the subtree of v is the block of ``size[v]`` vertices
    that starts at v.
    """

    n: int
    edge_indices: tuple[int, ...]
    parent: tuple[int, ...]
    parent_edge: tuple[int, ...]
    preorder: tuple[int, ...]
    size: tuple[int, ...]

    def __post_init__(self):
        if len(self.edge_indices) != self.n - 1:
            raise ValueError(f"a spanning tree on {self.n} vertices needs {self.n - 1} edges")


def parents(batch: TreeBatch) -> np.ndarray:
    """The (T, n) parent of every vertex of every tree of ``batch``, -1 at the
    root: the parent of v is the last vertex before v in ``preorder`` whose
    block, the ``size`` vertices that start at it, holds v."""
    out = np.full(batch.preorder.shape, -1, dtype=np.intp)
    for row, order, size in zip(out, batch.preorder.tolist(), batch.size.tolist()):
        open_blocks = []  # (vertex, end of its block), innermost last
        for pos, v in enumerate(order):
            while open_blocks and open_blocks[-1][1] <= pos:
                open_blocks.pop()
            if open_blocks:
                row[v] = open_blocks[-1][0]
            open_blocks.append((v, pos + size[v]))
    return out


def trees_of(batch: TreeBatch) -> list[SpanningTree]:
    """The rows of ``batch`` as trees, in order."""
    rows = (batch.edge_indices, parents(batch), batch.parent_edge, batch.preorder, batch.size)
    return [SpanningTree(batch.preorder.shape[1], *map(tuple, tree))
            for tree in zip(*(row.tolist() for row in rows))]


def full_lambda(law: LambdaWeights) -> np.ndarray:
    """One weight per edge of ``law.graph``: its piece's weight, 1.0 on the
    forced edges and 0.0 on the edges in no tree."""
    lam = np.zeros(len(law.graph.edges))
    lam[list(law.forced)] = 1.0
    for piece in law.pieces:
        lam[list(piece.kept)] = piece.lam
    return lam


def deleted_edges(law: LambdaWeights) -> tuple[int, ...]:
    """The indices of the edges of ``law.graph`` in no tree of the law, in
    increasing order: neither forced nor kept by a piece."""
    used = {*law.forced, *(i for piece in law.pieces for i in piece.kept)}
    return tuple(i for i in range(len(law.graph.edges)) if i not in used)


def sample_batch(lam, graph: EdgeGraph, t: int, seed: int) -> TreeBatch:
    """``t`` independent trees of the law with edge weights ``lam`` on ``graph``,
    on streams 0..t-1 of ``seed``: the law with no forced edge and one piece,
    the edges of positive weight, which must connect the graph.

    The weights are checked whole, before the zeros are dropped: a NaN is
    not positive, so it would otherwise be dropped too.
    """
    rngs = sampler._streams(t, seed)
    lam = np.asarray(lam, dtype=float)
    if lam.size != len(graph.edges):
        raise ValueError("one weight per edge required")
    check_finite("lam", lam)
    if np.any(lam < 0):
        raise ValueError("edge weights must be nonnegative")
    support = np.flatnonzero(lam > 0).tolist()
    # the piece raises NotConnectedError unless the support connects the graph
    piece = SamplingPiece(graph=EdgeGraph(n=graph.n, edges=tuple(graph.edges[i] for i in support)),
                          lam=lam[support], kept=tuple(support))
    return sampler._batch(sampler._sampler(graph, (), (piece,)), rngs)


def exhaustive_min_cut(weights: dict, n: int) -> float:
    """Minimum cut weight by trying all 2^(n-1) - 1 sides containing vertex 0."""
    best = float("inf")
    for mask in range(0, (1 << (n - 1)) - 1):
        side = {0} | {v for v in range(1, n) if mask >> (v - 1) & 1}
        value = sum(w for (u, v), w in weights.items() if (u in side) != (v in side))
        best = min(best, value)
    return best


def exhaustive_opt(inst: MetricInstance, cap: int) -> float:
    """Plain exhaustive optimum over all multiplicity vectors up to ``cap``.

    No pruning and no branch ordering; tractable only for n = 3.
    """
    edges = inst.edges()
    best = float("inf")
    for vec in itertools.product(range(cap + 1), repeat=len(edges)):
        mult = MultiEdgeSet({e: m for e, m in zip(edges, vec) if m})
        feasible = all(
            _cut_count(mult, side) >= inst.k
            for side in _proper_sides(inst.n)
        )
        if feasible:
            best = min(best, mult.total_cost(inst.cost))
    return best


def _proper_sides(n: int):
    for mask in range(0, (1 << (n - 1)) - 1):
        yield {0} | {v for v in range(1, n) if mask >> (v - 1) & 1}


def _cut_count(mult: MultiEdgeSet, side: set) -> int:
    return sum(m for (u, v), m in mult.multiplicity.items() if (u in side) != (v in side))


def direct_fundamental_counts(tree: SpanningTree, t_star: dict[int, int],
                              g0: SplitGraph) -> dict[int, int]:
    """Quadratic-definition oracle: split at each tree edge, count the crossings
    of the t_star edges (edge index -> multiplicity)."""
    out = {}
    for v in range(1, tree.n):
        e = tree.parent_edge[v]
        keep = [i for i in tree.edge_indices if i != e]
        side = _component_of(tree.n, [g0.edges[i] for i in keep], v)
        ends = ((g0.edges[i], m) for i, m in t_star.items())
        out[e] = sum(m for (a, b), m in ends if (a in side) != (b in side))
    return out


def _component_of(n: int, edges, start: int) -> set[int]:
    adj = [[] for _ in range(n)]
    for a, b in edges:
        adj[a].append(b)
        adj[b].append(a)
    seen = {start}
    stack = [start]
    while stack:
        u = stack.pop()
        for w in adj[u]:
            if w not in seen:
                seen.add(w)
                stack.append(w)
    return seen


def enumerate_spanning_trees(graph: EdgeGraph, max_vertices: int = 8) -> list[tuple[int, ...]]:
    """All spanning trees as sorted edge-index tuples (small graphs only)."""
    if graph.n > max_vertices:
        raise ValueError(f"tree enumeration limited to {max_vertices} vertices, got {graph.n}")
    return [combo for combo in itertools.combinations(range(len(graph.edges)), graph.n - 1)
            if len(spanning_forest(graph.n, [graph.edges[i] for i in combo])[0]) == graph.n - 1]


def tree_weight(lam, tree_indices) -> float:
    lam = np.asarray(lam, dtype=float)
    out = 1.0
    for i in tree_indices:
        out *= float(lam[i])
    return out


def tree_from_edges(graph: EdgeGraph, edge_indices) -> SpanningTree:
    """Root the tree given by ``edge_indices`` at 0 by a stack DFS that takes
    each vertex's edges in increasing index order, validating that they are
    n - 1 distinct edges that span ``graph``."""
    n, m = graph.n, len(graph.edges)
    idx = sorted(set(edge_indices))
    for i in idx:
        if not 0 <= i < m:
            raise ValueError(f"edge index {i} is not in 0..{m - 1}")
    if len(idx) != n - 1:
        raise ValueError(f"a spanning tree on {n} vertices needs {n - 1} distinct edges")
    inc = [[] for _ in range(n)]
    for i in idx:
        a, b = graph.edges[i]
        inc[a].append((b, i))
        inc[b].append((a, i))
    parent, parent_edge, order, stack = [-1] * n, [-1] * n, [], [0]
    seen = {0}
    while stack:
        v = stack.pop()
        order.append(v)
        for w, i in inc[v]:
            if w not in seen:
                seen.add(w)
                parent[w], parent_edge[w] = v, i
                stack.append(w)
    if len(order) != n:
        raise ValueError("edge set does not span the graph")
    size = [1] * n
    for v in reversed(order[1:]):
        size[parent[v]] += size[v]
    return SpanningTree(n=n, edge_indices=tuple(idx), parent=tuple(parent), parent_edge=tuple(parent_edge),
                        preorder=tuple(order), size=tuple(size))


def sample_tree_enumeration(lam, graph: EdgeGraph, gen: np.random.Generator) -> SpanningTree:
    """Oracle sampler: enumerate all trees and draw one with probability ~ weight,
    on the first ``random()`` draw of ``gen``."""
    lam = np.asarray(lam, dtype=float)
    trees = enumerate_spanning_trees(graph)
    weights = np.array([tree_weight(lam, t) for t in trees])
    total = weights.sum()
    if total <= 0:
        raise NotConnectedError("no spanning tree has positive weight")
    pick = int(np.searchsorted(np.cumsum(weights), gen.random() * total, side="right"))
    pick = min(pick, len(trees) - 1)
    return tree_from_edges(graph, trees[pick])


def enumerated_marginals(lam, graph: EdgeGraph) -> np.ndarray:
    """Edge marginals by explicit tree enumeration and normalization."""
    lam = np.asarray(lam, dtype=float)
    trees = enumerate_spanning_trees(graph)
    weights = np.array([tree_weight(lam, t) for t in trees])
    total = weights.sum()
    p = np.zeros(len(graph.edges))
    for t, w in zip(trees, weights):
        for i in t:
            p[i] += w
    return p / total


def complete_graph(n: int) -> EdgeGraph:
    return EdgeGraph(n=n, edges=tuple((u, v) for u in range(n) for v in range(u + 1, n)))


def global_min_cut_reference(weights, n: int) -> tuple[float, CutSpec]:
    """Global minimum cut of a weighted undirected graph via Stoer-Wagner.

    ``weights`` maps edges to nonnegative reals; missing edges weigh zero.
    Deterministic: every phase starts at the smallest live vertex and
    adjacency ties are broken toward the smallest vertex index.  Disconnected
    inputs yield value 0 with a witnessing side.  The witness is normalized
    to the side containing vertex 0.
    """
    if n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    w = np.zeros((n, n))
    for e, wt in dict(weights).items():
        u, v = make_edge(*e)
        if wt < 0:
            raise ValueError(f"negative weight {wt} on edge {e}")
        w[u, v] += wt
        w[v, u] += wt

    groups: list[list[int]] = [[v] for v in range(n)]
    alive = list(range(n))
    best_value = np.inf
    best_side: list[int] = []
    while len(alive) > 1:
        start = alive[0]
        added = [start]
        in_order = np.zeros(n, dtype=bool)
        in_order[start] = True
        conn = w[start].copy()
        prev = start
        last = start
        for _ in range(len(alive) - 1):
            prev = last
            best = -1.0
            last = -1
            for v in alive:
                if not in_order[v] and conn[v] > best:
                    best = conn[v]
                    last = v
            in_order[last] = True
            added.append(last)
            conn += w[last]
        phase_cut = float(sum(w[last, v] for v in alive if v != last))
        if phase_cut < best_value:
            best_value = phase_cut
            best_side = list(groups[last])
        # contract last into prev (prev keeps the merged supervertex)
        w[prev] += w[last]
        w[:, prev] += w[:, last]
        w[prev, prev] = 0.0
        w[last, :] = 0.0
        w[:, last] = 0.0
        groups[prev].extend(groups[last])
        alive.remove(last)

    side = frozenset(best_side)
    if 0 not in side:
        side = frozenset(range(n)) - side
    return best_value, CutSpec(side=side, n=n)


def induced_tight_set_reference(graph: EdgeGraph, z: np.ndarray, lam: np.ndarray):
    """Proper vertex set S with z(E(S)) >= |S| - 1 - tol among the components
    formed while merging edges in decreasing lam order, or None."""
    order = sorted(range(len(graph.edges)), key=lambda i: (-lam[i], i))
    # comp[v] is the vertex set of v's component; the smaller set joins the larger
    comp = [{v} for v in range(graph.n)]
    for i in order:
        a, b = graph.edges[i]
        big, small = comp[a], comp[b]
        if big is small:
            continue
        if len(big) < len(small):
            big, small = small, big
        big |= small
        for v in small:
            comp[v] = big
        if len(big) == graph.n:
            return None
        internal = sum(
            float(z[j]) for j, (u, w) in enumerate(graph.edges) if u in big and w in big
        )
        if internal >= len(big) - 1 - TIGHT_SET_TOL * max(1, len(big) - 1):
            return sorted(big)
    return None


def fit_by_search_reference(graph: EdgeGraph, z) -> LambdaWeights:
    """The fitted law of a valid target ``z``, each piece fitted from lam
    proportional to z and split only at a tight set that
    ``induced_tight_set_reference`` finds from its second sweep on."""
    z = np.asarray(z, dtype=float)
    forced = np.flatnonzero(z >= FORCED_Z)
    label = component_labels(graph.n, [graph.edges[i] for i in forced.tolist()])
    reduced, kept, _ = contract_edges(graph, label, np.flatnonzero((z > DELETED_Z) & (z < FORCED_Z)).tolist())
    p = np.zeros(len(graph.edges))
    p[forced] = 1.0
    pieces, sweeps = [], 0
    work = [(reduced, kept)] if kept else []
    while work:
        piece, orig = work.pop()
        z_piece = z[orig]
        lam = z_piece / np.exp(np.mean(np.log(z_piece)))
        first_sweep, searched = sweeps, None
        while True:
            p_piece = tree_marginals(lam, piece)
            if (p_piece / z_piece).max() <= 1.0 + EPSILON_MARGINAL:
                p[orig] = p_piece
                pieces.append(SamplingPiece(graph=piece, lam=lam, kept=tuple(orig)))
                break
            tight = None
            if sweeps > first_sweep:
                order = np.argsort(-lam, kind="stable")
                if not np.array_equal(order, searched):
                    tight, searched = induced_tight_set_reference(piece, z_piece, lam), order
            if tight is not None:
                rank = np.full(piece.n, -1)
                rank[tight] = np.arange(len(tight))
                inside = (rank[np.array(piece.edges)] >= 0).all(axis=1)
                inner, outer = np.flatnonzero(inside).tolist(), np.flatnonzero(~inside).tolist()
                outside = component_labels(piece.n, [piece.edges[i] for i in inner])
                for sub_label, sub_edges in ((outside, outer), (rank.tolist(), inner)):
                    sub, sub_kept, _ = contract_edges(piece, sub_label, sub_edges)
                    work.append((sub, [orig[i] for i in sub_kept]))
                break
            assert sweeps * len(orig) < MAX_UPDATES
            lam = lam * (z_piece / p_piece)
            lam /= np.exp(np.mean(np.log(lam)))
            sweeps += 1
    return LambdaWeights(graph=graph, fitted_marginals=p, forced=tuple(forced.tolist()), sweeps=sweeps,
                         max_ratio=float((p[kept] / z[kept]).max()) if kept else 0.0, pieces=tuple(pieces))


def _edge_ends(edges: list[Edge]) -> tuple[np.ndarray, np.ndarray]:
    ends = np.array(edges, dtype=int).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def solve_lp_enumeration(inst: MetricInstance, max_n: int = 12) -> FractionalSolution:
    """Ground-truth solve by exhaustive separation.

    Solves the degree equalities with HiGHS, checks x against all
    2^(n-1) - 1 cuts, adds every cut carrying less than k - 1e-9 as a >= row
    and solves again, until none does; restricted to n <= 12.  Adding cuts
    as they are violated is about ten times faster at n = 12 than one solve
    over every cut row.
    """
    if inst.n > max_n:
        raise ValueError(f"enumeration LP limited to n <= {max_n}, got n={inst.n}")
    edges = inst.edges()
    eu, ev = _edge_ends(edges)
    cost = inst.cost[eu, ev]
    k = float(inst.k)

    # every cut exactly once: sides containing vertex 0 (odd bit masks over
    # the n vertices), excluding the full set
    masks = 2 * np.arange((1 << (inst.n - 1)) - 1) + 1
    rows = _cut_rows((masks[:, None] >> np.arange(inst.n) & 1).astype(bool), eu, ev)
    degree = _cut_rows(np.eye(inst.n, dtype=bool), eu, ev)
    added = np.zeros(len(rows), dtype=bool)
    while True:
        res = linprog(cost, A_ub=-rows[added], b_ub=np.full(int(added.sum()), -k), A_eq=degree,
                      b_eq=np.full(inst.n, k), bounds=(0, None), method="highs")
        if res.status != 0:
            raise RuntimeError(f"HiGHS failed on the enumeration LP: {res.message}")
        x = res.x
        violated = rows @ x < k - 1e-9
        if not violated.any():
            return FractionalSolution(values={e: float(v) for e, v in zip(edges, x)},
                                      objective=float(res.fun))
        if (violated & added).any():
            raise RuntimeError("HiGHS left an added cut violated")
        added |= violated


def priced_columns_reference(tab, cols: np.ndarray, sides: np.ndarray, eu: np.ndarray,
                             ev: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """``lp._priced_columns`` as one solve with the basis for the duals y
    (degree rows) and pi (cut rows) and one for the columns of the priced
    edges, with the basis matrix rebuilt from the basic columns of ``tab``.
    As an edge crosses S when s_u + s_v - 2 s_u s_v is 1, the reduced costs
    form the matrix C - y_u - y_v - a_u - a_v + 2 Q_uv, a = S^T pi,
    Q = S^T diag(pi) S."""
    n, p = sides.shape[1], len(sides)
    if len(cols) == len(eu):
        return cols[:0], None
    masks = np.vstack([np.eye(n, dtype=bool), sides])
    sign = np.r_[np.ones(n), -np.ones(p)]  # a cut row is kept as -a x + s = -b
    matrix = lambda e: sign[:, None] * _cut_rows(masks, eu[e], ev[e])
    at = tab.basis - tab.lead  # the leading columns of B^-1 are never basic
    surplus = at >= len(cols)  # the surplus column of cut row i is unit column n + i
    edges = cols[at[~surplus]]
    basis, cost_b = np.zeros((n + p, n + p)), np.zeros(n + p)
    basis[:, ~surplus], cost_b[~surplus] = matrix(edges), cost[eu[edges], ev[edges]]
    basis[n + at[surplus] - len(cols), surplus] = 1.0
    duals = np.linalg.solve(basis.T, cost_b)
    y, pi, s = duals[:n], -duals[n:], sides.astype(float)
    a = pi @ s
    reduced = (cost - y[:, None] - y - a[:, None] - a + 2.0 * (s.T * pi) @ s)[eu, ev]
    reduced[cols] = np.inf
    new = np.flatnonzero(reduced < -PIVOT_TOL)
    return new, np.vstack([np.linalg.solve(basis, matrix(new)), reduced[new]])


def build_split_graph_reference(inst: MetricInstance, x: FractionalSolution,
                                split_vertex: int = 0) -> SplitGraph:
    """``split.build_split_graph`` as a loop over the edges, one lookup each."""
    u, v0 = split_vertex, inst.n
    edges, vals, costs = [], [], []
    for e in inst.edges():
        xe = float(x.values.get(e, 0.0))
        ce = inst.edge_cost(e)
        if u in e:
            w = e[0] if e[1] == u else e[1]
            edges += [make_edge(u, w), make_edge(v0, w)]
            vals += [xe / 2.0, xe / 2.0]
            costs += [ce, ce]
        else:
            edges.append(e)
            vals.append(xe)
            costs.append(ce)
    return SplitGraph(n=inst.n, split_vertex=u, edges=tuple(edges), x0=np.array(vals),
                      cost0=np.array(costs))


def identify_back_reference(g0: SplitGraph, m0: MultiEdgeSet) -> MultiEdgeSet:
    """``split.identify_back`` on a multiset of expanded-graph pairs: merge twin
    multiplicities onto the original edges.  An edge between the twins, or
    with an endpoint outside the expanded graph, raises ValueError."""
    merged: dict[Edge, int] = {}
    for e, mult in m0.multiplicity.items():
        if not 0 <= e[0] < e[1] <= g0.v0:
            raise ValueError(f"edge {e} has an endpoint outside 0..{g0.v0}")
        orig = g0.origin(e)
        merged[orig] = merged.get(orig, 0) + mult
    return MultiEdgeSet(merged)


def check_tree_polytope(graph: EdgeGraph, z, tol: float = 1e-6) -> list[frozenset[int]]:
    """Exhaustive membership check of ``z`` (one entry per edge of ``graph``);
    returns the violated vertex subsets.

    Verifies z(E) = n - 1 and z(E(S)) <= |S| - 1 for every subset S, plus
    z >= 0 (a negative entry is reported as a singleton violation).  Meant as
    a small-graph oracle: enumeration of 2^n subsets caps n at 14.
    """
    n = graph.n
    z = np.asarray(z, dtype=float)
    if n > 14:
        raise ValueError(f"enumeration infeasible for n={n} > 14")
    bad: list[frozenset[int]] = []
    for i, e in enumerate(graph.edges):
        if z[i] < -tol:
            bad.append(frozenset(e))
    ea = np.array([e[0] for e in graph.edges], dtype=np.int64)
    eb = np.array([e[1] for e in graph.edges], dtype=np.int64)
    for mask in range(3, 1 << n):
        size = int(mask).bit_count()
        if size < 2:
            continue
        inside = ((mask >> ea) & 1).astype(bool) & ((mask >> eb) & 1).astype(bool)
        bound = size - 1 + tol
        if size == n:
            # the full set carries the equality z(E) = n - 1
            total = z.sum()
            if abs(total - (n - 1)) > tol:
                bad.append(frozenset(range(n)))
            continue
        if float(z[inside].sum()) > bound:
            bad.append(frozenset(v for v in range(n) if mask >> v & 1))
    return bad


def over_and_tight_sets(graph: EdgeGraph, z) -> tuple[list[frozenset[int]], list[frozenset[int]]]:
    """By enumeration over the vertex sets S of at least two vertices: those
    with z(E(S)) above |S| - 1 by more than ``TIGHT_SET_TOL`` (|S| - 1), and
    the proper ones within that much of |S| - 1, the tight sets."""
    z = np.asarray(z, dtype=float)
    over, tight = [], []
    for size in range(2, graph.n + 1):
        for subset in itertools.combinations(range(graph.n), size):
            inside = set(subset)
            excess = sum(float(z[i]) for i, (a, b) in enumerate(graph.edges)
                         if a in inside and b in inside) - (size - 1)
            if excess > TIGHT_SET_TOL * (size - 1):
                over.append(frozenset(subset))
            elif excess >= -TIGHT_SET_TOL * (size - 1) and size < graph.n:
                tight.append(frozenset(subset))
    return over, tight


def degree_value(g0: SplitGraph, v: int) -> float:
    """Total x0 mass incident to vertex v."""
    return float(sum(g0.x0[i] for i, (a, b) in enumerate(g0.edges) if v in (a, b)))


def tree_point_total(z) -> float:
    return float(np.sum(z))


def separates_u0_v0(tree: SpanningTree, e: int, u0: int, v0: int) -> bool:
    """True iff removing tree edge ``e`` puts u0 and v0 on opposite sides."""
    return e in u0v0_path_edges(tree, u0, v0)


def tree_depth(tree: SpanningTree) -> list[int]:
    """Edge count from each vertex up to the root."""
    depth = [-1] * tree.n
    depth[0] = 0
    for v in range(1, tree.n):
        chain = []
        u = v
        while depth[u] < 0:
            chain.append(u)
            u = tree.parent[u]
        d = depth[u]
        for w in reversed(chain):
            d += 1
            depth[w] = d
    return depth


def _lca(tree: SpanningTree, depth: list[int], a: int, b: int) -> int:
    while depth[a] > depth[b]:
        a = tree.parent[a]
    while depth[b] > depth[a]:
        b = tree.parent[b]
    while a != b:
        a = tree.parent[a]
        b = tree.parent[b]
    return a


def fundamental_cut_counts_reference(tree: SpanningTree, t_star: dict[int, int],
                                     g0: SplitGraph) -> dict[int, int]:
    """Union-tree coverage of every fundamental cut of ``tree``.

    For each tree edge e, counts the t_star edges (edge index -> multiplicity)
    crossing the cut that removing e creates.  Computed by path increments:
    an edge (a, b) of t_star crosses exactly the fundamental cuts of the tree
    edges on the a-b tree path, so difference counters at a, b, and their
    meeting point accumulate all counts in one subtree-sum pass.

    Returns a mapping from expanded-graph edge index (tree edges only) to count.
    """
    depth = tree_depth(tree)
    diff = [0] * tree.n
    for i, mult in t_star.items():
        a, b = g0.edges[i]
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
    meet = _lca(tree, tree_depth(tree), u0, v0)
    edges = set()
    for v in (u0, v0):
        while v != meet:
            edges.add(tree.parent_edge[v])
            v = tree.parent[v]
    return frozenset(edges)


def validate_metric_reference(inst: MetricInstance, tol: float = TOL) -> list[MetricViolation]:
    """Check symmetry, zero diagonal, nonnegativity, and the triangle inequality.

    Returns an empty list iff the instance is a metric within ``tol``.  A
    triangle entry (x, y, z) means cost(x,z) > cost(x,y) + cost(y,z); each
    unordered endpoint pair with a given midpoint is reported once.
    """
    c = inst.cost
    n = inst.n
    out: list[MetricViolation] = []
    for u in range(n):
        if abs(c[u, u]) > tol:
            out.append(MetricViolation("diagonal", (u,), abs(float(c[u, u]))))
        for v in range(u + 1, n):
            if abs(c[u, v] - c[v, u]) > tol:
                out.append(MetricViolation("symmetry", (u, v), abs(float(c[u, v] - c[v, u]))))
            if c[u, v] < -tol or c[v, u] < -tol:
                out.append(MetricViolation("negative", (u, v), -float(min(c[u, v], c[v, u]))))
    for x in range(n):
        for z in range(x + 1, n):
            for y in range(n):
                if y == x or y == z:
                    continue
                excess = c[x, z] - (c[x, y] + c[y, z])
                if excess > tol:
                    out.append(MetricViolation("triangle", (x, y, z), float(excess)))
    return out


def separate(x: dict[Edge, float], k: float, n: int) -> CutSpec | None:
    """The first cut of the fractional solution that ``violated_cuts`` returns,
    or None when all cuts carry >= k."""
    sides, _ = violated_cuts(x, k, n)
    return CutSpec(side=frozenset(np.nonzero(sides[0])[0].tolist()), n=n) if sides else None


def cut_size(m: MultiEdgeSet, s: CutSpec) -> int:
    """Number of multiset edges crossing the cut, counted with multiplicity."""
    return sum(mult for (a, b), mult in m.multiplicity.items() if (a in s.side) != (b in s.side))


def multiset_from_pairs(pairs) -> MultiEdgeSet:
    """Build from an iterable of (u, v) pairs, counting repeats."""
    mult: dict[Edge, int] = {}
    for u, v in pairs:
        e = make_edge(u, v)
        mult[e] = mult.get(e, 0) + 1
    return MultiEdgeSet(mult)


def multiset_size(m: MultiEdgeSet) -> int:
    """Total edge count with multiplicity."""
    return sum(m.multiplicity.values())


def effective_resistance(lam, graph: EdgeGraph, e) -> float:
    """Effective resistance across edge ``e`` (an index or an endpoint pair)."""
    lam = np.asarray(lam, dtype=float)
    if np.any(lam <= 0):
        raise ValueError("edge weights must be positive")
    a, b = graph.edges[e] if isinstance(e, (int, np.integer)) else make_edge(*e)
    inv = _grounded_inverse(graph, lam)
    return float(_pair_resistances(inv, [(a, b)])[0])


def spanning_tree_count(lam, graph: EdgeGraph) -> float:
    """Weighted spanning-tree count: any cofactor of the weighted Laplacian."""
    lam = np.asarray(lam, dtype=float)
    if graph.n == 1:
        return 1.0
    lap = weighted_laplacian(graph, lam)
    return float(np.linalg.det(lap[1:, 1:]))


def chernoff_tail(q_prime: float, epsilon: float) -> float:
    """Lower-tail bound exp(-epsilon^2 * q' / 2) for Bernoulli-sum variables.

    epsilon = 1 is accepted: the bound extends there by continuity (the event
    becomes "below zero").
    """
    if q_prime <= 0:
        raise ValueError(f"q_prime must be positive, got {q_prime}")
    if not 0 < epsilon <= 1:
        raise ValueError(f"epsilon must lie in (0, 1], got {epsilon}")
    return math.exp(-epsilon * epsilon * q_prime / 2.0)


@dataclass(frozen=True)
class ApproxFactor:
    """Guarantee at connectivity k: headline closed form and the sharper expression."""

    k: int
    alpha: float
    headline: float
    precise: float


def approx_factor(k: int) -> ApproxFactor:
    """Expected approximation factor: 1 + sqrt(8 ln k / k), and the sharper
    1 + alpha/sqrt(k/2) + exp(-alpha^2/2) at alpha = sqrt(ln(k/2))."""
    if k < 2:
        raise ValueError("k must be at least 2")
    headline = 1.0 + math.sqrt(8.0 * math.log(k) / k)
    alpha = math.sqrt(max(math.log(k / 2.0), 0.0))
    precise = 1.0 + alpha / math.sqrt(k / 2.0) + math.exp(-alpha * alpha / 2.0)
    return ApproxFactor(k=k, alpha=alpha, headline=headline, precise=precise)


@dataclass(frozen=True)
class BernoulliSumStats:
    """Sample mean/variance of integer counts; Bernoulli sums have variance <= mean.

    ``slack_stderr`` is the standard error of (variance - mean), the quantity
    the dispersion tests band with 3 sigma.
    """

    mean: float
    variance: float
    count: int
    slack_stderr: float

    @property
    def variance_minus_mean(self) -> float:
        return self.variance - self.mean


def bs_stats(samples) -> BernoulliSumStats:
    """Summary statistics used by the variance-vs-mean dispersion checks."""
    x = np.asarray(list(samples), dtype=float)
    if x.size < 2:
        raise ValueError("need at least 2 samples")
    mean = float(x.mean())
    var = float(x.var(ddof=1))
    d = (x - mean) ** 2 - x
    stderr = float(d.std(ddof=1) / math.sqrt(x.size))
    return BernoulliSumStats(mean=mean, variance=var, count=int(x.size), slack_stderr=stderr)
