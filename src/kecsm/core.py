"""Graph, metric, cut, and edge-multiset primitives shared by all solver stages."""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np

# Absolute tolerance for all floating-point comparisons at this layer.
# Desk-scale costs stay below ~1e4, so 1e-9 is far under any real difference.
TOL = 1e-9

Edge = tuple[int, int]


class NotConnectedError(ValueError):
    """Raised when an operation needs a connected graph and the input is not."""


def as_int(value, name: str = "value") -> int:
    """``value`` as an int: ints, numpy integers and integral floats such as
    8.0 pass; a bool, string, fractional or non-finite value raises a
    ValueError that names ``name`` and the value."""
    if type(value) is int:
        return value
    if isinstance(value, float) and value.is_integer() or isinstance(value, np.integer):
        return int(value)
    raise ValueError(f"{name} must be an integer, got {value!r}")


def make_edge(u: int, v: int) -> Edge:
    """Canonical undirected edge key with endpoints ordered u < v."""
    if u == v:
        raise ValueError(f"self-loop ({u},{v}) is not a valid edge")
    return (u, v) if u < v else (v, u)


def spanning_forest(n: int, edges) -> tuple[list[int], list[int]]:
    """Greedy spanning forest: union-find over ``edges`` taken in order.

    Returns the positions in ``edges`` of the edges that join two components,
    stopping once there are n - 1 of them, and the component label of each
    vertex 0..n-1: 0, 1, ... in order of each component's smallest vertex.
    """
    parent = list(range(n))

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    chosen: list[int] = []
    for pos, (a, b) in enumerate(edges):
        ra, rb = find(a), find(b)
        if ra != rb:
            # the root is always the component's smallest vertex
            parent[max(ra, rb)] = min(ra, rb)
            chosen.append(pos)
            if len(chosen) == n - 1:
                break
    roots = [find(v) for v in range(n)]
    relabel: dict[int, int] = {}
    for r in roots:
        if r not in relabel:
            relabel[r] = len(relabel)
    return chosen, [relabel[r] for r in roots]


def component_labels(n: int, edges) -> list[int]:
    """Connected-component label of each vertex 0..n-1 under ``edges``.

    Labels are 0, 1, ... in order of each component's smallest vertex.
    """
    return spanning_forest(n, edges)[1]


def min_spanning_tree(n: int, edges, costs) -> list[int]:
    """Positions in ``edges`` of a minimum spanning tree, in Kruskal order.

    Equal costs go to the smaller position.  Raises
    :class:`NotConnectedError` when the edges do not connect all n vertices.
    """
    order = np.argsort(np.asarray(costs, dtype=float), kind="stable")
    chosen, _ = spanning_forest(n, [edges[i] for i in order])
    if len(chosen) != n - 1:
        raise NotConnectedError("graph is not connected")
    return [int(order[p]) for p in chosen]


def _check_cost_magnitude(top: float, n: int, k: int):
    """Raise ValueError when k is too large for a float or n^2 k times the
    largest cost ``top`` is not finite: the solver's sums of costs would overflow."""
    if k > sys.float_info.max:
        raise ValueError("k is too large for a float")
    if not math.isfinite(top * n * n * k):
        raise ValueError(f"costs up to {top:.3g} are too large: {n * n * k} times that overflows")


@dataclass(frozen=True)
class MetricInstance:
    """Complete graph on vertices 0..n-1 with symmetric costs and connectivity target k.

    The cost matrix is copied and frozen at construction.  Structural shape is
    enforced here; metric axioms are checked by :func:`validate_metric` so that
    malformed inputs can be reported rather than rejected blindly.
    """

    n: int
    cost: np.ndarray
    k: int

    def __post_init__(self):
        object.__setattr__(self, "n", as_int(self.n, "n"))
        object.__setattr__(self, "k", as_int(self.k, "k"))
        if self.n < 2:
            raise ValueError(f"need at least 2 vertices, got n={self.n}")
        if self.k < 2:
            raise ValueError(f"connectivity target must be >= 2, got k={self.k}")
        cost = np.array(self.cost, dtype=float, copy=True)
        if cost.shape != (self.n, self.n):
            raise ValueError(f"cost matrix must be {self.n}x{self.n}, got {cost.shape}")
        if not np.all(np.isfinite(cost)):
            raise ValueError("costs must be finite")
        _check_cost_magnitude(float(np.abs(cost).max()), self.n, self.k)
        cost.flags.writeable = False
        object.__setattr__(self, "cost", cost)

    def edges(self) -> list[Edge]:
        """All edges of the complete graph in lexicographic order."""
        return [(u, v) for u in range(self.n) for v in range(u + 1, self.n)]

    def edge_cost(self, e: Edge) -> float:
        return float(self.cost[e[0], e[1]])

    def mst(self) -> MultiEdgeSet:
        """Minimum spanning tree, one copy per edge in Kruskal order; equal
        costs go to the lexicographically smaller edge."""
        edges = self.edges()
        tree = min_spanning_tree(self.n, edges, self.cost[np.triu_indices(self.n, 1)])
        return MultiEdgeSet({edges[i]: 1 for i in tree})


@dataclass(frozen=True)
class MetricViolation:
    """One failed metric axiom: kind is 'symmetry', 'diagonal', 'negative' or 'triangle'."""

    kind: str
    vertices: tuple[int, ...]
    amount: float

    def __str__(self):
        return f"{self.kind} violation at {self.vertices} (excess {self.amount:.3g})"


def validate_metric(inst: MetricInstance) -> list[MetricViolation]:
    """Check symmetry, zero diagonal, nonnegativity, and the triangle inequality.

    Returns an empty list iff the instance is a metric within ``TOL``.  A
    triangle entry (x, y, z) means cost(x,z) > cost(x,y) + cost(y,z); each
    unordered endpoint pair with a given midpoint is reported once.
    """
    c = inst.cost
    n = inst.n
    out: list[MetricViolation] = []
    skew = np.abs(c - c.T)
    low = np.minimum(c, c.T)
    pair_bad = np.triu((skew > TOL) | (low < -TOL), 1)
    for u in range(n):
        if abs(c[u, u]) > TOL:
            out.append(MetricViolation("diagonal", (u,), abs(float(c[u, u]))))
        for v in np.nonzero(pair_bad[u])[0].tolist():
            if skew[u, v] > TOL:
                out.append(MetricViolation("symmetry", (u, v), float(skew[u, v])))
            if low[u, v] < -TOL:
                out.append(MetricViolation("negative", (u, v), -float(low[u, v])))
    for x in range(n - 1):
        # excess[z - x - 1, y] = c[x, z] - (c[x, y] + c[y, z]) for every z > x
        excess = c[x, x + 1:, None] - (c[x] + c[:, x + 1:].T)
        excess[:, x] = -np.inf
        excess[np.arange(n - x - 1), np.arange(x + 1, n)] = -np.inf
        for dz, y in zip(*np.nonzero(excess > TOL)):
            out.append(MetricViolation("triangle", (x, int(y), x + 1 + int(dz)), float(excess[dz, y])))
    return out


def metric_closure(n: int, raw_cost: np.ndarray, k: int) -> MetricInstance:
    """All-pairs shortest-path closure of a symmetric nonnegative cost matrix.

    ``raw_cost`` may contain ``inf`` for absent edges.  The result is a valid
    metric with closure(u,v) <= raw_cost(u,v); a pair left at infinity raises
    :class:`NotConnectedError`.
    """
    d = np.array(raw_cost, dtype=float, copy=True)
    if d.shape != (n, n):
        raise ValueError(f"raw cost matrix must be {n}x{n}, got {d.shape}")
    if not np.allclose(d, d.T, atol=TOL, equal_nan=True):
        raise ValueError("raw cost matrix must be symmetric")
    if np.any(np.diag(d) != 0):
        raise ValueError("raw cost matrix must have a zero diagonal")
    if np.any(np.isnan(d)):
        raise ValueError("raw costs must not be NaN")
    if np.any(d < 0):  # -inf too
        raise ValueError("raw costs must be nonnegative")
    _check_cost_magnitude(float(d[np.isfinite(d)].max(initial=0.0)), n, k)  # before the sums below can overflow
    for m in range(n):
        # Floyd-Warshall relaxation through intermediate vertex m.
        d = np.minimum(d, d[:, m : m + 1] + d[m : m + 1, :])
    if not np.all(np.isfinite(d)):
        raise NotConnectedError("instance not connected")
    return MetricInstance(n=n, cost=d, k=k)


class MultiEdgeSet:
    """Multiset of undirected edges with nonnegative integer multiplicities.

    Immutable after construction; zero-multiplicity entries are dropped and
    keys are canonicalized to u < v.  Endpoints and multiplicities follow
    :func:`as_int`; anything else raises a ValueError naming the edge.
    """

    __slots__ = ("multiplicity",)

    def __init__(self, multiplicity=None):
        mult: dict[Edge, int] = {}
        if multiplicity:
            for e, m in dict(multiplicity).items():
                try:
                    u, v = e
                    u, v = as_int(u, "endpoint"), as_int(v, "endpoint")
                    m = as_int(m, "multiplicity")
                except (TypeError, ValueError) as exc:
                    raise ValueError(f"edge {e!r} with multiplicity {m!r}: {exc}") from None
                if m < 0:
                    raise ValueError(f"negative multiplicity {m} for edge {e}")
                if m:
                    e = make_edge(u, v)
                    mult[e] = mult.get(e, 0) + m
        self.multiplicity = mult

    def union(self, other: "MultiEdgeSet") -> "MultiEdgeSet":
        """Multiset union: multiplicities add, so |A + B| = |A| + |B|."""
        mult = dict(self.multiplicity)
        for e, m in other.multiplicity.items():
            mult[e] = mult.get(e, 0) + m
        return MultiEdgeSet(mult)

    def total_cost(self, cost: np.ndarray) -> float:
        return float(sum(m * cost[e[0], e[1]] for e, m in self.multiplicity.items()))

    def __eq__(self, other):
        return isinstance(other, MultiEdgeSet) and self.multiplicity == other.multiplicity


def shrink_min_cut(weights, n: int) -> tuple[list[tuple], dict[Edge, float], list[list[int]]]:
    """Contract the edges that no minimum cut needs to cross (the exact tests
    of Padberg and Rinaldi).  ``weights`` maps pairs u != v to nonnegative
    weights; both orientations of a pair add up and Python ints stay exact.
    Returns (cuts, rest, members): ``cuts`` holds (degree, side) of the
    lightest vertex, the smallest one, and of every supervertex when it was
    formed; ``rest`` is
    the graph left on supervertices 0, 1, ..., with ``members[i]`` the
    vertices of supervertex i, and is empty when at most two are left.  The
    minimum cut is the smaller of the least recorded cut and the minimum cut
    of ``rest``.  Once a cut of about 0 is recorded, rule 1 below contracts
    every positive edge, so each component with an edge ends as a supervertex.
    """
    adj: list[dict[int, float]] = [{} for _ in range(n)]
    for (u, v), w in weights.items():
        adj[u][v] = adj[v][u] = adj[u].get(v, 0) + w
    deg = [sum(a.values()) for a in adj]
    members = [[v] for v in range(n)]
    low = min(range(n), key=deg.__getitem__)
    best = deg[low]
    cuts = [(best, [low])]
    # The degree of a supervertex is the cut around it, and it is recorded
    # when the supervertex is formed, so the min cut is always min(best, min
    # cut of the shrunk graph).  Contracting uv keeps that:
    # 1. if w(uv) >= best, as a cut crossing uv carries at least w(uv);
    # 2. if 2 w(uv) >= d(u): for a side S with u in S, v not in S and S != {u},
    #    cut(S - u) - cut(S) = w(u, S - u) - w(u, V - S) <= d(u) - 2 w(uv) <= 0,
    #    so some minimum cut is {u}, already recorded, or keeps u and v together.
    # On float weights both tests hold exactly over the reals, while the
    # float degrees differ from the exact sums by about n * eps * sum(w), near
    # 1e-11 on the LP supports.  A contraction thus loses at most that much
    # of the minimum, and a recorded value is that close to its side's cut:
    # far below the LP's SEPARATION_TOL of 1e-7, so separation misses no
    # cut below k - 1e-7 and returns no side that carries k or more.
    # A zero weight joins no components; a merged-away vertex keeps no edges or members.
    alive, work = n, list(range(n))
    while work and alive > 2:
        u = work.pop()
        for v, w in adj[u].items():
            if w > 0 and (w >= best or 2 * w >= deg[u] or 2 * w >= deg[v]):
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
        members[u], members[v] = members[u] + members[v], []  # recorded sides never change
        alive -= 1
        work.append(u)
        cuts.append((deg[u], members[u]))
        if deg[u] < best:
            best = deg[u]
            work = [x for x in range(n) if adj[x]]  # rule 1 may now hold anywhere
    live = [v for v in range(n) if members[v]]
    label = {v: i for i, v in enumerate(live)}
    rest = {(label[u], label[v]): w for u in live for v, w in adj[u].items() if u < v and alive > 2}
    return cuts, rest, [members[v] for v in live]


def global_min_cut(weights, n: int) -> tuple[float, list[int]]:
    """Global minimum cut of a weighted undirected graph via Stoer-Wagner.

    ``weights`` maps edges to nonnegative reals; missing edges weigh zero.
    Deterministic: every phase starts at the smallest live vertex, adjacency
    ties go to the smallest vertex index and phase ties to the earlier phase.
    Returns the value and the side its best phase recorded, which may or may
    not hold vertex 0.  Disconnected inputs yield value 0 with a witnessing
    side.  The solver calls it only on what
    :func:`shrink_min_cut` leaves, a few dozen supervertices at most, so
    each phase step is a plain scan of the free vertices.
    """
    if n < 2:
        raise ValueError("min cut needs at least 2 vertices")
    rows = [[0.0] * n for _ in range(n)]
    for e, wt in dict(weights).items():
        u, v = make_edge(*e)
        if not 0 <= u < v < n:
            raise ValueError(f"edge {e} has an endpoint outside 0..{n - 1}")
        if wt < 0:
            raise ValueError(f"negative weight {wt} on edge {e}")
        if not wt >= 0:
            raise ValueError(f"NaN weight on edge {e}")
        wt = float(wt)
        rows[u][v] += wt
        rows[v][u] += wt

    # The phases run on Python floats: a float list is read several times
    # faster than numpy scalars.  Only entries between live vertices are
    # kept up to date; rows and columns of contracted vertices go stale.
    groups: list[list[int]] = [[v] for v in range(n)]
    alive = list(range(n))
    best_value = np.inf
    best_side: list[int] = []
    while len(alive) > 1:
        free = alive[1:]
        conn = [0.0] * n
        prev = last = alive[0]
        while free:
            # add ``last`` to the order, then pick the free vertex most tightly
            # connected to it; ties go to the smallest index
            row = rows[last]
            prev = last
            bar = -1.0
            for v in free:
                c = conn[v] + row[v]
                conn[v] = c
                if c > bar:
                    bar = c
                    last = v
            free.remove(last)
        # a plain left-to-right loop: from Python 3.12 on, sum() of floats is
        # compensated and would round differently
        row = rows[last]
        phase_cut = 0.0
        for v in alive:
            if v != last:
                phase_cut += row[v]
        if phase_cut < best_value:
            best_value = phase_cut
            best_side = list(groups[last])
        # contract last into prev (prev keeps the merged supervertex)
        merged, gone = rows[prev], rows[last]
        for v in alive:
            if v != prev and v != last:
                merged[v] += gone[v]
                rows[v][prev] = merged[v]
        groups[prev].extend(groups[last])
        alive.remove(last)
    return best_value, best_side
