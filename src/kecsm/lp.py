"""Cutting-plane solver for the degree-k cut relaxation.

The relaxation minimizes total edge cost subject to fractional degree exactly
k at every vertex, every cut carrying at least k, and nonnegative edge values.
Every constraint scales with k, so the solver finds the optimum y at k = 2,
the subtour relaxation, and k enters only in (k/2) y (``FractionalSolution.at``).
Cut constraints are generated lazily, by one rule for every support: the
violated cuts among the sides that the shrink of the support records and
one global min cut of what it leaves.  Cuts join one simplex
tableau kept across rounds and are absorbed by dual simplex pivots from the
previous optimal basis.
The tableau starts on a core of near-neighbour edges, as in the core LP of
Applegate, Bixby, Chvatal and Cook (2006, ch. 12); the other edges are
priced against the duals, read with B^-1 from the tableau with no solve,
and join as columns when their reduced cost is negative.  Its first basis
lies on the core's nearest-neighbour tour and is feasible, so primal
simplex starts there with no phase 1.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Edge, MetricInstance, global_min_cut, shrink_min_cut

# A cut of y is treated as violated when it carries less than 2 minus this slack.
SEPARATION_TOL = 1e-7
# Ratios within this distance count as tied; ties go to the smallest index.
RATIO_TIE = 1e-12
# Reduced costs and basic values beyond this distance from 0 count as nonzero.
PIVOT_TOL = 1e-9
# Pivots a solve may make before it raises LPError.
MAX_PIVOTS = 200_000
# Cuts a solve may add before it raises LPNotConvergedError.
MAX_CUTS = 10_000
# Pivots without objective change before pricing falls back to Bland's rule.
STALL_PIVOTS = 30
# Nearest neighbours of each vertex whose edges start in the LP's core.
CORE_NEIGHBOURS = 8


class LPError(RuntimeError):
    """Base class for relaxation solver failures."""


class InfeasibleLPError(LPError):
    pass


class UnboundedLPError(LPError):
    pass


class LPNotConvergedError(LPError):
    """Cut generation hit its iteration cap; carries the partial report."""

    def __init__(self, message: str, report: "LPReport"):
        super().__init__(message)
        self.report = report


@dataclass(frozen=True)
class FractionalSolution:
    """Edge values x with degree exactly k everywhere and all cuts >= k;
    ``values`` holds the support only (x > 0), in lexicographic order."""

    values: dict[Edge, float]
    objective: float

    def at(self, k: int) -> FractionalSolution:
        """This degree-2 point y scaled to connectivity k: (k/2) y."""
        return FractionalSolution({e: k / 2 * v for e, v in self.values.items()}, k / 2 * self.objective)


@dataclass(frozen=True)
class LPReport:
    objective: float  # of y, like separation_slack: one solve, one report for every k
    iterations: int
    cuts_added: int
    separation_slack: float
    core: int  # edges the tableau started with
    priced: int  # edges pricing added to it
    pivots: int  # simplex pivots, from the tour basis on


class _Tableau:
    """Dense simplex tableau for min c.x subject to equality rows and x >= 0.

    Rows are the constraints, each with its basic column in ``basis``, then
    the objective row(s); the last column is the right-hand side, so
    ``t[i, -1]`` is the value of basic variable ``basis[i]`` and an objective
    row's last entry is minus the objective.  Pricing is Dantzig's rule with
    a permanent switch to Bland's rule once the objective stalls, which rules
    out cycling; every remaining tie goes to the smallest index, so the pivot
    sequence is deterministic.  The scans and ``solution`` skip the first
    ``lead`` columns, so they never enter the basis (``_tour_start``).
    """

    def __init__(self, t: np.ndarray, basis: np.ndarray, lead: int):
        self.t = t
        self.basis = basis
        self.lead = lead
        self.pivots = 0

    def pivot(self, row: int, col: int):
        t = self.t
        t[row] /= t[row, col]
        column = t[:, col].copy()
        column[row] = 0.0
        # entry (r, j) changes only if t[r, col] and t[row, j] are nonzero
        rows = column.nonzero()[0]
        t[rows] -= column[rows, None] * t[row]
        t[rows, col] = 0.0
        self.basis[row] = col
        self.pivots += 1
        if self.pivots > MAX_PIVOTS:
            raise LPError("simplex pivot limit exceeded")

    def primal(self):
        """Primal simplex on the last row over every column after the leading ones."""
        t, m, tol = self.t, len(self.basis), PIVOT_TOL
        red, rhs = t[-1, self.lead:-1], t[:m, -1]
        bland = False
        stall = 0
        while True:
            # Bland's rule enters the first negative column: argmax of the mask
            col = int((red < -tol).argmax() if bland else red.argmin())
            if red[col] >= -tol:
                return
            pivcol = t[:m, self.lead + col]
            ratios = np.divide(rhs, pivcol, out=np.full(m, np.inf), where=pivcol > tol)
            best = ratios.min()
            if best == np.inf:
                raise UnboundedLPError("objective unbounded below")
            tied = (ratios <= best + RATIO_TIE).nonzero()[0]
            row = int(tied[self.basis[tied].argmin()])
            before = t[-1, -1]
            self.pivot(row, self.lead + col)
            stall = stall + 1 if abs(t[-1, -1] - before) < 1e-12 else 0
            bland = bland or stall > STALL_PIVOTS

    def dual(self):
        """Dual simplex on the last row: restores x_B >= 0 while keeping
        every reduced cost nonnegative.  The leaving row has the most
        negative value (after a stall, the smallest basic index); the
        entering column has the smallest ratio, ties to the smallest index."""
        t, m, tol = self.t, len(self.basis), PIVOT_TOL
        red, rhs = t[-1, self.lead:-1], t[:m, -1]
        bland = False
        stall = 0
        while True:
            if bland:
                negs = (rhs < -tol).nonzero()[0]
                if negs.size == 0:
                    return
                row = int(negs[self.basis[negs].argmin()])
            else:
                row = int(rhs.argmin())
                if rhs[row] >= -tol:
                    return
            entries = t[row, self.lead:-1]
            cols = (entries < -tol).nonzero()[0]
            if cols.size == 0:
                raise InfeasibleLPError(f"no feasible point (row of basic column {self.basis[row]} "
                                        f"stays at {rhs[row]:.3g})")
            ratios = red[cols] / -entries[cols]
            col = self.lead + int(cols[(ratios <= ratios.min() + RATIO_TIE).argmax()])
            before = t[-1, -1]
            self.pivot(row, col)
            stall = stall + 1 if abs(t[-1, -1] - before) < 1e-12 else 0
            bland = bland or stall > STALL_PIVOTS

    def add_ge_rows(self, a_ge: np.ndarray, b_ge: np.ndarray):
        """Append rows a_ge x >= b_ge (x after the leading columns), each with
        a new surplus column, and re-optimize.  The surplus columns start
        basic, so the old basis stays dual feasible and only the dual simplex
        has work to do."""
        old = self.t
        m, width = len(self.basis), old.shape[1]
        p, nv = a_ge.shape
        t = np.zeros((m + p + 1, width + p))
        kept = np.r_[:m, m + p]  # old constraint rows, then the objective row
        t[kept, :width - 1] = old[:, :-1]
        t[kept, -1] = old[:, -1]
        # -a x + s = -b, with the basic columns eliminated in one product
        new = t[m:m + p]
        new[:, self.lead:self.lead + nv] = -a_ge
        new[:, width - 1:-1] = np.eye(p)
        new[:, -1] = -b_ge
        new -= new[:, self.basis] @ t[:m]
        self.t = t
        self.basis = np.concatenate([self.basis, np.arange(width - 1, width - 1 + p)])
        self.dual()
        # a ratio tie taken within RATIO_TIE can leave a reduced cost below -PIVOT_TOL
        self.primal()

    def add_columns(self, at: int, cols: np.ndarray):
        """Insert columns in tableau form (B^-1 a, reduced cost last) before
        column ``at``; they start nonbasic, so primal simplex re-optimizes."""
        self.t = np.concatenate((self.t[:, :at], cols, self.t[:, at:]), axis=1)
        self.basis = np.where(self.basis >= at, self.basis + cols.shape[1], self.basis)
        self.primal()

    def solution(self, nv: int) -> np.ndarray:
        """Values of the nv columns after the leading ones, round-off below 1e-12 (negative too) at 0."""
        x = np.zeros(nv)
        structural = self.basis < self.lead + nv
        x[self.basis[structural] - self.lead] = self.t[: len(self.basis), -1][structural]
        x[x < 1e-12] = 0.0
        return x


def violated_cuts(x: dict[Edge, float], k: float, n: int) -> tuple[list[np.ndarray], float]:
    """Cuts of the fractional solution carrying less than k, and the min cut value.

    Cuts are vertex masks holding vertex 0: every side that the shrink of the
    support records (``shrink_min_cut``) and one min cut of what it leaves,
    by the smallest vertex of each side as found, each mask once.  The min
    cut value is the least of them.
    """
    cuts, rest, members = shrink_min_cut(x, n)
    if rest:
        value, side = global_min_cut(rest, len(members))
        cuts.append((value, [v for i in side for v in members[i]]))
    sides: dict[bytes, np.ndarray] = {}
    for value, side in sorted(cuts, key=lambda cut: min(cut[1])):
        if value < k - SEPARATION_TOL:
            mask = np.zeros(n, dtype=bool)
            mask[side] = True
            if not mask[0]:
                mask = ~mask
            sides.setdefault(mask.tobytes(), mask)
    return list(sides.values()), min(value for value, _ in cuts)


def _cut_rows(sides: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """One row per vertex mask: 1 on the edges crossing it.  The masks of
    ``np.eye(n, dtype=bool)`` give the degree rows."""
    return (sides[:, eu] != sides[:, ev]).astype(float)


def _tour_and_core(cost: np.ndarray) -> tuple[list[int], np.ndarray]:
    """The nearest-neighbour tour from vertex 0 and the core, the lexicographic
    indices of the edges the LP starts with: each vertex's ``CORE_NEIGHBOURS``
    nearest neighbours and the tour (ties to the smaller index), from one sort
    of every row of the costs.  A core without a triangle gets the one of
    vertex 0 and its two nearest neighbours, since the degree rows of a
    connected graph are independent only if it is not bipartite
    (``_tour_start`` needs an odd cycle for even n).  Up to
    n = ``CORE_NEIGHBOURS`` + 1 the core is every edge."""
    n = len(cost)
    order = np.argsort(cost + np.diag(np.full(n, np.inf)), axis=1, kind="stable")
    rows, seen, tour = order.tolist(), [True] + [False] * (n - 1), [0]
    for _ in range(n - 1):
        tour.append(next(w for w in rows[tour[-1]] if not seen[w]))
        seen[tour[-1]] = True
    pick = np.zeros((n, n), dtype=bool)
    pick[np.arange(n)[:, None], order[:, :CORE_NEIGHBOURS]] = True
    pick[tour, np.roll(tour, -1)] = True
    pick |= pick.T
    eu, ev = np.triu_indices(n, 1)
    core = np.flatnonzero(pick[eu, ev])
    if not (pick[eu[core]] & pick[ev[core]]).any():  # no core edge has a common neighbour
        triangle = np.r_[0, order[0, :2]]
        pick[np.ix_(triangle, triangle)] = True
        core = np.flatnonzero(pick[eu, ev])
    return tour, core


def _tour_start(tour: list[int], cols: np.ndarray, eu: np.ndarray, ev: np.ndarray,
                cost: np.ndarray) -> _Tableau:
    """Optimal tableau of the degree-2 rows over the edges ``cols`` (sorted
    lexicographic indices, with costs ``cost``), by primal simplex from a
    feasible basis on the tour.

    Odd n: the tour cycle, 1 on every edge.  Even n: the tour path, 2 and 0
    on alternate edges (a perfect matching), and at 0 the first edge of
    ``cols`` that joins two tour positions of the same parity, which closes
    an odd cycle (a triangle of the core has such an edge).  n = 2: the one
    edge and one degree row, as the second repeats it.  Either basis is a
    connected graph whose one cycle is odd, so its determinant is +-2 and
    B^-1 is a matrix of halves: rounding the inverse makes it exact, and so
    is the column B^-1 e_u + B^-1 e_v of each edge uv.  The tableau keeps
    B^-1 as its n leading columns, whose objective row is -c_B B^-1.
    """
    n = len(tour)
    ends = np.sort(np.c_[tour, np.roll(tour, -1)], axis=1)[:n if n % 2 else n - 1]
    basis = np.searchsorted(cols, ends[:, 0] * (2 * n - ends[:, 0] - 3) // 2 + ends[:, 1] - 1)
    x_b = np.ones(n) if n % 2 else np.where(np.arange(n - 1) % 2, 0.0, 2.0)
    if n % 2 == 0 and n > 2:
        pos = np.empty(n, dtype=int)
        pos[tour] = np.arange(n)
        chord = np.flatnonzero((pos[eu[cols]] - pos[ev[cols]]) % 2 == 0)[0]
        basis, x_b = np.r_[basis, chord], np.r_[x_b, 0.0]
    m, e = len(basis), cols[basis]
    inv = np.zeros((m, n))  # at n = 2 vertex 1 has no row, so its column stays 0
    inv[:, :m] = np.round(2.0 * np.linalg.inv(_cut_rows(np.eye(n, dtype=bool)[:m], eu[e], ev[e]))) / 2.0
    # row-major: over the column-major gather the product below sums in
    # another order, and its last bits can move a pivot at a tie
    body = np.add(inv[:, eu[cols]], inv[:, ev[cols]], order="C")
    t = np.vstack([np.c_[inv, body, x_b],
                   np.r_[-(cost[basis] @ inv), cost - cost[basis] @ body, -(cost[basis] @ x_b)]])
    tab = _Tableau(t, basis + n, n)
    tab.primal()
    return tab


def _priced_columns(tab: _Tableau, cols: np.ndarray, sides: np.ndarray, eu: np.ndarray,
                    ev: np.ndarray, cost: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The edges outside ``cols`` with reduced cost below -PIVOT_TOL, and their tableau columns.

    ``cols`` holds the edges of the structural columns and ``sides`` the
    masks S of the cut rows, in tableau order.  The objective row holds the
    duals, -y (degree rows) on the leading columns and pi (cut rows) on the
    surplus ones.  As an edge crosses S when s_u + s_v - 2 s_u s_v is 1, the
    reduced costs form the matrix C - y_u - y_v - a_u - a_v + 2 Q_uv,
    a = S^T pi, Q = S^T diag(pi) S.  As a cut row is kept as -a x + s = -b,
    the column of edge uv is B^-1 e_u + B^-1 e_v (leading columns u and v)
    minus the surplus columns of the cuts it crosses."""
    t, n, surplus = tab.t, tab.lead, np.s_[tab.lead + len(cols):-1]
    y, pi, s = -t[-1, :n], t[-1, surplus], sides.astype(float)
    a = pi @ s
    reduced = (cost - y[:, None] - y - a[:, None] - a + 2.0 * (s.T * pi) @ s)[eu, ev]
    reduced[cols] = np.inf
    new = np.flatnonzero(reduced < -PIVOT_TOL)
    body = t[:-1, eu[new]] + t[:-1, ev[new]] - t[:-1, surplus] @ _cut_rows(sides, eu[new], ev[new])
    return new, np.vstack([body, reduced[new]])


def solve_lp(inst: MetricInstance) -> tuple[FractionalSolution, LPReport]:
    """Solve the relaxation by cut generation on a priced core of edges.

    Finds the point y at degree 2: solves the degree equalities over the core
    of ``_tour_and_core`` by primal simplex from the feasible basis of
    ``_tour_start`` on the nearest-neighbour tour, then adds the violated cuts
    that ``violated_cuts`` finds on the support of y (at most ``MAX_CUTS`` in
    all), re-optimizing the same tableau by dual simplex.
    When none is left, the edges that ``_priced_columns`` finds join after
    the core columns and primal simplex re-optimizes, until separation and
    pricing both come back clean.  Returns y scaled to ``inst.k``, on its
    support, and the report of the solve, which does not depend on k.
    Deterministic: every pivot, component and min-cut tie goes to the smallest index.
    """
    eu, ev = np.triu_indices(inst.n, 1)
    cost = inst.cost[eu, ev]
    # the simplex sees the costs times a power of two that brings the largest
    # into [1/2, 1): exact, so its absolute tolerances act alike at every scale
    scaled = np.ldexp(inst.cost, -np.frexp(np.abs(inst.cost).max())[1])
    tour, core = _tour_and_core(inst.cost)
    tab = _tour_start(tour, core, eu, ev, scaled[eu[core], ev[core]])
    cols = core
    cut_sides = np.zeros((0, inst.n), dtype=bool)

    def report(objective, slack):
        return LPReport(objective=objective, iterations=iterations, cuts_added=len(cut_sides),
                        separation_slack=slack, core=len(core), priced=len(cols) - len(core),
                        pivots=tab.pivots)

    iterations = 0
    while True:
        iterations += 1
        x = np.zeros(len(eu))
        x[cols] = tab.solution(len(cols))
        obj = float(cost @ x)
        on = x.nonzero()[0]
        support = dict(zip(zip(eu[on].tolist(), ev[on].tolist()), x[on].tolist()))
        sides, value = violated_cuts(support, 2, inst.n)
        if not sides:
            new, columns = _priced_columns(tab, cols, cut_sides, eu, ev, scaled)
            if not new.size:
                return FractionalSolution(support, obj).at(inst.k), report(obj, 2.0 - value)
            tab.add_columns(tab.lead + len(cols), columns)
            cols = np.concatenate([cols, new])
            continue
        sides = np.array(sides)
        if (cut_sides[:, None] == sides).all(axis=2).any() or len(cut_sides) >= MAX_CUTS:
            raise LPNotConvergedError("LP did not converge", report(obj, float("nan")))
        sides = sides[:MAX_CUTS - len(cut_sides)]
        cut_sides = np.vstack([cut_sides, sides])
        tab.add_ge_rows(_cut_rows(sides, eu[cols], ev[cols]), np.full(len(sides), 2.0))
