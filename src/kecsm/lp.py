"""Cutting-plane solver for the degree-k cut relaxation.

The relaxation minimizes total edge cost subject to fractional degree exactly
k at every vertex, every cut carrying at least k, and nonnegative edge values.
Cut constraints are generated lazily: the support graph's connected
components first, then a global-min-cut separation oracle.  Cuts join one
simplex tableau kept across rounds and are absorbed by dual simplex pivots
from the previous optimal basis.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .core import Edge, MetricInstance, component_labels, global_min_cut

# A cut is treated as violated when it carries less than k minus this slack.
SEPARATION_TOL = 1e-7
# Ratios within this distance count as tied; ties go to the smallest index.
RATIO_TIE = 1e-12
# Pivots without objective change before pricing falls back to Bland's rule.
STALL_PIVOTS = 30


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
    """Edge values x >= 0 with degree exactly k everywhere and all cuts >= k."""

    values: dict[Edge, float]
    objective: float


@dataclass(frozen=True)
class LPReport:
    objective: float
    iterations: int
    cuts_added: int
    separation_slack: float


class _Tableau:
    """Dense simplex tableau for min c.x subject to equality rows and x >= 0.

    Rows are the constraints, each with its basic column in ``basis``, then
    the objective row(s); the last column is the right-hand side, so
    ``t[i, -1]`` is the value of basic variable ``basis[i]`` and an objective
    row's last entry is minus the objective.  Pricing is Dantzig's rule with
    a permanent switch to Bland's rule once the objective stalls, which rules
    out cycling; every remaining tie goes to the smallest index, so the pivot
    sequence is deterministic.
    """

    def __init__(self, t: np.ndarray, basis: np.ndarray, tol: float, max_pivots: int):
        self.t = t
        self.basis = basis
        self.tol = tol
        self.max_pivots = max_pivots
        self.pivots = 0

    def pivot(self, row: int, col: int):
        t = self.t
        t[row] /= t[row, col]
        column = t[:, col].copy()
        column[row] = 0.0
        # only entries in a nonzero row and a nonzero column of the pivot change
        rows = np.nonzero(column)[0]
        cols = np.nonzero(t[row])[0]
        t[np.ix_(rows, cols)] -= np.outer(column[rows], t[row, cols])
        t[rows, col] = 0.0
        self.basis[row] = col
        self.pivots += 1
        if self.pivots > self.max_pivots:
            raise LPError("simplex pivot limit exceeded")

    def primal(self, obj_row: int, ncols: int):
        """Primal simplex on objective row ``obj_row`` over the first ``ncols`` columns."""
        t, m, tol = self.t, len(self.basis), self.tol
        bland = False
        stall = 0
        while True:
            red = t[obj_row, :ncols]
            if bland:
                negs = np.nonzero(red < -tol)[0]
                if negs.size == 0:
                    return
                col = int(negs[0])
            else:
                col = int(np.argmin(red))
                if red[col] >= -tol:
                    return
            pivcol = t[:m, col]
            ratios = np.full(m, np.inf)
            pos = pivcol > tol
            ratios[pos] = t[:m, -1][pos] / pivcol[pos]
            best = ratios.min()
            if best == np.inf:
                raise UnboundedLPError("objective unbounded below")
            tied = np.nonzero(ratios <= best + RATIO_TIE)[0]
            row = int(tied[np.argmin(self.basis[tied])])
            before = t[obj_row, -1]
            self.pivot(row, col)
            stall = stall + 1 if abs(t[obj_row, -1] - before) < 1e-12 else 0
            bland = bland or stall > STALL_PIVOTS

    def dual(self):
        """Dual simplex on the last row: restores x_B >= 0 while keeping
        every reduced cost nonnegative.  The leaving row has the most
        negative value (after a stall, the smallest basic index); the
        entering column has the smallest ratio, ties to the smallest index."""
        t, m, tol = self.t, len(self.basis), self.tol
        ncols = t.shape[1] - 1
        bland = False
        stall = 0
        while True:
            rhs = t[:m, -1]
            if bland:
                negs = np.nonzero(rhs < -tol)[0]
                if negs.size == 0:
                    return
                row = int(negs[np.argmin(self.basis[negs])])
            else:
                row = int(np.argmin(rhs))
                if rhs[row] >= -tol:
                    return
            entries = t[row, :ncols]
            cols = np.nonzero(entries < -tol)[0]
            if cols.size == 0:
                raise InfeasibleLPError(f"no feasible point (row of basic column {self.basis[row]} "
                                        f"stays at {rhs[row]:.3g})")
            ratios = t[-1, cols] / -entries[cols]
            col = int(cols[np.nonzero(ratios <= ratios.min() + RATIO_TIE)[0][0]])
            before = t[-1, -1]
            self.pivot(row, col)
            stall = stall + 1 if abs(t[-1, -1] - before) < 1e-12 else 0
            bland = bland or stall > STALL_PIVOTS

    def add_ge_rows(self, a_ge: np.ndarray, b_ge: np.ndarray):
        """Append rows a_ge x >= b_ge, each with a new surplus column, and
        re-optimize.  The surplus columns start basic, so the old basis stays
        dual feasible and only the dual simplex has work to do."""
        old = self.t
        m, width = len(self.basis), old.shape[1]
        p, nv = a_ge.shape
        t = np.zeros((m + p + 1, width + p))
        kept = np.r_[:m, m + p]  # old constraint rows, then the objective row
        t[kept, :width - 1] = old[:, :-1]
        t[kept, -1] = old[:, -1]
        # -a x + s = -b, with the basic columns eliminated in one product
        new = t[m:m + p]
        new[:, :nv] = -a_ge
        new[:, width - 1:-1] = np.eye(p)
        new[:, -1] = -b_ge
        new -= new[:, self.basis] @ t[:m]
        self.t = t
        self.basis = np.concatenate([self.basis, np.arange(width - 1, width - 1 + p)])
        self.dual()
        # a ratio tie taken within RATIO_TIE can leave a reduced cost below -tol
        self.primal(-1, t.shape[1] - 1)

    def solution(self, nv: int) -> np.ndarray:
        """Structural values, with round-off below 1e-12 (negative included) set to 0."""
        x = np.zeros(nv)
        structural = self.basis < nv
        x[self.basis[structural]] = self.t[: len(self.basis), -1][structural]
        x[x < 1e-12] = 0.0
        return x


def _two_phase(c, a_eq=None, b_eq=None, a_ge=None, b_ge=None,
               tol: float = 1e-9, max_pivots: int = 200_000) -> _Tableau:
    """Optimal tableau of min c.x subject to a_eq x = b_eq, a_ge x >= b_ge, x >= 0.

    Phase 1 drives artificial variables to zero; they are then pivoted out
    or their redundant rows dropped, and their columns and the phase-1 row
    are removed before phase 2.  Columns of the result: the structural
    variables, one surplus per >= row, the right-hand side.
    """
    c = np.asarray(c, dtype=float)
    nv = c.size
    a_eq = np.zeros((0, nv)) if a_eq is None else np.asarray(a_eq, dtype=float).reshape(-1, nv)
    b_eq = np.zeros(0) if b_eq is None else np.asarray(b_eq, dtype=float).ravel()
    a_ge = np.zeros((0, nv)) if a_ge is None else np.asarray(a_ge, dtype=float).reshape(-1, nv)
    b_ge = np.zeros(0) if b_ge is None else np.asarray(b_ge, dtype=float).ravel()

    sign = np.where(b_eq < 0, -1.0, 1.0)
    if np.any(b_ge < 0):
        raise ValueError("surplus-form rows require nonnegative right-hand sides")

    m_eq, m_ge = b_eq.size, b_ge.size
    m = m_eq + m_ge
    art_start = nv + m_ge
    t = np.zeros((m + 2, art_start + m + 1))  # structural, surplus, artificial, rhs
    t[:m_eq, :nv] = sign[:, None] * a_eq
    t[:m_eq, -1] = sign * b_eq
    t[m_eq:m, :nv] = a_ge
    t[m_eq:m, -1] = b_ge
    t[np.arange(m_eq, m), np.arange(nv, art_start)] = -1.0
    t[np.arange(m), np.arange(art_start, art_start + m)] = 1.0
    t[m, :nv] = c
    # phase-1 reduced costs after eliminating the basic artificials
    t[m + 1, :art_start] = -t[:m, :art_start].sum(axis=0)
    t[m + 1, -1] = -t[:m, -1].sum()
    tab = _Tableau(t, np.arange(art_start, art_start + m), tol, max_pivots)

    tab.primal(m + 1, art_start)
    feas_tol = 1e-7 * max(1.0, float(np.max(np.abs(t[:m, -1]))) if m else 1.0)
    if -t[m + 1, -1] > feas_tol:
        raise InfeasibleLPError(f"no feasible point (phase-1 residual {-t[m + 1, -1]:.3g})")

    # pivot leftover artificials out of the basis; drop redundant rows
    keep = np.ones(m + 2, dtype=bool)
    for i in range(m):
        if tab.basis[i] >= art_start:
            cols = np.nonzero(np.abs(t[i, :art_start]) > tol)[0]
            if cols.size:
                tab.pivot(i, int(cols[0]))
            else:
                keep[i] = False
    keep[m + 1] = False
    tab.t = np.delete(t[keep], np.s_[art_start:-1], axis=1)
    tab.basis = tab.basis[keep[:m]]
    tab.primal(-1, art_start)
    return tab


def simplex_min(c, a_eq=None, b_eq=None, a_ge=None, b_ge=None,
                tol: float = 1e-9, max_pivots: int = 200_000):
    """Two-phase primal simplex on a dense tableau, from a cold start.

    Minimizes c.x subject to a_eq x = b_eq, a_ge x >= b_ge, x >= 0.  Pricing
    is Dantzig's rule with a permanent switch to Bland's rule once the
    objective stalls, which rules out cycling.  Ties in the ratio test go to
    the smallest basis index, so the pivot sequence is deterministic.

    Returns (x, objective).
    """
    c = np.asarray(c, dtype=float)
    x = _two_phase(c, a_eq, b_eq, a_ge, b_ge, tol, max_pivots).solution(c.size)
    return x, float(c @ x)


def violated_cuts(x: dict[Edge, float], k: float, n: int) -> tuple[list[np.ndarray], float]:
    """Cuts of the fractional solution carrying less than k, and the min cut value.

    Cuts are vertex masks holding vertex 0.  A disconnected support yields
    every component's cut, each carrying 0, with no min-cut call; a
    connected one yields the global minimum cut when it is violated, which
    is the most violated cut under x.
    """
    labels = np.array(component_labels(n, [e for e, v in x.items() if v > 0]))
    count = int(labels.max()) + 1
    if count > 1:
        # the component of vertex 0 is the complement of the rest; with two
        # components its cut is the other's
        sides = [labels != i for i in range(1, count)]
        return ([labels == 0] if count > 2 else []) + sides, 0.0
    value, spec = global_min_cut(x, n)
    if value >= k - SEPARATION_TOL:
        return [], value
    side = np.zeros(n, dtype=bool)
    side[list(spec.side)] = True
    return [side], value


def _edge_ends(edges: list[Edge]) -> tuple[np.ndarray, np.ndarray]:
    ends = np.array(edges, dtype=int).reshape(-1, 2)
    return ends[:, 0], ends[:, 1]


def _cut_rows(sides: np.ndarray, eu: np.ndarray, ev: np.ndarray) -> np.ndarray:
    """One row per vertex mask: 1 on the edges crossing it.  The masks of
    ``np.eye(n, dtype=bool)`` give the degree rows."""
    return (sides[:, eu] != sides[:, ev]).astype(float)


def solve_lp(inst: MetricInstance, max_cuts: int = 10_000) -> tuple[FractionalSolution, LPReport]:
    """Solve the relaxation by cut generation.

    Solves the degree equalities alone, then repeatedly adds the violated
    cuts that ``violated_cuts`` finds (at most ``max_cuts`` in all) and
    re-optimizes the same tableau by dual simplex, until none is left.
    Deterministic: the pivot order, the component order and the min-cut
    witness are all index-tie-broken.
    """
    edges = inst.edges()
    eu, ev = _edge_ends(edges)
    cost = inst.cost[eu, ev]
    k = float(inst.k)
    tab = _two_phase(cost, _cut_rows(np.eye(inst.n, dtype=bool), eu, ev), np.full(inst.n, k))

    cuts_added = 0
    seen: set[bytes] = set()
    iterations = 0
    while True:
        iterations += 1
        x = tab.solution(len(edges))
        obj = float(cost @ x)
        xmap = dict(zip(edges, x.tolist()))
        sides, value = violated_cuts(xmap, k, inst.n)
        if not sides:
            report = LPReport(objective=obj, iterations=iterations, cuts_added=cuts_added,
                              separation_slack=float(k - value))
            return FractionalSolution(values=xmap, objective=obj), report
        keys = [side.tobytes() for side in sides]
        if seen.intersection(keys) or cuts_added >= max_cuts:
            report = LPReport(objective=obj, iterations=iterations, cuts_added=cuts_added,
                              separation_slack=float("nan"))
            raise LPNotConvergedError("LP did not converge", report)
        sides = sides[:max_cuts - cuts_added]
        seen.update(keys[:len(sides)])
        cuts_added += len(sides)
        tab.add_ge_rows(_cut_rows(np.array(sides), eu, ev), np.full(len(sides), k))
