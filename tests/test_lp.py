import json
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import linprog

from kecsm import lp
from kecsm.core import MetricInstance, component_labels, global_min_cut, shrink_min_cut
from kecsm.instances import euclidean_instance, random_closure_instance
from kecsm.lp import (
    InfeasibleLPError,
    LPError,
    LPNotConvergedError,
    UnboundedLPError,
    _Tableau,
    solve_lp,
    violated_cuts,
)
from kecsm.pipeline import run_pipeline

from oracles import global_min_cut_reference, priced_columns_reference, separate, solve_lp_enumeration

REFERENCES = Path(__file__).resolve().parent.parent / "perfbench" / "references.json"
FAMILIES = {"euclidean": euclidean_instance, "random-closure": random_closure_instance}


def reference_cells(instance_seed):
    """(cell name, instance, objective) for every objective recorded at one instance seed."""
    table = json.loads(REFERENCES.read_text())["instance_seeds"][str(instance_seed)]["objectives"]
    for key, objective in sorted(table.items()):
        if objective is not None:
            family, n, k = key.rsplit("-", 2)
            yield key, FAMILIES[family](int(n[1:]), int(k[1:]), instance_seed), objective


def empty_tableau(c):
    """A tableau with no rows over the costs c >= 0, which is dual feasible;
    constraints join only through ``add_ge_rows``."""
    return _Tableau(np.r_[c, 0.0][None], np.zeros(0, int), lead=0)


def solved_by_rows(c, a_eq, b_eq, a_ge, b_ge):
    """``empty_tableau(c)`` after one batch of rows: each equality as two >= rows, then a_ge."""
    tab = empty_tableau(c)
    tab.add_ge_rows(np.vstack([a_eq, -a_eq, a_ge]), np.r_[b_eq, -b_eq, b_ge])
    return tab


def highs(c, a_eq=None, b_eq=None, a_ge=None, b_ge=None):
    ref = linprog(c, A_ub=None if a_ge is None else -a_ge, b_ub=None if b_ge is None else -b_ge,
                  A_eq=a_eq, b_eq=b_eq, bounds=(0, None), method="highs")
    assert ref.status == 0
    return ref.fun


class TestSimplexEngine:
    """Cross-check the in-house tableau against an established LP solver."""

    @pytest.mark.parametrize("seed", range(15))
    def test_random_lps_match_scipy(self, seed):
        rng = np.random.default_rng(seed)
        nv = int(rng.integers(3, 8))
        m_eq = int(rng.integers(0, 3))
        m_ge = int(rng.integers(1, 5))
        c = rng.random(nv)
        a_eq = rng.random((m_eq, nv))
        a_ge = rng.random((m_ge, nv))
        # rhs chosen from a feasible interior point so the LP is feasible
        x_feas = rng.random(nv) + 0.1
        b_eq = a_eq @ x_feas
        b_ge = a_ge @ x_feas * 0.8
        x = solved_by_rows(c, a_eq, b_eq, a_ge, b_ge).solution(nv)
        ref = highs(c, a_eq if m_eq else None, b_eq if m_eq else None, a_ge, b_ge)
        assert c @ x == pytest.approx(ref, rel=1e-7, abs=1e-9)
        assert np.all(x >= -1e-9)
        if m_eq:
            assert np.allclose(a_eq @ x, b_eq, atol=1e-7)
        assert np.all(a_ge @ x >= b_ge - 1e-7)

    def test_infeasible_raises(self):
        tab = empty_tableau(np.ones(1))
        with pytest.raises(InfeasibleLPError,
                           match=re.escape("no feasible point (row of basic column 2 stays at -1)")):
            tab.add_ge_rows(np.array([[1.0], [-1.0]]), np.array([2.0, -1.0]))

    def test_unbounded_raises(self):
        # min -y subject to x - y = 1, with x basic: y enters and no row bounds it
        tab = _Tableau(np.array([[1.0, -1.0, 1.0], [0.0, -1.0, 0.0]]), np.array([0]), lead=0)
        with pytest.raises(UnboundedLPError):
            tab.primal()

    @pytest.mark.parametrize("seed", range(12))
    def test_rows_added_in_batches_match_cold_solve(self, seed):
        rng = np.random.default_rng(1000 + seed)
        nv = int(rng.integers(4, 9))
        m_eq = int(rng.integers(1, 3))
        m_ge = int(rng.integers(3, 8))
        c = rng.random(nv)
        a_eq = rng.random((m_eq, nv))
        a_ge = rng.random((m_ge, nv))
        x_feas = rng.random(nv) + 0.1
        b_eq = a_eq @ x_feas
        b_ge = a_ge @ x_feas
        first, *later = np.array_split(np.arange(m_ge), 2 + seed % 2)
        tab = solved_by_rows(c, a_eq, b_eq, a_ge[first], b_ge[first])
        for rows in later:
            cut_off = np.any(a_ge[rows] @ tab.solution(nv) < b_ge[rows] - 1e-9)
            pivots = tab.pivots
            tab.add_ge_rows(a_ge[rows], b_ge[rows])
            assert (tab.pivots > pivots) == cut_off
        x = tab.solution(nv)
        assert c @ x == pytest.approx(highs(c, a_eq, b_eq, a_ge, b_ge), rel=1e-9, abs=1e-9)
        assert np.all(x >= 0)
        assert np.allclose(a_eq @ x, b_eq, atol=1e-9)
        assert np.all(a_ge @ x >= b_ge - 1e-9)

    def test_tied_dual_ratios_go_to_smallest_column(self):
        # equal costs tie every entering ratio of the added row
        a, b = np.array([[1.0, 1.0, 1.0]]), np.array([1.0])
        tab = empty_tableau(np.ones(3))
        tab.add_ge_rows(a, b)
        x = tab.solution(3)
        assert x.tolist() == [1.0, 0.0, 0.0]
        assert x.sum() == pytest.approx(highs(np.ones(3), a_ge=a, b_ge=b), abs=1e-12)

    def test_degenerate_warm_solve_is_deterministic(self):
        # every vertex of this LP is degenerate and every dual ratio ties
        a = np.array([[1, 1, 0, 0], [0, 0, 1, 1], [1, 0, 1, 0], [0, 1, 0, 1], [1, 1, 1, 1]], dtype=float)
        b = np.array([1, 1, 1, 1, 2], dtype=float)
        runs = []
        for _ in range(2):
            tab = empty_tableau(np.ones(4))
            tab.add_ge_rows(a[:1], b[:1])
            tab.add_ge_rows(a[1:3], b[1:3])
            tab.add_ge_rows(a[3:], b[3:])
            runs.append((tab.solution(4), tab.basis.tolist(), tab.pivots))
        (x, basis, pivots), again = runs
        assert x.sum() == pytest.approx(highs(np.ones(4), a_ge=a, b_ge=b), abs=1e-12)
        assert np.all(a @ x >= b - 1e-12)
        assert x.tolist() == again[0].tolist() and (basis, pivots) == again[1:]

    def test_a_stalled_dual_falls_back_to_blands_rule(self, monkeypatch):
        # min 0 subject to x_i >= i + 1 for 40 rows, from the surplus basis:
        # no pivot moves the objective, so after STALL_PIVOTS + 1 pivots by the
        # most negative row (39, 38, ...) the rest go by smallest basic index
        m = 40
        t = np.zeros((m + 1, 2 * m + 1))
        t[np.arange(m), np.arange(m)] = -1.0
        t[np.arange(m), m + np.arange(m)] = 1.0
        t[:m, -1] = -1.0 - np.arange(m)
        rows = []
        pivot = _Tableau.pivot
        monkeypatch.setattr(_Tableau, "pivot", lambda tab, row, col: rows.append(row) or pivot(tab, row, col))
        tab = _Tableau(t, np.arange(m, 2 * m), lead=0)
        tab.dual()
        stalled = lp.STALL_PIVOTS + 1
        assert rows == list(range(m - 1, m - 1 - stalled, -1)) + list(range(m - stalled))
        assert tab.solution(m).tolist() == list(range(1, m + 1))

    @pytest.mark.parametrize("seed", range(10))
    def test_pivot_matches_the_submatrix_update(self, seed):
        # sparse tableaux, pivoted a few times: the row-only update must give
        # the same array as the update of the nonzero rows x nonzero columns
        rng = np.random.default_rng(seed)
        m, width = int(rng.integers(2, 12)), int(rng.integers(3, 40))
        t = rng.standard_normal((m, width)) * (rng.random((m, width)) < 0.3)
        tab = _Tableau(t.copy(), np.arange(m - 1), lead=0)
        expected = t.copy()
        for _ in range(5):
            row = int(rng.integers(m - 1))
            col = int(rng.integers(width - 1))
            if expected[row, col] == 0.0:
                expected[row, col] = tab.t[row, col] = 1.0 + rng.random()
            expected[row] /= expected[row, col]
            column = expected[:, col].copy()
            column[row] = 0.0
            rows = np.nonzero(column)[0]
            cols = np.nonzero(expected[row])[0]
            expected[np.ix_(rows, cols)] -= np.outer(column[rows], expected[row, cols])
            expected[rows, col] = 0.0
            tab.pivot(row, col)
            assert np.array_equal(tab.t, expected)
            assert tab.basis[row] == col

    def test_pivot_cap_raises(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_PIVOTS", 0)
        tab = empty_tableau(np.ones(3))
        with pytest.raises(LPError, match="pivot limit"):
            tab.add_ge_rows(np.array([[1.0, 1.0, 1.0]]), np.array([1.0]))


class TestSolveLP:
    def test_triangle_k2(self, triangle_unit):
        frac, report = solve_lp(triangle_unit)
        assert frac.objective == pytest.approx(3.0, abs=1e-8)
        for e in triangle_unit.edges():
            assert frac.values[e] == pytest.approx(1.0, abs=1e-8)
        assert report.separation_slack <= 1e-6

    def test_two_vertices_forced_degree(self):
        inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=4)
        frac, _ = solve_lp(inst)
        assert frac.values[(0, 1)] == pytest.approx(4.0, abs=1e-9)
        assert frac.objective == pytest.approx(20.0, abs=1e-8)

    def test_k4_unit_k2(self, k4_unit):
        frac, _ = solve_lp(k4_unit)
        assert frac.objective == pytest.approx(4.0, abs=1e-8)

    def test_degree_equalities_hold(self):
        for seed in range(4):
            inst = euclidean_instance(7, 3, seed)
            frac, _ = solve_lp(inst)
            for v in range(inst.n):
                deg = sum(x for e, x in frac.values.items() if v in e)
                assert deg == pytest.approx(inst.k, abs=1e-6)

    def test_min_cut_at_least_k(self):
        inst = random_closure_instance(9, 4, seed=17)
        frac, _ = solve_lp(inst)
        value, _ = global_min_cut(frac.values, inst.n)
        assert value >= inst.k - 1e-6

    def test_nonnegative_values(self):
        inst = random_closure_instance(8, 2, seed=8)
        frac, _ = solve_lp(inst)
        assert all(x >= -1e-9 for x in frac.values.values())

    def test_iteration_cap_carries_report(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_CUTS", 0)
        inst = euclidean_instance(8, 2, seed=42)  # known to need cuts
        with pytest.raises(LPNotConvergedError, match="did not converge") as err:
            solve_lp(inst)
        assert err.value.report.cuts_added == 0
        assert err.value.report.objective > 0

    def test_cut_cap_bounds_cuts_of_one_round(self, monkeypatch):
        monkeypatch.setattr(lp, "MAX_CUTS", 1)
        # the first round finds more than one component cut
        inst = euclidean_instance(16, 2, seed=1)
        with pytest.raises(LPNotConvergedError) as err:
            solve_lp(inst)
        assert err.value.report.cuts_added == 1
        assert err.value.report.iterations == 2

    @pytest.mark.parametrize("seed,objective", [(5, 623.8533109649164), (10, 704.0687333060505)])
    def test_round_off_below_zero_is_clamped(self, seed, objective):
        # the simplex once handed -1e-12 edge values to the min-cut oracle here
        frac, report = solve_lp(random_closure_instance(32, 256, seed=seed))
        assert frac.objective == pytest.approx(objective, rel=1e-9)
        assert min(frac.values.values()) >= 0.0
        assert report.separation_slack <= 1e-6

    @staticmethod
    def separation_rounds(monkeypatch, inst):
        """Per round: whether the support is connected, and the shrink and
        min-cut calls separation made; checks one shrink per round and at
        most one min cut per shrink, on connected rounds only.  Returns the
        min-cut calls."""
        shrinks, min_cuts, rounds = [], [], []

        def shrunk(x, n):
            shrinks.append(n)
            return shrink_min_cut(x, n)

        def counted(x, n):
            min_cuts.append(n)
            return global_min_cut(x, n)

        def separated(x, k, n):
            before = len(shrinks), len(min_cuts)
            out = violated_cuts(x, k, n)
            connected = max(component_labels(n, [e for e, v in x.items() if v > 0])) == 0
            rounds.append((connected, len(shrinks) - before[0], len(min_cuts) - before[1]))
            return out

        monkeypatch.setattr(lp, "shrink_min_cut", shrunk)
        monkeypatch.setattr(lp, "global_min_cut", counted)
        monkeypatch.setattr(lp, "violated_cuts", separated)
        _, report = solve_lp(inst)
        assert len(rounds) == report.iterations
        assert 1 <= sum(connected for connected, _, _ in rounds) <= report.iterations
        for connected, shrink_calls, min_cut_calls in rounds:
            assert shrink_calls == 1 and min_cut_calls <= connected
        return min_cuts

    def test_one_min_cut_per_connected_round(self, monkeypatch):
        # the shrink settles every round here, so the min cut never runs
        assert self.separation_rounds(monkeypatch, euclidean_instance(12, 4, seed=2)) == []

    def test_min_cut_runs_on_what_the_shrink_leaves(self, monkeypatch):
        assert self.separation_rounds(monkeypatch, random_closure_instance(32, 4, seed=1)) == [5]

    def test_separation_sees_only_the_support(self, monkeypatch):
        supports = []

        def recorded(x, n):
            supports.append(dict(x))
            return shrink_min_cut(x, n)

        monkeypatch.setattr(lp, "shrink_min_cut", recorded)
        inst = euclidean_instance(12, 4, seed=2)
        frac, _ = solve_lp(inst)
        assert all(min(x.values()) > 0.0 for x in supports)
        # the values returned are the last support separated, at k / 2 = 2 times
        assert frac.values == {e: 2.0 * v for e, v in supports[-1].items()}
        assert list(frac.values) == [e for e in inst.edges() if e in frac.values]

    @pytest.mark.parametrize("family, n, counts", [
        (euclidean_instance, 32, (5, 34, 154, 0, 40)),
        (random_closure_instance, 32, (5, 24, 167, 0, 68)),
        (euclidean_instance, 48, (7, 49, 233, 0, 67)),
        (random_closure_instance, 48, (7, 33, 246, 0, 87)),
    ])
    def test_the_benchmark_cells_keep_their_pivot_path(self, family, n, counts):
        # the identity digest pins vertices; these counts pin the rounds, cuts
        # and pivots that reach them on the four solve-cold cells, at any k
        report = solve_lp(family(n, 8, 1))[1]
        assert (report.iterations, report.cuts_added, report.core, report.priced, report.pivots) == counts


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from([euclidean_instance, random_closure_instance]),
       n=st.integers(3, 12), k=st.integers(2, 6), seed=st.integers(0, 2**16),
       data=st.data())
def test_relabelled_vertices_keep_the_lp_value(family, n, k, seed, data):
    inst = family(n, k, seed)
    perm = np.array(data.draw(st.permutations(range(n))))
    relabelled = MetricInstance(n=n, cost=inst.cost[np.ix_(perm, perm)], k=k)
    frac, _ = solve_lp(relabelled)
    ref = solve_lp_enumeration(inst)
    assert abs(frac.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from([euclidean_instance, random_closure_instance]),
       n=st.integers(3, 16), seed=st.integers(0, 2**16), order_seed=st.integers(0, 2**32 - 1))
def test_the_order_of_a_rounds_cuts_keeps_the_lp_value(family, n, seed, order_seed):
    # the order of the cuts may move the vertex only between alternative optima
    inst = family(n, 2, seed)
    ref, _ = solve_lp(inst)
    rng = np.random.default_rng(order_seed)
    separated = lp.violated_cuts

    def shuffled(x, k, n):
        sides, value = separated(x, k, n)
        return [sides[i] for i in rng.permutation(len(sides))], value

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(lp, "violated_cuts", shuffled)
        frac, _ = solve_lp(inst)
    assert abs(frac.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from([euclidean_instance, random_closure_instance]),
       n=st.integers(3, 10), k=st.integers(2, 8), seed=st.integers(0, 2**16),
       j=st.integers(-20, 20))
def test_scaling_the_costs_scales_the_lp_value(family, n, k, seed, j):
    inst = family(n, k, seed)
    scaled = MetricInstance(n=n, cost=inst.cost * 2.0 ** j, k=k)
    frac, _ = solve_lp(scaled)
    ref, _ = solve_lp(inst)
    assert frac.objective == pytest.approx(ref.objective * 2.0 ** j, rel=1e-9)


@pytest.mark.parametrize("family, n, seed", [(euclidean_instance, 32, 2),
                                             (random_closure_instance, 40, 3)])
def test_every_k_solves_one_lp(family, n, seed):
    # one degree-2 solve: the same cuts and pivots, and x / (k/2) the same point
    y, report = solve_lp(family(n, 2, seed))
    for k in (3, 4, 6, 17, 64, 256):
        x, report_k = solve_lp(family(n, k, seed))
        assert report_k == report
        assert x.values.keys() == y.values.keys()
        for e, v in x.values.items():
            assert v / (k / 2) == pytest.approx(y.values[e], rel=1e-15)
        assert x.objective / (k / 2) == pytest.approx(y.objective, rel=1e-15)


class TestPricedCore:
    """The tableau starts on the core of ``_tour_and_core`` and pricing adds the rest it needs."""

    @pytest.mark.parametrize("instance_seed", range(1, 11))
    def test_reproduces_the_recorded_objectives(self, instance_seed):
        for key, inst, objective in reference_cells(instance_seed):
            frac, _ = solve_lp(inst)
            assert frac.objective == pytest.approx(objective, rel=1e-9), key

    def test_every_recorded_objective_is_checked(self):
        assert sum(1 for seed in range(1, 11) for _ in reference_cells(seed)) == 108

    def test_pricing_recovers_a_recorded_optimum_from_a_tour_core(self, monkeypatch):
        # with no neighbours the core is the nearest-neighbour tour and the
        # chords that close a triangle at vertex 0 (one chord here)
        monkeypatch.setattr(lp, "CORE_NEIGHBOURS", 0)
        inst = random_closure_instance(48, 8, 1)
        objective = {key: obj for key, _, obj in reference_cells(1)}["random-closure-n48-k8"]
        frac, report = solve_lp(inst)
        assert report.core == 49 and report.priced > 100
        assert frac.objective == pytest.approx(objective, rel=1e-9)

    @pytest.mark.parametrize("family", [euclidean_instance, random_closure_instance])
    @pytest.mark.parametrize("n", [12, 24, 48])
    def test_pricing_from_the_tableau_matches_the_solves(self, monkeypatch, family, n):
        # a tour-only core leaves most of the support to pricing; every call
        # finds the edges and columns that solves with the rebuilt basis
        # find, and at the last call, which adds nothing, the duals read
        # from the tableau are feasible on every edge and their objective is
        # the primal one (in the scaled costs, as the tableau holds them)
        monkeypatch.setattr(lp, "CORE_NEIGHBOURS", 0)
        priced, last = lp._priced_columns, []

        def checked(tab, cols, sides, eu, ev, cost):
            new, columns = priced(tab, cols, sides, eu, ev, cost)
            ref, ref_columns = priced_columns_reference(tab, cols, sides, eu, ev, cost)
            assert np.array_equal(new, ref)
            if new.size:
                np.testing.assert_allclose(columns, ref_columns, rtol=0, atol=1e-9)
                return new, columns
            t, lead = tab.t, tab.lead
            y, pi = -t[-1, :lead], t[-1, lead + len(cols):-1]
            reduced = cost[eu, ev] - y[eu] - y[ev] - pi @ lp._cut_rows(sides, eu, ev)
            assert pi.min(initial=0.0) >= -1e-9 and reduced.min() >= -1e-9
            assert -t[-1, -1] == pytest.approx(2.0 * y.sum() + 2.0 * pi.sum(), rel=0, abs=1e-9)
            last.append(len(sides))
            return new, columns

        monkeypatch.setattr(lp, "_priced_columns", checked)
        _, report = solve_lp(family(n, 2, 1))
        assert report.priced > 0 and last == [report.cuts_added]

    def test_pricing_makes_no_solve(self, monkeypatch):
        # the duals and the columns of priced edges come from the tableau
        def refused(*args, **kwargs):
            raise AssertionError("np.linalg.solve called")

        monkeypatch.setattr(lp, "CORE_NEIGHBOURS", 0)
        monkeypatch.setattr(np.linalg, "solve", refused)
        _, report = solve_lp(random_closure_instance(24, 2, 1))
        assert report.priced > 0

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6, 7, 8, 9, 10, 12])
    def test_small_cores(self, n):
        # up to n = 9 the neighbour pick alone selects every edge, so nothing is priced
        inst = random_closure_instance(n, 3, seed=2)
        core = lp._tour_and_core(inst.cost)[1]
        everything = n * (n - 1) // 2
        assert core.tolist() == sorted(set(core.tolist())) and core[-1] < everything
        assert len(core) == everything if n <= 9 else len(core) < everything
        frac, report = solve_lp(inst)
        assert report.core == len(core)
        if n <= 9:
            assert (report.core, report.priced) == (everything, 0)
        ref = solve_lp_enumeration(inst)
        assert frac.objective == pytest.approx(ref.objective, rel=1e-9)

    @pytest.mark.parametrize("k", [2, 3])
    def test_all_equal_costs_tie_every_choice(self, k):
        n, c = 20, 2.5
        inst = MetricInstance(n=n, cost=c * (1.0 - np.eye(n)), k=k)
        # the 8 nearest neighbours are the 8 smallest other indices and the
        # tour visits 0, 1, ..., 19 in order
        edges = inst.edges()
        core = [edges[i] for i in lp._tour_and_core(inst.cost)[1]]
        assert core == [(u, v) for u, v in edges if u <= 7 or v == u + 1]
        frac, report = solve_lp(inst)
        assert frac.objective == pytest.approx(n * k / 2 * c, rel=1e-12)
        assert report.core == len(core) and report.separation_slack <= 1e-9
        assert global_min_cut(frac.values, n)[0] >= k - 1e-9
        assert run_pipeline(inst, seed=0).record.connected

    @pytest.mark.parametrize("k", [2, 3])
    def test_a_bipartite_core_gets_a_triangle(self, k):
        # cost 1 across two halves and 2 within: the nearest neighbours and
        # the tour all cross, so only the added triangle closes the odd
        # cycle that the tour basis needs at even n
        n = 20
        half = np.arange(n) < n // 2
        inst = MetricInstance(n=n, cost=np.where(half[:, None] == half, 2.0, 1.0) - 2.0 * np.eye(n), k=k)
        edges = inst.edges()
        within = [edges[i] for i in lp._tour_and_core(inst.cost)[1] if half[edges[i][0]] == half[edges[i][1]]]
        assert within == [(10, 11)]  # vertex 0 and its nearest neighbours 10 and 11
        frac, _ = solve_lp(inst)
        assert frac.objective == pytest.approx(n * k / 2, rel=1e-12)
        assert run_pipeline(inst, seed=0).record.connected


@settings(max_examples=20, deadline=None)
@given(family=st.sampled_from([euclidean_instance, random_closure_instance]),
       n=st.integers(3, 12), k=st.integers(2, 6), seed=st.integers(0, 2**16))
def test_pricing_recovers_the_optimum_from_a_tour_core(family, n, k, seed):
    inst = family(n, k, seed)
    with pytest.MonkeyPatch.context() as patch:
        # no neighbours: the core is the tour, plus the triangle at vertex 0
        patch.setattr(lp, "CORE_NEIGHBOURS", 0)
        frac, report = solve_lp(inst)
    assert n <= report.core <= n + 2
    ref = solve_lp_enumeration(inst)
    assert abs(frac.objective - ref.objective) <= 1e-9 * max(1.0, abs(ref.objective))


class TestTourStart:
    """Primal simplex starts from a basis on the nearest-neighbour tour, with no phase 1."""

    @staticmethod
    def solved_as_the_enumeration(inst):
        frac, report = solve_lp(inst)
        ref = solve_lp_enumeration(inst)
        assert frac.objective == pytest.approx(ref.objective, rel=1e-9)
        return report

    def test_two_vertices(self):
        inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=3)
        assert self.solved_as_the_enumeration(inst).pivots == 0

    @pytest.mark.parametrize("family", [euclidean_instance, random_closure_instance])
    @pytest.mark.parametrize("n", [3, 7, 11])
    def test_odd_n(self, family, n):
        self.solved_as_the_enumeration(family(n, 4, n))

    @pytest.mark.parametrize("family", [euclidean_instance, random_closure_instance])
    @pytest.mark.parametrize("n", [4, 10, 12])
    def test_even_n_on_a_tour_only_core(self, monkeypatch, family, n):
        monkeypatch.setattr(lp, "CORE_NEIGHBOURS", 0)
        inst = family(n, 4, n)
        assert self.solved_as_the_enumeration(inst).core == len(lp._tour_and_core(inst.cost)[1]) <= n + 2

    def test_a_bipartite_core(self, monkeypatch):
        # the tour alternates halves, so only the triangle's edge (6, 7)
        # joins tour positions 1 and 3, of the same parity
        monkeypatch.setattr(lp, "CORE_NEIGHBOURS", 5)
        half = np.arange(12) < 6
        inst = MetricInstance(n=12, cost=np.where(half[:, None] == half, 2.0, 1.0) - 2.0 * np.eye(12), k=3)
        tour, core = lp._tour_and_core(inst.cost)
        assert tour == [0, 6, 1, 7, 2, 8, 3, 9, 4, 10, 5, 11]
        edges = inst.edges()
        assert [edges[i] for i in core if half[edges[i][0]] == half[edges[i][1]]] == [(6, 7)]
        self.solved_as_the_enumeration(inst)

    @pytest.mark.parametrize("n", [2, 7, 8])
    def test_the_first_basis_is_on_the_tour(self, monkeypatch, n):
        # up to n = 9 the core is every edge, so a column after the n leading
        # ones (B^-1 of the degree rows) is n plus an edge index
        starts = []
        primal = lp._Tableau.primal

        def recorded(tab):
            if not starts:
                starts.append((tab.t.copy(), tab.basis.copy()))
            return primal(tab)

        monkeypatch.setattr(lp._Tableau, "primal", recorded)
        inst = euclidean_instance(n, 4, seed=1)
        solve_lp(inst)
        (t, basis), = starts
        tour, _ = lp._tour_and_core(inst.cost)
        edges = inst.edges()
        basic = [edges[i - n] for i in basis]
        cycle = [tuple(sorted(e)) for e in zip(tour, tour[1:] + tour[:1])]
        assert np.array_equal(t[:-1, basis], np.eye(len(basis)))
        assert np.array_equal(t[:-1, :-1] * 2, np.round(t[:-1, :-1] * 2))
        # the leading block is the rounded inverse of the basic degree rows
        # (at n = 2 the one row of vertex 0, and a zero column for vertex 1)
        eu, ev = np.triu_indices(n, 1)
        degree = lp._cut_rows(np.eye(n, dtype=bool)[:len(basis)], eu, ev)[:, basis - n]
        assert np.array_equal(degree @ t[:-1, :n], np.eye(len(basis), n))
        assert np.array_equal(t[:-1, :n], np.round(2.0 * np.linalg.inv(degree)) / 2.0 @ np.eye(len(basis), n))
        # the LP is solved at degree 2 whatever k is
        if n % 2:
            assert basic == cycle and t[:-1, -1].tolist() == [1.0] * n
        else:
            assert basic[:n - 1] == cycle[:n - 1]
            assert t[:-1, -1].tolist() == [2.0, 0.0] * (n // 2 - 1) + [2.0] + [0.0] * (n > 2)
            if n > 2:
                u, v = basic[-1]
                assert (tour.index(u) - tour.index(v)) % 2 == 0

    @pytest.mark.parametrize("family", [euclidean_instance, random_closure_instance])
    def test_the_start_equals_the_rounded_solve(self, monkeypatch, family):
        # the leading block (the basis inverse), the body from it and the
        # reduced costs formed from both equal one solve of the basic degree
        # rows against the identity and against every degree row, rounded to
        # halves; n = 2 has one degree row, even n a chord
        monkeypatch.setattr(lp._Tableau, "primal", lambda tab: None)
        for n in range(2, 17):
            for seed in (1, 2, 3):
                inst = family(n, 4, seed)
                eu, ev = np.triu_indices(n, 1)
                tour, core = lp._tour_and_core(inst.cost)
                cost = inst.cost[eu[core], ev[core]]
                tab = lp._tour_start(tour, core, eu, ev, cost)
                basis, x_b = tab.basis - n, tab.t[:-1, -1].copy()
                degree = lp._cut_rows(np.eye(n, dtype=bool)[:len(basis)], eu[core], ev[core])
                inverse = np.round(2.0 * np.linalg.solve(degree[:, basis], np.eye(len(basis), n))) / 2.0
                body = np.round(2.0 * np.linalg.solve(degree[:, basis], degree)) / 2.0
                solved = np.vstack([np.c_[inverse, body, x_b],
                                    np.r_[-(cost[basis] @ inverse), cost - cost[basis] @ body,
                                          -(cost[basis] @ x_b)]])
                assert tab.lead == n and np.array_equal(tab.t, solved), (n, seed)


class TestSeparate:
    def test_triangle_saturated(self):
        x = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
        assert separate(x, 2, 3) is None

    def test_triangle_deficient(self):
        x = {(0, 1): 1.0, (0, 2): 1.0, (1, 2): 1.0}
        spec = separate(x, 3, 3)
        assert spec is not None
        value = sum(w for (u, v), w in x.items() if (u in spec.side) != (v in spec.side))
        assert value == pytest.approx(2.0)

    def test_a_disconnected_support_leaves_no_min_cut_to_run(self, monkeypatch):
        # as on the LP's supports, every vertex carries 2: the shrink contracts
        # each component to a supervertex and leaves no rest
        monkeypatch.setattr(lp, "global_min_cut", None)  # must not be called
        x = {(0, 3): 2.0, (1, 4): 1.0, (4, 6): 1.0, (1, 6): 1.0, (2, 5): 2.0}
        _, rest, members = shrink_min_cut(x, 7)
        assert rest == {} and sorted(map(sorted, members)) == [[0, 3], [1, 4, 6], [2, 5]]
        sides, value = violated_cuts(x, 2, 7)
        assert value == 0.0
        assert [np.nonzero(s)[0].tolist() for s in sides] == [[0, 3], [0, 2, 3, 5], [0, 1, 3, 4, 6]]

    @settings(max_examples=150, deadline=None)
    @given(sizes=st.lists(st.integers(1, 5), min_size=1, max_size=4), data=st.data())
    def test_every_recorded_or_rest_cut_below_k_comes_back(self, sizes, data):
        # components on scattered labels, each a random tree plus extra edges
        # with dyadic weights, or an isolated vertex; one component is a
        # connected support, more give a disconnected one
        n = max(sum(sizes), 2)
        perm = data.draw(st.permutations(range(n)))
        x, start = {}, 0
        for size in sizes:
            comp = perm[start:start + size]
            start += size
            for i in range(1, size):
                parent = comp[data.draw(st.integers(0, i - 1))]
                x[(min(parent, comp[i]), max(parent, comp[i]))] = data.draw(
                    st.sampled_from((0.25, 0.5, 1.0, 1.5, 2.0)))
            for _ in range(data.draw(st.integers(0, size))):
                u, v = data.draw(st.sampled_from(comp)), data.draw(st.sampled_from(comp))
                if u != v:
                    x[(min(u, v), max(u, v))] = data.draw(st.sampled_from((0.25, 0.5, 1.0)))
        k = data.draw(st.sampled_from((0.5, 1.0, 2.0, 3.0)))
        cuts, rest, members = shrink_min_cut(x, n)
        if rest:
            value, side = global_min_cut(rest, len(members))
            cuts.append((value, [v for i in side for v in members[i]]))
        expected = []
        for value, side in sorted(cuts, key=lambda cut: min(cut[1])):
            side = set(side) if 0 in side else set(range(n)).difference(side)
            if value < k - lp.SEPARATION_TOL and side not in expected:
                expected.append(side)
        sides, value = violated_cuts(x, k, n)
        assert [set(np.nonzero(s)[0].tolist()) for s in sides] == expected
        assert value == min(value for value, _ in cuts)
        assert value == global_min_cut_reference(x, n)[0]
        assert (value < k - lp.SEPARATION_TOL) == bool(sides)
        for s in sides:
            crossing = sum(w for (u, v), w in x.items() if s[u] != s[v])
            assert s[0] and crossing < k - lp.SEPARATION_TOL

    def test_star_like_not_violated(self):
        # all three cuts by hand: d(0)=4, d(1)=2, d(2)=2, so nothing below k=2
        x = {(0, 1): 2.0, (0, 2): 2.0, (1, 2): 0.0}
        assert separate(x, 2, 3) is None


class TestEnumerationLP:
    def test_triangle(self, triangle_unit):
        frac = solve_lp_enumeration(triangle_unit)
        assert frac.objective == pytest.approx(3.0, abs=1e-8)

    def test_two_vertices_k3(self):
        inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=3)
        frac = solve_lp_enumeration(inst)
        assert frac.objective == pytest.approx(15.0, abs=1e-8)

    def test_four_cycle_metric(self):
        # cycle edges cost 1, diagonals cost 2
        cost = np.array([
            [0, 1, 2, 1],
            [1, 0, 1, 2],
            [2, 1, 0, 1],
            [1, 2, 1, 0],
        ], dtype=float)
        inst = MetricInstance(n=4, cost=cost, k=2)
        frac = solve_lp_enumeration(inst)
        assert frac.objective == pytest.approx(4.0, abs=1e-8)

    def test_too_large_rejected(self):
        inst = euclidean_instance(13, 2, seed=0)
        with pytest.raises(ValueError, match="n <= 12"):
            solve_lp_enumeration(inst)

    @pytest.mark.parametrize("family,seed,n,k", [
        ("euclidean", 0, 5, 2),
        ("euclidean", 1, 6, 3),
        ("euclidean", 2, 7, 4),
        ("euclidean", 3, 8, 2),
        ("random-closure", 8, 8, 2),   # fractional-vertex instance
        ("random-closure", 4, 6, 5),
        ("random-closure", 19, 8, 3),  # fractional-vertex instance
        ("random-closure", 5, 7, 2),
    ])
    def test_cutting_plane_matches_enumeration(self, family, seed, n, k):
        gen = euclidean_instance if family == "euclidean" else random_closure_instance
        inst = gen(n, k, seed)
        frac, _ = solve_lp(inst)
        ref = solve_lp_enumeration(inst)
        assert abs(frac.objective - ref.objective) <= 1e-5 * (1 + abs(ref.objective))
