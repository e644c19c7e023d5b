import ast
import itertools
from functools import lru_cache

import numpy as np
import pytest

from kecsm.core import NotConnectedError, component_labels, min_spanning_tree
from kecsm.instances import euclidean_instance, random_closure_instance
from kecsm.lp import solve_lp
from kecsm.pipeline import prepare
from kecsm import treedist
from kecsm.split import build_split_graph
from kecsm.treedist import (
    EPSILON_MARGINAL,
    EdgeGraph,
    FitConvergenceError,
    SamplingPiece,
    contract_edges,
    fit_max_entropy,
    tree_marginals,
)

from oracles import (
    check_tree_polytope,
    complete_graph,
    deleted_edges,
    effective_resistance,
    enumerated_marginals,
    fit_by_search_reference,
    full_lambda,
    over_and_tight_sets,
    sample_batch,
    spanning_tree_count,
)

TRIANGLE = EdgeGraph(n=3, edges=((0, 1), (0, 2), (1, 2)))
PATH3 = EdgeGraph(n=3, edges=((0, 1), (1, 2)))
CYCLE4 = EdgeGraph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))


@pytest.fixture
def drifted_resistances(monkeypatch):
    """Resistances off by a relative 1e-6, so the marginals miss n - 1 by more than 1e-9."""
    pair_resistances = treedist._pair_resistances
    monkeypatch.setattr(treedist, "_pair_resistances",
                        lambda inv, edges: pair_resistances(inv, edges) * (1 + 1e-6))


class TestEdgeGraph:
    @pytest.mark.parametrize("bad", [(7, 7), (-1, 3), (2, 40)], ids=["loop", "negative", "past-n"])
    def test_names_the_first_bad_edge_late_in_a_large_graph(self, bad):
        edges = list(complete_graph(40).edges)  # 780 edges on n = 40
        edges[-2:] = [bad, (9, 9)]
        with pytest.raises(ValueError, match=rf"^bad edge \({bad[0]},{bad[1]}\) for n=40$"):
            EdgeGraph(n=40, edges=tuple(edges))


class TestTreeMarginals:
    def test_uniform_triangle(self):
        p = tree_marginals(np.ones(3), TRIANGLE)
        assert np.allclose(p, 2.0 / 3.0)

    def test_unique_tree_path(self):
        p = tree_marginals(np.array([3.0, 0.5]), PATH3)
        assert np.allclose(p, 1.0)

    def test_weighted_triangle_matches_enumeration(self):
        lam = np.array([2.0, 1.0, 1.0])
        p = tree_marginals(lam, TRIANGLE)
        # trees and weights by hand: {e0,e1}=2, {e0,e2}=2, {e1,e2}=1, total 5
        assert np.allclose(p, [0.8, 0.6, 0.6])
        assert np.allclose(p, enumerated_marginals(lam, TRIANGLE))

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_enumeration_on_random_graphs(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 9))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        keep = [e for e in edges if rng.random() < 0.6]
        graph_edges = keep + [(v, v + 1) for v in range(n - 1)]  # keep it connected
        graph = EdgeGraph(n=n, edges=tuple(graph_edges[:16]))
        if not all(any(v in e for e in graph.edges) for v in range(n)):
            pytest.skip("degenerate draw")
        lam = rng.random(len(graph.edges)) + 0.2
        p = tree_marginals(lam, graph)
        assert np.allclose(p, enumerated_marginals(lam, graph), atol=1e-9)

    def test_an_edge_given_from_its_larger_end_has_the_same_marginals(self):
        lam = np.array([2.0, 1.0, 3.0])
        flipped = EdgeGraph(n=3, edges=((1, 0), (2, 0), (2, 1)))
        assert np.array_equal(tree_marginals(lam, flipped), tree_marginals(lam, TRIANGLE))

    def test_one_vertex_has_no_marginals(self):
        assert tree_marginals([], EdgeGraph(n=1, edges=())).shape == (0,)

    def test_parallel_edges_share_resistance(self):
        graph = EdgeGraph(n=2, edges=((0, 1), (0, 1), (0, 1)))
        p = tree_marginals(np.array([1.0, 2.0, 3.0]), graph)
        assert np.allclose(p, [1 / 6, 2 / 6, 3 / 6])

    def test_scaling_invariance(self):
        rng = np.random.default_rng(5)
        lam = rng.random(6) + 0.1
        g = complete_graph(4)
        p1 = tree_marginals(lam, g)
        p2 = tree_marginals(lam * 37.5, g)
        assert np.allclose(p1, p2, atol=1e-12)

    def test_disconnected_raises(self):
        graph = EdgeGraph(n=4, edges=((0, 1), (2, 3)))
        with pytest.raises(NotConnectedError):
            tree_marginals(np.ones(2), graph)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            tree_marginals(np.array([1.0, 0.0, 1.0]), TRIANGLE)

    def test_matrix_tree_sum_check(self, drifted_resistances):
        with pytest.raises(ArithmeticError, match="matrix-tree"):
            tree_marginals(np.ones(3), TRIANGLE)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf], ids=["nan", "inf", "-inf"])
def test_non_finite_weights_and_targets_raise(bad, monkeypatch):
    with pytest.raises(ValueError, match=rf"^lam\[0\] = {bad} is not finite$"):
        sample_batch([bad, 1.0, 1.0], TRIANGLE, 3, seed=0)
    for size in (2, 5):  # too few weights once raised IndexError, too many drew trees
        with pytest.raises(ValueError, match="^one weight per edge required$"):
            sample_batch(np.ones(size), TRIANGLE, 3, seed=0)
        with pytest.raises(ValueError, match="^one weight per edge required$"):
            tree_marginals(np.ones(size), TRIANGLE)
        with pytest.raises(ValueError, match="^one weight per edge required$"):
            SamplingPiece(graph=TRIANGLE, lam=np.ones(size), kept=(0, 1, 2))
    with pytest.raises(ValueError, match=rf"^z\[0\] = {bad} is not finite$"):
        fit_max_entropy(TRIANGLE, [bad, 1.0, 1.0])
    # -inf is no positive weight; nan and inf make the marginals sum to nan
    with pytest.raises(ValueError if bad < 0 else ArithmeticError):
        tree_marginals([bad, 1.0, 1.0], TRIANGLE)
    monkeypatch.setattr(treedist, "_pair_resistances", lambda inv, edges: np.full(len(edges), bad))
    with pytest.raises(FitConvergenceError, match="lost precision"):
        fit_max_entropy(TRIANGLE, [2 / 3] * 3)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("graph, lam, error, message", [
    (TRIANGLE, [np.nan, 1.0, 1.0], ValueError, r"^lam\[0\] = nan is not finite$"),
    (TRIANGLE, [1.0, np.inf, 1.0], ValueError, r"^lam\[1\] = inf is not finite$"),
    (TRIANGLE, [1.0, 1.0, -np.inf], ValueError, r"^lam\[2\] = -inf is not finite$"),
    (TRIANGLE, [1.0, 0.0, 1.0], ValueError, "^edge weights must be positive$"),
    (TRIANGLE, [1.0, 1.0, -2.0], ValueError, "^edge weights must be positive$"),
    (EdgeGraph(n=4, edges=((0, 1), (2, 3))), [1.0, 1.0], NotConnectedError, "^piece graph is not connected$"),
], ids=["nan", "inf", "-inf", "zero", "negative", "disconnected"])
def test_a_piece_is_checked_when_it_is_built(graph, lam, error, message):
    # a bad piece once passed here and failed only on the law's first draw
    with pytest.raises(error, match=message):
        SamplingPiece(graph=graph, lam=lam, kept=tuple(range(len(lam))))


@pytest.mark.filterwarnings("error")
def test_weights_that_sum_past_the_float_range_are_rejected():
    # vertex 2's cumulative weights once ended at inf, so every step from it
    # took the edge to vertex 1 and the walk never reached the root
    with pytest.raises(ValueError, match="^piece weights sum to inf, not below half the float range$"):
        SamplingPiece(graph=TRIANGLE, lam=np.array([1.0, 1e308, 1e308]), kept=(0, 1, 2))
    with pytest.raises(ValueError, match="not below half the float range"):
        SamplingPiece(graph=TRIANGLE, lam=np.array([1.0, 1e308, 1.0]), kept=(0, 1, 2))
    SamplingPiece(graph=TRIANGLE, lam=np.array([1.0, 1e307, 1e307]), kept=(0, 1, 2))


class TestEffectiveResistance:
    def test_triangle(self):
        # one unit resistor in parallel with two in series
        assert effective_resistance(np.ones(3), TRIANGLE, 0) == pytest.approx(2 / 3)

    def test_single_edge(self):
        graph = EdgeGraph(n=2, edges=((0, 1),))
        assert effective_resistance(np.array([4.0]), graph, 0) == pytest.approx(0.25)

    def test_four_cycle(self):
        # one unit resistor in parallel with three in series: 3/4
        assert effective_resistance(np.ones(4), CYCLE4, 0) == pytest.approx(0.75)

    def test_symmetric_in_endpoints(self):
        rng = np.random.default_rng(2)
        lam = rng.random(6) + 0.1
        g = complete_graph(4)
        r1 = effective_resistance(lam, g, (1, 3))
        r2 = effective_resistance(lam, g, (3, 1))
        assert r1 == pytest.approx(r2)


class TestSpanningTreeCount:
    def test_triangle(self):
        assert spanning_tree_count(np.ones(3), TRIANGLE) == pytest.approx(3.0)

    def test_k4_cayley(self):
        assert spanning_tree_count(np.ones(6), complete_graph(4)) == pytest.approx(16.0)

    def test_weighted_triangle(self):
        # 2*1 + 2*1 + 1*1 enumerated by hand
        assert spanning_tree_count(np.array([2.0, 1.0, 1.0]), TRIANGLE) == pytest.approx(5.0)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_matches_enumeration(self, n):
        from oracles import enumerate_spanning_trees, tree_weight

        rng = np.random.default_rng(n)
        g = complete_graph(n)
        lam = rng.random(len(g.edges)) + 0.5
        total = sum(tree_weight(lam, t) for t in enumerate_spanning_trees(g))
        assert spanning_tree_count(lam, g) == pytest.approx(total, rel=1e-9)


class TestContractEdges:
    def test_forced_merge_creates_parallel_edges(self):
        label = component_labels(3, [TRIANGLE.edges[2]])
        graph, kept, loops = contract_edges(TRIANGLE, label, [0, 1])
        assert graph.n == 2
        assert graph.edges == ((0, 1), (0, 1))
        assert kept == [0, 1] and loops == []

    def test_loop_detection(self):
        g = EdgeGraph(n=3, edges=((0, 1), (1, 2), (0, 2)))
        graph, kept, loops = contract_edges(g, component_labels(3, g.edges[:2]), [2])
        assert loops == [2] and kept == []
        assert graph.n == 1


class TestFitMaxEntropy:
    def test_symmetric_triangle(self):
        w = fit_max_entropy(TRIANGLE, [2 / 3] * 3)
        assert np.allclose(w.fitted_marginals, 2 / 3, atol=1e-6)
        lam = full_lambda(w)
        assert np.allclose(lam, lam[0])

    def test_forced_path(self):
        w = fit_max_entropy(PATH3, [1.0, 1.0])
        assert w.forced == (0, 1)
        assert np.allclose(w.fitted_marginals, 1.0)
        assert w.pieces == ()

    def test_asymmetric_triangle_bisection_oracle(self):
        # one-parameter fixed point: lam=(r,1,1) gives marginal 2r/(2r+1) on
        # the heavy edge; bisect against enumeration to find r for z=0.8
        target = np.array([0.8, 0.6, 0.6])
        lo, hi = 1.0, 10.0
        for _ in range(60):
            mid = (lo + hi) / 2
            p = enumerated_marginals(np.array([mid, 1.0, 1.0]), TRIANGLE)
            if p[0] < target[0]:
                lo = mid
            else:
                hi = mid
        r = (lo + hi) / 2
        assert r == pytest.approx(2.0, abs=1e-9)

        w = fit_max_entropy(TRIANGLE, target)
        assert np.allclose(w.fitted_marginals, target, atol=1e-6)
        lam = full_lambda(w)
        assert lam[0] / lam[1] == pytest.approx(r, abs=1e-4)
        # independent route: enumerate trees under the fitted weights
        assert np.allclose(enumerated_marginals(lam, TRIANGLE), target, atol=1e-6)

    def test_one_sided_bound_and_two_sided_consequence(self):
        inst = random_closure_instance(10, 2, seed=22)
        frac, _ = solve_lp(inst)
        g0 = build_split_graph(inst, frac)
        z = (2 / inst.k) * g0.x0
        w = fit_max_entropy(g0.graph, z)
        eps = EPSILON_MARGINAL
        assert np.all(w.fitted_marginals <= z * (1 + eps) + 1e-15)
        assert np.all(w.fitted_marginals >= z - g0.n0 * eps)
        assert w.fitted_marginals.sum() == pytest.approx(g0.n0 - 1, abs=1e-6)

    def test_tight_set_decomposition_marginals(self):
        # two triangles sharing no vertex, joined by a perfectly tight bond:
        # vertices {0,1,2} carry a tight triangle (sum of z inside = 2)
        edges = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4))
        z = np.array([0.7, 0.7, 0.6, 0.45, 0.45, 0.55, 0.55])
        # subsets: E({0,1,2}) sums to 2.0 exactly -> tight, interior elsewhere
        graph = EdgeGraph(n=5, edges=edges)
        assert check_tree_polytope(graph, z) == []
        w = fit_max_entropy(graph, z)
        assert np.all(w.fitted_marginals <= z * (1 + 1e-6) + 1e-15)
        assert np.allclose(w.fitted_marginals, z, atol=1e-5)
        assert len(w.pieces) >= 2

    def test_fractional_lp_vertices_fit(self):
        for seed, n in [(8, 8), (19, 8), (22, 10)]:
            inst = random_closure_instance(n, 2, seed)
            frac, _ = solve_lp(inst)
            g0 = build_split_graph(inst, frac)
            w = fit_max_entropy(g0.graph, (2 / inst.k) * g0.x0)
            assert w.max_ratio <= 1 + 1e-6

    def test_z_outside_polytope_bad_total(self):
        with pytest.raises(ValueError, match="outside polytope"):
            fit_max_entropy(TRIANGLE, [1.0, 1.0, 1.0])

    @pytest.mark.parametrize("shift, total", [(2e-7, "2.000000600"), (-2e-7, "1.999999400")])
    def test_a_total_past_the_tight_set_slack_is_rejected(self, shift, total):
        # the total is 6e-7 from 2, past TIGHT_SET_TOL * 2: the target above
        # once raised only at the tight-set search, on S = [0, 1, 2], and the
        # one below fitted
        with pytest.raises(ValueError, match=rf"^z outside polytope: total {total} != 2$"):
            fit_max_entropy(TRIANGLE, [2 / 3 + shift] * 3)

    @pytest.mark.parametrize("shift", [5e-9, -5e-9])
    def test_a_total_within_the_tight_set_slack_fits(self, shift):
        w = fit_max_entropy(TRIANGLE, [2 / 3 + shift] * 3)
        assert len(w.pieces) == 1 and w.max_ratio <= 1 + EPSILON_MARGINAL

    def test_an_entry_outside_zero_to_one_is_rejected(self):
        with pytest.raises(ValueError, match=r"^z outside polytope: entries must lie in \[0, 1\]$"):
            fit_max_entropy(TRIANGLE, [1.5, 0.25, 0.25])

    @pytest.mark.parametrize("z", [[2 / 3] * 2, [2 / 3] * 4, [[2 / 3] * 3]])
    def test_z_of_wrong_shape_rejected(self, z):
        with pytest.raises(ValueError, match="one entry per edge"):
            fit_max_entropy(TRIANGLE, z)

    def test_lost_precision_is_convergence_error(self, drifted_resistances):
        with pytest.raises(FitConvergenceError, match="lost precision") as info:
            fit_max_entropy(TRIANGLE, [2 / 3] * 3)
        assert isinstance(info.value.__cause__, ArithmeticError)

    def test_forced_chord_is_fine_when_consistent(self):
        # z = 1 on one triangle edge plus two half edges is a legal point:
        # the halves become a tight parallel pair after contraction
        w = fit_max_entropy(TRIANGLE, [1.0, 0.5, 0.5])
        assert np.allclose(w.fitted_marginals, [1.0, 0.5, 0.5], atol=1e-9)

    def test_z_on_forced_cycle_chord_rejected(self):
        # forced path 0-1-2 contracted, so the half chord (0,2) becomes a loop
        edges = ((0, 1), (1, 2), (0, 2), (2, 3))
        with pytest.raises(ValueError, match="chord"):
            fit_max_entropy(EdgeGraph(n=4, edges=edges), [1.0, 1.0, 0.5, 0.5])

    def test_forced_cycle_rejected_before_any_sweep(self):
        # two parallel edges at z = 1 close a cycle with no chord to catch it
        graph = EdgeGraph(n=4, edges=((0, 1), (0, 1), (1, 2), (2, 3)))
        with pytest.raises(ValueError, match="z outside polytope: the forced edges close a cycle"):
            fit_max_entropy(graph, [1.0, 1.0, 0.5, 0.5])

    def test_disconnected_support_rejected(self):
        # z = (1, 1, 0) on edges (0,1), (2,3), (1,2) sums to 2, not 3; a
        # genuinely disconnected support instead:
        graph = EdgeGraph(n=4, edges=((0, 1), (2, 3), (0, 1)))
        with pytest.raises((NotConnectedError, ValueError)):
            fit_max_entropy(graph, [1.0, 1.0, 1.0])
        # vertex 3 meets only a zero: z(E({0, 1, 2})) = 3 is over its bound,
        # but the support is found disconnected first
        graph = EdgeGraph(n=4, edges=((0, 1), (0, 1), (1, 2), (0, 2), (2, 3)))
        with pytest.raises(NotConnectedError, match="^support of z does not connect the graph$"):
            fit_max_entropy(graph, [0.75, 0.75, 0.75, 0.75, 0.0])

    def test_budget_exhaustion_raises(self, monkeypatch):
        # a valid target that takes 27 sweeps, on a budget of 10
        monkeypatch.setattr(treedist, "MAX_UPDATES", 30)
        with pytest.raises(FitConvergenceError, match="stalled") as info:
            fit_max_entropy(TRIANGLE, [0.8, 0.6, 0.6])
        assert info.value.sweeps == 10

    def test_a_set_over_its_tree_bound_is_rejected_before_any_sweep(self, monkeypatch):
        # z(E({0, 1, 2})) = 2.7 > 2: this target once ran 50,000 sweeps before
        # it raised FitConvergenceError
        monkeypatch.setattr(treedist, "tree_marginals", lambda *args: pytest.fail("a sweep ran"))
        edges = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3))
        with pytest.raises(ValueError, match=r"^z outside polytope: z\(E\(S\)\) > \|S\| - 1 on S = \[0, 1, 2\]$"):
            fit_max_entropy(EdgeGraph(n=4, edges=edges), [0.9, 0.9, 0.9, 0.15, 0.15])


def _fit_of_the_lp_target(n: int, k: int, seed: int):
    inst = random_closure_instance(n, k, seed)
    frac, _ = solve_lp(inst)
    g0 = build_split_graph(inst, frac)
    z = (2 / inst.k) * g0.x0
    return z, fit_max_entropy(g0.graph, z)


class TestTightSetSplits:
    """Before it sweeps a piece, the fitter looks for a proper tight set of it
    with one max flow per support pair, and splits at the first it finds; a
    piece with none is fitted from lam proportional to z with no search after."""

    def test_all_half_target_reaches_its_pieces_within_ten_sweeps(self):
        z, w = _fit_of_the_lp_target(32, 8, 1)
        free = np.setdiff1d(np.arange(z.size), w.forced + deleted_edges(w))
        assert np.all(z[free] == 0.5)
        assert len(w.pieces) > 1 and w.sweeps <= 10
        assert w.max_ratio <= 1 + EPSILON_MARGINAL

    def test_mixed_target_takes_at_most_forty_sweeps(self):
        _, w = _fit_of_the_lp_target(48, 8, 1)
        assert w.sweeps <= 40
        assert w.max_ratio <= 1 + EPSILON_MARGINAL

    def test_pieces_of_a_nested_split_keep_their_depth_first_order(self):
        # four splits give five pieces, so a piece that came from a split
        # is split again; the inside of each split is fitted before its outside
        w = prepare(random_closure_instance(12, 8, 5)).weights
        assert [piece.kept for piece in w.pieces] == [
            (47, 65), (44, 59), (49, 53), (6, 10, 12), (7, 11, 13)]

    @pytest.mark.parametrize("seed", range(40))
    def test_tight_set_matches_enumeration(self, seed):
        # multigraphs with targets that average a few spanning trees, so that
        # tight sets are common, or arbitrary targets in [0, 1], over the bound
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 12))
        edges = [tuple(int(v) for v in rng.choice(n, 2, replace=False)) for _ in range(3 * n)]
        edges += [(v, int(rng.integers(v))) for v in range(1, n)]  # connected
        graph = EdgeGraph(n=n, edges=tuple(edges))
        if seed % 4:
            trees = [min_spanning_tree(n, edges, rng.random(len(edges))) for _ in range(seed % 4)]
            z = np.zeros(len(edges))
            for tree in trees:
                z[tree] += 1 / len(trees)
        else:
            z = rng.random(len(edges))
        over, tight = over_and_tight_sets(graph, z)
        assert bool(over) == (seed % 4 == 0)
        if over:
            with pytest.raises(ValueError, match="^z outside polytope") as info:
                treedist._tight_set(graph, z)
            assert frozenset(ast.literal_eval(str(info.value).split(" = ")[1])) in over
            return
        found = treedist._tight_set(graph, z)
        if not tight:
            assert found is None
            return
        # the least tight set that holds the two ends of one of its support edges
        assert frozenset(found) in tight and found == sorted(found)
        assert any(all(set(found) <= s for s in tight if {a, b} <= s)
                   for (a, b), w in zip(edges, z) if w > 0 and {a, b} <= set(found))

    @pytest.mark.parametrize("family, n, sweeps, sizes", [
        (euclidean_instance, 32, 0, [2, 2]),
        (random_closure_instance, 32, 0, [2, 2, 2, 2, 2, 2, 4]),
        (euclidean_instance, 48, 0, [2, 2, 2, 2, 2, 2, 2]),
        (random_closure_instance, 48, 0, [2, 2, 2, 2, 2, 2, 2, 2, 2, 4]),
    ])
    def test_the_benchmark_cells_keep_their_sweeps_and_pieces(self, family, n, sweeps, sizes):
        # the search alone took 0, 5, 5 and 35 sweeps here, and the split at the
        # tight sets one shrink records 0, 0, 0 and 25
        w = prepare(family(n, 8, 1)).weights
        assert (w.sweeps, sorted(piece.graph.n for piece in w.pieces)) == (sweeps, sizes)

    def test_a_vertex_of_degree_above_two_splits_before_any_sweep(self):
        # two triangles on {0, 1, 2} and {2, 3, 4}: each is tight, and d(2) = 2.4
        graph = EdgeGraph(n=5, edges=((0, 1), (0, 2), (1, 2), (2, 3), (2, 4), (3, 4)))
        w = fit_max_entropy(graph, [0.8, 0.6, 0.6, 0.6, 0.6, 0.8])
        assert sorted(piece.kept for piece in w.pieces) == [(0, 1, 2), (3, 4, 5)]
        # every sweep went to a triangle, none to the whole
        assert w.sweeps == 2 * fit_max_entropy(TRIANGLE, [0.8, 0.6, 0.6]).sweeps


# both families at n <= 64, seven instances each: 70 LP targets
TARGET_CELLS = [(family, n, seed) for family in ("euclidean", "random-closure")
                for n in (16, 24, 32, 48, 64) for seed in range(1, 8)]


@lru_cache(maxsize=None)
def _lp_target(family: str, n: int, seed: int):
    gen = {"euclidean": euclidean_instance, "random-closure": random_closure_instance}[family]
    prep = prepare(gen(n, 8, seed))
    return prep.split_graph.graph, prep.split_graph.x0, prep.weights


def _is_three_vertex_path(piece: SamplingPiece) -> bool:
    """A piece on three vertices with no edge between two of them: two tight bundles."""
    return piece.graph.n == 3 and len({frozenset(e) for e in piece.graph.edges}) == 2


@pytest.mark.parametrize("family, n, seed", TARGET_CELLS)
def test_the_split_fit_keeps_the_pieces_and_marginals_of_the_search(family, n, seed):
    graph, z, w = _lp_target(family, n, seed)
    ref = fit_by_search_reference(graph, z)
    assert np.abs(w.fitted_marginals - ref.fitted_marginals).max() <= 1e-12
    assert w.forced == ref.forced
    pieces = {frozenset(piece.kept): piece for piece in w.pieces}
    whole = {frozenset(piece.kept): piece for piece in ref.pieces}
    assert all(pieces[kept].graph.n == whole[kept].graph.n for kept in pieces.keys() & whole.keys())
    # the one allowed difference: a path a - m - b that the search fits at
    # lam = 1 is split into its two bundles, the same law
    for kept in whole.keys() - pieces.keys():
        assert _is_three_vertex_path(whole[kept])
        halves = [piece for other, piece in pieces.items() if other < kept]
        assert [piece.graph.n for piece in halves] == [2, 2] and kept == frozenset().union(
            *(piece.kept for piece in halves))
    assert len(pieces.keys() - whole.keys()) == 2 * len(whole.keys() - pieces.keys())


@pytest.mark.parametrize("family, n, seed", TARGET_CELLS)
def test_no_small_final_piece_has_a_proper_tight_subset(family, n, seed):
    _, z, w = _lp_target(family, n, seed)
    for piece in w.pieces:
        if piece.graph.n > 12:
            continue
        ends = np.array(piece.graph.edges)
        z_piece = z[list(piece.kept)]
        for size in range(2, piece.graph.n):
            for subset in itertools.combinations(range(piece.graph.n), size):
                inside = np.isin(ends, subset).all(axis=1)
                assert z_piece[inside].sum() < size - 1 - 1e-8, (piece.kept, subset)
