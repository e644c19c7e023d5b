import hashlib
import math
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecsm.core import MetricInstance, spanning_forest
from kecsm.instances import euclidean_instance, random_closure_instance
from kecsm.lp import FractionalSolution, solve_lp
from kecsm.pipeline import prepare, round_prepared
from kecsm.rounding import (
    RoundingParams,
    default_alpha,
    fundamental_cut_counts,
    mst,
    run_rounding,
)
from kecsm.sampler import TreeBatch, sample_fitted_batch
from kecsm.split import SplitGraph, build_split_graph
from kecsm.verify import verify_k_connectivity

from oracles import (
    direct_fundamental_counts,
    fundamental_cut_counts_reference,
    separates_u0_v0,
    tree_from_edges,
    trees_of,
    u0v0_path_edges,
)


def split_graph_fixture(n0_edges, costs=None):
    """Hand-built expanded graph over vertices 0..max, split at vertex 0."""
    edges = tuple(tuple(sorted(e)) for e in n0_edges)
    n0 = max(max(e) for e in edges) + 1
    costs = np.ones(len(edges)) if costs is None else np.asarray(costs, dtype=float)
    return SplitGraph(
        n=n0 - 1,
        split_vertex=0,
        edges=edges,
        x0=np.zeros(len(edges)),
        cost0=costs,
    )


def batch_of(trees) -> TreeBatch:
    return TreeBatch([(tr.parent_edge, tr.preorder, tr.size) for tr in trees])


def cut_counts(tree, t_star, g0) -> dict[int, int]:
    """The batched counts of a batch of one tree, keyed by tree edge."""
    counts, _ = fundamental_cut_counts(batch_of([tree]), t_star, g0)
    return {tree.parent_edge[v]: int(counts[0, v]) for v in range(1, tree.n)}


class TestParams:
    def test_default_alpha_small_k(self):
        assert default_alpha(2) == 0.0
        assert default_alpha(3) == 0.0

    def test_default_alpha_formula(self):
        for k in [4, 8, 16, 64]:
            assert default_alpha(k) == pytest.approx(math.sqrt(math.log(k / 2)))
            assert default_alpha(k) <= math.sqrt(k / 2 - 1) + 1e-12

    def test_make_counts(self):
        p = RoundingParams.make(8, seed=1)
        assert p.tree_count == 4
        assert p.mst_copies == math.ceil(p.alpha * math.sqrt(3.0))
        odd = RoundingParams.make(5)
        assert odd.tree_count == 3

    def test_alpha_clamped(self):
        p = RoundingParams.make(4, alpha=99.0)
        assert p.alpha == pytest.approx(1.0)

    def test_invalid_alpha_rejected(self):
        with pytest.raises(ValueError):
            RoundingParams(k=4, alpha=2.0, seed=0)

    def test_nan_alpha_rejected(self):
        # a NaN threshold would never augment, leaving the result below k
        with pytest.raises(ValueError, match=r"alpha=nan outside \["):
            RoundingParams(k=8, alpha=float("nan"), seed=0)
        with pytest.raises(ValueError, match=r"alpha=nan outside \["):
            RoundingParams.make(8, alpha=float("nan"))

    def test_threshold_consistency(self):
        p = RoundingParams.make(16)
        assert p.threshold == pytest.approx(16 - p.alpha * math.sqrt(7.0))
        assert p.mst_copies >= p.alpha * math.sqrt(7.0)


class TestMst:
    def test_picks_cheapest(self):
        g0 = split_graph_fixture([(0, 1), (0, 2), (1, 2)], costs=[1.0, 2.0, 3.0])
        assert mst(g0) == [0, 1]

    def test_tie_break_by_edge_index(self):
        g0 = split_graph_fixture([(0, 1), (0, 2), (1, 2)], costs=[1.0, 1.0, 1.0])
        assert mst(g0) == [0, 1]

    def test_mst_cost_below_tree_point_cost(self):
        # the scaled fractional point dominates some tree, so the MST undercuts it
        for seed in range(5):
            inst = euclidean_instance(8, 4, seed=seed)
            frac, _ = solve_lp(inst)
            g0 = build_split_graph(inst, frac)
            z = (2 / inst.k) * g0.x0
            mst_cost = sum(g0.cost0[i] for i in mst(g0))
            assert mst_cost <= float(np.dot(g0.cost0, z)) + 1e-9


class TestFundamentalCutCounts:
    def test_path_single_edge(self):
        g0 = split_graph_fixture([(0, 1), (1, 2)])
        tree = tree_from_edges(g0.graph, [0, 1])
        counts = cut_counts(tree, Counter({0: 1}), g0)
        assert counts == {0: 1, 1: 0}

    def test_tree_against_itself(self):
        g0 = split_graph_fixture([(0, 1), (1, 2), (2, 3), (0, 2)])
        tree = tree_from_edges(g0.graph, [0, 1, 2])
        counts = cut_counts(tree, Counter([0, 1, 2]), g0)
        assert counts == {0: 1, 1: 1, 2: 1}

    def test_star_example(self):
        # star center 0 with leaves 1,2,3; t_star edges (1,2) and (1,3)
        g0 = split_graph_fixture([(0, 1), (0, 2), (0, 3), (1, 2), (1, 3)])
        tree = tree_from_edges(g0.graph, [0, 1, 2])
        counts = cut_counts(tree, Counter([3, 4]), g0)
        assert counts == {0: 2, 1: 1, 2: 1}

    def test_multiplicity_counts(self):
        g0 = split_graph_fixture([(0, 1), (1, 2), (0, 2)])
        tree = tree_from_edges(g0.graph, [0, 1])
        counts = cut_counts(tree, Counter({2: 3}), g0)
        assert counts == {0: 3, 1: 3}

    @pytest.mark.parametrize("seed", range(6))
    def test_matches_direct_definition(self, seed):
        rng = np.random.default_rng(seed)
        n0 = int(rng.integers(4, 9))
        edges = [(u, v) for u in range(n0) for v in range(u + 1, n0)]
        g0 = split_graph_fixture(edges)
        graph = g0.graph
        # random spanning tree via random edge order
        order = list(rng.permutation(len(edges)))
        parent = list(range(n0))

        def find(v):
            while parent[v] != v:
                parent[v] = parent[parent[v]]
                v = parent[v]
            return v

        chosen = []
        for i in order:
            a, b = edges[i]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                chosen.append(i)
        tree = tree_from_edges(graph, chosen)
        t_star = Counter({i: int(rng.integers(0, 4)) for i in range(len(edges))})
        fast = cut_counts(tree, t_star, g0)
        slow = direct_fundamental_counts(tree, t_star, g0)
        assert fast == slow


@st.composite
def tree_batches(draw):
    """A split graph on 3 to 10 vertices, 1 to 8 spanning trees of it, and
    union counts 0 to 4 on its edge indices."""
    n = draw(st.integers(2, 9))
    inst = MetricInstance(n=n, cost=np.ones((n, n)) - np.eye(n), k=2)
    g0 = build_split_graph(inst, FractionalSolution(values={}, objective=0.0),
                           split_vertex=draw(st.integers(0, n - 1)))
    trees = []
    for _ in range(draw(st.integers(1, 8))):
        order = draw(st.permutations(range(len(g0.edges))))
        chosen, _ = spanning_forest(g0.n0, [g0.edges[i] for i in order])
        trees.append(tree_from_edges(g0.graph, [order[p] for p in chosen]))
    mult = draw(st.lists(st.integers(0, 4), min_size=len(g0.edges), max_size=len(g0.edges)))
    return g0, trees, Counter(dict(enumerate(mult)))


@settings(max_examples=150, deadline=None)
@given(tree_batches())
def test_batched_counts_match_the_per_tree_reference(case):
    g0, trees, t_star = case
    counts, splits_twins = fundamental_cut_counts(batch_of(trees), t_star, g0)
    assert counts.shape == splits_twins.shape == (len(trees), g0.n0)
    for t, tree in enumerate(trees):
        assert counts[t, 0] == 0 and not splits_twins[t, 0]
        edges = tree.parent_edge[1:]
        assert dict(zip(edges, counts[t, 1:].tolist())) == fundamental_cut_counts_reference(
            tree, t_star, g0)
        assert {e for e, s in zip(edges, splits_twins[t, 1:]) if s} == u0v0_path_edges(
            tree, g0.u0, g0.v0)


class TestSeparatesTwins:
    def test_path_edge_separates(self):
        g0 = split_graph_fixture([(0, 1), (1, 2)])  # u0=0, v0=2
        tree = tree_from_edges(g0.graph, [0, 1])
        assert separates_u0_v0(tree, 0, 0, 2)
        assert separates_u0_v0(tree, 1, 0, 2)

    def test_star_edge_does_not_separate(self):
        g0 = split_graph_fixture([(0, 1), (0, 2), (0, 3)])  # u0=0, v0=3
        tree = tree_from_edges(g0.graph, [0, 1, 2])
        assert not separates_u0_v0(tree, 0, 0, 3)
        assert not separates_u0_v0(tree, 1, 0, 3)
        assert separates_u0_v0(tree, 2, 0, 3)

    def test_path_edge_count(self):
        for seed in range(4):
            inst = euclidean_instance(7, 2, seed=seed)
            prep = prepare(inst)
            tree = trees_of(sample_fitted_batch(prep.weights, 1, seed=seed))[0]
            path = u0v0_path_edges(tree, prep.split_graph.u0, prep.split_graph.v0)
            separating = [e for e in tree.edge_indices
                          if separates_u0_v0(tree, e, prep.split_graph.u0, prep.split_graph.v0)]
            assert set(separating) == path


class TestRunRounding:
    def test_k2_doubles_nonpath_edges(self, triangle_unit):
        prep = prepare(triangle_unit)
        params = RoundingParams.make(2, seed=9)
        out = run_rounding(prep.split_graph, prep.weights, params)
        tree = trees_of(sample_fitted_batch(prep.weights, 1, seed=9))[0]
        g0 = prep.split_graph
        path = u0v0_path_edges(tree, g0.u0, g0.v0)
        assert out.f_set == Counter(i for i in tree.edge_indices if i not in path)
        assert out.b_set.total() == 0
        cert = verify_k_connectivity(out.final, triangle_unit.n, 2)
        assert cert.passes

    def test_two_vertex_instance_all_k(self):
        for k in [2, 3, 6]:
            inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=k)
            prep = prepare(inst)
            params = RoundingParams.make(k, seed=4)
            out = run_rounding(prep.split_graph, prep.weights, params)
            copies = 2 * params.tree_count + 2 * params.mst_copies
            assert out.final.multiplicity == {(0, 1): copies}
            assert out.f_set.total() == 0  # every tree edge separates the twins
            assert verify_k_connectivity(out.final, 2, k).passes

    def test_union_size_exact(self):
        inst = euclidean_instance(9, 8, seed=2)
        prep = prepare(inst)
        params = RoundingParams.make(8, seed=0)
        out = run_rounding(prep.split_graph, prep.weights, params)
        assert out.t_star.total() == params.tree_count * (prep.split_graph.n0 - 1)

    def test_cost_identities(self):
        inst = euclidean_instance(8, 16, seed=6)
        prep = prepare(inst)
        params = RoundingParams.make(16, seed=3)
        out = run_rounding(prep.split_graph, prep.weights, params)
        assert out.total_cost == pytest.approx(out.cost_t_star + out.cost_b + out.cost_f)
        assert out.final.total_cost(inst.cost) == pytest.approx(out.total_cost)
        base_cost = sum(prep.split_graph.cost0[i] for i in mst(prep.split_graph))
        assert out.cost_b == pytest.approx(params.mst_copies * base_cost)

    def test_deterministic_given_seed(self):
        inst = random_closure_instance(8, 4, seed=19)
        prep = prepare(inst)
        params = RoundingParams.make(4, seed=77)
        a = run_rounding(prep.split_graph, prep.weights, params)
        b = run_rounding(prep.split_graph, prep.weights, params)
        assert a.final == b.final
        assert a.augmentations_per_tree == b.augmentations_per_tree

    def test_always_connected_small_sweep(self):
        runs = 0
        for seed in range(3):
            for k in [2, 3, 5, 8]:
                inst = euclidean_instance(6, k, seed=seed)
                prep = prepare(inst)
                for trial in range(4):
                    params = RoundingParams.make(k, seed=trial)
                    out = run_rounding(prep.split_graph, prep.weights, params)
                    assert verify_k_connectivity(out.final, inst.n, k).passes
                    runs += 1
        assert runs == 48

    def test_union_covers_every_cut_with_tree_count(self):
        # each sampled tree crosses every cut, so the union carries >= t
        from kecsm.core import global_min_cut

        inst = random_closure_instance(8, 8, seed=30)
        prep = prepare(inst)
        for seed in range(10):
            params = RoundingParams.make(8, seed=seed)
            out = run_rounding(prep.split_graph, prep.weights, params)
            weights = {prep.split_graph.edges[i]: float(m) for i, m in out.t_star.items()}
            value, _ = global_min_cut(weights, prep.split_graph.n0)
            assert value >= params.tree_count - 1e-9

    def test_expected_union_cost_matches_marginals(self):
        # mean of c(T*) over many runs within 4 standard errors of
        # tree_count * sum(cost * fitted marginal)
        inst = euclidean_instance(7, 4, seed=11)
        prep = prepare(inst)
        params_proto = RoundingParams.make(4)
        expected = params_proto.tree_count * float(
            np.dot(prep.split_graph.cost0, prep.weights.fitted_marginals)
        )
        costs = []
        for seed in range(300):
            out = run_rounding(prep.split_graph, prep.weights,
                               RoundingParams.make(4, seed=seed))
            costs.append(out.cost_t_star)
        mean = float(np.mean(costs))
        se = float(np.std(costs, ddof=1) / math.sqrt(len(costs)))
        assert abs(mean - expected) <= 4 * se


class TestGoldenCertificates:
    """Certified roundings pinned by hash: the min-cut value, the witness side
    and the key order of ``final``, which fixes the order the certificate's
    shrink contracts in, on 20 seeds of each cell.

    The hash was recorded when the fit first split every piece at the tight
    sets one max flow per support pair finds, from lam proportional to z:
    a three-vertex path became its two bundles, the same law, and the
    weights of a piece its own fit.
    """

    CELLS = [("random-closure", 48, 4), ("random-closure", 48, 6), ("euclidean", 40, 4),
             ("euclidean", 40, 6), ("random-closure", 32, 64), ("random-closure", 32, 256),
             ("euclidean", 32, 64), ("euclidean", 12, 4), ("random-closure", 10, 6)]

    def test_round_prepared(self):
        gen = {"euclidean": euclidean_instance, "random-closure": random_closure_instance}
        digest = hashlib.sha256()
        for family, n, k in self.CELLS:
            prep = prepare(gen[family](n, k, 1))
            for seed in range(20):
                result = round_prepared(prep, seed)
                cert = result.certificate
                digest.update(repr((cert.min_cut_value, sorted(cert.witness),
                                    list(result.rounding.final.multiplicity.items()))).encode())
        assert digest.hexdigest() == (
            "089b20f9a3c4d3f8389359583785384bb0980dc2b3b49f19d292463dc165f860")


def same_rounding_after_scaling(seed: int, power: int) -> bool:
    inst = random_closure_instance(12, 6, seed=seed)
    scaled = MetricInstance(n=inst.n, cost=inst.cost * 2.0 ** power, k=inst.k)
    params = RoundingParams.make(inst.k, seed=0)
    outs = []
    for case in (inst, scaled):
        prep = prepare(case)
        outs.append(run_rounding(prep.split_graph, prep.weights, params))
    return outs[0].final == outs[1].final


def test_scaling_the_costs_keeps_the_rounding():
    assert same_rounding_after_scaling(9, 17)


def test_scaling_the_costs_keeps_the_rounding_at_a_tied_vertex():
    # with tolerances applied to the costs as given, the LP returned another
    # optimal vertex here (same objective, max |dx| = 3)
    assert same_rounding_after_scaling(19, 15)


@pytest.mark.parametrize("seed", [5, 19])
def test_scaling_the_costs_by_any_power_of_two_keeps_the_rounding(seed):
    powers = [sign * j for j in range(13, 21) for sign in (1, -1)]
    assert [j for j in powers if not same_rounding_after_scaling(seed, j)] == []
