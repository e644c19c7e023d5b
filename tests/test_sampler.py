import hashlib
import math
from collections import Counter

import numpy as np
import pytest

from kecsm import euclidean_instance, prepare, random_closure_instance
from kecsm.core import NotConnectedError
from kecsm.sampler import (
    _BLOCK,
    RngStream,
    _draw_streams,
    sample_batch,
    sample_fitted_batch,
    sample_fitted_tree,
    sample_tree,
    tree_from_edges,
)
from kecsm.treedist import EdgeGraph, LambdaWeights, SamplingPiece, fit_max_entropy, tree_marginals

from oracles import bs_stats, complete_graph, enumerate_spanning_trees, sample_tree_enumeration, tree_weight

TRIANGLE = EdgeGraph(n=3, edges=((0, 1), (0, 2), (1, 2)))
PATH3 = EdgeGraph(n=3, edges=((0, 1), (1, 2)))
# two tight pieces, {0,1,2} and {2,3,4}, plus the forced pendant edge (4, 5)
TWO_PIECES = EdgeGraph(n=6, edges=((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4), (4, 5)))
TWO_PIECES_Z = [0.7, 0.7, 0.6, 0.45, 0.45, 0.55, 0.55, 1.0]


def three_sigma(p: float, n: int) -> float:
    return 3.0 * math.sqrt(p * (1 - p) / n)


class TestEnumeration:
    def test_k4_has_sixteen_trees(self):
        assert len(enumerate_spanning_trees(complete_graph(4))) == 16

    def test_path_has_unique_tree(self):
        assert enumerate_spanning_trees(PATH3) == [(0, 1)]

    def test_weighted_triangle_probabilities(self):
        lam = np.array([2.0, 1.0, 1.0])
        trees = enumerate_spanning_trees(TRIANGLE)
        weights = {t: tree_weight(lam, t) for t in trees}
        total = sum(weights.values())
        probs = {t: w / total for t, w in weights.items()}
        assert probs[(0, 1)] == pytest.approx(0.4)
        assert probs[(0, 2)] == pytest.approx(0.4)
        assert probs[(1, 2)] == pytest.approx(0.2)

    def test_too_large_rejected(self):
        with pytest.raises(ValueError, match="8 vertices"):
            enumerate_spanning_trees(complete_graph(9))


class TestTreeFromEdges:
    def test_valid_tree(self):
        tree = tree_from_edges(TRIANGLE, [0, 1])
        assert tree.edge_indices == (0, 1)
        assert tree.parent[0] == -1

    def test_rejects_nonspanning(self):
        with pytest.raises(ValueError):
            tree_from_edges(EdgeGraph(n=4, edges=((0, 1), (1, 2), (2, 3))), [0, 1])

    def test_rejects_wrong_size(self):
        with pytest.raises(ValueError):
            tree_from_edges(TRIANGLE, [0, 1, 2])


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
def test_reset_generator_matches_a_fresh_philox(seed):
    # one generator, reset per stream, draws what each stream's own generator draws
    count = 2 * _BLOCK + 5
    draws = _draw_streams(lambda uniform: [uniform() for _ in range(count)],
                  [RngStream(seed=seed, stream=s) for s in range(64)])
    for s, got in enumerate(draws):
        assert got == RngStream(seed=seed, stream=s).generator().random(count).tolist()


@pytest.mark.filterwarnings("error")
def test_negative_seeds_draw_their_own_trees():
    # a seed is its value modulo 2**64, exactly: -1 and -7 are the keys 2**64 - 1 and 2**64 - 7
    assert RngStream(seed=-7, stream=-1).key.tolist() == [2**64 - 7, 2**64 - 1]
    g = complete_graph(6)
    batches = [sample_batch(np.ones(len(g.edges)), g, 8, seed=seed) for seed in (-1, -7, 0)]
    assert len({_digest(batch) for batch in batches}) == 3


class TestSampleTree:
    def test_unique_tree_path(self):
        for s in range(5):
            tree = sample_tree(np.ones(2), PATH3, RngStream(seed=11, stream=s))
            assert tree.edge_indices == (0, 1)

    def test_deterministic_per_stream(self):
        g = complete_graph(5)
        lam = np.ones(10)
        a = sample_tree(lam, g, RngStream(seed=3, stream=4))
        b = sample_tree(lam, g, RngStream(seed=3, stream=4))
        assert a == b

    def test_uniform_triangle_frequencies(self):
        n_samples = 30_000
        counts = Counter()
        for s in range(n_samples):
            counts[sample_tree(np.ones(3), TRIANGLE, RngStream(seed=101, stream=s)).edge_indices] += 1
        for t in enumerate_spanning_trees(TRIANGLE):
            assert counts[tuple(t)] / n_samples == pytest.approx(1 / 3, abs=three_sigma(1 / 3, n_samples))

    def test_weighted_triangle_frequencies(self):
        n_samples = 30_000
        lam = np.array([2.0, 1.0, 1.0])
        counts = Counter()
        for s in range(n_samples):
            counts[sample_tree(lam, TRIANGLE, RngStream(seed=202, stream=s)).edge_indices] += 1
        expected = {(0, 1): 0.4, (0, 2): 0.4, (1, 2): 0.2}
        for t, p in expected.items():
            assert counts[t] / n_samples == pytest.approx(p, abs=three_sigma(p, n_samples))

    def test_zero_weight_edges_absent(self):
        lam = np.array([1.0, 1.0, 0.0])
        for s in range(200):
            tree = sample_tree(lam, TRIANGLE, RngStream(seed=7, stream=s))
            assert 2 not in tree.edge_indices

    def test_disconnected_support_raises(self):
        with pytest.raises(NotConnectedError):
            sample_tree(np.array([1.0, 0.0]), PATH3, RngStream(seed=0))

    def test_parallel_edges_sampled_proportionally(self):
        graph = EdgeGraph(n=2, edges=((0, 1), (0, 1)))
        lam = np.array([3.0, 1.0])
        n_samples = 20_000
        hits = Counter()
        for s in range(n_samples):
            hits[sample_tree(lam, graph, RngStream(seed=55, stream=s)).edge_indices[0]] += 1
        assert hits[0] / n_samples == pytest.approx(0.75, abs=three_sigma(0.75, n_samples))


class TestEnumerationSampler:
    def test_matches_weights_on_triangle(self):
        n_samples = 20_000
        lam = np.array([2.0, 1.0, 1.0])
        counts = Counter()
        for s in range(n_samples):
            counts[sample_tree_enumeration(lam, TRIANGLE, RngStream(seed=3, stream=s)).edge_indices] += 1
        for t, p in {(0, 1): 0.4, (0, 2): 0.4, (1, 2): 0.2}.items():
            assert counts[t] / n_samples == pytest.approx(p, abs=three_sigma(p, n_samples))

    def test_unique_tree(self):
        tree = sample_tree_enumeration(np.ones(2), PATH3, RngStream(seed=1))
        assert tree.edge_indices == (0, 1)


class TestSampleBatch:
    def test_singleton(self):
        batch = sample_batch(np.ones(3), TRIANGLE, 1, seed=9)
        assert len(batch) == 1

    def test_same_seed_reproduces(self):
        a = sample_batch(np.ones(10), complete_graph(5), 6, seed=42)
        b = sample_batch(np.ones(10), complete_graph(5), 6, seed=42)
        assert a == b

    def test_stream_isolation(self):
        # entry i only depends on (seed, i): drawing it alone gives the same tree
        g = complete_graph(5)
        lam = np.ones(10)
        batch = sample_batch(lam, g, 5, seed=13)
        assert batch[3] == sample_tree(lam, g, RngStream(seed=13, stream=3))

    def test_union_size(self):
        batch = sample_batch(np.ones(3), TRIANGLE, 4, seed=0)
        assert sum(len(t.edge_indices) for t in batch) == 4 * (TRIANGLE.n - 1)

    def test_rejects_zero_trees(self):
        with pytest.raises(ValueError):
            sample_batch(np.ones(3), TRIANGLE, 0, seed=0)

    def test_disconnected_support_raises(self):
        with pytest.raises(NotConnectedError):
            sample_batch(np.array([1.0, 0.0]), PATH3, 3, seed=0)


def _digest(trees) -> str:
    return hashlib.sha256(repr([t.edge_indices for t in trees]).encode()).hexdigest()


class TestGoldenDraws:
    """Fixed batches pinned by hash: a change to the walk's draw order or step rule fails here.

    The hashes were recorded with a walk that rebuilt its adjacency and
    ``np.cumsum`` weights for every tree and drew each step with
    ``np.searchsorted``.
    """

    def test_sample_batch(self):
        g = complete_graph(6)
        lam = 0.25 + np.arange(len(g.edges)) / 4.0
        assert _digest(sample_batch(lam, g, 64, seed=2024)) == (
            "6d6bd507a92d4683de7e8d4d6a1d2329d22d5cfbf69b206da692349a8b3f2530")

    def test_sample_fitted_batch(self):
        w = prepare(euclidean_instance(12, 8, 1)).weights
        assert _digest(sample_fitted_batch(w, 64, seed=2024)) == (
            "573e65504980c0829d8ca815ee8352500963ec417f5756a33aa563feb125e0b6")


class TestEmpiricalMarginals:
    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1)])
    def test_wilson_matches_laplacian_marginals(self, n, seed):
        rng = np.random.default_rng(seed)
        g = complete_graph(n)
        lam = rng.random(len(g.edges)) + 0.3
        p = tree_marginals(lam, g)
        n_samples = 12_000
        hits = np.zeros(len(g.edges))
        for tree in sample_batch(lam, g, n_samples, seed=77):
            for i in tree.edge_indices:
                hits[i] += 1
        emp = hits / n_samples
        band = 4.0 * np.sqrt(p * (1 - p) / n_samples)
        assert np.all(np.abs(emp - p) <= band + 1e-12)


class TestFittedSampling:
    @pytest.mark.parametrize("law", [
        lambda: fit_max_entropy(TWO_PIECES, TWO_PIECES_Z),
        lambda: prepare(random_closure_instance(12, 4, 5)).weights,
    ], ids=["two-pieces", "pipeline"])
    def test_stream_isolation(self, law):
        # tree s of a batch only depends on (seed, s), also across pieces and forced edges
        w = law()
        assert len(w.pieces) >= 2 and w.forced
        batch = sample_fitted_batch(w, 16, seed=29)
        for s, tree in enumerate(batch):
            assert tree == sample_fitted_tree(w, RngStream(seed=29, stream=s))

    def test_repeated_edge_raises(self):
        # a forced edge that a piece holds too: the draw repeats it and cannot span
        graph = EdgeGraph(n=3, edges=((0, 1), (1, 2), (0, 2)))
        piece = SamplingPiece(graph=EdgeGraph(n=2, edges=((0, 1),)), lam=np.ones(1), kept=(0,))
        w = LambdaWeights(graph=graph, lam=np.ones(3), fitted_marginals=np.ones(3), forced=(0,),
                          deleted=(), sweeps=0, max_ratio=1.0,
                          pieces=(piece,))
        with pytest.raises(ValueError, match="distinct edges"):
            sample_fitted_tree(w, RngStream(seed=0))

    def test_forced_edges_always_present(self):
        w = fit_max_entropy(PATH3, [1.0, 1.0])
        for tree in sample_fitted_batch(w, 20, seed=5):
            assert tree.edge_indices == (0, 1)

    def test_piecewise_law_has_bernoulli_sum_cut_counts(self):
        # dispersion check: tree-edge counts across fixed cuts never exceed
        # their mean in variance terms (sums of independent indicator draws)
        rng = np.random.default_rng(3)
        g = complete_graph(6)
        lam = rng.random(len(g.edges)) + 0.2
        trees = sample_batch(lam, g, 4000, seed=21)
        for trial in range(5):
            side = {0} | {v for v in range(1, 6) if rng.random() < 0.5}
            if len(side) == 6:
                side = {0}
            counts = []
            for tree in trees:
                c = sum(1 for i in tree.edge_indices if (g.edges[i][0] in side) != (g.edges[i][1] in side))
                counts.append(c)
            stats = bs_stats(counts)
            assert stats.variance <= stats.mean + 3 * stats.slack_stderr

    def test_arbitrary_edge_set_counts_underdispersed(self):
        # the Bernoulli-sum property holds for any fixed edge set, not just cuts
        rng = np.random.default_rng(8)
        g = complete_graph(5)
        lam = rng.random(len(g.edges)) + 0.2
        trees = sample_batch(lam, g, 4000, seed=17)
        for trial in range(4):
            subset = {i for i in range(len(g.edges)) if rng.random() < 0.4}
            if not subset:
                subset = {0}
            counts = [sum(1 for i in t.edge_indices if i in subset) for t in trees]
            stats = bs_stats(counts)
            assert stats.variance <= stats.mean + 3 * stats.slack_stderr

    def test_decomposed_distribution_marginals(self):
        edges = ((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4))
        z = np.array([0.7, 0.7, 0.6, 0.45, 0.45, 0.55, 0.55])
        w = fit_max_entropy(EdgeGraph(n=5, edges=edges), z)
        assert len(w.pieces) >= 2
        n_samples = 20_000
        hits = np.zeros(len(edges))
        for tree in sample_fitted_batch(w, n_samples, seed=11):
            assert len(tree.edge_indices) == 4
            for i in tree.edge_indices:
                hits[i] += 1
        emp = hits / n_samples
        p = w.fitted_marginals
        band = 4.0 * np.sqrt(np.maximum(p * (1 - p), 1e-12) / n_samples)
        assert np.all(np.abs(emp - p) <= band + 1e-12)
