import gc
import hashlib
import math
import sys
import threading
import weakref
from collections import Counter
from dataclasses import replace
from functools import lru_cache

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import chi2

from kecsm import euclidean_instance, prepare, random_closure_instance, sampler
from kecsm.core import NotConnectedError
from kecsm.rounding import fundamental_cut_counts, mst
from kecsm.sampler import (
    _BLOCK,
    _uniforms,
    generator,
    sample_fitted_batch,
)
from kecsm.treedist import EdgeGraph, LambdaWeights, SamplingPiece, fit_max_entropy, tree_marginals

from oracles import (
    bs_stats,
    complete_graph,
    enumerate_spanning_trees,
    full_lambda,
    fundamental_cut_counts_reference,
    sample_batch,
    sample_tree_enumeration,
    table_batch_reference,
    tree_from_edges,
    tree_weight,
    trees_of,
)

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

    @pytest.mark.parametrize("idx, bad", [([-1, 0], -1), ([0, 3], 3)])
    def test_rejects_indices_outside_the_edge_list(self, idx, bad):
        # -1 used to index the last edge and leave parent_edge[2] = -1, the root marker
        graph = EdgeGraph(n=3, edges=((0, 1), (1, 2), (0, 2)))
        with pytest.raises(ValueError, match=rf"^edge index {bad} is not in 0\.\.2$"):
            tree_from_edges(graph, idx)


@pytest.mark.parametrize("seed", [0, -1, 2**64 + 5])
def test_reset_generator_matches_a_fresh_philox(seed):
    # one generator, reset per stream, draws what each stream's own generator draws
    count = 2 * _BLOCK + 5
    draws = [[uniform() for _ in range(count)] for uniform in _uniforms(sampler._streams(64, seed))]
    assert len(draws) == 64
    for s, got in enumerate(draws):
        assert got == generator(seed, s).random(count).tolist()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("seed", [-5, 3])
def test_every_key_draws_what_its_generator_draws(monkeypatch, seed):
    # keys at or above 2**63, from a negative seed or a large stream, reach
    # the reset Philox unchanged, on the walk path and on the table path
    streams = [2**63 + s for s in range(4)]
    keys = [(seed % 2**64, stream) for stream in streams]
    draws = [[uniform() for _ in range(5)] for uniform in _uniforms(keys)]
    assert draws == [generator(seed, stream).random(5).tolist() for stream in streams]
    assert [gen.random(5).tolist() for gen in sampler._generators(keys)] == draws
    g = complete_graph(6)
    lam = np.arange(1.0, len(g.edges) + 1)
    for budget in (sampler._MEMO_BYTES, 0):  # the table path, then the walk path
        monkeypatch.setattr(sampler, "_MEMO_BYTES", budget)
        batch = sample_batch(lam, g, 8, seed=seed)
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_generators", lambda keys: (generator(*key) for key in keys))
            assert _digest(sample_batch(lam, g, 8, seed=seed)) == _digest(batch)


@pytest.mark.filterwarnings("error")
def test_negative_seeds_draw_their_own_trees():
    # a seed is its value modulo 2**64, exactly: -1 and -7 are the keys 2**64 - 1 and 2**64 - 7
    assert generator(-7, -1).bit_generator.state["state"]["key"].tolist() == [2**64 - 7, 2**64 - 1]
    assert sampler._streams(2, -7) == [(2**64 - 7, 0), (2**64 - 7, 1)]
    g = complete_graph(6)
    batches = [sample_batch(np.ones(len(g.edges)), g, 8, seed=seed) for seed in (-1, -7, 0)]
    assert len({_digest(batch) for batch in batches}) == 3


def test_numpy_integer_seeds_and_streams_pass_the_generator():
    # masking a numpy integer seed once raised OverflowError
    want = generator(5, 2).random(4).tolist()
    assert generator(np.int64(5), np.int32(2)).random(4).tolist() == want
    assert generator(5.0, np.uint64(2)).random(4).tolist() == want
    with pytest.raises(ValueError, match="^seed must be an integer, got 1.5$"):
        generator(1.5, 0)


def test_a_batch_past_the_limit_of_trees_times_vertices_is_refused():
    # a huge k once listed one stream key per tree until memory ran out
    limit = sampler.MAX_BATCH_ENTRIES
    assert limit == 2**25
    sampler.check_batch_size(limit // 33, 33)
    sampler.check_batch_size(1, limit)
    for t, n in [(limit // 33 + 1, 33), (1, limit + 1), (5 * 10**20, 6)]:
        with pytest.raises(sampler.BatchTooLargeError,
                           match=rf"^{t} trees on {n} vertices exceed the batch limit of {limit} "
                                 "trees times vertices$"):
            sampler.check_batch_size(t, n)


class TestSampleTree:
    """Single trees of a plain-weight law, each taken from a batch: tree s of
    a batch is the tree of stream s."""

    def test_unique_tree_path(self):
        for tree in trees_of(sample_batch(np.ones(2), PATH3, 5, seed=11)):
            assert tree.edge_indices == (0, 1)

    def test_deterministic_per_stream(self):
        g = complete_graph(5)
        lam = np.ones(10)
        assert trees_of(sample_batch(lam, g, 5, seed=3))[4] == trees_of(sample_batch(lam, g, 5, seed=3))[4]

    def test_uniform_triangle_frequencies(self):
        n_samples = 30_000
        trees = trees_of(sample_batch(np.ones(3), TRIANGLE, n_samples, seed=101))
        counts = Counter(tree.edge_indices for tree in trees)
        for t in enumerate_spanning_trees(TRIANGLE):
            assert counts[tuple(t)] / n_samples == pytest.approx(1 / 3, abs=three_sigma(1 / 3, n_samples))

    def test_weighted_triangle_frequencies(self):
        n_samples = 30_000
        lam = np.array([2.0, 1.0, 1.0])
        counts = Counter(tree.edge_indices for tree in trees_of(sample_batch(lam, TRIANGLE, n_samples, seed=202)))
        expected = {(0, 1): 0.4, (0, 2): 0.4, (1, 2): 0.2}
        for t, p in expected.items():
            assert counts[t] / n_samples == pytest.approx(p, abs=three_sigma(p, n_samples))

    def test_zero_weight_edges_absent(self):
        lam = np.array([1.0, 1.0, 0.0])
        for tree in trees_of(sample_batch(lam, TRIANGLE, 200, seed=7)):
            assert 2 not in tree.edge_indices

    def test_disconnected_support_raises(self):
        with pytest.raises(NotConnectedError):
            sample_batch(np.array([1.0, 0.0]), PATH3, 1, seed=0)

    def test_parallel_edges_sampled_proportionally(self):
        graph = EdgeGraph(n=2, edges=((0, 1), (0, 1)))
        lam = np.array([3.0, 1.0])
        n_samples = 20_000
        hits = Counter(sample_batch(lam, graph, n_samples, seed=55).edge_indices[:, 0].tolist())
        assert hits[0] / n_samples == pytest.approx(0.75, abs=three_sigma(0.75, n_samples))


class TestEnumerationSampler:
    def test_matches_weights_on_triangle(self):
        n_samples = 20_000
        lam = np.array([2.0, 1.0, 1.0])
        counts = Counter()
        for s in range(n_samples):
            counts[sample_tree_enumeration(lam, TRIANGLE, generator(3, s)).edge_indices] += 1
        for t, p in {(0, 1): 0.4, (0, 2): 0.4, (1, 2): 0.2}.items():
            assert counts[t] / n_samples == pytest.approx(p, abs=three_sigma(p, n_samples))

    def test_unique_tree(self):
        tree = sample_tree_enumeration(np.ones(2), PATH3, generator(1, 0))
        assert tree.edge_indices == (0, 1)


class TestSampleBatch:
    def test_singleton(self):
        batch = sample_batch(np.ones(3), TRIANGLE, 1, seed=9)
        assert len(batch) == 1

    def test_same_seed_reproduces(self):
        a = sample_batch(np.ones(10), complete_graph(5), 6, seed=42)
        b = sample_batch(np.ones(10), complete_graph(5), 6, seed=42)
        assert trees_of(a) == trees_of(b)

    def test_stream_isolation(self):
        # entry i only depends on (seed, i), not on the batch size
        g = complete_graph(5)
        lam = np.ones(10)
        batch = sample_batch(lam, g, 5, seed=13)
        for t in (1, 4, 9):
            common = min(t, 5)
            assert trees_of(sample_batch(lam, g, t, seed=13))[:common] == trees_of(batch)[:common]

    def test_union_size(self):
        batch = sample_batch(np.ones(3), TRIANGLE, 4, seed=0)
        assert sum(len(t.edge_indices) for t in trees_of(batch)) == 4 * (TRIANGLE.n - 1)

    def test_rejects_zero_trees(self):
        with pytest.raises(ValueError):
            sample_batch(np.ones(3), TRIANGLE, 0, seed=0)

    def test_disconnected_support_raises(self):
        with pytest.raises(NotConnectedError):
            sample_batch(np.array([1.0, 0.0]), PATH3, 3, seed=0)


def _digest(batch) -> str:
    return hashlib.sha256(repr([t.edge_indices for t in trees_of(batch)]).encode()).hexdigest()


class TestGoldenDraws:
    """Fixed batches pinned by hash: a change to the draw order, the walk's
    step rule or a table's tree order fails here.

    The first and the last hash were recorded when a law with few trees
    first drew each piece from its tree table, which moved the draws of
    every such law with a piece of three or more vertices (K6 here, a
    (4, 6) piece in the last).  The second was recorded when the fit first
    split each piece at the tight sets one max flow per support pair finds
    and started it from lam proportional to z; its pieces are all bundles,
    which the table draws as the walk does.
    """

    def test_sample_batch(self):
        g = complete_graph(6)
        lam = 0.25 + np.arange(len(g.edges)) / 4.0
        assert _digest(sample_batch(lam, g, 64, seed=2024)) == (
            "7dd664e40bdcee91bd5984feaf4303f802b662accb22c55cbebabffaca774f22")

    def test_sample_fitted_batch(self):
        w = prepare(euclidean_instance(12, 8, 1)).weights
        assert _digest(sample_fitted_batch(w, 64, seed=2024)) == (
            "8f344ec0fff531996bd818227ad0cdbcf8bc8f4503bf5a862aef2faa69f8c70b")

    def test_sample_fitted_batch_with_two_vertex_pieces(self):
        # pieces on 2, 2, 4, 2, 2, 2 and 2 vertices: a two-vertex piece is one weighted step
        w = prepare(random_closure_instance(32, 64, 1)).weights
        assert sorted(piece.graph.n for piece in w.pieces) == [2, 2, 2, 2, 2, 2, 4]
        assert _digest(sample_fitted_batch(w, 64, seed=2024)) == (
            "686a6d17943750a871c599b319c6ad4f433524ee0d41f90167e5b0bd10f3a845")


class TestEmpiricalMarginals:
    @pytest.mark.parametrize("path", ["table", "walk"])
    @pytest.mark.parametrize("n,seed", [(4, 0), (6, 1)])
    def test_draws_match_laplacian_marginals(self, monkeypatch, n, seed, path):
        if path == "walk":  # no memo budget: every law draws by walks
            monkeypatch.setattr(sampler, "_MEMO_BYTES", 0)
        rng = np.random.default_rng(seed)
        g = complete_graph(n)
        lam = rng.random(len(g.edges)) + 0.3
        p = tree_marginals(lam, g)
        n_samples = 12_000
        hits = np.zeros(len(g.edges))
        for tree in trees_of(sample_batch(lam, g, n_samples, seed=77)):
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
        for s, tree in enumerate(trees_of(batch)):
            assert tree == trees_of(sample_fitted_batch(w, s + 1, seed=29))[s]

    def test_repeated_edge_raises(self):
        # a forced edge that a piece holds too: the draw repeats it and cannot span
        graph = EdgeGraph(n=3, edges=((0, 1), (1, 2), (0, 2)))
        piece = SamplingPiece(graph=EdgeGraph(n=2, edges=((0, 1),)), lam=np.ones(1), kept=(0,))
        w = LambdaWeights(graph=graph, fitted_marginals=np.ones(3), forced=(0,),
                          sweeps=0, max_ratio=1.0, pieces=(piece,))
        with pytest.raises(ValueError, match="distinct edges"):
            sample_fitted_batch(w, 1, seed=0)

    def test_too_few_edges_raise_on_the_first_draw(self):
        # a 4-vertex path with one forced edge and one 2-vertex piece: 2 edges, not 3
        graph = EdgeGraph(n=4, edges=((0, 1), (1, 2), (2, 3)))
        piece = SamplingPiece(graph=EdgeGraph(n=2, edges=((0, 1),)), lam=np.ones(1), kept=(1,))
        w = LambdaWeights(graph=graph, fitted_marginals=np.ones(3), forced=(0,),
                          sweeps=0, max_ratio=1.0, pieces=(piece,))
        with pytest.raises(ValueError, match="^a spanning tree on 4 vertices needs 3 distinct edges$"):
            sample_fitted_batch(w, 1, seed=0)

    @pytest.mark.parametrize("kept", [(0,), (0, 1, 2)], ids=["short", "long"])
    def test_a_piece_needs_one_kept_index_per_edge(self, kept):
        # a short kept once failed mid-draw with IndexError, a long one was cut silently
        with pytest.raises(ValueError, match=rf"^kept has {len(kept)} edge indices for 2 piece edges$"):
            SamplingPiece(graph=EdgeGraph(n=2, edges=((0, 1), (0, 1))), lam=[1.0, 3.0], kept=kept)

    def test_forced_index_outside_the_edge_list_raises(self):
        piece = SamplingPiece(graph=EdgeGraph(n=2, edges=((0, 1),)), lam=np.ones(1), kept=(1,))
        w = LambdaWeights(graph=PATH3, fitted_marginals=np.ones(2), forced=(-1,),
                          sweeps=0, max_ratio=1.0, pieces=(piece,))
        with pytest.raises(ValueError, match="edge index -1 is not in"):
            sample_fitted_batch(w, 1, seed=0)

    def test_forced_edges_always_present(self):
        w = fit_max_entropy(PATH3, [1.0, 1.0])
        for tree in trees_of(sample_fitted_batch(w, 20, seed=5)):
            assert tree.edge_indices == (0, 1)

    def test_piecewise_law_has_bernoulli_sum_cut_counts(self):
        # dispersion check: tree-edge counts across fixed cuts never exceed
        # their mean in variance terms (sums of independent indicator draws)
        rng = np.random.default_rng(3)
        g = complete_graph(6)
        lam = rng.random(len(g.edges)) + 0.2
        trees = trees_of(sample_batch(lam, g, 4000, seed=21))
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
        trees = trees_of(sample_batch(lam, g, 4000, seed=17))
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
        for tree in trees_of(sample_fitted_batch(w, n_samples, seed=11)):
            assert len(tree.edge_indices) == 4
            for i in tree.edge_indices:
                hits[i] += 1
        emp = hits / n_samples
        p = w.fitted_marginals
        band = 4.0 * np.sqrt(np.maximum(p * (1 - p), 1e-12) / n_samples)
        assert np.all(np.abs(emp - p) <= band + 1e-12)


def _hand_built_law() -> LambdaWeights:
    """A triangle piece on {0, 1, 2}, the forced edge (2, 3), and a piece of two
    parallel edges on {3, 4}."""
    graph = EdgeGraph(n=5, edges=((0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (3, 4)))
    pieces = (SamplingPiece(graph=EdgeGraph(n=3, edges=((0, 1), (1, 2), (0, 2))),
                            lam=np.array([1.0, 2.0, 3.0]), kept=(0, 1, 2)),
              SamplingPiece(graph=EdgeGraph(n=2, edges=((0, 1), (0, 1))), lam=np.array([1.0, 2.0]), kept=(4, 5)))
    return LambdaWeights(graph=graph, fitted_marginals=np.ones(6), forced=(3,),
                         sweeps=0, max_ratio=1.0, pieces=pieces)


class TestCachedSamplerState:
    """The tables or walks and the forced incidence of a law are built once and reused by every draw."""

    def test_state_is_built_once_and_piece_weights_are_frozen(self):
        w = _hand_built_law()
        assert w._sampler is w._sampler
        with pytest.raises(ValueError, match="read-only"):
            w.pieces[0].lam[0] = 5.0

    def test_a_law_is_freed_without_the_cycle_collector(self):
        # the cached draw must not refer back to its law: each solve's law would
        # then live until a collection, which raised peak RSS on cold solves
        w = _hand_built_law()
        sample_fitted_batch(w, 2, seed=0)
        law = weakref.ref(w)
        gc.disable()
        try:
            del w
            assert law() is None
        finally:
            gc.enable()

    def test_two_batches_of_one_seed_are_equal(self):
        w = _hand_built_law()
        a, b = sample_fitted_batch(w, 40, seed=8), sample_fitted_batch(w, 40, seed=8)
        assert trees_of(a) == trees_of(b)
        for name in ROWS:
            assert np.array_equal(getattr(a, name), getattr(b, name))
        assert len({t.edge_indices for t in trees_of(a)}) > 1

    def test_each_tree_is_the_tree_of_its_stream(self):
        w = _hand_built_law()
        batch = sample_fitted_batch(w, 24, seed=3)
        assert len(batch) == 24
        for s, tree in enumerate(trees_of(batch)):
            assert tree == trees_of(sample_fitted_batch(w, s + 1, seed=3))[s]

    def test_a_law_that_does_not_span_raises(self):
        # forced (0, 1) and (1, 2) with the piece edge (0, 2): a cycle that misses vertex 3
        graph = EdgeGraph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 2)))
        piece = SamplingPiece(graph=EdgeGraph(n=2, edges=((0, 1),)), lam=np.ones(1), kept=(3,))
        w = LambdaWeights(graph=graph, fitted_marginals=np.ones(4), forced=(0, 1),
                          sweeps=0, max_ratio=1.0, pieces=(piece,))
        with pytest.raises(ValueError, match="does not span"):
            sample_fitted_batch(w, 3, seed=0)


@lru_cache(maxsize=None)
def _law(family: str, n: int, k: int, seed: int, all_forced: bool):
    """The prepared law of an instance, or with ``all_forced`` the law of the
    split graph's MST alone: every edge forced and no piece."""
    gen = euclidean_instance if family == "euclidean" else random_closure_instance
    prep = prepare(gen(n, k, seed))
    g0 = prep.split_graph
    if not all_forced:
        return g0, prep.weights
    z = np.zeros(len(g0.edges))
    z[mst(g0)] = 1.0
    return g0, fit_max_entropy(g0.graph, z)


@settings(max_examples=40, deadline=None)
@given(st.sampled_from(["euclidean", "random-closure"]), st.integers(4, 16), st.sampled_from([4, 6, 64]),
       st.integers(1, 4), st.booleans(), st.booleans(), st.integers(1, 12), st.integers(0, 2**32))
def test_fitted_batches_root_like_tree_from_edges(family, n, k, instance_seed, all_forced, plain, t, seed):
    # with ``plain`` the law's weights are drawn as a plain weight vector on the
    # whole split graph: zero off the support, no forced edge and one piece
    g0, w = _law(family, n, k, instance_seed, all_forced)
    assert (len(w.pieces) == 0) == all_forced
    batch = sample_batch(full_lambda(w), g0.graph, t, seed) if plain else sample_fitted_batch(w, t, seed)
    assert len(batch) == t and batch.parent_edge.shape == (t, g0.n0)
    trees = trees_of(batch)
    for tree in trees:
        again = tree_from_edges(g0.graph, tree.edge_indices)
        for name in ("parent", "parent_edge", "size", "edge_indices"):
            assert getattr(tree, name) == getattr(again, name)
        # the subtree of v is the block of size[v] vertices that starts at v
        below = [{v} for v in range(tree.n)]
        for v in reversed(tree.preorder[1:]):
            below[tree.parent[v]] |= below[v]
        start = {v: p for p, v in enumerate(tree.preorder)}
        for v in range(tree.n):
            assert set(tree.preorder[start[v]:start[v] + tree.size[v]]) == below[v]
    t_star = Counter(i for tree in trees for i in tree.edge_indices)
    counts, _ = fundamental_cut_counts(batch, t_star, g0)
    for row, tree in zip(counts, trees):
        assert dict(zip(tree.parent_edge[1:], row[1:].tolist())) == fundamental_cut_counts_reference(
            tree, t_star, g0)


ROWS = ("parent_edge", "preorder", "size", "edge_indices")


def _tree_bound(pieces) -> int:
    """Product over the pieces of C(edges, vertices - 1): at least the law's tree count."""
    return math.prod(math.comb(len(p.graph.edges), p.graph.n - 1) for p in pieces)


def _rooted(draw) -> int:
    """The count of trees whose rows ``draw``, a table law's batch draw, has
    rooted: each one's root has size n in ``draw.rows``, the others 0."""
    return int(np.count_nonzero(draw.rows[:, 2, 0]))


def _whole_graph_law(piece: SamplingPiece) -> LambdaWeights:
    """The law of ``piece`` alone, on its own graph: no forced edge."""
    m = len(piece.graph.edges)
    return LambdaWeights(graph=piece.graph, fitted_marginals=np.ones(m), forced=(), sweeps=0, max_ratio=1.0,
                         pieces=(piece,))


def _bundle_law(m: int) -> LambdaWeights:
    """The law of one piece of ``m`` parallel edges, weighted 1, 2, ..., m."""
    graph = EdgeGraph(n=2, edges=((0, 1),) * m)
    return _whole_graph_law(SamplingPiece(graph=graph, lam=np.arange(1.0, m + 1), kept=tuple(range(m))))


class TestTreeMemo:
    """A law whose trees' rooted rows all fit ``_MEMO_BYTES`` draws each piece
    from its tree table and keeps the rooted rows of each tree it has drawn
    in ``draw.rows``; a piece of two vertices draws the edge the walk's one
    step draws."""

    @pytest.mark.parametrize("law", [lambda: _law("euclidean", 32, 64, 1, False)[1], lambda: _bundle_law(2000)],
                             ids=["euclidean", "bundle"])
    def test_batches_equal_the_batches_without_a_memo(self, monkeypatch, law):
        w = law()
        assert {piece.graph.n for piece in w.pieces} == {2}
        with monkeypatch.context() as patch:
            patch.setattr(sampler, "_MEMO_BYTES", 0)
            plain = replace(w)
            assert plain._sampler.rows is None
        memoized = replace(w)
        assert _rooted(memoized._sampler) == 0
        expected = {(t, seed): sample_fitted_batch(plain, t, seed)
                    for t in (1, 4, 128) for seed in range(200)}
        for _ in range(2):  # the second pass repeats every seed the first one drew
            for (t, seed), want in expected.items():
                got = sample_fitted_batch(memoized, t, seed)
                for name in ROWS:
                    assert np.array_equal(getattr(got, name), getattr(want, name)), (t, seed, name)
        assert 1 < _rooted(memoized._sampler) <= _tree_bound(w.pieces)

    def test_writing_into_a_batch_leaves_a_later_batch(self):
        _, w = _law("random-closure", 32, 64, 1, False)
        first = sample_fitted_batch(w, 16, seed=4)
        want = {name: getattr(first, name).copy() for name in ROWS}
        for name in ROWS:
            getattr(first, name)[:] = 7
        again = sample_fitted_batch(w, 16, seed=4)
        for name in ROWS:
            assert np.array_equal(getattr(again, name), want[name])
            assert getattr(again, name).dtype == np.intp

    @pytest.mark.parametrize("family, n, k, instance_seed, bound, memoized", [
        ("random-closure", 32, 64, 1, 1280, True), ("euclidean", 32, 64, 1, 4, True),
        ("random-closure", 48, 4, 1, 17920, False), ("euclidean", 40, 4, 1, 128, True),
        ("random-closure", 32, 64, 3, 24948, False)])
    def test_a_law_keeps_a_memo_when_the_bound_fits_the_budget(self, family, n, k, instance_seed, bound,
                                                                memoized):
        _, w = _law(family, n, k, instance_seed, False)
        draw = w._sampler
        assert _tree_bound(w.pieces) == bound
        assert sampler._fits(w.pieces, bound) and not sampler._fits(w.pieces, bound - 1)
        assert (bound * 3 * w.graph.n * draw.dtype.itemsize <= sampler._MEMO_BYTES) == memoized
        assert (draw.rows is not None) == memoized
        sample_fitted_batch(w, 64, seed=0)
        if memoized:
            assert 0 < _rooted(draw) <= bound

    def test_a_whole_graph_law_at_large_n_keeps_no_memo(self):
        g = complete_graph(64)
        whole = SamplingPiece(graph=g, lam=np.ones(len(g.edges)), kept=tuple(range(len(g.edges))))
        draw = sampler._sampler(g, (), (whole,))
        assert draw.rows is None
        batch = draw(sampler._streams(3, 5))
        assert len(batch) == 3
        for row in batch.edge_indices.tolist():
            tree_from_edges(g, row)  # ValueError unless the walks drew a spanning tree of g

    def test_a_law_with_no_piece_fits_one_tree(self):
        # the empty product is 1: the forced edges alone are the one tree
        assert sampler._fits([], 1) and not sampler._fits([], 0)

    def test_sample_batch_on_k4_roots_each_tree_once(self, monkeypatch):
        # K4 has 16 trees and the bound C(6, 3) = 20
        g = complete_graph(4)
        lam = np.arange(1.0, 7.0)
        calls = []
        root = sampler._root
        monkeypatch.setattr(sampler, "_root", lambda n, inc: calls.append(n) or root(n, inc))
        batch = sample_batch(lam, g, 2000, seed=12)
        assert len(calls) == len({tree.edge_indices for tree in trees_of(batch)}) == 16
        monkeypatch.setattr(sampler, "_MEMO_BYTES", 0)
        sample_batch(lam, g, 2000, seed=12)
        assert len(calls) == 16 + 2000


def _whole_graph_piece(graph: EdgeGraph, seed: int) -> SamplingPiece:
    """One piece on all of ``graph``, with weights drawn from [0.3, 1.3)."""
    lam = np.random.default_rng(seed).random(len(graph.edges)) + 0.3
    return SamplingPiece(graph=graph, lam=lam, kept=tuple(range(len(graph.edges))))


TABLE_PIECES = {
    "rc32-piece": lambda: next(p for p in _law("random-closure", 32, 64, 1, False)[1].pieces if p.graph.n > 2),
    "K5": lambda: _whole_graph_piece(complete_graph(5), 5),
    "K6": lambda: _whole_graph_piece(complete_graph(6), 6),
    "multigraph": lambda: _whole_graph_piece(
        EdgeGraph(n=4, edges=((0, 1), (0, 1), (1, 2), (2, 3), (0, 3), (1, 3), (1, 3))), 4),
    "bundle": lambda: _bundle_law(3).pieces[0],
}


def _exact_law(piece: SamplingPiece) -> tuple[list[tuple[int, ...]], np.ndarray]:
    """The spanning trees of ``piece`` as ``enumerate_spanning_trees`` lists
    them, and each one's probability, its product of lambda over their sum."""
    trees = enumerate_spanning_trees(piece.graph)
    weights = np.array([tree_weight(piece.lam, tree) for tree in trees])
    return trees, weights / weights.sum()


class TestTreeTables:
    """A piece's table lists its spanning trees with their exact probabilities,
    and a law drawn from tables follows the exact law, as one drawn by walks does."""

    @pytest.mark.parametrize("name", TABLE_PIECES)
    def test_a_table_holds_every_tree_with_its_probability(self, name):
        piece = TABLE_PIECES[name]()
        trees, cuts, total = sampler._table(piece)
        want, probs = _exact_law(piece)
        assert trees == want
        assert np.abs(np.diff([0.0, *cuts, total]) / total - probs).max() <= 1e-12

    def test_a_table_counts_the_trees_of_the_matrix_tree_theorem(self):
        # Kirchhoff: a connected multigraph has det L[1:, 1:] spanning trees,
        # L its unit-weight Laplacian; 250 random ones with n <= 7, m <= 14
        rng = np.random.default_rng(2024)
        for _ in range(250):
            n = int(rng.integers(2, 8))
            label = rng.permutation(n)
            edges = [(v, int(rng.integers(v))) for v in range(1, n)]  # a random tree, then any extra pairs
            edges += [tuple(rng.choice(n, 2, replace=False).tolist()) for _ in range(int(rng.integers(16 - n)))]
            edges = [(int(label[a]), int(label[b])) for a, b in rng.permutation(edges).tolist()]
            laplacian = np.zeros((n, n))
            for a, b in edges:
                laplacian[[a, b], [a, b]] += 1
                laplacian[[a, b], [b, a]] -= 1
            piece = SamplingPiece(graph=EdgeGraph(n=n, edges=tuple(edges)), lam=np.ones(len(edges)),
                                  kept=tuple(range(len(edges))))
            assert len(sampler._table(piece)[0]) == round(np.linalg.det(laplacian[1:, 1:])), edges

    @pytest.mark.parametrize("power", [1000, -1000])
    def test_weights_far_from_one_give_the_same_table(self, power):
        # each tree's product of four weights near 2**power overflows or underflows a float
        piece = TABLE_PIECES["K5"]()
        assert sampler._table(replace(piece, lam=piece.lam * 2.0 ** power)) == sampler._table(piece)

    @pytest.mark.parametrize("path", ["table", "walk"])
    @pytest.mark.parametrize("name", ["rc32-piece", "K5"])
    def test_draws_follow_the_exact_law(self, monkeypatch, name, path):
        # chi-square of the piece's tree counts in 20,000 draws, at significance 1e-3
        n_samples = 20_000
        if path == "walk":  # no memo budget: every law draws by walks
            monkeypatch.setattr(sampler, "_MEMO_BYTES", 0)
        piece = TABLE_PIECES[name]()
        if name == "rc32-piece":
            w = replace(_law("random-closure", 32, 64, 1, False)[1])  # its draw built on this budget
            batch = sample_fitted_batch(w, n_samples, seed=31)
            assert (w._sampler.rows is None) == (path == "walk")
        else:
            batch = sample_batch(piece.lam, piece.graph, n_samples, seed=31)
        local = {i: j for j, i in enumerate(piece.kept)}
        trees, probs = _exact_law(piece)
        index = {tree: s for s, tree in enumerate(trees)}
        observed = np.zeros(len(trees))
        for row in batch.edge_indices.tolist():
            observed[index[tuple(sorted(local[i] for i in row if i in local))]] += 1
        expected = probs * n_samples
        assert ((observed - expected) ** 2 / expected).sum() < chi2.ppf(1 - 1e-3, df=len(trees) - 1)


BATCH_LAWS = {
    "rc32": lambda: _law("random-closure", 32, 64, 1, False)[1],
    "euc32": lambda: _law("euclidean", 32, 64, 1, False)[1],
    "bundle": lambda: _bundle_law(2000),
    "K5": lambda: _whole_graph_law(TABLE_PIECES["K5"]()),
    "K6": lambda: _whole_graph_law(TABLE_PIECES["K6"]()),
    "multigraph": lambda: _whole_graph_law(TABLE_PIECES["multigraph"]()),
}


def _path_and_k5_law(n: int) -> LambdaWeights:
    """The forced path 0 - 1 - ... - (n - 5) and one K5 piece on the last five vertices."""
    path = tuple((v, v + 1) for v in range(n - 5))
    k5 = complete_graph(5)
    graph = EdgeGraph(n=n, edges=path + tuple((a + n - 5, b + n - 5) for a, b in k5.edges))
    piece = SamplingPiece(graph=k5, lam=np.arange(1.0, 11.0), kept=tuple(range(len(path), len(graph.edges))))
    return LambdaWeights(graph=graph, fitted_marginals=np.ones(len(graph.edges)), forced=tuple(range(len(path))),
                         sweeps=0, max_ratio=1.0, pieces=(piece,))


class TestBatchDraws:
    """A law with few trees draws a whole batch at once, and each tree of it
    is the tree that the per-tree draw of ``table_batch_reference`` gives on
    the tree's own fresh stream, from exactly one uniform per piece."""

    @pytest.mark.parametrize("name", BATCH_LAWS)
    def test_batches_equal_the_per_tree_draws(self, monkeypatch, name):
        w = replace(BATCH_LAWS[name]())  # its draw built afresh, with no tree rooted
        draw = w._sampler
        assert draw.rows is not None and _rooted(draw) == 0
        # tree s depends on (seed, s) alone, so a batch of t trees is the first t of 128
        want = table_batch_reference(w, 128, range(200))
        for again in (False, True):
            if again:  # every tree of the second pass was rooted in the first: _root is not called
                monkeypatch.setattr(sampler, "_root", None)
            for t in (1, 2, 3, 64, 128):
                for seed, ref in enumerate(want):
                    got = sample_fitted_batch(w, t, seed)
                    for row in ROWS:
                        assert np.array_equal(getattr(got, row), getattr(ref, row)[:t]), (t, seed, row)
            assert 0 < _rooted(draw) <= len(draw.rows)

    def test_threads_that_share_a_law_read_only_whole_rows(self):
        # four threads draw from one law while its row table fills, switching
        # as often as the interpreter allows: each gets the batches drawn alone
        want = [sample_fitted_batch(_path_and_k5_law(200), 8, seed) for seed in range(60)]
        w = _path_and_k5_law(200)
        assert w._sampler.rows is not None and len(w._sampler.rows) == 125
        wrong, finished = [], []

        def work():
            for seed, ref in enumerate(want):
                got = sample_fitted_batch(w, 8, seed)
                wrong.extend(seed for row in ROWS if not np.array_equal(getattr(got, row), getattr(ref, row)))
            finished.append(True)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=work) for _ in range(4)]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads) and len(finished) == 4
        assert wrong == []


@pytest.mark.parametrize("draw", [
    lambda t, seed: sample_batch(np.ones(3), TRIANGLE, t, seed),
    lambda t, seed: sample_fitted_batch(_hand_built_law(), t, seed),
], ids=["sample_batch", "sample_fitted_batch"])
class TestIntegerArguments:
    @pytest.mark.parametrize("t", [True, 2.5, "2", None])
    def test_a_tree_count_that_is_not_an_integer_raises(self, draw, t):
        with pytest.raises(ValueError, match=rf"^t must be an integer, got {t!r}$"):
            draw(t, 0)

    @pytest.mark.parametrize("seed", [True, 1.5, "1", None])
    def test_a_seed_that_is_not_an_integer_raises(self, draw, seed):
        with pytest.raises(ValueError, match=rf"^seed must be an integer, got {seed!r}$"):
            draw(2, seed)

    def test_integral_floats_and_numpy_integers_pass(self, draw):
        want = trees_of(draw(3, 5))
        assert trees_of(draw(3.0, np.int64(5))) == trees_of(draw(np.int32(3), 5.0)) == want
