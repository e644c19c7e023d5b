import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecsm import verify
from kecsm.core import MetricInstance, MultiEdgeSet, global_min_cut
from kecsm.instances import euclidean_instance
from kecsm.lp import solve_lp
from kecsm.pipeline import run_pipeline
from kecsm.verify import (
    TooLargeError,
    brute_force_opt,
    verify_k_connectivity,
)

from oracles import (
    approx_factor,
    bs_stats,
    chernoff_tail,
    exhaustive_min_cut,
    exhaustive_opt,
    global_min_cut_reference,
    multiset_from_pairs,
)


def _crossing(m: MultiEdgeSet, side) -> int:
    return sum(mult for (u, v), mult in m.multiplicity.items() if (u in side) != (v in side))


def _clique(vertices, mult: int) -> dict:
    return {(u, v): mult for i, u in enumerate(vertices) for v in vertices[i + 1:]}


class TestVerifyConnectivity:
    def test_triangle_passes_k2(self):
        m = MultiEdgeSet({(0, 1): 1, (0, 2): 1, (1, 2): 1})
        cert = verify_k_connectivity(m, 3, 2)
        assert cert.passes and cert.min_cut_value == 2

    def test_triangle_fails_k3(self):
        m = MultiEdgeSet({(0, 1): 1, (0, 2): 1, (1, 2): 1})
        cert = verify_k_connectivity(m, 3, 3)
        assert not cert.passes and cert.min_cut_value == 2

    def test_parallel_copies(self):
        cert = verify_k_connectivity(MultiEdgeSet({(0, 1): 5}), 2, 5)
        assert cert.passes and cert.min_cut_value == 5

    def test_missing_vertex_fails_with_zero(self):
        cert = verify_k_connectivity(MultiEdgeSet({(0, 1): 3}), 3, 2)
        assert not cert.passes and cert.min_cut_value == 0

    def test_witness_consistent(self):
        m = MultiEdgeSet({(0, 1): 2, (1, 2): 1, (0, 2): 1, (2, 3): 1, (0, 3): 1})
        cert = verify_k_connectivity(m, 4, 2)
        assert type(cert.witness) is frozenset and 0 in cert.witness
        crossing = sum(
            mult for (u, v), mult in m.multiplicity.items()
            if (u in cert.witness) != (v in cert.witness)
        )
        assert crossing == cert.min_cut_value

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_exhaustive_enumeration(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(3, 10))
        mult = {}
        for u in range(n):
            for v in range(u + 1, n):
                m = int(rng.integers(0, 4))
                if m:
                    mult[(u, v)] = m
        ms = MultiEdgeSet(mult)
        cert = verify_k_connectivity(ms, n, 2)
        assert cert.min_cut_value == exhaustive_min_cut(
            {e: float(m) for e, m in ms.multiplicity.items()}, n
        )


    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_relabelling_keeps_the_certificate(self, data):
        n = data.draw(st.integers(2, 10), label="n")
        vertex = st.integers(0, n - 1)
        rows = data.draw(st.lists(st.tuples(vertex, vertex, st.integers(1, 4))
                                  .filter(lambda r: r[0] != r[1]), max_size=30), label="edges")
        perm = data.draw(st.permutations(range(n)), label="perm")
        k = data.draw(st.integers(1, 8), label="k")
        ms = multiset_from_pairs((u, v) for u, v, m in rows for _ in range(m))
        moved = MultiEdgeSet({(perm[u], perm[v]): m for (u, v), m in ms.multiplicity.items()})

        def cut(mult, side):
            return sum(m for (u, v), m in mult.multiplicity.items() if (u in side) != (v in side))

        cert, cert_moved = verify_k_connectivity(ms, n, k), verify_k_connectivity(moved, n, k)
        assert cert_moved.min_cut_value == cert.min_cut_value
        assert cert_moved.passes == cert.passes
        assert cut(moved, {perm[v] for v in cert.witness}) == cert.min_cut_value
        assert cut(moved, cert_moved.witness) == cert.min_cut_value

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_raise(self, n):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            verify_k_connectivity(MultiEdgeSet({}), n, 2)

    @pytest.mark.parametrize("mult, edge", [
        ({(-1, 2): 3, (0, 1): 3, (1, 2): 3}, "(-1, 2)"),  # -1 would wrap around to vertex 2
        ({(0, 1): 3, (1, 5): 3}, "(1, 5)"),
    ])
    def test_out_of_range_endpoints_raise_naming_the_edge(self, mult, edge):
        with pytest.raises(ValueError, match=rf"^edge {re.escape(edge)} has an endpoint outside 0\.\.2$"):
            verify_k_connectivity(MultiEdgeSet(mult), 3, 2)


class TestShrink:
    """The certificate contracts edges before its one min cut; the sizes that
    min cut sees show which contraction test did the work."""

    @staticmethod
    def certify(monkeypatch, mult: dict, n: int):
        sizes = []

        def recorded(weights, r):
            sizes.append(r)
            return global_min_cut(weights, r)

        monkeypatch.setattr(verify, "global_min_cut", recorded)
        m = MultiEdgeSet(mult)
        cert = verify_k_connectivity(m, n, 3)
        assert 0 in cert.witness and _crossing(m, cert.witness) == cert.min_cut_value
        return cert, sizes

    def test_heavy_edges_start_the_shrink(self, monkeypatch):
        # three K4 blobs of 3 copies per edge, joined in a triangle and to
        # vertex 0 by single copies: 2 w < d on every edge, so only the heavy
        # edge test (w >= 3, the degree of vertex 0) applies at the start
        mult = {(0, 1): 1, (0, 5): 1, (0, 9): 1, (2, 6): 1, (7, 10): 1, (11, 3): 1}
        for blob in ([1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]):
            mult.update(_clique(blob, 3))
        cert, sizes = self.certify(monkeypatch, mult, 13)
        assert sizes == [4] and cert.min_cut_value == 3 and cert.passes

    def test_dominant_edges_alone_shrink(self, monkeypatch):
        # vertex 5 (degree 5) hangs on a K5 of 2 copies per edge: 2 w(0, 5) >= d(5),
        # while no edge ever carries the 5 copies the heavy edge test needs
        mult = {**_clique([0, 1, 2, 3, 4], 2), (0, 5): 3, (1, 5): 2}
        cert, sizes = self.certify(monkeypatch, mult, 6)
        assert sizes == [5] and cert.min_cut_value == 5
        assert cert.witness == frozenset(range(5))

    def test_shrinks_to_two_supervertices(self, monkeypatch):
        # 2 w(0, 1) >= d(1) merges 0 and 1 into a supervertex of degree 3;
        # only then is every edge of the K5 of 3 copies heavy, far from that
        # merge, and the min cut is never called
        mult = {(0, 1): 3, (0, 2): 1, (1, 3): 1, (1, 4): 1, **_clique([2, 3, 4, 5, 6], 3)}
        cert, sizes = self.certify(monkeypatch, mult, 7)
        assert sizes == [] and cert.min_cut_value == 3 and cert.passes
        assert cert.witness == frozenset({0, 1})

    def test_isolated_vertex_reads_zero(self, monkeypatch):
        cert, sizes = self.certify(monkeypatch, {(0, 1): 3, (1, 2): 3, (0, 2): 3}, 4)
        assert sizes == [] and cert.min_cut_value == 0 and not cert.passes

    @given(data=st.data())
    @settings(max_examples=150, deadline=None)
    def test_value_matches_the_references(self, data):
        # disconnected multigraphs and isolated vertices included
        n = data.draw(st.integers(2, 12), label="n")
        vertex = st.integers(0, n - 1)
        rows = data.draw(st.lists(st.tuples(vertex, vertex, st.integers(0, 6))
                                  .filter(lambda r: r[0] != r[1]), max_size=n * n // 2), label="edges")
        m = multiset_from_pairs((u, v) for u, v, mult in rows for _ in range(mult))
        cert = verify_k_connectivity(m, n, 4)
        weights = {e: float(mult) for e, mult in m.multiplicity.items()}
        assert cert.min_cut_value == global_min_cut_reference(weights, n)[0] == exhaustive_min_cut(weights, n)
        assert 0 in cert.witness and _crossing(m, cert.witness) == cert.min_cut_value
        assert cert.passes == (cert.min_cut_value >= 4)


class TestBruteForceOpt:
    def test_triangle_k2(self, triangle_unit):
        cost, sol = brute_force_opt(triangle_unit)
        assert cost == pytest.approx(3.0)
        assert sol.multiplicity == {(0, 1): 1, (0, 2): 1, (1, 2): 1}

    def test_two_vertices_forced(self):
        inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=3)
        cost, sol = brute_force_opt(inst)
        assert cost == pytest.approx(15.0)
        assert sol.multiplicity == {(0, 1): 3}

    def test_triangle_k3_against_plain_enumeration(self):
        inst = MetricInstance(n=3, cost=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], k=3)
        cost, _ = brute_force_opt(inst)
        assert cost == pytest.approx(exhaustive_opt(inst, cap=3))
        assert cost == pytest.approx(5.0)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_multiplicity_cap_is_harmless(self, k):
        # a plain search up to 2k per edge finds nothing better than the k cap
        rng = np.random.default_rng(k)
        raw = rng.random((3, 3)) * 2
        cost_m = (raw + raw.T) / 2
        np.fill_diagonal(cost_m, 0.0)
        from kecsm.core import metric_closure

        inst = metric_closure(3, cost_m, k=k)
        capped, _ = brute_force_opt(inst)
        assert capped == pytest.approx(exhaustive_opt(inst, cap=2 * k))

    def test_lp_lower_bounds_opt(self):
        for seed in range(4):
            inst = euclidean_instance(4, 3, seed=seed)
            frac, _ = solve_lp(inst)
            opt_cost, _ = brute_force_opt(inst)
            assert frac.objective <= opt_cost + 1e-9

    def test_opt_lower_bounds_pipeline(self):
        inst = euclidean_instance(4, 2, seed=1)
        opt_cost, _ = brute_force_opt(inst)
        for seed in range(5):
            result = run_pipeline(inst, seed=seed)
            assert opt_cost <= result.rounding.total_cost + 1e-9

    def test_solution_is_feasible(self):
        inst = euclidean_instance(5, 4, seed=9)
        cost, sol = brute_force_opt(inst)
        assert verify_k_connectivity(sol, inst.n, inst.k).passes
        assert sol.total_cost(inst.cost) == pytest.approx(cost)

    def test_too_large_rejected(self):
        with pytest.raises(TooLargeError):
            brute_force_opt(euclidean_instance(6, 2, seed=0))
        with pytest.raises(TooLargeError):
            brute_force_opt(euclidean_instance(4, 8, seed=0))


class TestChernoffTail:
    def test_small_epsilon_near_one(self):
        assert chernoff_tail(5.0, 1e-9) == pytest.approx(1.0)

    def test_direct_formula(self):
        assert chernoff_tail(2.0, 1.0) == pytest.approx(math.exp(-1.0))

    def test_augmentation_instantiation(self):
        # q' = k/2 - 1 and eps = alpha/sqrt(k/2-1) collapse to exp(-alpha^2/2)
        k = 16
        alpha = math.sqrt(math.log(k / 2))
        qp = k / 2 - 1
        eps = alpha / math.sqrt(k / 2 - 1)
        assert chernoff_tail(qp, eps) == pytest.approx(math.exp(-alpha * alpha / 2))

    def test_domain_errors(self):
        with pytest.raises(ValueError):
            chernoff_tail(0.0, 0.5)
        with pytest.raises(ValueError):
            chernoff_tail(1.0, 1.5)
        with pytest.raises(ValueError):
            chernoff_tail(1.0, 0.0)


class TestApproxFactor:
    def test_headline_crosses_three_halves_at_164(self):
        assert approx_factor(164).headline < 1.5
        assert approx_factor(163).headline >= 1.5

    def test_precise_beats_three_halves_at_66(self):
        assert approx_factor(66).precise < 1.5
        assert approx_factor(64).precise >= 1.5

    def test_headline_decreasing_and_to_one(self):
        grid = [8, 16, 64, 256, 1024, 10_000, 100_000, 1_000_000]
        values = [approx_factor(k).headline for k in grid]
        assert all(a > b for a, b in zip(values, values[1:]))
        ks = np.unique(np.geomspace(8, 1_000_000, 200).astype(int))
        factors = [approx_factor(int(k)).headline for k in ks]
        assert all(a >= b - 1e-12 for a, b in zip(factors, factors[1:]))
        assert approx_factor(1_000_000).headline == pytest.approx(1.0, abs=1.1e-2)

    def test_precise_uses_default_alpha(self):
        f = approx_factor(32)
        alpha = math.sqrt(math.log(16))
        expected = 1 + alpha / math.sqrt(16) + math.exp(-alpha ** 2 / 2)
        assert f.precise == pytest.approx(expected)
        assert f.alpha == pytest.approx(alpha)


class TestBsStats:
    def test_constant_samples(self):
        s = bs_stats([3, 3, 3, 3])
        assert s.mean == 3.0 and s.variance == 0.0

    def test_balanced_bernoulli(self):
        s = bs_stats([0, 1] * 500)
        assert s.mean == pytest.approx(0.5)
        assert s.variance == pytest.approx(0.25, abs=1e-3)
        assert s.variance <= s.mean

    def test_needs_two_samples(self):
        with pytest.raises(ValueError):
            bs_stats([1])

    def test_cut_counts_on_k4_are_underdispersed(self):
        from oracles import complete_graph, enumerated_marginals, sample_batch, trees_of

        g = complete_graph(4)
        rng = np.random.default_rng(14)
        lam = rng.random(6) + 0.5
        side = {0, 2}
        crossing = [i for i, (u, v) in enumerate(g.edges) if (u in side) != (v in side)]
        expected_mean = float(enumerated_marginals(lam, g)[crossing].sum())
        counts = []
        for tree in trees_of(sample_batch(lam, g, 8000, seed=31)):
            counts.append(sum(1 for i in tree.edge_indices if i in crossing))
        s = bs_stats(counts)
        assert s.mean == pytest.approx(expected_mean, abs=4 * math.sqrt(s.variance / s.count))
        assert s.variance <= s.mean + 3 * s.slack_stderr
