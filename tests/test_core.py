import math
import random
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecsm.core import (
    MetricInstance,
    MultiEdgeSet,
    NotConnectedError,
    global_min_cut,
    make_edge,
    metric_closure,
    min_spanning_tree,
    shrink_min_cut,
    spanning_forest,
    validate_metric,
)

from oracles import (
    CutSpec,
    cut_size,
    exhaustive_min_cut,
    global_min_cut_reference,
    multiset_from_pairs,
    multiset_size,
    validate_metric_reference,
)

INF = float("inf")

# Weight families for the exact min-cut comparison: integers, halves,
# floats one ulp or up to 1e-15 off one base value, weights so small that
# a connection is near no connection at all, and arbitrary floats, whose
# sums depend on the order of the additions.
_TIE_OFFSETS = (-1e-15, -5e-16, 0.0, 5e-16, 1e-15)
_WEIGHT_FAMILIES = {
    "integer": lambda rng, base: float(rng.randint(0, 4)),
    "half": lambda rng, base: rng.randint(0, 8) / 2,
    "near-tie": lambda rng, base: (math.nextafter(base, rng.choice((0.0, 3.0))) if rng.random() < 0.3
                                   else base + rng.choice(_TIE_OFFSETS)),
    "float": lambda rng, base: rng.uniform(0.0, 4.0),
    "tiny": lambda rng, base: rng.choice((1e-16, 5e-16, 2e-15)),
}


@st.composite
def _min_cut_inputs(draw):
    """(weights, n) over ordered pairs, so both orientations of a pair can be
    separate keys, with one weight family per graph and zeros mixed in.
    About half the graphs lose every edge across a vertex split point."""
    n = draw(st.integers(2, 12))
    weight = _WEIGHT_FAMILIES[draw(st.sampled_from(sorted(_WEIGHT_FAMILIES)))]
    base = draw(st.sampled_from((0.1, 0.2, 1 / 3, 0.7, 1.0, 1.5, 2.0)))
    density = draw(st.sampled_from((0.2, 0.5, 0.9)))
    split = draw(st.integers(1, 2 * n - 1))  # >= n keeps the graph whole
    rng = random.Random(draw(st.integers(0, 2**32 - 1)))
    weights = {}
    for u in range(n):
        for v in range(n):
            if u != v and rng.random() < density and (u < split) == (v < split):
                weights[(u, v)] = 0.0 if rng.random() < 0.1 else weight(rng, base)
    return weights, n


@st.composite
def _near_metrics(draw):
    """Euclidean costs with up to six entries moved: on the diagonal, on one
    side of a pair only, below zero, or by amounts around the tolerance."""
    n = draw(st.integers(2, 9))
    points = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, 2)) * 10
    cost = np.sqrt(((points[:, None, :] - points[None, :, :]) ** 2).sum(axis=-1))
    for _ in range(draw(st.integers(0, 6))):
        u, v = draw(st.integers(0, n - 1)), draw(st.integers(0, n - 1))
        cost[u, v] += draw(st.sampled_from((-30.0, -1e-9, 2e-9, 1e-3)) | st.floats(-12.0, 12.0))
        if draw(st.booleans()):
            cost[v, u] = cost[u, v]
    return MetricInstance(n=n, cost=cost, k=2)


class TestValidateMetric:
    @given(_near_metrics())
    @settings(max_examples=300, deadline=None)
    def test_matches_the_loop_reference(self, inst):
        found = validate_metric(inst)
        assert found == validate_metric_reference(inst)
        assert [str(v) for v in found] == [str(v) for v in validate_metric_reference(inst)]

    def test_equilateral_triangle_is_clean(self, triangle_unit):
        assert validate_metric(triangle_unit) == []

    @pytest.mark.parametrize("bad", [float("nan"), INF, -INF])
    def test_non_finite_cost_rejected(self, bad):
        with pytest.raises(ValueError, match="finite"):
            MetricInstance(n=3, cost=[[0, 1, bad], [1, 0, 1], [bad, 1, 0]], k=2)

    def test_costs_whose_sums_overflow_are_rejected(self):
        # 18 = n^2 k times the largest cost must stay finite; 18 * 1e307 is not
        with pytest.raises(ValueError, match="too large"):
            MetricInstance(n=3, cost=1e307 * (1 - np.eye(3)), k=2)
        with pytest.raises(ValueError, match="too large"):
            metric_closure(3, 1e307 * (1 - np.eye(3)), 2)
        assert MetricInstance(n=3, cost=9e306 * (1 - np.eye(3)), k=2).cost.max() == 9e306

    @pytest.mark.parametrize("top", [0.0, 1.0])
    def test_k_too_large_for_a_float_is_rejected(self, top):
        # a ValueError, not the OverflowError of converting n^2 k to a float
        with pytest.raises(ValueError, match="k is too large for a float"):
            MetricInstance(n=3, cost=top * (1 - np.eye(3)), k=10**400)
        with pytest.raises(ValueError, match="k is too large for a float"):
            metric_closure(3, top * (1 - np.eye(3)), 10**400)

    def test_a_malformed_cost_matrix_is_rejected(self):
        with pytest.raises(ValueError, match=r"^cost matrix must be 3x3, got \(2, 2\)$"):
            MetricInstance(n=3, cost=[[0, 1], [1, 0]], k=2)
        with pytest.raises(ValueError, match=r"^raw cost matrix must be 3x3, got \(2, 2\)$"):
            metric_closure(3, [[0, 1], [1, 0]], 2)
        with pytest.raises(ValueError, match="^raw cost matrix must be symmetric$"):
            metric_closure(2, [[0, 1], [2, 0]], 2)
        with pytest.raises(ValueError, match="^raw cost matrix must have a zero diagonal$"):
            metric_closure(2, [[1, 1], [1, 0]], 2)

    @pytest.mark.parametrize("k", [2.5, True, "4", float("nan")])
    def test_non_integer_k_rejected(self, k):
        with pytest.raises(ValueError, match=re.escape(f"k must be an integer, got {k!r}")):
            MetricInstance(n=3, cost=1 - np.eye(3), k=k)

    @pytest.mark.parametrize("k", [4.0, np.int64(4)])
    def test_integral_k_is_stored_as_int(self, k):
        inst = MetricInstance(n=np.int32(3), cost=1 - np.eye(3), k=k)
        assert type(inst.k) is int and inst.k == 4 and type(inst.n) is int

    def test_single_triangle_violation(self):
        inst = MetricInstance(n=3, cost=[[0, 1, 5], [1, 0, 1], [5, 1, 0]], k=2)
        violations = validate_metric(inst)
        assert len(violations) == 1
        v = violations[0]
        assert v.kind == "triangle"
        assert v.vertices == (0, 1, 2)
        assert v.amount == pytest.approx(3.0)

    def test_two_vertices_have_no_triples(self):
        inst = MetricInstance(n=2, cost=[[0, 7], [7, 0]], k=2)
        assert validate_metric(inst) == []

    def test_asymmetry_and_diagonal_reported(self):
        inst = MetricInstance(n=2, cost=[[0.5, 1], [2, 0]], k=2)
        kinds = {v.kind for v in validate_metric(inst)}
        assert "symmetry" in kinds
        assert "diagonal" in kinds

    def test_negative_cost_reported(self):
        inst = MetricInstance(n=2, cost=[[0, -1], [-1, 0]], k=2)
        assert any(v.kind == "negative" for v in validate_metric(inst))


class TestMetricClosure:
    def test_path_shortcut(self):
        raw = [[0, 1, INF], [1, 0, 1], [INF, 1, 0]]
        inst = metric_closure(3, raw, k=2)
        assert inst.cost[0, 2] == pytest.approx(2.0)
        assert validate_metric(inst) == []

    def test_idempotent_on_metrics(self, triangle_unit):
        closed = metric_closure(3, triangle_unit.cost, k=2)
        assert np.allclose(closed.cost, triangle_unit.cost)

    def test_four_cycle_chords_close_to_two(self):
        # hand Floyd-Warshall: chords (0,2) and (1,3) go around two unit edges
        raw = np.full((4, 4), INF)
        np.fill_diagonal(raw, 0.0)
        for u, v in [(0, 1), (1, 2), (2, 3), (0, 3)]:
            raw[u, v] = raw[v, u] = 1.0
        inst = metric_closure(4, raw, k=2)
        assert inst.cost[0, 2] == pytest.approx(2.0)
        assert inst.cost[1, 3] == pytest.approx(2.0)
        assert validate_metric(inst) == []

    def test_disconnected_raises(self):
        raw = [[0, INF], [INF, 0]]
        with pytest.raises(NotConnectedError, match="not connected"):
            metric_closure(2, raw, k=2)

    def test_negative_raw_rejected(self):
        with pytest.raises(ValueError):
            metric_closure(2, [[0, -3], [-3, 0]], k=2)

    def test_minus_infinity_raw_rejected(self):
        # -inf once reached Floyd-Warshall and was reported as "not connected"
        with pytest.raises(ValueError, match="^raw costs must be nonnegative$"):
            metric_closure(3, [[0, -INF, 1], [-INF, 0, 1], [1, 1, 0]], k=2)

    def test_nan_raw_rejected(self):
        with pytest.raises(ValueError, match="NaN"):
            metric_closure(3, [[0, 1, 2], [1, 0, float("nan")], [2, float("nan"), 0]], k=2)

    @given(seed=st.integers(0, 10_000), n=st.integers(3, 7))
    @settings(max_examples=40, deadline=None)
    def test_closure_always_metric(self, seed, n):
        rng = np.random.default_rng(seed)
        raw = rng.random((n, n)) * 10
        raw = (raw + raw.T) / 2
        np.fill_diagonal(raw, 0.0)
        inst = metric_closure(n, raw, k=2)
        assert validate_metric(inst) == []
        assert np.all(inst.cost <= raw + 1e-12)


class TestCutSize:
    def test_triangle_singleton(self):
        m = MultiEdgeSet({(0, 1): 1, (0, 2): 1, (1, 2): 1})
        assert cut_size(m, CutSpec(side=frozenset({0}), n=3)) == 2

    def test_empty_multiset(self):
        assert cut_size(MultiEdgeSet(), CutSpec(side=frozenset({0}), n=3)) == 0

    def test_multiplicities_add(self):
        m = MultiEdgeSet({(0, 1): 2, (0, 2): 2, (1, 2): 1})
        assert cut_size(m, CutSpec(side=frozenset({0}), n=3)) == 4

    @given(st.integers(0, 500))
    @settings(max_examples=30, deadline=None)
    def test_union_additivity(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 7))
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)]
        a = MultiEdgeSet({e: int(rng.integers(0, 4)) for e in edges})
        b = MultiEdgeSet({e: int(rng.integers(0, 4)) for e in edges})
        side = frozenset({0} | {v for v in range(1, n) if rng.random() < 0.5})
        if len(side) == n:
            side = frozenset({0})
        s = CutSpec(side=side, n=n)
        assert cut_size(a.union(b), s) == cut_size(a, s) + cut_size(b, s)
        assert multiset_size(a.union(b)) == multiset_size(a) + multiset_size(b)


class TestSpanningForest:
    def test_chosen_positions_and_labels(self):
        # (2, 0) closes a cycle and (4, 3) repeats an edge; vertex 5 is isolated
        chosen, labels = spanning_forest(6, [(1, 2), (0, 1), (2, 0), (3, 4), (4, 3)])
        assert chosen == [0, 1, 3]
        assert labels == [0, 0, 0, 1, 1, 2]

    def test_stops_after_n_minus_one_edges(self):
        # the out-of-range pair after the spanning edge is never read
        assert spanning_forest(2, [(0, 1), (0, 1), (0, 7)]) == ([0], [0, 0])

    def test_mst_ties_go_to_the_smallest_index(self):
        assert min_spanning_tree(3, [(0, 1), (1, 2), (0, 2)], [1.0, 1.0, 1.0]) == [0, 1]
        assert min_spanning_tree(3, [(0, 1), (1, 2), (0, 2)], [2.0, 1.0, 1.0]) == [1, 2]

    def test_mst_of_a_disconnected_graph_raises(self):
        with pytest.raises(NotConnectedError):
            min_spanning_tree(4, [(0, 1), (2, 3), (0, 1)], [1.0, 1.0, 0.5])

    def test_instance_mst_all_ties_is_lexicographic(self, k4_unit):
        tree = k4_unit.mst()
        assert list(tree.multiplicity.items()) == [((0, 1), 1), ((0, 2), 1), ((0, 3), 1)]


class TestMultiEdgeSet:
    def test_canonicalizes_and_drops_zeros(self):
        m = MultiEdgeSet({(2, 1): 3, (0, 1): 0})
        assert m.multiplicity == {(1, 2): 3}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            MultiEdgeSet({(0, 1): -1})

    @pytest.mark.parametrize("bad", [2.7, 0.5, "3", True, INF, float("nan")])
    def test_rejects_a_non_integer_multiplicity(self, bad):
        with pytest.raises(ValueError, match=re.escape(f"edge (0, 1) with multiplicity {bad!r}")):
            MultiEdgeSet({(0, 1): bad})

    @pytest.mark.parametrize("edge", [(1.5, 2), ("a", "b"), (0, True), (1, 2, 3)])
    def test_rejects_a_non_integer_endpoint(self, edge):
        with pytest.raises(ValueError, match=re.escape(f"edge {edge!r} with multiplicity 1")):
            MultiEdgeSet({edge: 1})

    def test_integral_floats_and_numpy_integers_pass(self):
        m = MultiEdgeSet({(np.int64(2), 1.0): np.int32(3), (0, 1): 2.0})
        assert m.multiplicity == {(1, 2): 3, (0, 1): 2}
        assert all(type(x) is int for e, c in m.multiplicity.items() for x in (*e, c))

    def test_from_pairs_counts(self):
        m = multiset_from_pairs([(0, 1), (1, 0), (1, 2)])
        assert m.multiplicity == {(0, 1): 2, (1, 2): 1}

    def test_total_cost(self, triangle_unit):
        m = MultiEdgeSet({(0, 1): 2, (1, 2): 1})
        assert m.total_cost(triangle_unit.cost) == pytest.approx(3.0)


class TestEdgesAndCuts:
    def test_make_edge_orders(self):
        assert make_edge(3, 1) == (1, 3)

    def test_make_edge_rejects_loop(self):
        with pytest.raises(ValueError):
            make_edge(2, 2)

    def test_cutspec_rejects_improper(self):
        with pytest.raises(ValueError):
            CutSpec(side=frozenset(), n=3)
        with pytest.raises(ValueError):
            CutSpec(side=frozenset({0, 1, 2}), n=3)


def _oriented(side, n: int) -> frozenset[int]:
    """The side of a cut of n vertices that holds vertex 0."""
    side = frozenset(side)
    return side if 0 in side else frozenset(range(n)) - side


class TestGlobalMinCut:
    def test_triangle(self):
        value, side = global_min_cut({(0, 1): 1, (0, 2): 1, (1, 2): 1}, 3)
        assert value == pytest.approx(2.0)

    def test_two_vertices(self):
        value, side = global_min_cut({(0, 1): 7.0}, 2)
        assert value == pytest.approx(7.0)
        assert _oriented(side, 2) == frozenset({0})

    def test_k4_equals_exhaustive(self):
        weights = {(u, v): 1.0 for u in range(4) for v in range(u + 1, 4)}
        value, _ = global_min_cut(weights, 4)
        assert value == pytest.approx(exhaustive_min_cut(weights, 4))
        assert value == pytest.approx(3.0)

    def test_disconnected_returns_zero(self):
        value, side = global_min_cut({(0, 1): 2.0, (2, 3): 5.0}, 4)
        assert value == pytest.approx(0.0)
        cut_weight = sum(
            w for (u, v), w in {(0, 1): 2.0, (2, 3): 5.0}.items()
            if (u in side) != (v in side)
        )
        assert cut_weight == pytest.approx(0.0)

    def test_witness_matches_value(self):
        # the side comes back unoriented: it and its complement carry the value
        rng = np.random.default_rng(7)
        weights = {(u, v): float(rng.integers(0, 5)) for u in range(6) for v in range(u + 1, 6)}
        value, side = global_min_cut(weights, 6)
        for s in (set(side), set(range(6)) - set(side)):
            assert 0 < len(s) < 6
            cut_weight = sum(w for (u, v), w in weights.items() if (u in s) != (v in s))
            assert cut_weight == pytest.approx(value)

    @given(seed=st.integers(0, 10_000), n=st.integers(2, 10))
    @settings(max_examples=60, deadline=None)
    def test_matches_exhaustive_enumeration(self, seed, n):
        rng = np.random.default_rng(seed)
        weights = {}
        for u in range(n):
            for v in range(u + 1, n):
                if rng.random() < 0.7:
                    weights[(u, v)] = float(rng.random() * 3)
        value, side = global_min_cut(weights, n)
        assert value == pytest.approx(exhaustive_min_cut(weights, n), abs=1e-9)
        cut_weight = sum(w for (u, v), w in weights.items() if (u in side) != (v in side))
        assert cut_weight == pytest.approx(value, abs=1e-9)

    @given(_min_cut_inputs())
    @settings(max_examples=400, deadline=None)
    def test_matches_the_reference_exactly(self, case):
        weights, n = case
        value, side = global_min_cut(weights, n)
        ref_value, ref_spec = global_min_cut_reference(weights, n)
        assert value == ref_value
        assert _oriented(side, n) == ref_spec.side

    def test_a_free_vertex_at_zero_can_lead_on_tiny_weights(self):
        # vertex 2 is isolated; in the first phase vertex 3 at 5e-16 beats its
        # connection 0, so 2 comes last and its cut of value 0 is a phase cut
        weights = {(0, 1): 2e-15, (0, 3): 5e-16}
        value, side = global_min_cut(weights, 4)
        ref_value, ref_spec = global_min_cut_reference(weights, 4)
        assert (value, _oriented(side, 4)) == (ref_value, ref_spec.side) == (0.0, frozenset({0, 1, 3}))

    def test_two_components_of_tiny_weights_cut_at_zero(self):
        # two K4s at 1e-16: a connection of 1e-16 beats none, so every phase
        # order finishes one component before it enters the other
        weights = {(b + u, b + v): 1e-16 for b in (0, 4) for u in range(4) for v in range(u + 1, 4)}
        value, side = global_min_cut(weights, 8)
        ref_value, ref_spec = global_min_cut_reference(weights, 8)
        assert (value, _oriented(side, 8)) == (ref_value, ref_spec.side) == (0.0, frozenset(range(4)))

    def test_matches_the_reference_on_solver_inputs(self, monkeypatch):
        # every separation of the LP on the benchmark's cold-solve and
        # small-k cells, at n = 32 to 48: its value against the reference on
        # the unshrunk support, and the min cuts it runs on the shrunk
        # supports; and the certificates of three roundings on each small-k
        # cell: the min cuts they run on their shrunk multigraphs, and their
        # values against the reference on the whole multigraph
        from kecsm import lp, pipeline, verify
        from kecsm.instances import euclidean_instance, random_closure_instance
        from kecsm.pipeline import prepare, round_prepared

        calls, lp_sizes, separations, certificates = [], [], [], []
        violated_cuts = lp.violated_cuts

        def recorded(weights, n):
            calls.append((weights, n, global_min_cut(weights, n)))
            return calls[-1][2]

        def separation_min_cut(weights, n):
            lp_sizes.append(n)
            return recorded(weights, n)

        def separated(x, k, n):
            sides, value = violated_cuts(x, k, n)
            separations.append((x, n, value))
            return sides, value

        def certified(m, n, k):
            certificates.append((m, n, verify.verify_k_connectivity(m, n, k)))
            return certificates[-1][2]

        monkeypatch.setattr(lp, "global_min_cut", separation_min_cut)
        monkeypatch.setattr(lp, "violated_cuts", separated)
        monkeypatch.setattr(verify, "global_min_cut", recorded)
        monkeypatch.setattr(pipeline, "verify_k_connectivity", certified)
        cells = [(euclidean_instance, 32, 8), (random_closure_instance, 32, 8),
                 (euclidean_instance, 48, 8), (random_closure_instance, 48, 8),
                 (random_closure_instance, 48, 4), (random_closure_instance, 48, 6),
                 (euclidean_instance, 40, 4), (euclidean_instance, 40, 6)]
        for family, n, k in cells:
            for instance_seed in (1, 2):
                prep = prepare(family(n, k, instance_seed))
                for seed in range(3 if k < 8 else 0):
                    round_prepared(prep, seed)
        assert {n for _, n, _ in separations} == {32, 40, 48} and len(separations) > 40
        for x, n, value in separations:
            ref_value, _ = global_min_cut_reference(x, n)
            assert abs(value - ref_value) <= 1e-9 * max(1.0, sum(x.values()))
        assert lp_sizes and max(lp_sizes) < 32  # separation runs it on shrunk supports
        assert len(calls) > len(lp_sizes)  # the certificates' shrunk min cuts are checked too
        for weights, n, (value, side) in calls:
            ref_value, ref_spec = global_min_cut_reference(weights, n)
            assert value == ref_value
            assert _oriented(side, n) == ref_spec.side
        assert len(certificates) == 24
        for m, n, cert in certificates:
            ref_value, _ = global_min_cut_reference({e: float(w) for e, w in m.multiplicity.items()}, n)
            assert cert.min_cut_value == ref_value

    def test_matches_the_reference_on_large_shrunk_graphs(self, monkeypatch):
        # the certificates of roundings at n = 128 leave 43 supervertices,
        # about twice the most that the benchmark cells leave
        from kecsm import verify
        from kecsm.instances import random_closure_instance
        from kecsm.pipeline import prepare, round_prepared

        calls = []

        def recorded(weights, n):
            calls.append((weights, n, global_min_cut(weights, n)))
            return calls[-1][2]

        monkeypatch.setattr(verify, "global_min_cut", recorded)
        prep = prepare(random_closure_instance(128, 8, 1))
        for seed in range(3):
            round_prepared(prep, seed)
        assert len(calls) == 3 and all(n > 40 for _, n, _ in calls)
        for weights, n, (value, side) in calls:
            ref_value, ref_spec = global_min_cut_reference(weights, n)
            assert value == ref_value
            assert _oriented(side, n) == ref_spec.side

    @pytest.mark.parametrize("weights", [
        {(0, 1): 1.0, (2, 2): 1.0, (1, 2): -1.0},
        {(0, 1): 1.0, (2, 1): -0.5, (2, 2): 1.0},
    ])
    def test_bad_weights_raise_the_reference_message(self, weights):
        with pytest.raises(ValueError) as expected:
            global_min_cut_reference(weights, 3)
        with pytest.raises(ValueError, match=f"^{re.escape(str(expected.value))}$"):
            global_min_cut(weights, 3)

    @pytest.mark.parametrize("weights, edge", [
        ({(-1, 2): 3, (0, 1): 3, (1, 2): 3}, "(-1, 2)"),  # -1 would wrap around to vertex 2
        ({(0, 1): 3, (1, 5): 3}, "(1, 5)"),
    ])
    def test_out_of_range_endpoints_raise_naming_the_edge(self, weights, edge):
        with pytest.raises(ValueError, match=rf"^edge {re.escape(edge)} has an endpoint outside 0\.\.2$"):
            global_min_cut(weights, 3)

    @pytest.mark.parametrize("nan", [float("nan"), np.float64("nan")])
    def test_nan_weight_raises_naming_the_edge(self, nan):
        with pytest.raises(ValueError, match=r"^NaN weight on edge \(0, 1\)$"):
            global_min_cut({(0, 1): nan, (1, 2): 1.0, (0, 2): 1.0}, 3)

    @pytest.mark.parametrize("n", [0, 1])
    def test_fewer_than_two_vertices_raise(self, n):
        with pytest.raises(ValueError, match="at least 2 vertices"):
            global_min_cut({}, n)


class TestShrinkMinCut:
    """The one shrink on float weights, as the LP separation runs it."""

    def test_only_the_lightest_vertex_is_recorded_before_a_merge(self):
        # vertices 2 and 3 both carry 0; vertex 3 meets only a zero weight,
        # which never merges, so no merge records it either
        cuts, _, members = shrink_min_cut({(0, 1): 1.0, (1, 3): 0.0}, 4)
        assert cuts[0] == (0, [2]) and all(side != [3] for _, side in cuts)
        assert sorted(map(sorted, members)) == [[0, 1], [2], [3]]

    @given(case=_min_cut_inputs(), isolated=st.integers(0, 2),
           gap=st.sampled_from((-0.5, -1e-6, 0.0, 1.5e-7, 3e-7, 1e-6, 0.5)))
    @settings(max_examples=250, deadline=None)
    def test_matches_the_reference_and_separates(self, case, isolated, gap):
        from kecsm.lp import SEPARATION_TOL, violated_cuts

        weights, n = case
        n += isolated  # vertices after the last one drawn carry no edge
        total = sum(weights.values())
        tol = 1e-9 * max(1.0, total)
        ref_value, _ = global_min_cut_reference(weights, n)

        def crossing(side):
            return sum(w for (u, v), w in weights.items() if (u in side) != (v in side))

        cuts, rest, members = shrink_min_cut(weights, n)
        for value, side in cuts:
            assert abs(crossing(set(side)) - value) <= tol
        assert sorted(v for group in members for v in group) == (list(range(n)) if members else [])
        value = min(value for value, _ in cuts)
        if rest:
            assert len(members) > 2
            rest_value, rest_side = global_min_cut(rest, len(members))
            side = {v for i in rest_side for v in members[i]}
            assert abs(crossing(side) - rest_value) <= tol
            value = min(value, rest_value)
        assert abs(value - ref_value) <= tol

        k = max(ref_value + gap, 1e-6)
        sides, _ = violated_cuts(weights, k, n)
        if ref_value < k - 2 * SEPARATION_TOL:
            assert sides
        if ref_value >= k:
            assert not sides
        for mask in sides:
            assert mask[0] and crossing(set(np.nonzero(mask)[0].tolist())) < k - SEPARATION_TOL
