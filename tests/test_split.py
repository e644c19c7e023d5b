import numpy as np
import pytest

from kecsm.core import CutSpec, MetricInstance, MultiEdgeSet
from kecsm.instances import euclidean_instance, random_closure_instance
from kecsm.lp import FractionalSolution, solve_lp
from kecsm.split import build_split_graph, identify_back
from kecsm.treedist import EdgeGraph

from oracles import check_tree_polytope, cut_size, degree_value, multiset_size, tree_point_total


def hamiltonian_cycle_solution(n: int) -> FractionalSolution:
    values = {}
    for u in range(n):
        for v in range(u + 1, n):
            values[(u, v)] = 0.0
    for i in range(n):
        e = tuple(sorted((i, (i + 1) % n)))
        values[e] = 1.0
    return FractionalSolution(values=values, objective=float(n))


class TestBuildSplitGraph:
    def test_triangle(self, triangle_unit):
        frac, _ = solve_lp(triangle_unit)
        g0 = build_split_graph(triangle_unit, frac, split_vertex=0)
        assert g0.n0 == 4
        assert g0.u0 == 0 and g0.v0 == 3
        by_pair = {e: g0.x0[i] for i, e in enumerate(g0.edges)}
        assert by_pair[(0, 1)] == pytest.approx(0.5)
        assert by_pair[(0, 2)] == pytest.approx(0.5)
        assert by_pair[(1, 3)] == pytest.approx(0.5)
        assert by_pair[(2, 3)] == pytest.approx(0.5)
        assert by_pair[(1, 2)] == pytest.approx(1.0)
        assert (0, 3) not in by_pair
        assert degree_value(g0, g0.u0) == pytest.approx(triangle_unit.k / 2)
        assert degree_value(g0, g0.v0) == pytest.approx(triangle_unit.k / 2)
        assert g0.x0.sum() == pytest.approx(sum(frac.values.values()))

    def test_two_vertices(self):
        inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=6)
        frac, _ = solve_lp(inst)
        g0 = build_split_graph(inst, frac)
        assert sorted(g0.edges) == [(0, 1), (1, 2)]
        assert np.allclose(g0.x0, [3.0, 3.0])
        assert np.allclose(g0.cost0, [5.0, 5.0])

    def test_k4_cycle_solution(self, k4_unit):
        frac = hamiltonian_cycle_solution(4)
        g0 = build_split_graph(k4_unit, frac, split_vertex=0)
        assert g0.x0.sum() == pytest.approx(4.0)
        assert degree_value(g0, g0.u0) == pytest.approx(1.0)
        assert degree_value(g0, g0.v0) == pytest.approx(1.0)

    def test_cost_inherited_from_origin(self):
        inst = euclidean_instance(6, 2, seed=1)
        frac, _ = solve_lp(inst)
        g0 = build_split_graph(inst, frac)
        for i, e in enumerate(g0.edges):
            assert g0.cost0[i] == pytest.approx(inst.edge_cost(g0.origin[i]))

    def test_split_vertex_flag(self, triangle_unit):
        frac, _ = solve_lp(triangle_unit)
        g0 = build_split_graph(triangle_unit, frac, split_vertex=1)
        assert g0.u0 == 1
        assert (1, 3) not in g0.edges  # no twin edge


class TestToTreePoint:
    def test_triangle_total(self, triangle_unit):
        frac, _ = solve_lp(triangle_unit)
        g0 = build_split_graph(triangle_unit, frac)
        z = (2 / 2) * g0.x0
        assert tree_point_total(z) == pytest.approx(3.0)  # n0 - 1
        assert sorted(z) == pytest.approx([0.5, 0.5, 0.5, 0.5, 1.0])

    def test_two_vertices_k6(self):
        inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=6)
        frac, _ = solve_lp(inst)
        z = (2 / 6) * build_split_graph(inst, frac).x0
        assert np.allclose(z, [1.0, 1.0])
        assert tree_point_total(z) == pytest.approx(2.0)

    def test_k4_cycle_total(self, k4_unit):
        frac = hamiltonian_cycle_solution(4)
        z = (2 / 2) * build_split_graph(k4_unit, frac).x0
        assert tree_point_total(z) == pytest.approx(4.0)


class TestCheckTreePolytope:
    def test_lp_points_are_members(self):
        cases = [
            euclidean_instance(6, 2, seed=0),
            euclidean_instance(8, 4, seed=1),
            random_closure_instance(8, 2, seed=8),   # fractional vertex
            random_closure_instance(10, 3, seed=9),  # fractional vertex
        ]
        for inst in cases:
            frac, _ = solve_lp(inst)
            g0 = build_split_graph(inst, frac)
            assert check_tree_polytope(g0.graph, (2 / inst.k) * g0.x0) == []

    def test_all_ones_triangle_violates_at_full_set(self):
        graph = EdgeGraph(n=3, edges=((0, 1), (0, 2), (1, 2)))
        violations = check_tree_polytope(graph, [1, 1, 1])
        assert frozenset({0, 1, 2}) in violations

    def test_tree_indicator_is_member(self):
        graph = EdgeGraph(n=4, edges=((0, 1), (1, 2), (2, 3), (0, 3)))
        assert check_tree_polytope(graph, [1, 1, 1, 0]) == []

    def test_subset_violation_detected(self):
        # triangle 0-1-2 overloaded inside a 4-vertex graph
        graph = EdgeGraph(n=4, edges=((0, 1), (0, 2), (1, 2), (0, 3), (1, 3)))
        violations = check_tree_polytope(graph, [0.9, 0.9, 0.9, 0.15, 0.15])
        assert frozenset({0, 1, 2}) in violations

    def test_too_large_rejected(self):
        edges = tuple((0, v) for v in range(1, 15))
        with pytest.raises(ValueError, match="enumeration infeasible"):
            check_tree_polytope(EdgeGraph(n=15, edges=edges), [1.0] * 14)


class TestIdentifyBack:
    def test_twin_edges_merge(self, triangle_unit):
        frac, _ = solve_lp(triangle_unit)
        g0 = build_split_graph(triangle_unit, frac)
        m0 = MultiEdgeSet({(0, 1): 1, (1, 3): 1})  # (u0,1) and (v0,1)
        merged = identify_back(g0, m0)
        assert merged.multiplicity == {(0, 1): 2}

    def test_empty(self, triangle_unit):
        frac, _ = solve_lp(triangle_unit)
        g0 = build_split_graph(triangle_unit, frac)
        assert identify_back(g0, MultiEdgeSet()).multiplicity == {}

    def test_spanning_tree_becomes_one_tree(self, triangle_unit):
        # a spanning tree of the expanded graph has n0 - 1 = n edges: a tree plus an edge
        frac, _ = solve_lp(triangle_unit)
        g0 = build_split_graph(triangle_unit, frac)
        tree = MultiEdgeSet({(0, 1): 1, (1, 2): 1, (2, 3): 1})
        merged = identify_back(g0, tree)
        assert multiset_size(merged) == triangle_unit.n
        assert merged.multiplicity == {(0, 1): 1, (1, 2): 1, (0, 2): 1}

    def test_cost_preserved(self):
        inst = euclidean_instance(7, 2, seed=3)
        frac, _ = solve_lp(inst)
        g0 = build_split_graph(inst, frac)
        rng = np.random.default_rng(0)
        mult = {e: int(rng.integers(0, 3)) for e in g0.edges}
        m0 = MultiEdgeSet(mult)
        cost0 = sum(g0.cost0[g0.edge_index(e)] * m for e, m in m0.multiplicity.items())
        assert identify_back(g0, m0).total_cost(inst.cost) == pytest.approx(cost0)

    def test_cut_sizes_preserved_when_twins_together(self):
        inst = euclidean_instance(6, 2, seed=5)
        frac, _ = solve_lp(inst)
        g0 = build_split_graph(inst, frac, split_vertex=0)
        rng = np.random.default_rng(1)
        m0 = MultiEdgeSet({e: int(rng.integers(0, 3)) for e in g0.edges})
        merged = identify_back(g0, m0)
        # any side not separating u0 from v0 corresponds to a side of the base graph
        for mask in range(1, 1 << (inst.n - 1)):
            side = {v for v in range(1, inst.n) if mask >> (v - 1) & 1}
            if not side or len(side) == inst.n - 1:
                continue
            side0 = frozenset(side)  # u0=0 and v0=n stay outside together
            cut_expanded = cut_size(m0, CutSpec(side=side0, n=g0.n0))
            cut_base = cut_size(merged, CutSpec(side=side0, n=inst.n))
            assert cut_expanded == cut_base
