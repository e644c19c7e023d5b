import ast
import csv
import json
import math
import os
import subprocess
import sys
import time
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kecsm import sampler
from kecsm.cli import main
from kecsm.core import MetricInstance, make_edge
from kecsm.instances import (
    InstanceFormatError,
    euclidean_instance,
    family_instance,
    load_instance,
    parse_matrix_json,
    parse_tsplib_euc2d,
    random_closure_instance,
)
from kecsm.lp import InfeasibleLPError, LPError, UnboundedLPError, solve_lp
from kecsm.pipeline import (
    CSV_COLUMNS,
    ExperimentReport,
    derived_seed,
    prepare,
    round_prepared,
    run_baseline,
    run_batch,
    run_pipeline,
    summary_path_for,
    write_records,
    write_summary,
)

UNIT3 = "[[0, 1, 1], [1, 0, 1], [1, 1, 0]]"
HUGE3 = "[[0, 1.5e308, 1.5e308], [1.5e308, 0, 1.5e308], [1.5e308, 1.5e308, 0]]"


class TestLoadInstance:
    def test_matrix_json_roundtrip(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"n": 2, "k": 3, "costs": [[0, 5], [5, 0]]}')
        inst = load_instance(str(path), "matrix-json")
        assert inst.n == 2 and inst.k == 3
        assert inst.cost[0, 1] == 5

    def test_matrix_json_integral_floats_are_integers(self, tmp_path):
        path = tmp_path / "inst.json"
        path.write_text('{"n": 2.0, "k": 8.0, "costs": [[0, 5], [5, 0]]}')
        inst = load_instance(str(path), "matrix-json")
        assert (inst.n, inst.k) == (2, 8) and type(inst.k) is int

    def test_tsplib_345(self):
        text = "\n".join([
            "NAME: tiny",
            "TYPE: TSP",
            "DIMENSION: 3",
            "EDGE_WEIGHT_TYPE: EUC_2D",
            "NODE_COORD_SECTION",
            "1 0 0",
            "2 3 4",
            "3 0 8",
            "EOF",
        ])
        inst = parse_tsplib_euc2d(text, k=2)
        assert inst.cost[0, 1] == pytest.approx(5.0)
        assert inst.cost[0, 2] == pytest.approx(8.0)

    def test_tsplib_requires_k(self):
        with pytest.raises(InstanceFormatError, match="--k"):
            parse_tsplib_euc2d("NODE_COORD_SECTION\n1 0 0\n2 1 0\nEOF", k=None)

    def test_non_metric_rejected_with_first_violation(self):
        text = '{"n": 3, "k": 2, "costs": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}'
        with pytest.raises(InstanceFormatError, match="triangle"):
            parse_matrix_json(text)

    def test_closure_flag_repairs(self):
        text = '{"n": 3, "k": 2, "costs": [[0, 1, 5], [1, 0, 1], [5, 1, 0]]}'
        inst = parse_matrix_json(text, closure=True)
        assert inst.cost[0, 2] == pytest.approx(2.0)

    def test_tsplib_rounding_can_break_triangle_inequality(self):
        # nearest-integer costs: 0.49 -> 0 twice but 0.98 -> 1
        text = "\n".join([
            "DIMENSION: 3",
            "EDGE_WEIGHT_TYPE: EUC_2D",
            "NODE_COORD_SECTION",
            "1 0 0",
            "2 0.49 0",
            "3 0.98 0",
            "EOF",
        ])
        with pytest.raises(InstanceFormatError, match="--closure"):
            parse_tsplib_euc2d(text, k=2)
        inst = parse_tsplib_euc2d(text, k=2, closure=True)
        assert inst.cost[0, 2] == pytest.approx(0.0)

    def test_bad_json_rejected(self):
        with pytest.raises(InstanceFormatError, match="invalid JSON"):
            parse_matrix_json("{nope")

    def test_unknown_format(self, tmp_path):
        path = tmp_path / "x"
        path.write_text("")
        with pytest.raises(InstanceFormatError, match="unknown format"):
            load_instance(str(path), "csv")


# Fuzz inputs for the two parsers.  Values stay small: a parse that succeeds
# goes on to build and validate an n x n metric.
_JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 8), st.integers(-2**70, 2**70),
    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=6),
)
_JSON_VALUES = st.recursive(
    _JSON_SCALARS,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)
_NUMBERS = st.one_of(st.integers(-2, 9), st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _matrix_json_texts(draw):
    """Arbitrary JSON, and objects whose n, k and costs are each missing,
    mistyped, out of range, ragged, non-metric or well formed."""
    if draw(st.integers(0, 9)) == 0:
        return draw(st.one_of(st.text(max_size=30), _JSON_VALUES.map(json.dumps)))
    m = draw(st.integers(0, 5))
    costs = [[0 if i == j else 2 + (i + j) % 2 for j in range(m)] for i in range(m)]
    if m and draw(st.booleans()):
        # one entry off: negative, asymmetric, breaking a triangle, or not finite
        costs[draw(st.integers(0, m - 1))][draw(st.integers(0, m - 1))] = draw(_NUMBERS)
    plausible = {
        "n": st.one_of(st.just(m), st.integers(-3, 8)),
        "k": st.integers(-3, 8),
        "costs": st.one_of(st.just(costs), st.lists(st.lists(_NUMBERS, max_size=5), max_size=5)),
    }
    obj = draw(st.dictionaries(st.text(max_size=4), _JSON_VALUES, max_size=2))
    for key, values in plausible.items():
        mode = draw(st.sampled_from(("plausible",) * 6 + ("any", "absent")))
        if mode != "absent":
            obj[key] = draw(values if mode == "plausible" else _JSON_VALUES)
    return json.dumps(obj)


_TSPLIB_NUMBERS = st.one_of(
    st.integers(-2, 9).map(str), st.floats(allow_nan=True, allow_infinity=True).map(repr),
    st.sampled_from(["", "x", "1e999", "3.5", "-0", "10" * 9]),
)
_TSPLIB_LINES = st.one_of(
    st.sampled_from(["NAME: t", "TYPE: TSP", "COMMENT: c : d", "NODE_COORD_SECTION", "EOF", "",
                     "EDGE_WEIGHT_TYPE: EUC_2D", "EDGE_WEIGHT_TYPE: euc_2d",
                     "EDGE_WEIGHT_TYPE: GEO", "DIMENSION:", "dimension : 3"]),
    st.builds("DIMENSION: {}".format, st.one_of(_TSPLIB_NUMBERS, st.just(str(10**18)))),
    st.lists(_TSPLIB_NUMBERS, max_size=4).map(" ".join),
    st.text(max_size=12),
)


@st.composite
def _tsplib_texts(draw):
    """Line mixes, some grown from a well-formed file with 1..6 nodes."""
    lines = draw(st.lists(_TSPLIB_LINES, max_size=12))
    if draw(st.booleans()):
        m = draw(st.integers(1, 6))
        valid = [f"DIMENSION: {m}", "EDGE_WEIGHT_TYPE: EUC_2D", "NODE_COORD_SECTION"]
        valid += [f"{i + 1} {draw(st.integers(0, 20))} {draw(st.integers(0, 20))}" for i in range(m)]
        cut = draw(st.integers(0, len(lines)))
        lines = lines[:cut] + valid + lines[cut:]
    return "\n".join(lines)


class TestParserFuzz:
    """Any input gives an instance or InstanceFormatError, never another exception."""

    @given(text=_matrix_json_texts(), k=st.one_of(st.none(), st.integers(-2, 6)), closure=st.booleans())
    @settings(max_examples=200, deadline=None)
    def test_matrix_json(self, text, k, closure):
        try:
            inst = parse_matrix_json(text, k=k, closure=closure)
        except InstanceFormatError:
            return
        assert isinstance(inst, MetricInstance)

    @given(text=_tsplib_texts(), k=st.one_of(st.none(), st.integers(-2, 6)), closure=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_tsplib_euc2d(self, text, k, closure):
        try:
            inst = parse_tsplib_euc2d(text, k=k, closure=closure)
        except InstanceFormatError:
            return
        assert isinstance(inst, MetricInstance)

    def test_huge_dimension_is_rejected_without_allocating(self):
        text = f"DIMENSION: {10**18}\nNODE_COORD_SECTION\n1 0 0\n2 1 0\nEOF"
        with pytest.raises(InstanceFormatError, match="node ids"):
            parse_tsplib_euc2d(text, k=2)


class TestRunPipeline:
    def test_triangle_k2_ratio_bound(self, triangle_unit):
        result = run_pipeline(triangle_unit, seed=1)
        assert result.record.connected
        assert result.record.ratio_lp <= 2.0

    def test_two_vertices_k6_total(self):
        inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=6)
        result = run_pipeline(inst, seed=123)
        t, b = result.record.t, result.record.b
        assert result.record.total == pytest.approx((2 * t + 2 * b) * 5.0)
        assert result.record.connected

    def test_repeatable_record(self):
        inst = euclidean_instance(7, 4, seed=5)
        a = run_pipeline(inst, seed=9).record
        b = run_pipeline(inst, seed=9).record
        assert a.as_row()[:-1] == b.as_row()[:-1]  # everything but wall time

    def test_zero_costs_read_ratio_one(self):
        # the LP, the optimum and the rounding all cost 0
        rec = run_pipeline(MetricInstance(n=4, cost=np.zeros((4, 4)), k=4), with_opt=True).record
        assert (rec.total, rec.ratio_lp, rec.ratio_opt) == (0.0, 1.0, 1.0)

    def test_ratio_opt_populated_when_requested(self):
        inst = euclidean_instance(4, 2, seed=3)
        rec = run_pipeline(inst, seed=0, with_opt=True).record
        assert rec.ratio_opt is not None
        assert rec.ratio_opt >= 1 - 1e-9

    def test_ms_covers_the_whole_solve(self, triangle_unit, monkeypatch):
        from kecsm import pipeline

        def slow_lp(inst):
            time.sleep(0.05)
            return solve_lp(inst)

        monkeypatch.setattr(pipeline, "solve_lp", slow_lp)
        assert run_pipeline(triangle_unit, seed=1).record.ms >= 50.0

    def test_split_vertex_choice_is_robust(self):
        inst = euclidean_instance(6, 4, seed=12)
        for v in range(inst.n):
            result = run_pipeline(inst, seed=2, split_vertex=v)
            assert result.record.connected
            assert result.relaxation.split_graph.u0 == v


@settings(max_examples=10, deadline=None)
@given(family=st.sampled_from([euclidean_instance, random_closure_instance]),
       n=st.integers(3, 10), k=st.integers(2, 8), seed=st.integers(0, 2**16))
def test_every_split_vertex_keeps_the_lp_value_and_the_certificate(family, n, k, seed):
    inst = family(n, k, seed)
    objectives = set()
    for v in range(n):
        prep = prepare(inst, split_vertex=v)  # raises if the fit fails
        objectives.add(prep.fractional.objective)
        assert round_prepared(prep, seed=seed).certificate.passes
    assert len(objectives) == 1


@pytest.mark.parametrize("family", [euclidean_instance, random_closure_instance])
@pytest.mark.parametrize("n", [12, 16])
def test_relabelled_vertices_keep_the_law_and_the_rounding_cost(family, n):
    # vertex v is vertex perm[v] of the relabelled instance, split at perm[0];
    # random-closure n = 16 has a tied optimum, where the relabelled solve
    # returns another vertex of the same objective
    inst = family(n, 8, 3)
    perm = np.random.default_rng(3).permutation(n)
    cost = np.empty((n, n))
    cost[np.ix_(perm, perm)] = inst.cost
    preps = [prepare(inst), prepare(MetricInstance(n=n, cost=cost, k=8), split_vertex=int(perm[0]))]
    assert preps[1].y.objective == pytest.approx(preps[0].y.objective, rel=1e-12)
    label = np.r_[perm, n]  # the twin v0 = n keeps its number
    y = {make_edge(*label[list(e)]): x for e, x in preps[0].y.values.items()}
    if y.keys() == preps[1].y.values.keys() and all(
            abs(x - preps[1].y.values[e]) <= 1e-9 for e, x in y.items()):
        where = {e: i for i, e in enumerate(preps[1].split_graph.edges)}
        moved = [where[make_edge(*label[list(e)])] for e in preps[0].split_graph.edges]
        assert np.abs(preps[1].weights.fitted_marginals[moved]
                      - preps[0].weights.fitted_marginals).max() <= 1e-9
    ratios = []
    for prep in preps:
        results = [round_prepared(prep, seed=seed) for seed in range(60)]
        assert all(r.certificate.passes for r in results)
        ratios.append(np.array([r.record.ratio_lp for r in results]))
    se = math.sqrt(sum(r.var(ddof=1) / len(r) for r in ratios))
    assert abs(ratios[0].mean() - ratios[1].mean()) < 4 * se


class TestRunBatch:
    def test_grid_shape_and_order(self):
        report = run_batch("euclidean", n=6, instances=2, k_values=[2, 4],
                           trials=2, seed_base=10)
        assert len(report.records) == 8
        assert all(r.connected for r in report.records)
        keys = [(r.instance_id, r.k, r.seed) for r in report.records]
        assert keys == sorted(keys)

    def test_empty_k_list_rejected(self):
        with pytest.raises(ValueError, match="nothing to run"):
            run_batch("euclidean", n=6, instances=1, k_values=[], trials=1, seed_base=0)

    @pytest.mark.parametrize("instances", [0, -2])
    def test_no_instances_rejected(self, instances):
        with pytest.raises(ValueError, match="instances must be at least 1"):
            run_batch("euclidean", n=6, instances=instances, k_values=[2], trials=1, seed_base=0)

    def test_aggregates_keyed_by_k(self):
        report = run_batch("random-closure", n=6, instances=1, k_values=[2, 3],
                           trials=2, seed_base=4)
        agg = report.aggregates()
        assert set(agg) == {2, 3}
        assert agg[2]["runs"] == 2
        assert agg[2]["connectivity_failures"] == 0
        assert agg[2]["mean_ratio_lp"] >= 1 - 1e-9

    @pytest.mark.parametrize("family", ["euclidean", "random-closure"])
    def test_rows_are_those_of_a_prepare_per_k(self, family):
        ks = [2, 3, 6, 17]
        report = run_batch(family, n=9, instances=2, k_values=ks, trials=2, seed_base=5)
        rows = []
        for idx in range(2):
            for k in ks:
                prep = prepare(family_instance(family, 9, k, 5 + idx))
                for trial in range(2):
                    rows.append(round_prepared(prep, seed=derived_seed(5, idx, k, trial),
                                               instance_id=f"{family}-n9-i{idx}").record)
        rows.sort(key=lambda r: (r.instance_id, r.k, r.seed))
        assert [r.as_row()[:-1] for r in report.records] == [r.as_row()[:-1] for r in rows]

    def test_one_lp_per_instance(self, monkeypatch):
        from kecsm import pipeline

        calls = []

        def counted(inst):
            calls.append(inst.k)
            return solve_lp(inst)

        monkeypatch.setattr(pipeline, "solve_lp", counted)
        report = run_batch("random-closure", n=8, instances=3, k_values=[5, 2, 8], trials=2, seed_base=1)
        assert len(report.records) == 18 and calls == [2, 2, 2]

    def test_derived_seed_stable(self):
        assert derived_seed(1, 2, 3, 4) == derived_seed(1, 2, 3, 4)
        assert derived_seed(1, 2, 3, 4) != derived_seed(1, 2, 3, 5)


class TestBaselines:
    def test_naive_mst_double_triangle(self, triangle_unit):
        rec = run_baseline(triangle_unit, "naive-mst-double")
        assert rec.total == pytest.approx(4.0)  # doubled two-edge tree
        assert rec.connected

    def test_naive_always_connected(self):
        for seed in range(3):
            inst = euclidean_instance(7, 5, seed=seed)
            assert run_baseline(inst, "naive-mst-double").connected

    def test_karger_integral_solution_needs_no_repair(self):
        inst = MetricInstance(n=2, cost=[[0, 5], [5, 0]], k=4)
        rec = run_baseline(inst, "karger-independent", seed=3)
        assert rec.total == pytest.approx(20.0)
        assert rec.b == 0
        assert rec.connected

    def test_karger_repairs_until_connected(self):
        # the rounded sample of this LP is not 3-connected until one MST copy is added
        inst = euclidean_instance(8, 3, 1)
        rec = run_baseline(inst, "karger-independent", seed=0)
        assert rec.b > 0 and rec.connected
        assert rec.cost_b == rec.b * inst.mst().total_cost(inst.cost)

    @pytest.mark.parametrize("which", ["naive-mst-double", "karger-independent"])
    def test_zero_costs_read_ratio_one(self, which):
        rec = run_baseline(MetricInstance(n=6, cost=np.zeros((6, 6)), k=4), which)
        assert (rec.total, rec.ratio_lp, rec.connected) == (0.0, 1.0, True)

    def test_a_numpy_integer_seed_gives_the_row_of_its_value(self):
        # a numpy seed once raised OverflowError in the stream of the repairs
        inst = random_closure_instance(6, 4, 1)
        ms = CSV_COLUMNS.index("ms")
        rows = [run_baseline(inst, "karger-independent", seed=seed).as_row() for seed in (5, np.int64(5))]
        assert [row[:ms] + row[ms + 1:] for row in rows] == [rows[0][:ms] + rows[0][ms + 1:]] * 2

    def test_unknown_baseline(self, triangle_unit):
        with pytest.raises(ValueError, match="unknown baseline"):
            run_baseline(triangle_unit, "magic")


class TestReports:
    def test_csv_columns_exact(self, tmp_path):
        report = run_batch("euclidean", n=5, instances=1, k_values=[2], trials=1, seed_base=0)
        path = tmp_path / "out.csv"
        write_records(report.records, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == [
            "instance_id", "n", "k", "alpha", "t", "b", "seed", "lp_cost",
            "cost_tstar", "cost_b", "cost_f", "total", "ratio_lp", "ratio_opt",
            "connected", "augments", "ms",
        ]
        assert len(rows) == 2

    def test_csv_columns_match_readme(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        assert ",".join(CSV_COLUMNS) in readme.splitlines()

    def test_csv_append_only(self, tmp_path):
        report = run_batch("euclidean", n=5, instances=1, k_values=[2], trials=1, seed_base=0)
        path = tmp_path / "out.csv"
        write_records(report.records, str(path))
        write_records(report.records, str(path))
        with open(path) as fh:
            rows = list(csv.reader(fh))
        assert len(rows) == 3  # one header, two data rows

    def test_summary_json(self, tmp_path):
        report = run_batch("euclidean", n=5, instances=1, k_values=[2, 3], trials=1, seed_base=0)
        path = tmp_path / "out.csv"
        write_summary(report, summary_path_for(str(path)))
        payload = json.loads((tmp_path / "out.summary.json").read_text())
        assert set(payload) == {"2", "3"}
        assert payload["2"]["connectivity_failures"] == 0


@pytest.fixture
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    inst = euclidean_instance(6, 3, seed=8)
    path.write_text(json.dumps({"n": 6, "k": 3, "costs": inst.cost.tolist()}))
    return str(path)


class TestCli:
    def test_solve_exit_zero(self, instance_file, tmp_path, capsys):
        out_csv = str(tmp_path / "run.csv")
        sol = str(tmp_path / "sol.json")
        code = main(["solve", "--input", instance_file, "--seed", "3",
                     "--emit", out_csv, "--emit-solution", sol])
        assert code == 0
        assert "connected=True" in capsys.readouterr().out
        assert (tmp_path / "run.csv").exists()
        payload = json.loads((tmp_path / "sol.json").read_text())
        assert payload["k"] == 3

    @pytest.mark.parametrize("n", [4, 6])
    def test_solve_on_zero_costs(self, tmp_path, capsys, n):
        # n = 4 also runs the exact search, whose optimum costs 0
        path = tmp_path / "zero.json"
        path.write_text(json.dumps({"n": n, "k": 4, "costs": [[0] * n] * n}))
        assert main(["solve", "--input", str(path)]) == 0
        assert "ratio_lp=1.000000 " in capsys.readouterr().out

    def test_verify_roundtrip(self, instance_file, tmp_path, capsys):
        sol = str(tmp_path / "sol.json")
        assert main(["solve", "--input", instance_file, "--emit-solution", sol]) == 0
        assert main(["verify", "--input", instance_file, "--solution", sol]) == 0
        out = capsys.readouterr().out
        assert "passes=True" in out

    def test_verify_detects_deficiency(self, instance_file, tmp_path):
        sol = tmp_path / "bad.json"
        sol.write_text(json.dumps({"edges": [[0, 1, 1], [1, 2, 1], [2, 3, 1],
                                             [3, 4, 1], [4, 5, 1]]}))
        assert main(["verify", "--input", instance_file, "--solution", str(sol)]) == 2

    @pytest.mark.parametrize("edges", [
        [[0, 1, 2], [0, 1, 3], [1, 2, 5], [2, 3, 5]],
        [[0, 1, 2], [1, 0, 3], [1, 2, 5], [2, 3, 5]],
    ], ids=["same-orientation", "reversed"])
    def test_verify_sums_repeated_edges(self, tmp_path, capsys, edges):
        inst = euclidean_instance(4, 5, seed=1)
        (tmp_path / "inst.json").write_text(json.dumps({"n": 4, "k": 5, "costs": inst.cost.tolist()}))
        (tmp_path / "sol.json").write_text(json.dumps({"edges": edges}))
        assert main(["verify", "--input", str(tmp_path / "inst.json"),
                     "--solution", str(tmp_path / "sol.json")]) == 0
        assert "min_cut=5 " in capsys.readouterr().out

    def test_lp_command(self, instance_file, capsys):
        assert main(["lp", "--input", instance_file]) == 0
        assert "objective=" in capsys.readouterr().out

    def test_lp_command_reports_the_core_and_the_priced_edges(self, tmp_path, capsys):
        # rc n = 48 at seed 2 starts on 252 of 1128 edges, and pricing adds 4
        inst = random_closure_instance(48, 4, seed=2)
        path = tmp_path / "inst.json"
        path.write_text(json.dumps({"n": 48, "k": 4, "costs": inst.cost.tolist()}))
        _, report = solve_lp(inst)
        assert (report.core, report.priced) == (252, 4) and report.pivots > 0
        assert main(["lp", "--input", str(path)]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert (f"iterations={report.iterations} core=252 priced=4 pivots={report.pivots} "
                "separation_slack=") in first

    def test_oracle_command(self, tmp_path, capsys):
        path = tmp_path / "tiny.json"
        path.write_text('{"n": 3, "k": 2, "costs": [[0, 1, 1], [1, 0, 1], [1, 1, 0]]}')
        assert main(["oracle", "--input", str(path)]) == 0
        assert "opt_cost=3" in capsys.readouterr().out

    def test_sample_command(self, instance_file, capsys):
        assert main(["sample", "--input", instance_file, "--trials", "5"]) == 0
        assert "sampled 5 trees" in capsys.readouterr().out

    def test_sample_prints_each_twin_edge_with_its_original(self, instance_file, capsys):
        # split vertex 2 of 6: the twin v0 = 6 gets an edge (w, 6) for every
        # w != 2, printed next to the edge (w, 2) it identifies back to
        assert main(["sample", "--input", instance_file, "--trials", "5", "--split-vertex", "2"]) == 0
        origins = {}
        for line in capsys.readouterr().out.splitlines()[1:]:
            edge, origin = line.split(":")[0].removeprefix("edge ").split(" origin ")
            origins[ast.literal_eval(edge)] = ast.literal_eval(origin)
        assert len(origins) == 15 + 5
        for (a, b), origin in origins.items():
            assert origin == ((min(a, 2), max(a, 2)) if b == 6 else (a, b))

    @pytest.mark.parametrize("instances", ["0", "-2"])
    def test_batch_without_instances_is_exit_three_and_writes_nothing(self, tmp_path, capsys, instances):
        out_csv = tmp_path / "batch.csv"
        assert main(["batch", "--k", "2", "--instances", instances, "--emit", str(out_csv)]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and "must be at least 1" in err
        assert list(tmp_path.iterdir()) == []

    def test_batch_emits_reports(self, tmp_path, capsys):
        out_csv = str(tmp_path / "batch.csv")
        code = main(["batch", "--family", "euclidean", "--n", "5", "--instances", "1",
                     "--k", "2,3", "--trials", "2", "--seed", "7", "--emit", out_csv])
        assert code == 0
        assert (tmp_path / "batch.csv").exists()
        assert (tmp_path / "batch.summary.json").exists()

    def test_baseline_command(self, instance_file, capsys):
        assert main(["baseline", "--input", instance_file, "--which", "naive-mst-double"]) == 0
        assert "naive-mst-double" in capsys.readouterr().out

    def test_missing_file_is_input_error(self, tmp_path):
        assert main(["solve", "--input", str(tmp_path / "nope.json")]) == 3

    def test_bad_k_list_is_input_error(self):
        assert main(["batch", "--k", "2,x"]) == 3

    def test_usage_error_is_input_error(self):
        assert main(["batch"]) == 3  # --k required

    def test_non_metric_is_input_error(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text('{"n": 3, "k": 2, "costs": [[0, 1, 9], [1, 0, 1], [9, 1, 0]]}')
        assert main(["solve", "--input", str(path)]) == 3

    def test_non_convergence_is_exit_four(self, instance_file, monkeypatch):
        from kecsm import cli
        from kecsm.lp import LPNotConvergedError, LPReport

        def boom(inst, **kwargs):
            raise LPNotConvergedError(
                "LP did not converge",
                LPReport(objective=0.0, iterations=1, cuts_added=0, separation_slack=float("nan"),
                         core=0, priced=0, pivots=0),
            )

        monkeypatch.setattr(cli, "run_pipeline", lambda *a, **kw: boom(None))
        assert main(["solve", "--input", instance_file]) == 4

    @pytest.mark.parametrize("argv,name,text", [
        pytest.param("solve --input inst.json --split-vertex 9", None, None, id="split-vertex"),
        pytest.param("solve --input inst.json --alpha nan", None, None, id="alpha-nan"),
        pytest.param("solve --input inst.json --alpha=-1", None, None, id="alpha-negative"),
        pytest.param("sample --input inst.json --trials 0", None, None, id="sample-trials"),
        pytest.param("batch --k 2 --n 1", None, None, id="batch-n"),
        pytest.param("batch --k 2 --trials 0", None, None, id="batch-trials"),
        pytest.param("batch --family euclidean --n 3 --instances 1 --k 3 --trials 1 --seed -1", None, None,
                     id="batch-seed"),
        pytest.param("lp --input bad.tsp --format tsplib-euc2d --k 2", "bad.tsp",
                     "DIMENSION: abc\nNODE_COORD_SECTION\n1 0 0\n2 3 4\nEOF\n", id="tsplib-dimension"),
        pytest.param("lp --input bad.json", "bad.json", '{"n": 1e400, "k": 2, "costs": [[0]]}',
                     id="json-overflow"),
        pytest.param("verify --input inst.json --solution bad.json", "bad.json",
                     '{"edges": [[0, 0, 2]]}', id="solution-self-loop"),
        pytest.param("verify --input inst.json --solution bad.json", "bad.json",
                     '{"edges": [[0, 9, 2]]}', id="solution-out-of-range"),
        pytest.param("verify --input inst.json --solution bad.json", "bad.json",
                     '{"edges": [[0, 1, -2]]}', id="solution-negative"),
        pytest.param("lp --input bad.json", "bad.json", '{"n": 3, "k": 2.9, "costs": %s}' % UNIT3,
                     id="json-k-fraction"),
        pytest.param("lp --input bad.json", "bad.json", '{"n": 3.5, "k": "2", "costs": %s}' % UNIT3,
                     id="json-n-fraction-k-string"),
        pytest.param("verify --input inst.json --solution bad.json", "bad.json",
                     '{"edges": [[0.9, 1, 2]]}', id="solution-fractional-endpoint"),
        pytest.param("verify --input inst.json --solution bad.json", "bad.json",
                     '{"edges": [[0, 1, 2.9]]}', id="solution-fractional-multiplicity"),
        pytest.param("verify --input inst.json --solution bad.json", "bad.json",
                     '{"edges": [[0, 1, true]]}', id="solution-bool-multiplicity"),
        pytest.param("verify --input inst.json --solution bad.json", "bad.json",
                     '{"edges": [[0, 1, 1e400]]}', id="solution-overflow"),
    ])
    def test_bad_input_is_one_line_exit_three(self, tmp_path, monkeypatch, capsys, argv, name, text):
        monkeypatch.chdir(tmp_path)
        inst = euclidean_instance(4, 2, seed=1)
        (tmp_path / "inst.json").write_text(json.dumps({"n": 4, "k": 2, "costs": inst.cost.tolist()}))
        if name:
            (tmp_path / name).write_text(text)
        assert main(argv.split()) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        pytest.param("solve --input inst.json --emit {}", id="solve-emit"),
        pytest.param("solve --input inst.json --emit-solution {}", id="solve-emit-solution"),
        pytest.param("batch --k 2 --n 4 --instances 1 --trials 1 --emit {}", id="batch-emit"),
        pytest.param("baseline --input inst.json --which naive-mst-double --emit {}", id="baseline-emit"),
    ])
    @pytest.mark.parametrize("target", ["missing/out.csv", ""], ids=["missing-directory", "a-directory"])
    def test_unwritable_output_is_one_line_exit_three(self, tmp_path, monkeypatch, capsys, argv, target):
        monkeypatch.chdir(tmp_path)
        inst = euclidean_instance(4, 2, seed=1)
        (tmp_path / "inst.json").write_text(json.dumps({"n": 4, "k": 2, "costs": inst.cost.tolist()}))
        path = str(tmp_path / target)
        assert main(argv.format(path).split()) == 3
        err = capsys.readouterr().err
        assert err.startswith(f"error: cannot write {path}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("argv,k,message", [
        pytest.param("lp --input inst.json --k 1" + "0" * 400, 2, "k is too large for a float", id="flag"),
        pytest.param("lp --input inst.json --closure --k 1" + "0" * 400, 2, "k is too large for a float",
                     id="flag-closure"),
        pytest.param("lp --input inst.json", "1" + "0" * 400, "k is too large for a float", id="json"),
        pytest.param("lp --input inst.json --closure", "1" + "0" * 400, "k is too large for a float",
                     id="json-closure"),
        pytest.param("batch --n 4 --instances 1 --trials 1 --k 2,1" + "0" * 400, 2, "that a float can hold",
                     id="batch"),
    ])
    def test_k_too_large_for_a_float_is_one_line_exit_three(self, tmp_path, monkeypatch, capsys, argv, k,
                                                          message):
        # n^2 k once raised OverflowError converting k to a float
        monkeypatch.chdir(tmp_path)
        (tmp_path / "inst.json").write_text('{"n": 3, "k": %s, "costs": %s}' % (k, UNIT3))
        assert main(argv.split()) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    @pytest.mark.parametrize("argv", [
        pytest.param("solve --input inst.json --k 20", id="solve"),
        pytest.param("sample --input inst.json --trials 11", id="sample"),
    ])
    def test_a_batch_past_the_tree_limit_is_one_line_exit_three(self, tmp_path, monkeypatch, capsys, argv):
        # a huge k once grew until the process was killed; the limit is lowered
        # here so that no run comes near it: 10 or 11 trees on 6 vertices
        monkeypatch.chdir(tmp_path)
        monkeypatch.setattr(sampler, "MAX_BATCH_ENTRIES", 59)
        inst = euclidean_instance(5, 2, seed=1)
        (tmp_path / "inst.json").write_text(json.dumps({"n": 5, "k": 2, "costs": inst.cost.tolist()}))
        assert main(argv.split()) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: 1") and err.count("\n") == 1
        assert "trees on 6 vertices exceed the batch limit of 59 trees times vertices" in err

    @pytest.mark.parametrize("closure", [[], ["--closure"]])
    @pytest.mark.parametrize("argv,text,message", [
        pytest.param("solve --input big.json", '{"n": 3, "k": 2, "costs": %s}' % HUGE3,
                     "too large", id="json-solve"),
        pytest.param("lp --input big.json", '{"n": 3, "k": 2, "costs": %s}' % HUGE3,
                     "too large", id="json-lp"),
        pytest.param("solve --input big.json --format tsplib-euc2d --k 2",
                     "NODE_COORD_SECTION\n1 0 0\n2 1e200 0\n3 0 1\nEOF\n",
                     "squared distance of nodes 1 and 2 overflows", id="tsplib-distance"),
        pytest.param("solve --input big.json --format tsplib-euc2d --k 2",
                     "NODE_COORD_SECTION\n1 0 0\n2 nan 0\n3 0 1\nEOF\n",
                     "'2 nan 0' is not finite", id="tsplib-nan"),
        pytest.param("lp --input big.json --format tsplib-euc2d --k 2",
                     "NODE_COORD_SECTION\n1 0 0\n2 1 0\n3 0 1e999\nEOF\n",
                     "'3 0 1e999' is not finite", id="tsplib-inf"),
    ])
    def test_overflowing_input_is_one_line_exit_three(self, tmp_path, capsys, closure, argv, text,
                                                      message):
        (tmp_path / "big.json").write_text(text)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv.replace("big.json", str(tmp_path / "big.json")).split(), *closure]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1 and message in err

    def test_tsplib_scale_input_is_certified(self, tmp_path, capsys):
        # 300 cities with integer coordinates below 10^6, so costs near 1e6
        coords = np.random.default_rng(300).integers(0, 10**6, size=(300, 2))
        path = tmp_path / "cities.tsp"
        path.write_text("NAME: cities\nTYPE: TSP\nDIMENSION: 300\nEDGE_WEIGHT_TYPE: EUC_2D\n"
                        "NODE_COORD_SECTION\n"
                        + "".join(f"{i + 1} {x} {y}\n" for i, (x, y) in enumerate(coords)) + "EOF\n")
        flags = ["--input", str(path), "--format", "tsplib-euc2d", "--closure", "--k", "8"]
        start = time.perf_counter()
        assert main(["solve", *flags]) == 0
        assert time.perf_counter() - start < 60
        assert "connected=True" in capsys.readouterr().out
        assert main(["lp", *flags]) == 0
        first = capsys.readouterr().out.splitlines()[0]
        assert " core=" in first and " priced=" in first

    @pytest.mark.parametrize("closure", [[], ["--closure"]])
    def test_nan_costs_are_input_error(self, tmp_path, capsys, closure):
        path = tmp_path / "nan.json"
        path.write_text('{"n": 3, "k": 2, "costs": [[0, 1, NaN], [1, 0, 1], [NaN, 1, 0]]}')
        assert main(["lp", "--input", str(path), *closure]) == 3
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    @pytest.mark.parametrize("low", ["-1", "-Infinity"])
    def test_negative_raw_costs_are_named_under_closure(self, tmp_path, capsys, low):
        # a -inf cost was once reported as "instance not connected"
        path = tmp_path / "negative.json"
        path.write_text('{"n": 3, "k": 2, "costs": [[0, %s, 1], [%s, 0, 1], [1, 1, 0]]}' % (low, low))
        assert main(["lp", "--input", str(path), "--closure"]) == 3
        assert capsys.readouterr().err == "error: raw costs must be nonnegative\n"

    @pytest.mark.parametrize("error", [
        InfeasibleLPError("no feasible point (row of basic column 2 stays at -1)"),
        UnboundedLPError("objective unbounded below"),
        LPError("simplex pivot limit exceeded"),
    ])
    def test_lp_failures_are_exit_four(self, instance_file, monkeypatch, capsys, error):
        from kecsm import cli

        def fail(inst):
            raise error

        monkeypatch.setattr(cli, "solve_lp", fail)
        assert main(["lp", "--input", instance_file]) == 4
        assert capsys.readouterr().err == f"error: {error}\n"

    def test_determinism_identical_csv(self, instance_file, tmp_path):
        a, b = str(tmp_path / "a.csv"), str(tmp_path / "b.csv")
        for out in (a, b):
            assert main(["solve", "--input", instance_file, "--seed", "11",
                         "--emit", out]) == 0
        rows_a = list(csv.reader(open(a)))
        rows_b = list(csv.reader(open(b)))
        # all numeric columns identical except wall-clock ms
        assert rows_a[1][:-1] == rows_b[1][:-1]


def test_import_needs_numpy_only():
    # scipy added about 28 MB RSS and 0.25 s to `import kecsm`; it and the
    # test tools stay out of the library's imports
    code = ("import sys, kecsm, kecsm.cli; "
            "print(sorted({m.split('.')[0] for m in sys.modules} & {'scipy', 'hypothesis', 'pytest'}))")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "[]\n"


def test_a_solve_leaves_numpy_ma_unimported():
    # np.unique imports numpy.ma, about 1 MB of RSS that no stage needs; the
    # fit's split before its first sweep once called it
    code = ("import sys, kecsm; kecsm.run_pipeline(kecsm.random_closure_instance(12, 8, 5)); "
            "print('numpy.ma' in sys.modules)")
    src = Path(__file__).resolve().parent.parent / "src"
    out = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": str(src)},
                         capture_output=True, text=True, check=True, timeout=60)
    assert out.stdout == "False\n"
