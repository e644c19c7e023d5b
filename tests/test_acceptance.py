"""End-to-end acceptance suite.

Each test covers one release criterion at its stated tolerance and prints a
single PASS/FAIL line.  Statistical checks use fixed seeds and pre-registered
tolerance bands (4 sigma unless stated), so the suite is deterministic.
"""

import csv
import json
import math

import numpy as np
from scipy.stats import chi2

from kecsm.cli import main
from kecsm.core import MetricInstance
from kecsm.instances import euclidean_instance, random_closure_instance
from kecsm.lp import solve_lp
from kecsm.pipeline import prepare, round_prepared, run_batch, run_pipeline
from kecsm.rounding import RoundingParams, run_rounding
from kecsm.sampler import sample_fitted_batch
from kecsm.split import build_split_graph
from kecsm.treedist import EdgeGraph, fit_max_entropy
from kecsm.verify import brute_force_opt

from oracles import (
    approx_factor,
    bs_stats,
    check_tree_polytope,
    complete_graph,
    enumerate_spanning_trees,
    sample_batch,
    solve_lp_enumeration,
    tree_weight,
    trees_of,
    u0v0_path_edges,
)


def report(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")
    return ok


def family_instance(index: int, n: int, k: int):
    if index % 2 == 0:
        return euclidean_instance(n, k, seed=1000 + index)
    return random_closure_instance(n, k, seed=2000 + index)


def test_01_connectivity_always_holds():
    """500+ randomized runs across sizes and targets: never below k."""
    failures = 0
    runs = 0
    combo = 0
    for n in range(4, 13):
        for k in [2, 3, 4, 8, 16]:
            inst = family_instance(combo, n, k)
            combo += 1
            prep = prepare(inst)
            for trial in range(12):
                result = round_prepared(prep, seed=900 + trial)
                runs += 1
                if not result.certificate.passes:
                    failures += 1
    ok = report(1, "probability-one connectivity", failures == 0 and runs >= 500,
                f"{runs} runs, {failures} failures")
    assert ok


def test_02_scaled_optima_in_tree_polytope():
    """50 scaled LP optima pass exhaustive tree-polytope membership at 1e-6."""
    bad = 0
    checked = 0
    idx = 0
    while checked < 50:
        n = 4 + idx % 7          # 4..10
        k = [2, 3, 4, 8][idx % 4]
        inst = family_instance(idx, n, k)
        idx += 1
        frac, _ = solve_lp(inst)
        g0 = build_split_graph(inst, frac)
        if check_tree_polytope(g0.graph, (2 / inst.k) * g0.x0, tol=1e-6):
            bad += 1
        checked += 1
    ok = report(2, "tree-polytope membership", bad == 0, f"{checked} optima, {bad} violations")
    assert ok


def test_03_fitted_marginals_dominated_and_sampled():
    """Fits stay within 1+1e-6 of target everywhere; 50k-sample marginals agree."""
    # domination on a spread of pipeline instances, fractional vertices included
    worst = 0.0
    cases = [euclidean_instance(n, k, seed=s)
             for n, k, s in [(6, 2, 0), (8, 4, 1), (10, 8, 2), (12, 16, 3)]]
    cases += [random_closure_instance(n, 2, seed=s) for n, s in [(8, 8), (8, 19), (10, 22)]]
    fitted = []
    for inst in cases:
        frac, _ = solve_lp(inst)
        g0 = build_split_graph(inst, frac)
        z = (2 / inst.k) * g0.x0
        w = fit_max_entropy(g0.graph, z)
        with np.errstate(invalid="ignore", divide="ignore"):
            ratios = np.where(z > 0, w.fitted_marginals / z, 1.0)
        worst = max(worst, float(np.nanmax(ratios)))
        fitted.append((g0, w))
    dominated = worst <= 1 + 1e-6

    # empirical marginals at N = 50,000 on graphs with at most 8 vertices
    n_samples = 50_000
    sampled_ok = True
    pipeline_small = euclidean_instance(7, 3, seed=4)
    frac_small, _ = solve_lp(pipeline_small)
    g0_small = build_split_graph(pipeline_small, frac_small)
    small = [
        fit_max_entropy(g0_small.graph, (2 / 3) * g0_small.x0),
        fit_max_entropy(
            EdgeGraph(n=5, edges=((0, 1), (0, 2), (1, 2), (0, 3), (1, 3), (2, 4), (3, 4))),
            [0.7, 0.7, 0.6, 0.45, 0.45, 0.55, 0.55],
        ),
        fit_max_entropy(EdgeGraph(n=3, edges=((0, 1), (0, 2), (1, 2))), [0.8, 0.6, 0.6]),
    ]
    for w in small:
        assert w.graph.n <= 8
        hits = np.zeros(len(w.graph.edges))
        for tree in trees_of(sample_fitted_batch(w, n_samples, seed=42)):
            for i in tree.edge_indices:
                hits[i] += 1
        emp = hits / n_samples
        p = w.fitted_marginals
        band = 4.0 * np.sqrt(np.maximum(p * (1 - p), 0.0) / n_samples)
        if not np.all(np.abs(emp - p) <= band + 1e-12):
            sampled_ok = False
    ok = report(3, "max-entropy marginals", dominated and sampled_ok,
                f"worst ratio-1 {worst - 1:.2e}, sampling {'ok' if sampled_ok else 'off'}")
    assert ok


def test_04_sampler_chi_square_on_k4():
    """Wilson sampling matches enumeration on K4 at significance 1e-3."""
    g = complete_graph(4)
    n_samples = 50_000
    critical = chi2.ppf(1 - 1e-3, df=15)
    stats = []
    for lam in (np.ones(6), np.array([2.0, 1, 1, 1, 1, 1])):
        trees = enumerate_spanning_trees(g)
        weights = np.array([tree_weight(lam, t) for t in trees])
        probs = weights / weights.sum()
        index = {t: i for i, t in enumerate(trees)}
        observed = np.zeros(len(trees))
        for row in sample_batch(lam, g, n_samples, seed=4040).edge_indices.tolist():
            observed[index[tuple(row)]] += 1
        expected = probs * n_samples
        stats.append(float(((observed - expected) ** 2 / expected).sum()))
    ok = report(4, "sampler exactness chi-square", all(s < critical for s in stats),
                f"stats {stats[0]:.1f}/{stats[1]:.1f} vs critical {critical:.1f}")
    assert ok


def test_05_augmentation_tail_bound():
    """Conditional augmentation frequency stays below exp(-alpha^2/2) + 4 sigma."""
    all_ok = True
    details = []
    for k in (16, 32):
        alpha = math.sqrt(math.log(k / 2))
        bound = math.exp(-alpha * alpha / 2)
        for n in (8, 10):
            inst = euclidean_instance(n, k, seed=n * 10 + k)
            prep = prepare(inst)
            g0 = prep.split_graph
            eligible = 0
            augmented = 0
            for trial in range(200):
                params = RoundingParams.make(k, seed=5000 + trial)
                out = run_rounding(g0, prep.weights, params)
                trees = sample_fitted_batch(prep.weights, params.tree_count, params.seed)
                for tree in trees_of(trees):
                    eligible += (g0.n0 - 1) - len(u0v0_path_edges(tree, g0.u0, g0.v0))
                augmented += out.augmentation_count
            freq = augmented / eligible
            sigma = math.sqrt(bound * (1 - bound) / eligible)
            if freq > bound + 4 * sigma:
                all_ok = False
            details.append(f"k={k},n={n}: {freq:.4f}<={bound:.4f}+{4 * sigma:.4f}")
    ok = report(5, "augmentation tail bound", all_ok, "; ".join(details))
    assert ok


def test_06_expected_cost_bound():
    """Batch mean of total/LP stays within the guarantee plus 4 standard errors."""
    all_ok = True
    details = []
    for k in (16, 64):
        factor = approx_factor(k).precise
        report_obj = run_batch("euclidean", n=10, instances=10, k_values=[k],
                               trials=3, seed_base=600)
        ratios = np.array([r.ratio_lp for r in report_obj.records])
        mean = float(ratios.mean())
        se = float(ratios.std(ddof=1) / math.sqrt(ratios.size))
        if mean > factor + 4 * se:
            all_ok = False
        details.append(f"k={k}: mean {mean:.4f} vs bound {factor:.4f}+{4 * se:.4f}")
    ok = report(6, "expected cost bound", all_ok, "; ".join(details))
    assert ok


def test_07_guarantee_threshold_constants():
    """Closed-form factor crossings land exactly where expected."""
    checks = [
        approx_factor(164).headline < 1.5,
        approx_factor(163).headline >= 1.5,
        approx_factor(66).precise < 1.5,
        approx_factor(64).precise >= 1.5,
    ]
    ok = report(7, "guarantee threshold constants", all(checks),
                f"headline(164)={approx_factor(164).headline:.6f}, "
                f"precise(66)={approx_factor(66).precise:.6f}")
    assert ok


def test_08_oracle_chain_tiny_instances():
    """LP <= exact optimum <= every rounded output; cut generation matches enumeration."""
    all_ok = True
    worst_gap = 0.0
    instances = [
        MetricInstance(n=3, cost=[[0, 1, 1], [1, 0, 1], [1, 1, 0]], k=2),
        euclidean_instance(3, 2, seed=0),
        euclidean_instance(4, 2, seed=1),
        random_closure_instance(4, 2, seed=2),
        random_closure_instance(4, 2, seed=3),
    ]
    for base in instances:
        for k in (2, 3, 4):
            inst = MetricInstance(n=base.n, cost=base.cost, k=k)
            frac, _ = solve_lp(inst)
            ref = solve_lp_enumeration(inst)
            gap = abs(frac.objective - ref.objective) / (1 + abs(ref.objective))
            worst_gap = max(worst_gap, gap)
            if gap > 1e-5:
                all_ok = False
            opt_cost, _ = brute_force_opt(inst)
            if frac.objective > opt_cost + 1e-9:
                all_ok = False
            for seed in range(3):
                result = run_pipeline(inst, seed=seed)
                if opt_cost > result.rounding.total_cost + 1e-9:
                    all_ok = False
                if not result.certificate.passes:
                    all_ok = False
    ok = report(8, "oracle chain on tiny instances", all_ok, f"worst LP gap {worst_gap:.2e}")
    assert ok


def test_09_cut_counts_are_bernoulli_sums():
    """Across 20 random fixed cuts of K6, count variance never beats the mean."""
    g = complete_graph(6)
    rng = np.random.default_rng(909)
    lam = rng.random(len(g.edges)) + 0.3
    n_samples = 20_000
    trees = sample_batch(lam, g, n_samples, seed=303).edge_indices.tolist()
    crossing_sets = []
    for _ in range(20):
        side = {0} | {v for v in range(1, 6) if rng.random() < 0.5}
        if len(side) == 6:
            side = {0, 1}
        crossing_sets.append({
            i for i, (u, v) in enumerate(g.edges) if (u in side) != (v in side)
        })
    all_ok = True
    worst = -math.inf
    for crossing in crossing_sets:
        counts = [sum(1 for i in t if i in crossing) for t in trees]
        s = bs_stats(counts)
        slack = s.variance - s.mean - 3 * s.slack_stderr
        worst = max(worst, slack)
        if slack > 0:
            all_ok = False
    ok = report(9, "cut counts are Bernoulli sums", all_ok, f"worst var-mean slack {worst:.4f}")
    assert ok


def test_10_batch_determinism(tmp_path):
    """Re-running identical flags reproduces every numeric column except ms."""
    args = ["batch", "--family", "random-closure", "--n", "7", "--instances", "2",
            "--k", "2,5", "--trials", "2", "--seed", "321"]
    paths = [str(tmp_path / "one.csv"), str(tmp_path / "two.csv")]
    for p in paths:
        assert main(args + ["--emit", p]) == 0
    rows = []
    for p in paths:
        with open(p) as fh:
            rows.append([r[:-1] for r in csv.reader(fh)])  # drop wall-time column
    summaries = []
    for p in paths:
        payload = json.loads(open(p.replace(".csv", ".summary.json")).read())
        summaries.append(payload)
    ok = report(10, "batch determinism", rows[0] == rows[1] and summaries[0] == summaries[1],
                f"{len(rows[0]) - 1} rows compared")
    assert ok
