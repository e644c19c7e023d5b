"""End-to-end orchestration, experiment batches, baselines, and report emission."""

from __future__ import annotations

import csv
import json
import math
import os
import time
from dataclasses import dataclass, field, fields

import numpy as np

from .core import MetricInstance, MultiEdgeSet
from .lp import FractionalSolution, LPReport, solve_lp
from .rounding import RoundingOutput, RoundingParams, run_rounding
from .sampler import RngStream
from .split import SplitGraph, build_split_graph
from .treedist import LambdaWeights, fit_max_entropy
from .verify import ConnectivityCertificate, TooLargeError, brute_force_opt, verify_k_connectivity

@dataclass(frozen=True)
class RunRecord:
    """One report row; its fields, in order, are the CSV columns."""

    instance_id: str
    n: int
    k: int
    alpha: float
    t: int
    b: int
    seed: int
    lp_cost: float
    cost_tstar: float
    cost_b: float
    cost_f: float
    total: float
    ratio_lp: float
    ratio_opt: float | None
    connected: bool
    augments: int
    ms: float

    def as_row(self) -> list[str]:
        return [_csv_cell(getattr(self, f.name)) for f in fields(self)]


def _csv_cell(value) -> str:
    """Floats by repr (exact round trip), None as empty, bools as 1/0."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "1" if value else "0"
    return repr(value) if isinstance(value, float) else str(value)


CSV_COLUMNS = [f.name for f in fields(RunRecord)]


@dataclass
class SolvedRelaxation:
    """LP + fitted distribution for one (instance, k); reusable across seeds."""

    instance: MetricInstance
    fractional: FractionalSolution
    lp_report: LPReport
    split_graph: SplitGraph
    weights: LambdaWeights


@dataclass
class PipelineResult:
    """Record plus the intermediate artifacts of one full solve."""

    record: RunRecord
    relaxation: SolvedRelaxation
    rounding: RoundingOutput
    certificate: ConnectivityCertificate


def prepare(inst: MetricInstance, split_vertex: int = 0) -> SolvedRelaxation:
    """Deterministic half of the pipeline: relaxation, split, max-entropy fit of (2/k) x0."""
    frac, report = solve_lp(inst)
    g0 = build_split_graph(inst, frac, split_vertex=split_vertex)
    weights = fit_max_entropy(g0.graph, (2.0 / float(inst.k)) * g0.x0)
    return SolvedRelaxation(
        instance=inst,
        fractional=frac,
        lp_report=report,
        split_graph=g0,
        weights=weights,
    )


def round_prepared(prep: SolvedRelaxation, seed: int, alpha: float | None = None,
                   instance_id: str = "", opt_cost: float | None = None) -> PipelineResult:
    """Randomized half: sample, assemble, certify, and fill the report row."""
    inst = prep.instance
    started = time.perf_counter()
    params = RoundingParams.make(inst.k, alpha=alpha, seed=seed)
    out = run_rounding(prep.split_graph, prep.weights, params)
    cert = verify_k_connectivity(out.final, inst.n, inst.k)
    ms = (time.perf_counter() - started) * 1000.0
    lp_cost = prep.fractional.objective
    record = RunRecord(
        instance_id=instance_id,
        n=inst.n,
        k=inst.k,
        alpha=params.alpha,
        t=params.tree_count,
        b=params.mst_copies,
        seed=seed,
        lp_cost=lp_cost,
        cost_tstar=out.cost_t_star,
        cost_b=out.cost_b,
        cost_f=out.cost_f,
        total=out.total_cost,
        ratio_lp=out.total_cost / lp_cost if lp_cost > 0 else float("inf"),
        ratio_opt=None if opt_cost is None else out.total_cost / opt_cost,
        connected=cert.passes,
        augments=out.augmentation_count,
        ms=ms,
    )
    return PipelineResult(record=record, relaxation=prep, rounding=out, certificate=cert)


def run_pipeline(inst: MetricInstance, seed: int = 0, alpha: float | None = None,
                 split_vertex: int = 0, instance_id: str = "",
                 with_opt: bool = False) -> PipelineResult:
    """Full pipeline on one instance: relax, split, fit, round, certify."""
    prep = prepare(inst, split_vertex=split_vertex)
    opt_cost = None
    if with_opt:
        try:
            opt_cost, _ = brute_force_opt(inst)
        except TooLargeError:
            opt_cost = None
    return round_prepared(prep, seed=seed, alpha=alpha, instance_id=instance_id, opt_cost=opt_cost)


@dataclass
class ExperimentReport:
    """All rows of an experiment plus per-k aggregate statistics."""

    records: list[RunRecord] = field(default_factory=list)

    def aggregates(self) -> dict[int, dict]:
        by_k: dict[int, list[RunRecord]] = {}
        for r in self.records:
            by_k.setdefault(r.k, []).append(r)
        out = {}
        for k, rows in sorted(by_k.items()):
            ratios = np.array([r.ratio_lp for r in rows])
            out[k] = {
                "runs": len(rows),
                "connectivity_failures": sum(0 if r.connected else 1 for r in rows),
                "mean_ratio_lp": float(ratios.mean()),
                "max_ratio_lp": float(ratios.max()),
                "stderr_ratio_lp": float(ratios.std(ddof=1) / math.sqrt(len(rows))) if len(rows) > 1 else 0.0,
                "mean_total": float(np.mean([r.total for r in rows])),
                "mean_lp_cost": float(np.mean([r.lp_cost for r in rows])),
                "mean_augments": float(np.mean([r.augments for r in rows])),
            }
        return out


def derived_seed(seed_base: int, instance_index: int, k: int, trial: int) -> int:
    """Stable per-run seed; batches are reproducible and order-independent."""
    h = seed_base
    for part in (instance_index, k, trial):
        h = (h * 1_000_003 + part + 1) & ((1 << 62) - 1)
    return h


def run_batch(family: str, n: int, instances: int, k_values, trials: int,
              seed_base: int, alpha: float | None = None) -> ExperimentReport:
    """Random-instance experiment grid over (instance, k, trial).

    The relaxation and fit are computed once per (instance, k) and shared by
    that cell's trials, which only differ in the rounding seed.
    """
    from .instances import family_instance

    k_values = list(k_values)
    if not k_values:
        raise ValueError("nothing to run: empty k list")
    if trials < 1:
        raise ValueError("trials must be at least 1")
    report = ExperimentReport()
    for idx in range(instances):
        inst_seed = seed_base + idx
        for k in k_values:
            inst = family_instance(family, n, k, inst_seed)
            instance_id = f"{family}-n{n}-i{idx}"
            prep = prepare(inst)
            for trial in range(trials):
                seed = derived_seed(seed_base, idx, k, trial)
                result = round_prepared(prep, seed=seed, alpha=alpha, instance_id=instance_id)
                report.records.append(result.record)
    report.records.sort(key=lambda r: (r.instance_id, r.k, r.seed))
    return report


def run_baseline(inst: MetricInstance, which: str, seed: int = 0,
                 instance_id: str = "") -> RunRecord:
    """Comparison heuristics sharing the pipeline's report shape.

    karger-independent: keep floor(x_e) copies plus one with probability
    frac(x_e), then add MST copies until the result certifies k-connected.
    naive-mst-double: ceil(k/2) copies of a doubled MST, k-connected by
    construction.
    """
    if which not in ("naive-mst-double", "karger-independent"):
        raise ValueError(f"unknown baseline {which!r}")
    started = time.perf_counter()
    k = inst.k
    frac, _ = solve_lp(inst)
    lp_cost = frac.objective
    mst_set = inst.mst()
    mst_cost = mst_set.total_cost(inst.cost)
    if which == "naive-mst-double":
        copies = 2 * math.ceil(k / 2)
        final = MultiEdgeSet({e: copies * m for e, m in mst_set.multiplicity.items()})
        cert = verify_k_connectivity(final, inst.n, k)
        sample_cost, repair_copies, repair_cost = 0.0, copies, copies * mst_cost
    else:
        gen = RngStream(seed=seed, stream=0).generator()
        mult: dict = {}
        for e in inst.edges():
            xe = frac.values.get(e, 0.0)
            m = int(math.floor(xe + 1e-12))
            if gen.random() < xe - m:
                m += 1
            if m:
                mult[e] = m
        final = MultiEdgeSet(mult)
        sample_cost = final.total_cost(inst.cost)
        repair_copies = 0
        cert = verify_k_connectivity(final, inst.n, k)
        while not cert.passes:
            final = final.union(mst_set)
            repair_copies += 1
            cert = verify_k_connectivity(final, inst.n, k)
        repair_cost = repair_copies * mst_cost
    total = final.total_cost(inst.cost)
    ms = (time.perf_counter() - started) * 1000.0
    return RunRecord(
        instance_id=instance_id or which,
        n=inst.n,
        k=k,
        alpha=0.0,
        t=0,
        b=repair_copies,
        seed=seed,
        lp_cost=lp_cost,
        cost_tstar=sample_cost,
        cost_b=repair_cost,
        cost_f=0.0,
        total=total,
        ratio_lp=total / lp_cost if lp_cost > 0 else float("inf"),
        ratio_opt=None,
        connected=cert.passes,
        augments=0,
        ms=ms,
    )


def write_records(records, path: str) -> None:
    """Append rows to the report CSV, creating it (with header) if missing."""
    new_file = not os.path.exists(path)
    with open(path, "a", newline="") as fh:
        writer = csv.writer(fh)
        if new_file:
            writer.writerow(CSV_COLUMNS)
        for r in records:
            writer.writerow(r.as_row())


def write_summary(report: ExperimentReport, path: str) -> None:
    """Aggregate JSON keyed by k."""
    payload = {str(k): agg for k, agg in report.aggregates().items()}
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def summary_path_for(csv_path: str) -> str:
    root, _ = os.path.splitext(csv_path)
    return root + ".summary.json"
