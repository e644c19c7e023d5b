"""Command-line interface: solve, lp, sample, verify, oracle, batch, baseline.

Exit codes: 0 success, 2 connectivity failure, 3 input error, 4 non-convergence
or another LP solver failure.
"""

from __future__ import annotations

import argparse
import json
import sys
from collections import Counter

import numpy as np

from .core import MultiEdgeSet, NotConnectedError
from .instances import InstanceFormatError, load_instance
from .lp import LPError, solve_lp
from .pipeline import (
    prepare,
    run_baseline,
    run_batch,
    run_pipeline,
    summary_path_for,
    write_records,
    write_summary,
)
from .sampler import BatchTooLargeError, sample_fitted_batch
from .treedist import FitConvergenceError
from .verify import TooLargeError, brute_force_opt, verify_k_connectivity

EXIT_OK = 0
EXIT_DISCONNECTED = 2
EXIT_INPUT = 3
EXIT_NO_CONVERGENCE = 4


class UsageError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _add_instance_flags(p: argparse.ArgumentParser):
    p.add_argument("--input", required=True, help="instance file")
    p.add_argument("--format", default="matrix-json",
                   choices=["matrix-json", "tsplib-euc2d"], help="instance format")
    p.add_argument("--closure", action="store_true",
                   help="repair non-metric costs by shortest-path closure")
    p.add_argument("--k", type=int, default=None, help="connectivity target (overrides the file)")


def _parse_alpha(text: str) -> float | None:
    if text == "auto":
        return None
    message = f"--alpha must be a nonnegative number or 'auto', got {text!r}"
    try:
        alpha = float(text)
    except ValueError:
        raise UsageError(message) from None
    if not alpha >= 0:  # NaN too
        raise UsageError(message)
    return alpha


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low``."""

    def integer(text: str) -> int:
        value = int(text)  # argparse reports a ValueError as "invalid integer value"
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return integer


def _split_vertex(args, inst) -> int:
    if not 0 <= args.split_vertex < inst.n:
        raise UsageError(f"--split-vertex must lie in 0..{inst.n - 1}, got {args.split_vertex}")
    return args.split_vertex


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="kecsm", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("solve", help="full pipeline: relax, fit, round, certify")
    _add_instance_flags(p)
    p.add_argument("--alpha", default="auto", help="augmentation parameter, number or 'auto'")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--split-vertex", type=int, default=0)
    p.add_argument("--emit", default=None, help="append the report row to this CSV")
    p.add_argument("--emit-solution", default=None, help="write the output multiset as JSON")

    p = sub.add_parser("lp", help="solve the fractional relaxation only")
    _add_instance_flags(p)

    p = sub.add_parser("sample", help="sample spanning trees from the fitted distribution")
    _add_instance_flags(p)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--trials", type=_int_at_least(1), default=10, help="number of trees to sample")
    p.add_argument("--split-vertex", type=int, default=0)

    p = sub.add_parser("verify", help="certify k-connectivity of a solution file")
    _add_instance_flags(p)
    p.add_argument("--solution", required=True, help="solution JSON with an 'edges' list of [u, v, mult]")

    p = sub.add_parser("oracle", help="exact optimum by exhaustive search (tiny instances)")
    _add_instance_flags(p)

    p = sub.add_parser("batch", help="random-instance experiment grid")
    p.add_argument("--family", default="euclidean", choices=["euclidean", "random-closure"])
    p.add_argument("--n", type=_int_at_least(2), default=10)
    p.add_argument("--instances", type=_int_at_least(1), default=5)
    p.add_argument("--k", required=True, help="comma-separated connectivity targets, e.g. 2,8,16")
    p.add_argument("--trials", type=_int_at_least(1), default=5)
    p.add_argument("--seed", type=_int_at_least(0), default=0, help="base seed for the instance family")
    p.add_argument("--alpha", default="auto")
    p.add_argument("--emit", default=None, help="CSV path; a .summary.json lands beside it")

    p = sub.add_parser("baseline", help="comparison heuristics on one instance")
    _add_instance_flags(p)
    p.add_argument("--which", required=True, choices=["karger-independent", "naive-mst-double"])
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--emit", default=None)
    return parser


def _load(args):
    return load_instance(args.input, args.format, k=args.k, closure=args.closure)


def _cmd_solve(args) -> int:
    inst = _load(args)
    result = run_pipeline(
        inst,
        seed=args.seed,
        alpha=_parse_alpha(args.alpha),
        split_vertex=_split_vertex(args, inst),
        instance_id=args.input,
        with_opt=True,
    )
    r = result.record
    print(f"lp_cost={r.lp_cost:.6f} total={r.total:.6f} ratio_lp={r.ratio_lp:.6f} "
          f"t={r.t} b={r.b} augments={r.augments} connected={r.connected}")
    if args.emit:
        write_records([r], args.emit)
    if args.emit_solution:
        payload = {
            "n": inst.n,
            "k": inst.k,
            "edges": [[u, v, m] for (u, v), m in sorted(result.rounding.final.multiplicity.items())],
        }
        with open(args.emit_solution, "w") as fh:
            json.dump(payload, fh, indent=2)
            fh.write("\n")
    return EXIT_OK if r.connected else EXIT_DISCONNECTED


def _cmd_lp(args) -> int:
    inst = _load(args)
    frac, report = solve_lp(inst)
    print(f"objective={frac.objective:.9f} cuts={report.cuts_added} "
          f"iterations={report.iterations} core={report.core} priced={report.priced} "
          f"pivots={report.pivots} separation_slack={report.separation_slack:.3e}")
    positive = {e: v for e, v in sorted(frac.values.items()) if v > 1e-9}
    for e, v in positive.items():
        print(f"x[{e[0]},{e[1]}] = {v:.6f}")
    return EXIT_OK


def _cmd_sample(args) -> int:
    inst = _load(args)
    prep = prepare(inst, split_vertex=_split_vertex(args, inst))
    trees = sample_fitted_batch(prep.weights, args.trials, args.seed)
    g0 = prep.split_graph
    hits = np.bincount(trees.edge_indices.ravel(), minlength=len(g0.edges))
    print(f"sampled {len(trees)} trees on {g0.n0} vertices (seed {args.seed})")
    for i, e in enumerate(g0.edges):
        fitted = prep.weights.fitted_marginals[i]
        print(f"edge {e} origin {g0.origin(e)}: fitted={fitted:.4f} empirical={hits[i] / len(trees):.4f}")
    return EXIT_OK


def _cmd_verify(args) -> int:
    inst = _load(args)
    try:
        with open(args.solution) as fh:
            payload = json.load(fh)
        # a repeated edge, in either orientation, adds its multiplicities
        counts: Counter = Counter()
        for u, v, m in payload["edges"]:
            counts.update(MultiEdgeSet({(u, v): m}).multiplicity)
        mult = MultiEdgeSet(counts)
        if any(not 0 <= v < inst.n for e in mult.multiplicity for v in e):
            raise ValueError(f"edge endpoint outside 0..{inst.n - 1}")
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise InstanceFormatError(f"cannot read solution file: {exc}") from exc
    cert = verify_k_connectivity(mult, inst.n, inst.k)
    cost = mult.total_cost(inst.cost)
    print(f"min_cut={cert.min_cut_value} required={inst.k} passes={cert.passes} "
          f"cost={cost:.6f} witness_side={sorted(cert.witness)}")
    return EXIT_OK if cert.passes else EXIT_DISCONNECTED


def _cmd_oracle(args) -> int:
    inst = _load(args)
    try:
        cost, solution = brute_force_opt(inst)
    except TooLargeError as exc:
        raise InstanceFormatError(str(exc)) from exc
    print(f"opt_cost={cost:.6f}")
    for (u, v), m in sorted(solution.multiplicity.items()):
        print(f"edge ({u},{v}) x{m}")
    return EXIT_OK


def _cmd_batch(args) -> int:
    try:
        k_values = [int(part) for part in args.k.split(",") if part.strip()]
    except ValueError:
        raise UsageError(f"bad --k list {args.k!r}") from None
    if not k_values or min(k_values) < 2 or max(k_values) > sys.float_info.max:
        raise UsageError(f"--k needs connectivity targets >= 2 that a float can hold, got {args.k!r}")
    if len(set(k_values)) < len(k_values):
        raise UsageError(f"--k lists a connectivity target more than once, got {args.k!r}")
    report = run_batch(
        family=args.family,
        n=args.n,
        instances=args.instances,
        k_values=k_values,
        trials=args.trials,
        seed_base=args.seed,
        alpha=_parse_alpha(args.alpha),
    )
    failures = sum(0 if r.connected else 1 for r in report.records)
    for k, agg in report.aggregates().items():
        print(f"k={k}: runs={agg['runs']} mean_ratio_lp={agg['mean_ratio_lp']:.4f} "
              f"max_ratio_lp={agg['max_ratio_lp']:.4f} failures={agg['connectivity_failures']}")
    if args.emit:
        write_records(report.records, args.emit)
        write_summary(report, summary_path_for(args.emit))
    return EXIT_OK if failures == 0 else EXIT_DISCONNECTED


def _cmd_baseline(args) -> int:
    inst = _load(args)
    record = run_baseline(inst, which=args.which, seed=args.seed, instance_id=args.input)
    print(f"{args.which}: total={record.total:.6f} ratio_lp={record.ratio_lp:.6f} "
          f"repair_copies={record.b} connected={record.connected}")
    if args.emit:
        write_records([record], args.emit)
    return EXIT_OK if record.connected else EXIT_DISCONNECTED


_COMMANDS = {
    "solve": _cmd_solve,
    "lp": _cmd_lp,
    "sample": _cmd_sample,
    "verify": _cmd_verify,
    "oracle": _cmd_oracle,
    "batch": _cmd_batch,
    "baseline": _cmd_baseline,
}


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, InstanceFormatError, NotConnectedError, BatchTooLargeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except (LPError, FitConvergenceError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except OSError as exc:  # input files raise InstanceFormatError, so this is an output file
        print(f"error: cannot write {exc.filename or 'output'}: {exc.strerror or exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
