"""Per-layer spans and counters, recorded from outside the program.

The tracer replaces module-level kecsm functions by wrappers that time each
call and read counters off the returned objects (LPReport, LambdaWeights,
RoundingOutput).  Only the named module's attribute is replaced, so a
function imported into several modules is attributed to the caller that the
span name states: ``kecsm.lp.global_min_cut`` is the LP separation oracle,
``kecsm.pipeline.verify_k_connectivity`` the certificate.  A function that no
longer exists is listed in ``absent`` and its span stays empty.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from types import SimpleNamespace


def _lp_counts(counts, args, result):
    report = result[1]
    counts["lp.iterations"] += report.iterations
    counts["lp.cuts"] += report.cuts_added


def _split_counts(counts, args, result):
    counts["split.edges"] += len(result.edges)


def _fit_counts(counts, args, result):
    counts["fit.sweeps"] += result.sweeps
    counts["fit.pieces"] += len(result.pieces)
    counts["fit.forced"] += len(result.forced)
    counts["fit.max_ratio"] = max(counts["fit.max_ratio"], result.max_ratio)


def _round_counts(counts, args, result):
    g0 = args[0]
    counts["round.augments"] += result.augmentation_count
    counts["round.tree_edges"] += len(result.augmentations_per_tree) * (g0.n0 - 1)


def _sample_counts(counts, args, result):
    counts["sample.trees"] += len(result)


# (module, attribute, span name, counter reader)
WRAPPED = (
    ("kecsm.pipeline", "prepare", "prepare", None),
    ("kecsm.pipeline", "solve_lp", "lp", _lp_counts),
    ("kecsm.lp", "simplex_min", "lp.simplex", None),
    ("kecsm.lp", "global_min_cut", "lp.mincut", None),
    ("kecsm.pipeline", "build_split_graph", "split", _split_counts),
    ("kecsm.pipeline", "fit_max_entropy", "fit", _fit_counts),
    ("kecsm.pipeline", "run_rounding", "round", _round_counts),
    ("kecsm.rounding", "sample_fitted_batch", "sample", _sample_counts),
    ("kecsm.rounding", "fundamental_cut_counts", "round.fcut", None),
    ("kecsm.rounding", "mst", "round.mst", None),
    ("kecsm.pipeline", "verify_k_connectivity", "cert", None),
)

# Spans that partition one operation; their sum over the untraced wall time
# is the trace coverage.
STAGES = ("lp", "split", "fit", "round", "cert")


class Tracer:
    """Total seconds and calls per span name, plus counters from results."""

    def __init__(self):
        self.absent: list[str] = []
        self.broken_counters: set[str] = set()
        self._patches: list[tuple[object, str, object]] = []
        self.reset()

    def reset(self):
        self.seconds: defaultdict[str, float] = defaultdict(float)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, float] = defaultdict(float)

    def snapshot(self) -> SimpleNamespace:
        """Return what was recorded so far and start over."""
        state = SimpleNamespace(seconds=self.seconds, calls=self.calls, counts=self.counts)
        self.reset()
        return state

    def install(self):
        self.absent = []
        for module_name, attr, span, reader in WRAPPED:
            module = importlib.import_module(module_name)
            fn = getattr(module, attr, None)
            if fn is None:
                self.absent.append(f"{module_name}.{attr}")
                continue
            self._patches.append((module, attr, fn))
            setattr(module, attr, self._wrap(fn, span, reader))

    def uninstall(self):
        while self._patches:
            module, attr, fn = self._patches.pop()
            setattr(module, attr, fn)

    def record(self, span: str, seconds: float):
        self.seconds[span] += seconds
        self.calls[span] += 1

    def _wrap(self, fn, span, reader):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                return_value = fn(*args, **kwargs)
            finally:
                self.record(span, time.perf_counter() - start)
            if reader is not None:
                try:
                    reader(self.counts, args, return_value)
                except (AttributeError, IndexError, TypeError):
                    # a result type changed shape: report, keep measuring
                    self.broken_counters.add(span)
            return return_value

        return wrapper
