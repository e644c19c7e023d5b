"""Randomized spanning-tree rounding for minimum-cost k-edge-connected
spanning multi-subgraphs, with the relaxation, fitting, sampling, and
certification machinery needed to test every claim at desk scale.

The package namespace holds the pipeline and its inputs; every other name is
imported from its module (``kecsm.core``, ``kecsm.lp``, ``kecsm.split``,
``kecsm.treedist``, ``kecsm.sampler``, ``kecsm.rounding``, ``kecsm.verify``,
``kecsm.instances``, ``kecsm.pipeline``)."""

from .core import MetricInstance, MultiEdgeSet, metric_closure
from .lp import solve_lp
from .sampler import sample_fitted_batch
from .verify import verify_k_connectivity
from .instances import euclidean_instance, load_instance, random_closure_instance
from .pipeline import prepare, round_prepared, run_baseline, run_batch, run_pipeline

__version__ = "0.1.0"
