"""SHA-256 over deterministic solver outputs, to show that a change keeps results identical.

Run from a checkout as ``PYTHONPATH=src python tests/identity_digest.py``; to
hash another checkout with the same script, point ``PYTHONPATH`` at its
``src``.  Two checkouts that print the same digest give byte-identical batch
rows, LP vertices, fitted laws, MSTs, roundings, baselines and brute-force
optima on the fixed seeds below.  ``tests/test_identity_digest.py`` pins
the digest; pytest does not collect this file.

With ``--parts`` it also prints one SHA-256 per section of those outputs, so
two checkouts whose digests differ show which section moved.
"""

import argparse
import hashlib
import itertools

import numpy as np

import kecsm
from kecsm import rounding, treedist
from kecsm.verify import brute_force_opt
from oracles import enumerate_spanning_trees

CELLS = [("euclidean", 32, 8), ("random-closure", 32, 8), ("euclidean", 48, 8),
         ("random-closure", 48, 8), ("random-closure", 32, 64), ("random-closure", 32, 256),
         ("euclidean", 32, 64), ("random-closure", 48, 4), ("random-closure", 48, 6),
         ("euclidean", 40, 4), ("euclidean", 40, 6)]


SECTIONS = ("batch rows", "LP vertices", "fits", "MSTs", "roundings", "baselines", "brute force",
            "enumeration")


def digests() -> tuple[str, dict[str, str]]:
    """SHA-256 (hex) over the outputs listed in the module docstring, and one
    per section; the combined hash reads every section's bytes in the order
    they are produced."""
    whole = hashlib.sha256()
    parts = {name: hashlib.sha256() for name in SECTIONS}

    def put(section, *xs):
        data = repr(xs).encode()
        whole.update(data)
        parts[section].update(data)

    arr = lambda a: np.asarray(a, dtype=float).tobytes().hex()

    for family in ("euclidean", "random-closure"):
        rep = kecsm.run_batch(family, n=10, instances=2, k_values=[2, 4, 8, 17], trials=3, seed_base=1)
        for r in rep.records:
            put("batch rows", r.as_row()[:-1])  # every column but the wall time
    gen = {"euclidean": kecsm.euclidean_instance, "random-closure": kecsm.random_closure_instance}
    for fam, n, k in CELLS:
        prep = kecsm.prepare(gen[fam](n, k, 1))
        put("LP vertices", sorted(prep.fractional.values.items()), prep.fractional.objective)
        w = prep.weights
        put("fits", arr(w.lam), arr(w.fitted_marginals), w.forced, w.deleted, w.sweeps, w.max_ratio)
        for pc in w.pieces:
            put("fits", pc.graph.n, pc.graph.edges, arr(pc.lam), pc.kept)
        g0 = prep.split_graph
        put("MSTs", tuple(sorted(rounding.mst(g0))))
        for seed in (0, 1, 2):
            out = rounding.run_rounding(g0, w, rounding.RoundingParams.make(k, seed=seed))
            for counts in (out.t_star, out.b_set, out.f_set):  # edge indices, hashed as pairs
                put("roundings", sorted((g0.edges[i], m) for i, m in counts.items()))
            put("roundings", sorted(out.final.multiplicity.items()))
            put("roundings", out.cost_t_star, out.cost_b, out.cost_f, out.augmentations_per_tree)
    for seed in range(4):
        inst = kecsm.random_closure_instance(8, 6, seed)
        for which in ("naive-mst-double", "karger-independent"):
            put("baselines", kecsm.run_baseline(inst, which, seed=seed).as_row()[:-1])
    for n, k, seed in itertools.product((3, 4, 5), (2, 3), range(2)):
        cost, sol = brute_force_opt(kecsm.euclidean_instance(n, k, seed))
        put("brute force", cost, sorted(sol.multiplicity.items()))
    g = treedist.EdgeGraph(n=5, edges=((0, 1), (0, 1), (1, 2), (2, 3), (3, 4), (0, 4), (1, 3), (2, 4)))
    put("enumeration", enumerate_spanning_trees(g))
    return whole.hexdigest(), {name: h.hexdigest() for name, h in parts.items()}


def digest() -> str:
    """SHA-256 (hex) over the outputs listed in the module docstring."""
    return digests()[0]


if __name__ == "__main__":
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parts", action="store_true", help="also print one SHA-256 per section")
    combined, parts = digests()
    print(combined)
    if parser.parse_args().parts:
        for name, sha in parts.items():
            print(f"{sha}  {name}")
