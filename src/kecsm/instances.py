"""Instance loading (matrix JSON and TSPLIB EUC_2D) and random instance families."""

from __future__ import annotations

import json

import numpy as np

from .core import MetricInstance, metric_closure, validate_metric


class InstanceFormatError(ValueError):
    """Unreadable or invalid instance input."""


def json_int(value) -> int:
    """A JSON integer field as an int; an integral float such as 8.0 passes, a
    bool, string or fractional value raises ValueError."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    if not isinstance(value, int) or isinstance(value, bool):
        raise ValueError(f"expected an integer, got {value!r}")
    return value


def parse_matrix_json(text: str, k: int | None = None, closure: bool = False) -> MetricInstance:
    """Instance from a JSON object with fields n, k, costs (n x n array)."""
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(f"invalid JSON: {exc}") from exc
    try:
        n = json_int(obj["n"])
        file_k = json_int(obj["k"]) if "k" in obj else None
        costs = np.array(obj["costs"], dtype=float)
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise InstanceFormatError(f"matrix-json needs integer n, k and an n x n costs array: {exc}") from exc
    use_k = k if k is not None else file_k
    if use_k is None:
        raise InstanceFormatError("no connectivity target: set \"k\" in the file or pass --k")
    if costs.shape != (n, n):
        raise InstanceFormatError(f"costs must be {n}x{n}, got {costs.shape}")
    return _finish(n, costs, use_k, closure)


def parse_tsplib_euc2d(text: str, k: int | None = None, closure: bool = False) -> MetricInstance:
    """Instance from the TSPLIB EUC_2D subset (NODE_COORD_SECTION only).

    Costs follow the TSPLIB convention: Euclidean distance rounded to the
    nearest integer.  Rounding can break the triangle inequality, in which
    case the closure flag is required just as for matrix input.
    """
    dimension = None
    weight_type = None
    coords: dict[int, tuple[float, float]] = {}
    in_coords = False
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line == "EOF":
            in_coords = False
            continue
        if in_coords:
            parts = line.split()
            try:
                idx = int(parts[0])
                coords[idx] = (float(parts[1]), float(parts[2]))
            except (IndexError, ValueError) as exc:
                raise InstanceFormatError(f"bad coordinate line {line!r}") from exc
            continue
        if line.startswith("NODE_COORD_SECTION"):
            in_coords = True
        elif ":" in line:
            key, _, value = line.partition(":")
            key = key.strip().upper()
            value = value.strip()
            if key == "DIMENSION":
                try:
                    dimension = int(value)
                except ValueError:
                    raise InstanceFormatError(f"DIMENSION must be an integer, got {value!r}") from None
            elif key == "EDGE_WEIGHT_TYPE":
                weight_type = value.upper()
    if weight_type not in (None, "EUC_2D"):
        raise InstanceFormatError(f"only EUC_2D instances are supported, got {weight_type}")
    if not coords:
        raise InstanceFormatError("no NODE_COORD_SECTION found")
    n = dimension if dimension is not None else len(coords)
    # the length test first: a huge DIMENSION must not build a huge id list
    if len(coords) != n or sorted(coords) != list(range(1, n + 1)):
        raise InstanceFormatError(f"expected node ids 1..{n}")
    if k is None:
        raise InstanceFormatError("TSPLIB files carry no connectivity target; pass --k")
    pts = np.array([coords[i + 1] for i in range(n)])
    diff = pts[:, None, :] - pts[None, :, :]
    costs = np.floor(np.sqrt((diff ** 2).sum(axis=2)) + 0.5)
    np.fill_diagonal(costs, 0.0)
    return _finish(n, costs, k, closure)


def _finish(n: int, costs: np.ndarray, k: int, closure: bool) -> MetricInstance:
    if closure:
        try:
            return metric_closure(n, costs, k)
        except ValueError as exc:
            raise InstanceFormatError(str(exc)) from exc
    try:
        inst = MetricInstance(n=n, cost=costs, k=k)
    except ValueError as exc:
        raise InstanceFormatError(str(exc)) from exc
    violations = validate_metric(inst)
    if violations:
        raise InstanceFormatError(
            f"instance is not metric ({len(violations)} violations; first: {violations[0]}); "
            f"rerun with --closure to repair"
        )
    return inst


def load_instance(path: str, fmt: str, k: int | None = None, closure: bool = False) -> MetricInstance:
    """Read an instance file in one of the supported formats."""
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise InstanceFormatError(f"cannot read {path}: {exc}") from exc
    if fmt == "matrix-json":
        return parse_matrix_json(text, k=k, closure=closure)
    if fmt == "tsplib-euc2d":
        return parse_tsplib_euc2d(text, k=k, closure=closure)
    raise InstanceFormatError(f"unknown format {fmt!r} (use matrix-json or tsplib-euc2d)")


def euclidean_instance(n: int, k: int, seed: int) -> MetricInstance:
    """Uniform points in the unit square with exact Euclidean costs."""
    rng = np.random.default_rng(seed)
    pts = rng.random((n, 2))
    diff = pts[:, None, :] - pts[None, :, :]
    costs = np.sqrt((diff ** 2).sum(axis=2))
    np.fill_diagonal(costs, 0.0)
    return MetricInstance(n=n, cost=costs, k=k)


def random_closure_instance(n: int, k: int, seed: int) -> MetricInstance:
    """Symmetric uniform costs repaired into a metric by shortest-path closure."""
    rng = np.random.default_rng(seed)
    raw = rng.random((n, n))
    raw = (raw + raw.T) / 2.0
    np.fill_diagonal(raw, 0.0)
    return metric_closure(n, raw, k)


FAMILIES = {
    "euclidean": euclidean_instance,
    "random-closure": random_closure_instance,
}


def family_instance(family: str, n: int, k: int, seed: int) -> MetricInstance:
    try:
        gen = FAMILIES[family]
    except KeyError:
        raise InstanceFormatError(f"unknown family {family!r} (use {'/'.join(FAMILIES)})") from None
    return gen(n, k, seed)
