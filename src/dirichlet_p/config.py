"""JSON config parsing with strict schema validation.

Every block is validated against an explicit key set before any
computation: unknown keys are rejected and missing required keys are
reported by name, so a config typo fails fast with exit code 1 rather
than producing a silently wrong run.

Solid shapes (intervals, disks, rectangles) are converted to node sets
with a half-spacing dilation: a node belongs to the set when it lies
within min(h)/2 of the shape.  Pinned lattice sets act with an effective
boundary about half a spacing inside their nominal one, so the dilation
centers the effective plate geometry on the requested shape; on grids
whose nodes align with the shape boundary the rule adds no nodes.
"""

from __future__ import annotations

import json
from typing import Any, Callable, Sequence

import numpy as np

from .capacity import (
    Condenser,
    nodes_in_ball,
    nodes_in_box,
    nodes_in_interval,
    nodes_outside_ball,
)
from .grid import (
    CoefficientField,
    GridDomain,
    GridFunction,
    GridStructure,
    _integer,
    boundary_mask,
)
from .mappings import (
    LinearMapping,
    Mapping,
    PowerMapping,
    RadialStretch,
    SampledMapping,
)
from .pform import PFormContext
from .solve import SolveOptions

__all__ = [
    "ConfigError",
    "load_config",
    "parse_domain",
    "parse_structure",
    "parse_context",
    "parse_solve_options",
    "parse_affine",
    "parse_boundary",
    "parse_condenser",
    "parse_mapping",
    "parse_grid_function",
    "node_set_from_shape",
    "nearest_node",
]


class ConfigError(ValueError):
    """Invalid or unknown configuration content."""


def load_config(path: str) -> dict[str, Any]:
    try:
        with open(path) as fh:
            cfg = json.load(fh)
    except FileNotFoundError:
        raise ConfigError(f"config file not found: {path}")
    except json.JSONDecodeError as exc:
        raise ConfigError(f"config is not valid JSON: {exc}")
    if not isinstance(cfg, dict):
        raise ConfigError("config root must be an object")
    return cfg


def _check_keys(block: dict, allowed: set[str], required: set[str], where: str) -> None:
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    for key in block:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in {where}")
    for key in required:
        if key not in block:
            raise ConfigError(f"missing required key '{key}' in {where}")


def _get_value(block: dict, key: str, kind: Callable[[Any], Any], where: str,
              default: Any = None) -> Any:
    """kind(block[key]), or kind(default) when the key is absent.

    kind is a converter such as `_integer`, float or `_as_list`; the
    TypeError or ValueError it raises becomes a config error that names the
    key.
    """
    value = block.get(key, default)
    try:
        return kind(value)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid value {value!r:.80} for '{key}' in {where}: {exc}")


def _as_list(value: Any) -> list:
    if not isinstance(value, list):
        raise TypeError("expected a list")
    return value


def _nonempty_list(value: Any) -> list:
    if not _as_list(value):
        raise ValueError("expected a nonempty list")
    return value


def _boolean(value: Any) -> bool:
    """A JSON boolean: "false" and 0 are refused where their truthiness would be read."""
    if not isinstance(value, bool):
        raise TypeError("expected true or false")
    return value


def _list_of(kind: Callable[[Any], Any]) -> Callable[[Any], list]:
    """Converter to a list with each entry converted by kind."""
    return lambda value: [kind(v) for v in _as_list(value)]


def _point(dim: int) -> Callable[[Any], np.ndarray]:
    """Converter to the float coordinates of a point in dim dimensions."""
    def convert(value: Any) -> np.ndarray:
        point = np.asarray(value, dtype=float)
        if point.shape != (dim,):
            raise ValueError(f"expected {dim} coordinates")
        return point
    return convert


def _at_least(low: int) -> Callable[[Any], int]:
    """Converter to an int no smaller than low: a count that would make a run vacuous fails."""
    def convert(value: Any) -> int:
        n = _integer(value)
        if n < low:
            raise ValueError(f"must be at least {low}")
        return n
    return convert


def parse_domain(cfg: dict[str, Any]) -> GridDomain:
    _check_keys(cfg, {"dim", "extent", "shape", "density"}, {"dim", "extent", "shape"},
                "domain")
    dim = _get_value(cfg, "dim", _integer, "domain")
    extent = _get_value(cfg, "extent", _as_list, "domain")
    shape = _get_value(cfg, "shape", _list_of(_integer), "domain")
    if not 1 <= dim <= 3:
        raise ConfigError("domain.dim must be an integer in {1, 2, 3}")
    if len(extent) != dim or len(shape) != dim:
        raise ConfigError("domain.extent and domain.shape must match domain.dim")
    density = cfg.get("density")
    try:
        return GridDomain(tuple(tuple(e) for e in extent), tuple(shape),
                          None if density is None else np.asarray(density, dtype=float))
    except (ValueError, TypeError) as exc:
        raise ConfigError(f"invalid domain: {exc}")


def _parse_field(spec: Any, domain: GridDomain) -> CoefficientField:
    if spec is None or spec == "identity":
        return CoefficientField.identity(domain)
    if isinstance(spec, str) and spec.startswith("scalar:"):
        try:
            return CoefficientField.scalar(domain, float(spec.split(":", 1)[1]))
        except ValueError as exc:
            raise ConfigError(f"invalid scalar field spec '{spec}': {exc}")
    if isinstance(spec, str) and spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        try:
            with open(path) as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read field file '{path}': {exc}")
        _check_keys(data, {"matrices", "alpha", "beta"}, {"matrices"}, "field file")
        n = domain.dim
        mats = _get_value(data, "matrices", lambda v: np.asarray(v, dtype=float).reshape(
            domain.cells_shape + (n, n)), "field file")
        try:
            return CoefficientField.from_cells(domain, mats,
                                               data.get("alpha"), data.get("beta"))
        except ValueError as exc:
            raise ConfigError(f"invalid field file '{path}': {exc}")
    raise ConfigError(f"unrecognized field spec: {spec!r}")


def parse_structure(cfg: dict[str, Any]) -> GridStructure:
    # only presence here: the top-level key set is the caller's to restrict
    _check_keys(cfg, set(cfg), {"domain"}, "config")
    domain = parse_domain(cfg["domain"])
    return GridStructure(domain, _parse_field(cfg.get("field"), domain))


def parse_context(cfg: dict[str, Any]) -> PFormContext:
    structure = parse_structure(cfg)
    _check_keys(cfg, set(cfg), {"p"}, "config")
    try:
        return PFormContext(structure, float(cfg["p"]), float(cfg.get("eps", 0.0)))
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid context: {exc}")


def parse_solve_options(cfg: dict[str, Any], tol_override: float | None = None) -> SolveOptions:
    block = cfg.get("solver", {})
    _check_keys(block, {"grad_tol", "max_iter"}, set(), "solver")
    grad_tol = _get_value(block, "grad_tol", float, "solver", 1e-8)
    max_iter = _get_value(block, "max_iter", _integer, "solver", 200)
    try:
        return SolveOptions(
            grad_tol=tol_override if tol_override is not None else grad_tol,
            max_iter=max_iter)
    except ValueError as exc:
        raise ConfigError(f"invalid solver options: {exc}")


def parse_grid_function(spec: dict[str, Any], domain: GridDomain) -> np.ndarray:
    _check_keys(spec, {"shape", "values"}, {"shape", "values"}, "grid function")
    shape = tuple(_get_value(spec, "shape", _as_list, "grid function"))
    if shape != domain.node_shape:
        raise ConfigError(
            f"grid function shape {list(shape)} does not match the domain nodes "
            f"{list(domain.node_shape)}")
    return _get_value(spec, "values", lambda v: np.asarray(v, dtype=float).reshape(shape),
                      "grid function")


def nearest_node(domain: GridDomain, point: Sequence[float]) -> tuple[int, ...]:
    idx = []
    for (a, b), s, x in zip(domain.extent, domain.shape, _point(domain.dim)(point)):
        h = (b - a) / (s - 1)
        idx.append(int(np.clip(round((x - a) / h), 0, s - 1)))
    return tuple(idx)


def _half_spacing(domain: GridDomain) -> float:
    return 0.5 * min(domain.spacing)


# Keys of each node-set type besides "type"; all of them are required.
_NODE_SET_KEYS = {
    "interval": {"a", "b"},
    "disk": {"center", "radius"},
    "outside_disk": {"center", "radius"},
    "rect": {"min", "max"},
    "nodes": {"indices"},
}


def node_set_from_shape(spec: Any, domain: GridDomain) -> np.ndarray:
    """Node set of a shape primitive with the half-spacing dilation rule."""
    if spec == "domain_boundary":
        return boundary_mask(domain)
    kind = spec.get("type") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _NODE_SET_KEYS:
        raise ConfigError("a node set is 'domain_boundary' or an object with 'type' in "
                          f"{sorted(_NODE_SET_KEYS)}, got {spec!r:.80}")
    keys = _NODE_SET_KEYS[kind] | {"type"}
    where = f"{kind} set"
    _check_keys(spec, keys, keys, where)
    grow = _half_spacing(domain)
    if kind == "interval":
        a = _get_value(spec, "a", float, where)
        return nodes_in_interval(domain, a - grow, _get_value(spec, "b", float, where) + grow)
    point = _point(domain.dim)
    if kind == "disk":
        return nodes_in_ball(domain, _get_value(spec, "center", point, where),
                             _get_value(spec, "radius", float, where) + grow)
    if kind == "outside_disk":
        return nodes_outside_ball(domain, _get_value(spec, "center", point, where),
                                  _get_value(spec, "radius", float, where) - grow)
    if kind == "rect":
        lo = _get_value(spec, "min", point, where) - grow
        return nodes_in_box(domain, lo, _get_value(spec, "max", point, where) + grow)

    def node_index(value: Any) -> tuple[int, ...]:
        idx = tuple(_integer(i) for i in (value if isinstance(value, (list, tuple)) else [value]))
        if len(idx) != domain.dim:
            raise ValueError(f"node index {list(idx)} has wrong dimension")
        if not all(-n <= i < n for i, n in zip(idx, domain.node_shape)):
            raise ValueError(f"node index {list(idx)} lies outside the grid")
        return idx

    mask = np.zeros(domain.node_shape, dtype=bool)
    for idx in _get_value(spec, "indices", _list_of(node_index), where):
        mask[idx] = True
    return mask


def parse_condenser(spec: dict[str, Any], domain: GridDomain) -> Condenser:
    _check_keys(spec, {"inner", "outer"}, {"inner", "outer"}, "condenser")
    inner = node_set_from_shape(spec["inner"], domain)
    outer = node_set_from_shape(spec["outer"], domain)
    try:
        return Condenser(inner & ~outer, outer)
    except ValueError as exc:
        raise ConfigError(f"invalid condenser: {exc}")


def parse_affine(spec: dict[str, Any], domain: GridDomain, where: str) -> np.ndarray:
    """Node values of {"affine": {"linear": [...], "constant": c}}; both default to 0."""
    _check_keys(spec, {"affine"}, {"affine"}, where)
    aff = spec["affine"]
    _check_keys(aff, {"linear", "constant"}, set(), f"{where}.affine")
    lin = _get_value(aff, "linear", lambda v: np.asarray(v, dtype=float), f"{where}.affine",
                     [0.0] * domain.dim)
    if lin.shape != (domain.dim,):
        raise ConfigError(f"{where}.affine 'linear' has wrong dimension")
    return domain.node_coords() @ lin + _get_value(aff, "constant", float, f"{where}.affine", 0.0)


def parse_boundary(spec: dict[str, Any], domain: GridDomain) -> GridFunction:
    _check_keys(spec, {"mask", "values"}, {"values"}, "boundary")
    mask = node_set_from_shape(spec.get("mask", "domain_boundary"), domain)
    if not mask.any():
        raise ConfigError("boundary mask is empty")
    values_spec = spec["values"]
    if isinstance(values_spec, (int, float)):
        vals = np.full(domain.node_shape, float(values_spec))
    elif isinstance(values_spec, dict) and "affine" in values_spec:
        vals = parse_affine(values_spec, domain, "boundary values")
    elif isinstance(values_spec, dict):
        vals = parse_grid_function(values_spec, domain)
    else:
        raise ConfigError("boundary values must be a number, an affine spec, or a grid")
    return GridFunction(np.where(mask, vals, 0.0), mask)


# (allowed, required) keys of each mapping kind besides "kind".
_MAPPING_KEYS = {
    "power": ({"k", "puncture"}, {"k"}),
    "radial": ({"a", "puncture"}, {"a"}),
    "linear": ({"A"}, {"A"}),
    "sampled": ({"file"}, {"file"}),
}


def parse_mapping(spec: dict[str, Any], domain: GridDomain) -> Mapping:
    kind = spec.get("kind") if isinstance(spec, dict) else None
    if not isinstance(kind, str) or kind not in _MAPPING_KEYS:
        raise ConfigError(f"a mapping is an object with 'kind' in {sorted(_MAPPING_KEYS)}, "
                          f"got {spec!r:.80}")
    allowed, required = _MAPPING_KEYS[kind]
    where = f"{kind} mapping"
    _check_keys(spec, allowed | {"kind"}, required | {"kind"}, where)
    try:
        if kind == "power":
            return PowerMapping(domain, _get_value(spec, "k", _integer, where),
                                _get_value(spec, "puncture", float, where, 0.15))
        if kind == "radial":
            return RadialStretch(domain, _get_value(spec, "a", float, where),
                                 _get_value(spec, "puncture", float, where, 0.1))
        if kind == "linear":
            return LinearMapping(domain, np.asarray(spec["A"], dtype=float))
        with open(spec["file"]) as fh:
            data = json.load(fh)
        _check_keys(data, {"shape", "values"}, {"shape", "values"}, "sampled file")
        vals = np.asarray(data["values"], dtype=float).reshape(
            tuple(data["shape"]) + (domain.dim,))
        return SampledMapping(domain, vals)
    except ConfigError:
        raise
    except (TypeError, ValueError, OSError) as exc:
        raise ConfigError(f"invalid mapping: {exc}")
