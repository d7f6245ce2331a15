"""JSON config reading: one typed schema per block.

Each block has one table that maps each key to a converter and a default
(`_REQUIRED` for a key that must be given).  A converter turns a JSON
value into the value the program uses or raises TypeError or ValueError;
the key's range is a parameter of it, as in `_count(3)`.  One reader,
`_read`, checks a block against its table before any computation: an
unknown key, a missing key, a wrong type and a value out of range each
raise ConfigError naming the key.  Whether a value fits the domain (a
point's dimension, a grid function's shape) is checked where it meets the
domain.  The library keeps its own ValueErrors for callers that bypass
the config.

Solid shapes (intervals, disks, rectangles) are converted to node sets
with a half-spacing dilation: a node belongs to the set when it lies
within min(h)/2 of the shape.  Pinned lattice sets act with an effective
boundary about half a spacing inside their nominal one, so the dilation
centers the effective plate geometry on the requested shape; on grids
whose nodes align with the shape boundary the rule adds no nodes.
"""

from __future__ import annotations

import json
import math
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
    "read_config",
    "parse_structure",
    "parse_context",
    "parse_solve_options",
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


_REQUIRED = object()  # the default of a key that must be given

_Table = dict[str, tuple[Callable[[Any], Any], Any]]


def _read(block: dict, table: _Table, where: str) -> dict[str, Any]:
    """Each key of table, converted, from block.

    A key that is absent or null takes its default, converted like a
    given value; a default of None leaves the key unset.
    """
    if not isinstance(block, dict):
        raise ConfigError(f"{where} must be an object")
    for key in block:
        if key not in table:
            raise ConfigError(f"unknown key '{key}' in {where}")
    out = {}
    for key, (convert, default) in table.items():
        value = default if block.get(key) is None else block[key]
        if value is _REQUIRED:
            raise ConfigError(f"missing required key '{key}' in {where}")
        try:
            out[key] = None if value is None else convert(value)
        except ConfigError:
            raise
        except (TypeError, ValueError) as exc:
            raise ConfigError(f"invalid value {value!r:.80} for '{key}' in {where}: {exc}") \
                from None
    return out


# -- converters ----------------------------------------------------------------

def _number(value: Any) -> float:
    """A finite JSON number as a float: booleans, strings, inf and nan are refused."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise TypeError("expected a number")
    try:
        x = float(value)
    except OverflowError:
        x = math.inf
    if not math.isfinite(x):
        raise ValueError("expected a finite number")
    return x


def _ranged(kind: Callable[[Any], Any], test: Callable[[Any], bool], text: str):
    """Converter to kind(value), refused unless test holds for it."""
    def convert(value: Any) -> Any:
        x = kind(value)
        if not test(x):
            raise ValueError(f"must be {text}")
        return x
    return convert


_POSITIVE = _ranged(_number, lambda x: x > 0, "positive")
_NONNEGATIVE = _ranged(_number, lambda x: x >= 0, "at least 0")


def _count(low: int) -> Callable[[Any], int]:
    """Converter to an int no smaller than low: a count that would make a run vacuous fails."""
    return _ranged(_integer, lambda n: n >= low, f"at least {low}")


def _choice(*options: Any) -> Callable[[Any], Any]:
    """Converter to one of options, of the same JSON type: 16.0 is not 16."""
    def convert(value: Any) -> Any:
        if not any(type(value) is type(o) and value == o for o in options):
            raise ValueError(f"expected one of {list(options)}, got {value!r:.40}")
        return value
    return convert


# "false" and 0 are no booleans where their truthiness would be read
_boolean = _ranged(lambda value: value, lambda x: isinstance(x, bool), "true or false")
_string = _ranged(lambda value: value, lambda x: isinstance(x, str), "a string")


def _list_of(kind: Callable[[Any], Any], nonempty: bool = False) -> Callable[[Any], list]:
    """Converter to a list with each entry converted by kind."""
    def convert(value: Any) -> list:
        if not isinstance(value, list):
            raise TypeError("expected a list")
        if nonempty and not value:
            raise ValueError("expected a nonempty list")
        return [kind(v) for v in value]
    return convert


_point = _list_of(_number)


def _numbers(value: Any) -> np.ndarray:
    """A JSON number or a (nested) list of them, as a float array."""
    arr = None if isinstance(value, bool) else np.asarray(value)
    if arr is None or arr.dtype.kind not in "if":
        raise TypeError("expected numbers")
    return arr.astype(float)


def _index(value: Any) -> tuple[int, ...]:
    """A node index: a list of integers, or one integer on a 1-D grid."""
    return tuple(_integer(i) for i in (value if isinstance(value, (list, tuple)) else [value]))


def _block(table: _Table, where: str, check: Callable[[dict, str], None] | None = None):
    """Converter of a nested block: read with table, then check(values, where) across keys."""
    def convert(value: Any) -> dict:
        if not isinstance(value, dict):
            raise TypeError("expected an object")
        values = _read(value, table, where)
        if check is not None:
            check(values, where)
        return values
    return convert


def _tagged(tag: str, tables: dict[str, _Table], what: str) -> Callable[[Any], dict]:
    """Converter of an object whose `tag` key names its kind, read with that kind's table."""
    def convert(value: Any) -> dict:
        kind = value.get(tag) if isinstance(value, dict) else None
        if not (isinstance(kind, str) and kind in tables):
            raise ValueError(f"expected an object with '{tag}' in {sorted(tables)}")
        rest = {k: v for k, v in value.items() if k != tag}
        return {tag: kind, **_read(rest, tables[kind], f"{kind} {what}")}
    return convert


def _ordered_radii(radii: dict, where: str) -> None:
    if not radii["r"] < radii["R"]:
        raise ConfigError(f"'r' must be below 'R' in {where}, got r = {radii['r']:g} "
                          f"and R = {radii['R']:g}")


def _field_spec(value: Any) -> str:
    """'identity', 'scalar:<positive number>' or 'file:<path>'; the file is read when used."""
    kind, _, arg = value.partition(":") if isinstance(value, str) else ("", "", "")
    if value == "identity" or kind == "file" and arg:
        return value
    if kind == "scalar":
        _POSITIVE(float(arg))
        return value
    raise ValueError("expected 'identity', 'scalar:<positive number>' or 'file:<path>'")


def _centering(value: Any) -> float | None:
    """The constant c subtracted from u: a number, or "mean" for u's mean."""
    return None if value == "mean" else _number(value)


def _function_or(other: Callable[[Any], Any], where: str) -> Callable[[Any], Any]:
    """Converter of an affine spec or a grid function, and of any other value by other."""
    def convert(value: Any) -> Any:
        if not isinstance(value, dict):
            return other(value)
        if "affine" in value:
            return _read(value, {"affine": (_block(_AFFINE, f"{where}.affine"), _REQUIRED)},
                         where)
        return _read(value, _GRID_FUNCTION, "grid function")
    return convert


def _obstacle(value: Any) -> dict:
    """{"region": <node set>, "level": v}, or a grid function."""
    if isinstance(value, dict) and "region" in value:
        return _read(value, _OBSTACLE, "solve.obstacle")
    return _block(_OBSTACLE_GRID, "grid function")(value)


# -- the tables ----------------------------------------------------------------

_NODE_SETS: dict[str, _Table] = {
    "interval": {"a": (_number, _REQUIRED), "b": (_number, _REQUIRED)},
    "disk": {"center": (_point, _REQUIRED), "radius": (_NONNEGATIVE, _REQUIRED)},
    "outside_disk": {"center": (_point, _REQUIRED), "radius": (_NONNEGATIVE, _REQUIRED)},
    "rect": {"min": (_point, _REQUIRED), "max": (_point, _REQUIRED)},
    "nodes": {"indices": (_list_of(_index), _REQUIRED)},
}
_shape = _tagged("type", _NODE_SETS, "set")


def _node_set(value: Any) -> Any:
    """'domain_boundary', or an object with 'type' in _NODE_SETS."""
    return value if value == "domain_boundary" else _shape(value)


_DOMAIN: _Table = {
    "dim": (_ranged(_integer, lambda n: 1 <= n <= 3, "1, 2 or 3"), _REQUIRED),
    "extent": (_list_of(_ranged(_point, lambda e: len(e) == 2 and e[0] < e[1],
                                "an interval [a, b] with a < b")), _REQUIRED),
    "shape": (_list_of(_count(2)), _REQUIRED),
    "density": (_ranged(_numbers, lambda d: bool(np.all(d > 0)), "positive"), None),
}
_FIELD_FILE: _Table = {"matrices": (_numbers, _REQUIRED), "alpha": (_POSITIVE, None),
                       "beta": (_POSITIVE, None)}
_SOLVER: _Table = {"grad_tol": (_POSITIVE, 1e-8), "max_iter": (_count(1), 200)}
_AFFINE: _Table = {"linear": (_point, None), "constant": (_number, 0.0)}
_GRID_FUNCTION: _Table = {
    "shape": (_list_of(_integer), _REQUIRED),
    "values": (_ranged(_numbers, lambda v: bool(np.all(np.isfinite(v))), "finite"), _REQUIRED),
}
# an obstacle is -inf where it does not bound the solution
_OBSTACLE_GRID: _Table = {**_GRID_FUNCTION, "values": (
    _ranged(_numbers, lambda v: not np.any(np.isnan(v) | (v == np.inf)), "finite or -inf"),
    _REQUIRED)}
_BOUNDARY: _Table = {"mask": (_node_set, "domain_boundary"),
                     "values": (_function_or(_number, "boundary values"), _REQUIRED)}
_OBSTACLE: _Table = {"region": (_node_set, _REQUIRED), "level": (_number, 0.0)}
_CONDENSER: _Table = {"inner": (_node_set, _REQUIRED), "outer": (_node_set, _REQUIRED)}
_RADII: _Table = {"r": (_POSITIVE, _REQUIRED), "R": (_POSITIVE, _REQUIRED)}
_BALL: _Table = {"center": (_point, _REQUIRED), **_RADII}
_CUTOFF: _Table = {"r": (_POSITIVE, _REQUIRED)}
_MAPPINGS: dict[str, _Table] = {
    "power": {"k": (_ranged(_integer, bool, "nonzero"), _REQUIRED),
              "puncture": (_NONNEGATIVE, 0.15)},
    "radial": {"a": (_POSITIVE, _REQUIRED), "puncture": (_NONNEGATIVE, 0.1)},
    "linear": {"A": (_list_of(_point), _REQUIRED)},
    "sampled": {"file": (_string, _REQUIRED)},
}
_STENCIL = _choice(8, 16)

_SOLVE: _Table = {"boundary": (_block(_BOUNDARY, "boundary"), _REQUIRED),
                  "obstacle": (_obstacle, None)}
_CAPACITY: _Table = {"condenser": (_block(_CONDENSER, "condenser"), _REQUIRED),
                     "vi_samples": (_count(3), 8)}
_CACCIOPPOLI: _Table = {
    "u": (_function_or(_choice("re_z2", "log_abs"), "caccioppoli.u"), _REQUIRED),
    "c": (_centering, None),
    "balls": (_list_of(_block(_BALL, "caccioppoli ball", _ordered_radii), nonempty=True),
              _REQUIRED),
    "variant": (_choice("ball", "cutoff", "euclidean"), "ball"),
    "residual_tol": (_NONNEGATIVE, 1e-3),
    "neighborhood": (_STENCIL, 16),
}
_QR: _Table = {
    "mapping": (_tagged("kind", _MAPPINGS, "mapping"), _REQUIRED),
    "verify": (_boolean, True),
    "min_order": (_POSITIVE, 1.0),
    "include_log": (_boolean, None),
}
_METRIC: _Table = {
    "source": (_point, _REQUIRED),
    "neighborhood": (_STENCIL, 16),
    "targets": (_list_of(_point), None),
    "cutoff": (_block(_CUTOFF, "metric.cutoff"), None),
    "truncation": (_block(_RADII, "metric.truncation", _ordered_radii), None),
}
_CHECK: _Table = {
    "suites": (_list_of(_choice("sector", "monotone", "contraction", "d1d2", "choquet",
                                "union_diff"), nonempty=True),
               ["sector", "monotone", "contraction"]),
    "trials": (_count(1), 50),
}


def _domain(value: Any) -> GridDomain:
    spec = _block(_DOMAIN, "domain")(value)
    if not len(spec["extent"]) == len(spec["shape"]) == spec["dim"]:
        raise ConfigError("domain 'extent' and 'shape' must have 'dim' entries")
    try:
        return GridDomain(tuple(map(tuple, spec["extent"])), tuple(spec["shape"]),
                          spec["density"])
    except ValueError as exc:
        raise ConfigError(f"invalid domain: {exc}")


# Keys any command may use; `p` is required by the commands marked below.
_CONFIG: _Table = {
    "domain": (_domain, _REQUIRED),
    "field": (_field_spec, "identity"),
    "p": (_ranged(_number, lambda p: p > 1, "above 1"), None),
    "eps": (_NONNEGATIVE, 0.0),
    "seed": (_count(0), 0),
    "solver": (_block(_SOLVER, "solver"), {}),
    "output": (_string, None),
}
# Each command's block table, and whether its run builds a p-form context.
_COMMAND_BLOCKS: dict[str, tuple[_Table, bool]] = {
    "solve": (_SOLVE, True),
    "capacity": (_CAPACITY, True),
    "caccioppoli": (_CACCIOPPOLI, True),
    "qr": (_QR, False),
    "metric": (_METRIC, False),
    "check": (_CHECK, True),
}


def read_config(cfg: dict[str, Any], command: str) -> dict[str, Any]:
    """The shared keys and `command`'s block, read against the schema.

    `check`'s block may be omitted.  Another command's block may be
    present; it is left unread.
    """
    block, needs_p = _COMMAND_BLOCKS[command]
    table = {**_CONFIG, **dict.fromkeys(_COMMAND_BLOCKS, (lambda value: value, None))}
    table[command] = (_block(block, command), {} if command == "check" else _REQUIRED)
    if needs_p:
        table["p"] = (table["p"][0], _REQUIRED)
    return _read(cfg, table, "config")


# -- the values read, placed on the domain ------------------------------------

def _fit(value: list, n: int, key: str, where: str) -> np.ndarray:
    """value as an array, refused unless it has n entries, one per axis."""
    if len(value) != n:
        raise ConfigError(f"invalid value {value!r:.80} for '{key}' in {where}: "
                          f"expected {n} entries")
    return np.asarray(value, dtype=float)


def _read_file(path: str, table: _Table, where: str) -> dict[str, Any]:
    try:
        with open(path) as fh:
            data = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {where} '{path}': {exc}")
    return _read(data, table, where)


def parse_structure(cfg: dict[str, Any]) -> GridStructure:
    """The grid structure of a config returned by `read_config`."""
    domain = cfg["domain"]
    kind, _, arg = cfg["field"].partition(":")
    if kind == "scalar":
        return GridStructure(domain, CoefficientField.scalar(domain, float(arg)))
    if kind != "file":
        return GridStructure(domain, CoefficientField.identity(domain))
    data = _read_file(arg, _FIELD_FILE, "field file")
    n = domain.dim
    try:
        return GridStructure(domain, CoefficientField.from_cells(
            domain, data["matrices"].reshape(domain.cells_shape + (n, n)),
            data["alpha"], data["beta"]))
    except ValueError as exc:
        raise ConfigError(f"invalid field file '{arg}': {exc}")


def parse_context(cfg: dict[str, Any]) -> PFormContext:
    """The p-form context of a config returned by `read_config`."""
    structure = parse_structure(cfg)
    try:
        return PFormContext(structure, cfg["p"], cfg["eps"])
    except ValueError as exc:
        raise ConfigError(f"invalid context: {exc}")


def parse_solve_options(cfg: dict[str, Any], tol_override: float | None = None) -> SolveOptions:
    """Solver options of a config, read or not; tol_override replaces grad_tol."""
    solver = _read(cfg.get("solver", {}), _SOLVER, "solver")
    if tol_override is not None:
        solver["grad_tol"] = _read({"grad_tol": tol_override}, _SOLVER, "--tol")["grad_tol"]
    return SolveOptions(**solver)


def _function_values(spec: dict[str, Any], domain: GridDomain, where: str) -> np.ndarray:
    """Node values of {"affine": {"linear": [...], "constant": c}}, or of a grid function."""
    if "affine" in spec:
        aff = spec["affine"]
        lin = np.zeros(domain.dim) if aff["linear"] is None else \
            _fit(aff["linear"], domain.dim, "linear", f"{where}.affine")
        return domain.node_coords() @ lin + aff["constant"]
    if tuple(spec["shape"]) != domain.node_shape:
        raise ConfigError(f"invalid value {spec['shape']} for 'shape' in grid function: "
                          f"expected the domain's node shape {list(domain.node_shape)}")
    if spec["values"].size != np.prod(domain.node_shape):
        raise ConfigError(f"'values' in grid function must have {np.prod(domain.node_shape)} "
                          "entries")
    return spec["values"].reshape(domain.node_shape)


def nearest_node(domain: GridDomain, point: Sequence[float]) -> tuple[int, ...]:
    point = np.asarray(point, dtype=float)
    if point.shape != (domain.dim,):
        raise ValueError(f"expected {domain.dim} coordinates")
    idx = []
    for (a, b), s, x in zip(domain.extent, domain.shape, point):
        h = (b - a) / (s - 1)
        idx.append(int(np.clip(round((x - a) / h), 0, s - 1)))
    return tuple(idx)


def node_set_from_shape(spec: Any, domain: GridDomain) -> np.ndarray:
    """Node set of a shape primitive, read or not, with the half-spacing dilation rule."""
    spec = _node_set(spec)
    if spec == "domain_boundary":
        return boundary_mask(domain)
    kind, grow = spec["type"], 0.5 * min(domain.spacing)
    point = {key: _fit(spec[key], domain.dim, key, f"{kind} set")
             for key in ("center", "min", "max") if key in spec}
    if kind == "interval":
        if domain.dim != 1:
            raise ConfigError("an interval set needs a 1-D domain")
        return nodes_in_interval(domain, spec["a"] - grow, spec["b"] + grow)
    if kind == "disk":
        return nodes_in_ball(domain, point["center"], spec["radius"] + grow)
    if kind == "outside_disk":
        return nodes_outside_ball(domain, point["center"], spec["radius"] - grow)
    if kind == "rect":
        return nodes_in_box(domain, point["min"] - grow, point["max"] + grow)
    mask = np.zeros(domain.node_shape, dtype=bool)
    for idx in spec["indices"]:
        if len(idx) != domain.dim or not all(-n <= i < n for i, n in zip(idx, domain.node_shape)):
            raise ConfigError(f"invalid value {list(idx)} for 'indices' in nodes set: "
                              "not a node index of the grid")
        mask[idx] = True
    return mask


def _condenser(spec: dict[str, Any], domain: GridDomain) -> Condenser:
    inner = node_set_from_shape(spec["inner"], domain)
    outer = node_set_from_shape(spec["outer"], domain)
    try:
        return Condenser(inner & ~outer, outer)
    except ValueError as exc:
        raise ConfigError(f"invalid condenser: {exc}")


def _boundary(spec: dict[str, Any], domain: GridDomain) -> GridFunction:
    mask = node_set_from_shape(spec["mask"], domain)
    if not mask.any():
        raise ConfigError("boundary mask is empty")
    vals = spec["values"]
    if isinstance(vals, dict):
        vals = _function_values(vals, domain, "boundary values")
    return GridFunction(np.where(mask, vals, 0.0), mask)


def _mapping(spec: dict[str, Any], domain: GridDomain) -> Mapping:
    kind = spec["kind"]
    data = _read_file(spec["file"], _GRID_FUNCTION, "sampled file") if kind == "sampled" else {}
    try:
        if kind == "power":
            return PowerMapping(domain, spec["k"], spec["puncture"])
        if kind == "radial":
            return RadialStretch(domain, spec["a"], spec["puncture"])
        if kind == "linear":
            return LinearMapping(domain, np.asarray(spec["A"], dtype=float))
        return SampledMapping(domain, data["values"].reshape(tuple(data["shape"]) + (domain.dim,)))
    except ValueError as exc:
        raise ConfigError(f"invalid mapping: {exc}")
