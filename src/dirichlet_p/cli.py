"""Batch front door: JSON configs in, JSON reports out.

Subcommands: solve, capacity, caccioppoli, qr, metric, check.  Exit codes
follow a fixed contract so CI can tell classes of failure apart:

    0  success
    1  configuration error (schema violation, unknown/missing keys)
    2  computation failure (non-convergence, non-finite numbers)
    3  property-suite failure (an assertion in a report did not pass)

Reports are deterministic: a fixed seed produces byte-identical JSON, and
the --threads hint never enters the output (all reductions run in a fixed
order regardless of it).  A report is, byte for byte, what
json.dumps(report, sort_keys=True, indent=2) writes, plus a newline; the
values of its grid payloads (a solution, a potential) are encoded by the
stdlib's C encoder and spliced into that layout.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
from typing import Any

import numpy as np

from . import __version__
from .capacity import _memo_cap, capacity, check_choquet, check_union_difference, nodes_in_box
from .config import (
    ConfigError,
    _at_least,
    _boolean,
    _check_keys,
    _get_value,
    _integer,
    _list_of,
    _nonempty_list,
    _point,
    load_config,
    nearest_node,
    node_set_from_shape,
    parse_affine,
    parse_boundary,
    parse_condenser,
    parse_context,
    parse_domain,
    parse_grid_function,
    parse_mapping,
    parse_solve_options,
    parse_structure,
)
from .grid import GridFunction, _length, boundary_mask
from .mappings import analyze, verify_component_harmonicity
from .metric import (
    _distance_fields,
    _Harmonic,
    certify_gradient_bound,
    check_caccioppoli,
    check_caccioppoli_ball,
    check_caccioppoli_euclidean,
    cutoff_gamma_bound,
    distance_cutoff,
    intrinsic_distance,
    truncation_function,
)
from .pform import (
    check_contraction_operates,
    check_dirichlet_axioms,
    check_monotone,
    check_sector,
)
from .report import CheckReport
from .solve import SolveError, _region_interior, solve_dirichlet, solve_obstacle

EXIT_OK = 0
EXIT_CONFIG = 1
EXIT_COMPUTE = 2
EXIT_PROPERTY = 3


class _GridValues(list):
    """The flat values of a grid payload: numbers only, encoded in C."""


def _grid_payload(values: np.ndarray) -> dict[str, Any]:
    return {"shape": list(values.shape), "values": _GridValues(values.reshape(-1).tolist())}


def _json_default(obj: Any):
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj)}")


# report values that hold no nested report
_LEAVES = frozenset({float, int, str, bool, type(None), _GridValues})


# stands in for a grid's values in the encoded skeleton of a report
_GRID_MARK = "\0grid\0"


def _skeleton(obj: Any, grids: list[_GridValues]) -> Any:
    """obj with each grid's values replaced by _GRID_MARK.

    The grids are appended to `grids` in the order json.dumps(obj,
    sort_keys=True) writes them.  Containers are copied, not changed.
    """
    if type(obj) is _GridValues:
        grids.append(obj)
        return _GRID_MARK
    if isinstance(obj, dict):
        return {k: _skeleton(obj[k], grids) for k in sorted(obj)}
    if isinstance(obj, (list, tuple)):
        return [_skeleton(v, grids) for v in obj]
    return obj


def _encode_report(report: dict) -> str:
    """Exactly json.dumps(report, sort_keys=True, indent=2, allow_nan=False) + "\n".

    With `indent` set, json.dumps encodes every number in Python.  Here
    the report is encoded that way with each grid's values replaced by a
    mark, and each grid's values are encoded by the C encoder (which
    json.dumps runs when `indent` is None): a newline plus the indent as
    the item separator lays the numbers out as `indent=2` does.  Raises
    ValueError on a non-finite number, like json.dumps.
    """
    grids: list[_GridValues] = []
    text = json.dumps(_skeleton(report, grids), sort_keys=True, indent=2,
                      default=_json_default, allow_nan=False)
    before, *afters = text.split(json.dumps(_GRID_MARK))
    parts = [before]
    for values, after in zip(grids, afters):
        # the closing bracket lines up with the start of the grid's line
        line = before[before.rfind("\n") + 1:]
        outer = "\n" + " " * (len(line) - len(line.lstrip(" ")))
        if values:
            inner = outer + "  "
            # the C encoder's own brackets are cut off
            parts += ["[", inner, json.dumps(values, separators=("," + inner, ": "),
                                             allow_nan=False)[1:-1], outer, "]"]
        else:
            parts.append("[]")
        parts.append(after)
        before = after
    parts.append("\n")
    return "".join(parts)


def _harvest_failures(obj: Any) -> bool:
    """True when some nested report carries passed = False.

    Numbers, strings and grid values get no call of their own.
    """
    if isinstance(obj, dict):
        if obj.get("passed") is False:
            return True
        obj = obj.values()
    elif not isinstance(obj, (list, tuple)):
        return False
    return any(_harvest_failures(v) for v in obj if type(v) not in _LEAVES)


# -- subcommand implementations ------------------------------------------------

def _cmd_solve(cfg: dict, seed: int, tol: float | None) -> dict:
    ctx = parse_context(cfg)
    opts = parse_solve_options(cfg, tol)
    block = cfg["solve"]
    boundary = parse_boundary(block["boundary"], ctx.domain)
    if "obstacle" in block:
        obs = block["obstacle"]
        if isinstance(obs, dict) and "region" in obs:
            _check_keys(obs, {"region", "level"}, {"region"}, "solve.obstacle")
            region = node_set_from_shape(obs["region"], ctx.domain)
            lower = np.where(region, _get_value(obs, "level", float, "solve.obstacle", 0.0),
                             -np.inf)
        else:
            lower = parse_grid_function(obs, ctx.domain)
        result = solve_obstacle(ctx, GridFunction(lower), boundary, opts)
    else:
        result = solve_dirichlet(ctx, boundary, opts)
    return {
        "solution": _grid_payload(result.solution.values),
        "residual_norm": result.residual_norm,
        "iterations": result.iterations,
        "energy_trace": result.energy_trace,
        "diagnostics": {k: v for k, v in result.diagnostics.items() if k != "trace"},
    }


def _cmd_capacity(cfg: dict, seed: int, tol: float | None) -> dict:
    ctx = parse_context(cfg)
    opts = parse_solve_options(cfg, tol)
    block = cfg["capacity"]
    cond = parse_condenser(block["condenser"], ctx.domain)
    rng = np.random.default_rng(seed)
    vi_samples = _get_value(block, "vi_samples", _at_least(3), "capacity", 8)
    result = capacity(cond, ctx, opts, vi_samples=vi_samples, rng=rng)
    return {
        "value": result.value,
        "vi_residual": result.vi_residual,
        "potential": _grid_payload(result.potential.values),
        "diagnostics": result.diagnostics,
    }


def _field_from_spec(kind: str, domain) -> np.ndarray:
    coords = domain.node_coords()
    if kind == "re_z2":
        if domain.dim != 2:
            raise ConfigError("re_z2 needs a 2-D domain")
        return coords[..., 0] ** 2 - coords[..., 1] ** 2
    if kind == "log_abs":
        r = _length(coords)
        if np.any(r <= 0):
            raise ConfigError("log_abs needs a domain omitting the origin")
        return np.log(r)
    raise ConfigError(f"unknown function kind '{kind}'")


def _parse_u(spec: Any, domain) -> np.ndarray:
    if isinstance(spec, str):
        return _field_from_spec(spec, domain)
    if isinstance(spec, dict) and "affine" in spec:
        return parse_affine(spec, domain, "caccioppoli.u")
    if isinstance(spec, dict):
        return parse_grid_function(spec, domain)
    raise ConfigError("unrecognized function spec for 'u'")


def _cmd_caccioppoli(cfg: dict, seed: int, tol: float | None) -> dict:
    ctx = parse_context(cfg)
    block = cfg["caccioppoli"]
    balls = []
    for ball in _get_value(block, "balls", _nonempty_list, "caccioppoli"):
        _check_keys(ball, _BALL_KEYS, _BALL_KEYS, "caccioppoli ball")
        balls.append((_get_value(ball, "center", _point(ctx.domain.dim), "caccioppoli ball"),
                      _get_value(ball, "r", float, "caccioppoli ball"),
                      _get_value(ball, "R", float, "caccioppoli ball")))
    # every ball reads u's residual density and gamma, evaluated once here
    u = _Harmonic(GridFunction(_parse_u(block["u"], ctx.domain)), ctx)
    variant = block.get("variant", "ball")
    residual_tol = _get_value(block, "residual_tol", float, "caccioppoli", 1e-3)
    cvalue = block.get("c")
    c = None if cvalue in (None, "mean") else _get_value(block, "c", float, "caccioppoli")
    neighborhood = _get_value(block, "neighborhood", _stencil, "caccioppoli", 16)
    fields = [None] * len(balls)
    if variant in ("ball", "cutoff"):
        # the intrinsic variants read every ball's distances off one stencil
        # graph, and no distance beyond the largest R
        sources = [nearest_node(ctx.domain, center) for center, _, _ in balls]
        fields = _distance_fields(sources, ctx.structure, neighborhood,
                                  radius=max(R for _, _, R in balls))
    checks: list[dict] = []
    for (center, r, R), field in zip(balls, fields):
        if variant == "ball":
            rep = check_caccioppoli_ball(u, field, r, R, c, ctx, residual_tol=residual_tol)
        elif variant == "cutoff":
            phi = truncation_function(field, r, R)
            rep = check_caccioppoli(u, phi, c, ctx, residual_tol=residual_tol)
        elif variant == "euclidean":
            coords = ctx.domain.node_coords()
            dist = _length(coords - np.asarray(center, dtype=float))
            phi = GridFunction(np.clip((R - dist) / (R - r), 0.0, 1.0))
            rep = check_caccioppoli_euclidean(u, phi, c, ctx, residual_tol=residual_tol)
        else:
            raise ConfigError(f"unknown caccioppoli variant '{variant}'")
        checks.append(rep.to_dict())
    return {"variant": variant, "checks": checks}


def _cmd_qr(cfg: dict, seed: int, tol: float | None) -> dict:
    domain = parse_domain(cfg["domain"])
    block = cfg["qr"]
    mapping = parse_mapping(block["mapping"], domain)
    analysis = analyze(mapping)
    eye_dev = float(np.max(np.abs(analysis.theta - np.eye(domain.dim))))
    out: dict[str, Any] = {
        "K_O": analysis.K_O,
        "K_I": analysis.K_I,
        "alpha": analysis.alpha,
        "beta": analysis.beta,
        "det_error": analysis.details["det_error"],
        "theta_identity_deviation": eye_dev,
        "excluded_measure": analysis.excluded_measure,
        "flagged_cells": analysis.details["flagged_cells"],
    }
    if _get_value(block, "verify", _boolean, "qr", True):
        # null, the default, includes log|f| when the mapping omits zero
        include_log = _get_value(block, "include_log",
                                 lambda v: None if v is None else _boolean(v), "qr")
        rep = verify_component_harmonicity(
            analysis, min_order=_get_value(block, "min_order", float, "qr", 1.0),
            include_log=include_log)
        out["harmonicity"] = rep.to_dict()
    return out


def _cmd_metric(cfg: dict, seed: int, tol: float | None) -> dict:
    structure = parse_structure(cfg)
    block = cfg["metric"]
    for name, keys in (("cutoff", {"r"}), ("truncation", {"r", "R"})):
        if name in block:
            _check_keys(block[name], keys, keys, f"metric.{name}")
    point = _point(structure.domain.dim)
    src = nearest_node(structure.domain, _get_value(block, "source", point, "metric"))
    neighborhood = _get_value(block, "neighborhood", _stencil, "metric", 16)
    field = intrinsic_distance(src, structure, neighborhood)
    out: dict[str, Any] = {
        "source": list(src),
        "neighborhood": neighborhood,
        "metrication": field.metrication,
        "max_distance": float(np.max(field.distances)),
    }
    if "targets" in block:
        nodes = [nearest_node(structure.domain, t)
                 for t in _get_value(block, "targets", _list_of(point), "metric")]
        out["distances"] = [{"target": list(n), "distance": field.at(n)} for n in nodes]
    bound = cutoff_gamma_bound(structure.domain.dim, neighborhood)
    if "cutoff" in block:
        r = _get_value(block["cutoff"], "r", float, "metric.cutoff")
        cut = distance_cutoff(field, r)
        cert = certify_gradient_bound(cut, structure, bound, "cutoff_gamma")
        out["cutoff"] = {"r": r, "certificate": cert.to_dict()}
    if "truncation" in block:
        r = _get_value(block["truncation"], "r", float, "metric.truncation")
        R = _get_value(block["truncation"], "R", float, "metric.truncation")
        tr = truncation_function(field, r, R)
        cert = certify_gradient_bound(tr, structure, bound / (R - r) ** 2,
                                      "truncation_gamma")
        out["truncation"] = {"r": r, "R": R, "certificate": cert.to_dict()}
    return out


def _stencil(value: Any) -> int:
    """Neighborhood of the intrinsic-metric stencil: 8 or 16."""
    n = _integer(value)
    if n not in (8, 16):
        raise ValueError("must be 8 or 16")
    return n


def _seeded_pair(rng: np.random.Generator, shape) -> tuple[GridFunction, GridFunction]:
    return (GridFunction(rng.standard_normal(shape)),
            GridFunction(rng.standard_normal(shape)))


def _cmd_check(cfg: dict, seed: int, tol: float | None) -> dict:
    ctx = parse_context(cfg)
    opts = parse_solve_options(cfg, tol)
    block = cfg.get("check", {})
    suites = _get_value(block, "suites", _nonempty_list, "check",
                        ["sector", "monotone", "contraction"])
    trials = _get_value(block, "trials", _at_least(1), "check", 50)
    known = {"sector", "monotone", "contraction", "d1d2", "choquet", "union_diff"}
    for name in suites:
        if name not in known:
            raise ConfigError(f"unknown suite '{name}' (known: {sorted(known)})")
    rng = np.random.default_rng(seed)
    domain = ctx.domain
    shape = domain.node_shape
    reports: list[CheckReport] = []

    if "sector" in suites:
        for _ in range(trials):
            u, v = _seeded_pair(rng, shape)
            reports.append(check_sector(u, v, ctx))
    if "monotone" in suites:
        for _ in range(trials):
            u, v = _seeded_pair(rng, shape)
            reports.append(check_monotone(u, v, ctx))
    if "contraction" in suites:
        for i in range(trials):
            u, v = _seeded_pair(rng, shape)
            kind = ("unit", "negative_part", "threshold", "smooth")[i % 4]
            kwargs = {}
            if kind == "threshold":
                kwargs["alpha"] = float(rng.uniform(0.25, 1.5))
            if kind == "smooth":
                kwargs["T"] = np.tanh
            reports.append(check_contraction_operates(u, v, ctx, kind=kind, **kwargs))
    if "d1d2" in suites or "choquet" in suites or "union_diff" in suites:
        outer = boundary_mask(domain)
        sets = _seeded_sets(rng, domain)
        # one solve per distinct node set, shared by the three set-function suites
        memo: dict = {}
        if "d1d2" in suites:
            # _seeded_sets may return a single fallback box on tiny grids
            second = sets[min(1, len(sets) - 1)]
            e_big = _memo_cap(memo, sets[0] | second, outer, ctx, opts)[1]
            e_small = _memo_cap(memo, second & ~outer, outer, ctx, opts)[1] or e_big
            reports.append(check_dirichlet_axioms(
                e_big, e_small, float(rng.uniform(0.1, 1.0)), ctx, mask=outer))
        if "choquet" in suites:
            reports.extend(check_choquet(sets, outer, ctx, opts, memo=memo))
        if "union_diff" in suites:
            interiors = [_region_interior(s, domain.dim) for s in sets]
            f_sets = [f if f.any() else s for f, s in zip(interiors, sets)]
            reports.append(check_union_difference(sets, f_sets, outer, ctx, opts, memo=memo))
    payload = [r.to_dict() for r in reports]
    return {"suites": suites, "trials": trials,
            "failed": sum(1 for r in reports if not r.passed),
            "checks": payload}


def _seeded_sets(rng: np.random.Generator, domain) -> list[np.ndarray]:
    """Deterministic family of boxes for the set-function suites."""
    sets = []
    for _ in range(3):
        lo, hi = [], []
        for (a, b) in domain.extent:
            width = b - a
            c0 = a + width * rng.uniform(0.15, 0.45)
            c1 = c0 + width * rng.uniform(0.2, 0.4)
            lo.append(c0)
            hi.append(min(c1, b - 0.1 * width))
        sets.append(nodes_in_box(domain, lo, hi))
    return [s for s in sets if s.any()] or [nodes_in_box(domain, *zip(*[
        (a + 0.3 * (b - a), a + 0.7 * (b - a)) for a, b in domain.extent]))]


_COMMANDS = {
    "solve": _cmd_solve,
    "capacity": _cmd_capacity,
    "caccioppoli": _cmd_caccioppoli,
    "qr": _cmd_qr,
    "metric": _cmd_metric,
    "check": _cmd_check,
}

# Config keys any command may use; each command adds its own block.
_SHARED_KEYS = {"domain", "field", "p", "eps", "seed", "solver", "output"}
# (allowed, required) keys of each command block; `check` may be omitted.
_BLOCK_KEYS = {
    "solve": ({"boundary", "obstacle"}, {"boundary"}),
    "capacity": ({"condenser", "vi_samples"}, {"condenser"}),
    "caccioppoli": ({"u", "c", "balls", "variant", "residual_tol", "neighborhood"},
                    {"u", "balls"}),
    "qr": ({"mapping", "verify", "min_order", "include_log"}, {"mapping"}),
    "metric": ({"source", "neighborhood", "targets", "cutoff", "truncation"}, {"source"}),
    "check": ({"suites", "trials"}, set()),
}
_BALL_KEYS = {"center", "r", "R"}


def _flatten_for_csv(report: dict) -> list[list[Any]]:
    rows: list[list[Any]] = []
    checks = None
    results = report.get("results", {})
    if isinstance(results, dict):
        checks = results.get("checks")
    if checks:
        header = ["check", "p", "grid", "passed", "lhs", "rhs", "slack", "tolerance"]
        rows.append(header)
        for c in checks:
            rows.append([c.get(k, "") for k in header])
    else:
        rows.append(["key", "value"])

        def walk(prefix: str, obj: Any) -> None:
            if isinstance(obj, dict):
                for k, v in obj.items():
                    walk(f"{prefix}.{k}" if prefix else str(k), v)
            elif isinstance(obj, (list, tuple)):
                if len(obj) <= 16:
                    for i, v in enumerate(obj):
                        walk(f"{prefix}[{i}]", v)
                else:
                    rows.append([prefix, f"<{len(obj)} values>"])
            else:
                rows.append([prefix, obj])

        walk("", results)
    return rows


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="dirichlet-p",
        description="Nonlinear p-form toolbox on finite-difference grids")
    parser.add_argument("command", choices=sorted(_COMMANDS))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", help="write the JSON report here (default: stdout)")
    parser.add_argument("--csv", action="store_true",
                        help="also write a flattened CSV next to --out")
    parser.add_argument("--threads", type=int, default=0,
                        help="worker hint; reductions are deterministic regardless")
    parser.add_argument("--seed", type=int, help="override the config seed")
    parser.add_argument("--tol", type=float, help="override the solver grad_tol")
    parser.add_argument("--version", action="version", version=__version__)
    args = parser.parse_args(argv)

    try:
        cfg = load_config(args.config)
        required = {"domain"} if args.command == "check" else {"domain", args.command}
        _check_keys(cfg, _SHARED_KEYS | set(_COMMANDS), required, "config")
        _check_keys(cfg.get(args.command, {}), *_BLOCK_KEYS[args.command], args.command)
        seed = (args.seed if args.seed is not None
                else _get_value(cfg, "seed", _integer, "config", 0))
        p = _get_value(cfg, "p", float, "config") if "p" in cfg else None
        results = _COMMANDS[args.command](cfg, seed, args.tol)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolveError as exc:
        payload = {"command": args.command, "error": str(exc), "trace": exc.trace}
        _write(args, cfg, payload,
               json.dumps(payload, sort_keys=True, indent=2, default=_json_default) + "\n")
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE
    except (ValueError, np.linalg.LinAlgError) as exc:
        print(f"computation failed: {exc}", file=sys.stderr)
        return EXIT_COMPUTE

    report = {
        "command": args.command,
        "seed": seed,
        "version": __version__,
        "results": results,
    }
    if p is not None:
        report["p"] = p
    try:
        text = _encode_report(report)
    except ValueError:
        print("computation produced non-finite values", file=sys.stderr)
        return EXIT_COMPUTE
    _write(args, cfg, report, text)
    if _harvest_failures(report):
        return EXIT_PROPERTY
    return EXIT_OK


def _write(args, cfg: dict, report: dict, text: str) -> None:
    """Write the encoded report, and its CSV table with --csv, to the output or stdout."""
    table = ""
    if args.csv:
        buf = io.StringIO()
        csv.writer(buf).writerows(_flatten_for_csv(report))
        table = buf.getvalue()
    out = args.out or cfg.get("output")
    if not out:
        sys.stdout.write(text + table)
        return
    with open(out, "w") as fh:
        fh.write(text)
    if args.csv:
        base = out[:-5] if out.endswith(".json") else out
        with open(base + ".csv", "w", newline="") as fh:
            fh.write(table)


if __name__ == "__main__":
    sys.exit(main())
