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
    _boundary,
    _condenser,
    _fit,
    _function_values,
    _mapping,
    load_config,
    nearest_node,
    node_set_from_shape,
    parse_context,
    parse_solve_options,
    parse_structure,
    read_config,
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

# Each command takes the config as `read_config` returns it.

def _cmd_solve(cfg: dict, seed: int, tol: float | None) -> dict:
    ctx = parse_context(cfg)
    opts = parse_solve_options(cfg, tol)
    boundary = _boundary(cfg["solve"]["boundary"], ctx.domain)
    obs = cfg["solve"]["obstacle"]
    if obs is None:
        result = solve_dirichlet(ctx, boundary, opts)
    else:
        if "region" in obs:
            region = node_set_from_shape(obs["region"], ctx.domain)
            lower = np.where(region, obs["level"], -np.inf)
        else:
            lower = _function_values(obs, ctx.domain, "solve.obstacle")
        result = solve_obstacle(ctx, GridFunction(lower), boundary, opts)
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
    cond = _condenser(cfg["capacity"]["condenser"], ctx.domain)
    result = capacity(cond, ctx, opts, vi_samples=cfg["capacity"]["vi_samples"],
                      rng=np.random.default_rng(seed))
    return {
        "value": result.value,
        "vi_residual": result.vi_residual,
        "potential": _grid_payload(result.potential.values),
        "diagnostics": result.diagnostics,
    }


def _parse_u(spec: Any, domain) -> np.ndarray:
    if isinstance(spec, dict):
        return _function_values(spec, domain, "caccioppoli.u")
    coords = domain.node_coords()
    if spec == "re_z2":
        if domain.dim != 2:
            raise ConfigError("re_z2 needs a 2-D domain")
        return coords[..., 0] ** 2 - coords[..., 1] ** 2
    r = _length(coords)
    if np.any(r <= 0):
        raise ConfigError("log_abs needs a domain omitting the origin")
    return np.log(r)


def _cmd_caccioppoli(cfg: dict, seed: int, tol: float | None) -> dict:
    ctx = parse_context(cfg)
    block = cfg["caccioppoli"]
    balls = [(_fit(ball["center"], ctx.domain.dim, "center", "caccioppoli ball"),
              ball["r"], ball["R"]) for ball in block["balls"]]
    # every ball reads u's residual density and gamma, evaluated once here
    u = _Harmonic(GridFunction(_parse_u(block["u"], ctx.domain)), ctx)
    variant, c, residual_tol = block["variant"], block["c"], block["residual_tol"]
    fields = [None] * len(balls)
    if variant in ("ball", "cutoff"):
        # the intrinsic variants read every ball's distances off one stencil
        # graph, and no distance beyond the largest R
        sources = [nearest_node(ctx.domain, center) for center, _, _ in balls]
        fields = _distance_fields(sources, ctx.structure, block["neighborhood"],
                                  radius=max(R for _, _, R in balls))
    checks: list[dict] = []
    for (center, r, R), field in zip(balls, fields):
        if variant == "ball":
            rep = check_caccioppoli_ball(u, field, r, R, c, ctx, residual_tol=residual_tol)
        elif variant == "cutoff":
            phi = truncation_function(field, r, R)
            rep = check_caccioppoli(u, phi, c, ctx, residual_tol=residual_tol)
        else:
            coords = ctx.domain.node_coords()
            dist = _length(coords - np.asarray(center, dtype=float))
            phi = GridFunction(np.clip((R - dist) / (R - r), 0.0, 1.0))
            rep = check_caccioppoli_euclidean(u, phi, c, ctx, residual_tol=residual_tol)
        checks.append(rep.to_dict())
    return {"variant": variant, "checks": checks}


def _cmd_qr(cfg: dict, seed: int, tol: float | None) -> dict:
    domain = cfg["domain"]
    block = cfg["qr"]
    analysis = analyze(_mapping(block["mapping"], domain))
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
    if block["verify"]:
        # null, the default, includes log|f| when the mapping omits zero
        rep = verify_component_harmonicity(analysis, min_order=block["min_order"],
                                           include_log=block["include_log"])
        out["harmonicity"] = rep.to_dict()
    return out


def _cmd_metric(cfg: dict, seed: int, tol: float | None) -> dict:
    structure = parse_structure(cfg)
    block = cfg["metric"]
    domain = structure.domain
    src = nearest_node(domain, _fit(block["source"], domain.dim, "source", "metric"))
    targets = [nearest_node(domain, _fit(t, domain.dim, "targets", "metric"))
               for t in block["targets"] or ()]
    neighborhood = block["neighborhood"]
    field = intrinsic_distance(src, structure, neighborhood)
    out: dict[str, Any] = {
        "source": list(src),
        "neighborhood": neighborhood,
        "metrication": field.metrication,
        "max_distance": float(np.max(field.distances)),
    }
    if block["targets"] is not None:
        out["distances"] = [{"target": list(n), "distance": field.at(n)} for n in targets]
    bound = cutoff_gamma_bound(domain.dim, neighborhood)
    if block["cutoff"] is not None:
        r = block["cutoff"]["r"]
        cert = certify_gradient_bound(distance_cutoff(field, r), structure, bound,
                                      "cutoff_gamma")
        out["cutoff"] = {"r": r, "certificate": cert.to_dict()}
    if block["truncation"] is not None:
        r, R = block["truncation"]["r"], block["truncation"]["R"]
        cert = certify_gradient_bound(truncation_function(field, r, R), structure,
                                      bound / (R - r) ** 2, "truncation_gamma")
        out["truncation"] = {"r": r, "R": R, "certificate": cert.to_dict()}
    return out


def _seeded_pair(rng: np.random.Generator, shape) -> tuple[GridFunction, GridFunction]:
    return (GridFunction(rng.standard_normal(shape)),
            GridFunction(rng.standard_normal(shape)))


def _cmd_check(cfg: dict, seed: int, tol: float | None) -> dict:
    ctx = parse_context(cfg)
    opts = parse_solve_options(cfg, tol)
    suites, trials = cfg["check"]["suites"], cfg["check"]["trials"]
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
        if args.seed is not None:
            cfg["seed"] = args.seed
        cfg = read_config(cfg, args.command)
        seed, p, output = cfg["seed"], cfg["p"], cfg["output"]
        results = _COMMANDS[args.command](cfg, seed, args.tol)
        # the domain's cached arrays are freed before a large report is encoded,
        # where they would raise the peak resident size
        del cfg
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except SolveError as exc:
        payload = {"command": args.command, "error": str(exc), "trace": exc.trace}
        _write(args, output, payload,
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
    _write(args, output, report, text)
    if _harvest_failures(report):
        return EXIT_PROPERTY
    return EXIT_OK


def _write(args, output: str | None, report: dict, text: str) -> None:
    """Write the encoded report, and its CSV table with --csv, to the output or stdout."""
    table = ""
    if args.csv:
        buf = io.StringIO()
        csv.writer(buf).writerows(_flatten_for_csv(report))
        table = buf.getvalue()
    out = args.out or output
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
