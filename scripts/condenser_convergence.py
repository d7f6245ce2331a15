#!/usr/bin/env python3
"""Convergence study: ring condenser capacity against the closed form.

Solves the disk-in-disk condenser (r = 0.25, R = 0.75, identity field,
p = 2) on a sequence of grids and tabulates the relative error against
4 pi / ln 3, plus the equilibrium-potential diagnostics.  For the same
grids it then solves the smooth radial p-harmonic function
|x - x0|^((p-2)/(p-1)) (log at p = 2, pole x0 = (-1.6, -1.3) off the
box) for p = 2 and 3 and tabulates the max error and the observed order
log(e_coarse / e_fine) / log(h_coarse / h_fine), so the O(h^2) order of
the scheme shows beside the ring capacity's error, which does not fall
at that order.
Writes both tables to JSON and prints them as plain text.

Usage: python scripts/condenser_convergence.py [--sizes 33 65 129] [--out tab.json]
"""

import argparse
import json
import math
import pathlib
import sys
import time

import numpy as np

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parent.parent / "src"))

from dirichlet_p.capacity import Condenser, capacity  # noqa: E402
from dirichlet_p.config import node_set_from_shape  # noqa: E402
from dirichlet_p.grid import (  # noqa: E402
    GridDomain,
    GridFunction,
    boundary_mask,
    unit_structure,
)
from dirichlet_p.pform import PFormContext  # noqa: E402
from dirichlet_p.solve import SolveOptions, solve_dirichlet  # noqa: E402

POLE = np.array([-1.6, -1.3])


def radial_solution(x: np.ndarray, p: float) -> np.ndarray:
    """The p-harmonic radial function of the plane with its pole at POLE."""
    r = np.linalg.norm(x - POLE, axis=-1)
    return np.log(r) if p == 2.0 else r ** ((p - 2.0) / (p - 1.0))


def smooth_rows(sizes: list[int]) -> list[dict]:
    """Max error and observed order of the smooth radial solution, p = 2 and 3."""
    rows = []
    print(f"{'p':>4} {'nodes':>8} {'max error':>11} {'order':>6}")
    for p in (2.0, 3.0):
        previous = None
        for n in sizes:
            domain = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (n, n))
            mask = boundary_mask(domain)
            exact = radial_solution(domain.node_coords(), p)
            res = solve_dirichlet(PFormContext(unit_structure(domain), p),
                                  GridFunction(np.where(mask, exact, 0.0), mask),
                                  SolveOptions(grad_tol=1e-9))
            error = float(np.max(np.abs(res.solution.values - exact)))
            order = None
            if previous is not None:
                order = math.log(previous[0] / error) / math.log(previous[1] / domain.spacing[0])
            rows.append({"p": p, "nodes": n, "max_error": error, "order": order})
            print(f"{p:4.1f} {n:>6}^2 {error:11.3e} "
                  f"{'' if order is None else f'{order:6.2f}'}")
            previous = (error, domain.spacing[0])
    return rows


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--sizes", type=int, nargs="+", default=[33, 65, 129, 257])
    parser.add_argument("--p", type=float, default=2.0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args()

    target = 4.0 * math.pi / math.log(3.0)
    rows = []
    print(f"{'nodes':>8} {'capacity':>12} {'rel error':>11} {'vi':>9} {'secs':>6}")
    for n in args.sizes:
        domain = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (n, n))
        ctx = PFormContext(unit_structure(domain), args.p)
        inner = node_set_from_shape(
            {"type": "disk", "center": [0.0, 0.0], "radius": 0.25}, domain)
        outer = node_set_from_shape(
            {"type": "outside_disk", "center": [0.0, 0.0], "radius": 0.75}, domain)
        t0 = time.perf_counter()
        result = capacity(Condenser(inner, outer), ctx, SolveOptions(grad_tol=1e-9))
        dt = time.perf_counter() - t0
        rel = (result.value - target) / target if args.p == 2.0 else float("nan")
        rows.append({"nodes": n, "capacity": result.value, "rel_error": rel,
                     "vi_residual": result.vi_residual, "seconds": dt})
        print(f"{n:>6}^2 {result.value:12.6f} {rel:+10.4%} "
              f"{result.vi_residual:9.1e} {dt:6.2f}")
    if args.p == 2.0:
        print(f"{'target':>8} {target:12.6f}")
    print()
    smooth = smooth_rows(args.sizes)
    if args.out:
        with open(args.out, "w") as fh:
            json.dump({"target": target if args.p == 2.0 else None,
                       "p": args.p, "rows": rows, "smooth": smooth},
                      fh, indent=2, sort_keys=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
