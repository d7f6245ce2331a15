"""Seeded job lists for the four benchmark workloads, and their correctness gates.

A workload is a fixed list of `dirichlet-p` CLI jobs.  `build` writes each
job's JSON config (and any field file it references) into a work directory;
the seed drives the random coefficient field, the config seeds and the
placement of sources, balls and obstacles, and nothing else, so one seed
always yields byte-identical inputs.

Each job carries a gate that reads the job's JSON report and returns an
error string, or None when the output is correct.  A job whose exit code is
nonzero fails; `Job.known_defect` names the documented cause when the
failure is a known program defect that the benchmark counts rather than
hides.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

WORKLOADS = ("ring-newton", "check-suites", "obstacle", "geometry")
# Job lists run back to back as one workload.  The benchmark's timed
# workloads are `solvers` and `geometry`: on a noisy shared machine, two
# long runs give steadier medians than four short ones.
COMPOSITES = {"solvers": ("ring-newton", "check-suites", "obstacle")}

BOX = [[-1.0, 1.0], [-1.0, 1.0]]
GRAD_TOL = 1e-9

# `qr` with the default include_log exits 2 ("non-finite values") for these
# gallery mappings: verify_component_harmonicity reports rhs = slack = inf
# when every harmonicity field sits in the exact-floor regime.
QR_NONFINITE = ("verify_component_harmonicity reports rhs = slack = inf when every "
                "field is in the exact-floor regime")

# The six mappings of scripts/mapping_gallery.py, as CLI mapping specs.
GALLERY = (
    ("z2", {"kind": "power", "k": 2, "puncture": 0.3}, QR_NONFINITE),
    ("z3", {"kind": "power", "k": 3, "puncture": 0.3}, QR_NONFINITE),
    ("radial1.5", {"kind": "radial", "a": 1.5, "puncture": 0.25}, None),
    ("radial3", {"kind": "radial", "a": 3.0, "puncture": 0.25}, None),
    ("linear-diag", {"kind": "linear", "A": [[2.0, 0.0], [0.0, 1.0]]}, QR_NONFINITE),
    ("linear-shear", {"kind": "linear", "A": [[1.0, 0.4], [0.4, 1.5]]}, QR_NONFINITE),
)

Gate = Callable[[dict], "str | None"]


@dataclass(frozen=True)
class Job:
    name: str
    argv: tuple[str, ...]
    out: str
    gate: Gate
    known_defect: str | None = None


def _domain(n: int) -> dict:
    return {"dim": 2, "extent": BOX, "shape": [n, n]}


def ring_capacity(p: float, r: float = 0.25, R: float = 0.75) -> float:
    """Closed-form capacity of the ring condenser for gamma = 2 |grad u|^2."""
    if p == 2.0:
        return 2.0 * 2.0 * math.pi / math.log(R / r)
    a = (p - 2.0) / (p - 1.0)
    return (2.0 ** (p / 2.0) * 2.0 * math.pi * abs(a) ** (p - 1.0)
            / abs(R ** a - r ** a) ** (p - 1.0))


# -- gates ---------------------------------------------------------------------

def _gate_ring(p: float, rel_tol: float) -> Gate:
    exact = ring_capacity(p)

    def gate(rep: dict) -> str | None:
        res = rep["results"]
        err = res["value"] / exact - 1.0
        if abs(err) > rel_tol:
            return f"capacity {res['value']:.6g} is {err:+.3%} off the closed form {exact:.6g}"
        if res["diagnostics"]["solver_residual"] > GRAD_TOL:
            return f"solver_residual {res['diagnostics']['solver_residual']:.3g} > grad_tol"
        if res["vi_residual"] > 1e-6:
            return f"vi_residual {res['vi_residual']:.3g} > 1e-6"
        return None
    return gate


def _gate_check(trials: int) -> Gate:
    def gate(rep: dict) -> str | None:
        res = rep["results"]
        if res["failed"] != 0:
            return f"{res['failed']} property checks failed"
        counts: dict[str, int] = {}
        for row in res["checks"]:
            # contraction rows are named contraction_<kind>
            name = row["check"].split("_")[0] if row["check"].startswith("contraction_") \
                else row["check"]
            counts[name] = counts.get(name, 0) + 1
        families = next(r["details"]["families"] for r in res["checks"]
                        if r["check"] == "union_difference")
        expected = {"sector": trials, "monotone": trials, "contraction": trials,
                    "dirichlet_axioms": 1, "union_difference": 1,
                    "strong_subadditivity": families * (families - 1) // 2,
                    "decreasing_compacts": 1, "increasing_sets": 1,
                    "finite_subadditivity": 1, "positivity": 1}
        short = {k: (counts.get(k, 0), v) for k, v in expected.items() if counts.get(k, 0) != v}
        if short:
            return f"report rows (got, expected): {short}"
        return None
    return gate


def _gate_obstacle(rep: dict) -> str | None:
    res = rep["results"]
    diag = res["diagnostics"]
    if res["residual_norm"] > GRAD_TOL:
        return f"residual_norm {res['residual_norm']:.3g} > grad_tol"
    if diag["complementarity_violation"] > 1e-8:
        return f"complementarity_violation {diag['complementarity_violation']:.3g}"
    if diag["vi_residual"] > 1e-6:
        return f"vi_residual {diag['vi_residual']:.3g} > 1e-6"
    if diag["active_nodes"] <= 0:
        return "no active nodes: the obstacle never touched"
    return None


def _node_xy(n: int, idx: list[int]) -> np.ndarray:
    h = 2.0 / (n - 1)
    return np.array([-1.0 + h * i for i in idx])


def _gate_metric(n: int) -> Gate:
    def gate(rep: dict) -> str | None:
        res = rep["results"]
        for key in ("cutoff", "truncation"):
            if not res[key]["certificate"]["passed"]:
                return f"{key} certificate failed"
        src = _node_xy(n, res["source"])
        for row in res["distances"]:
            # identity field: the intrinsic metric is |x - y| / sqrt(2)
            exact = float(np.linalg.norm(_node_xy(n, row["target"]) - src)) / math.sqrt(2.0)
            d = row["distance"]
            if not exact * (1 - 1e-12) <= d <= exact * (1 + res["metrication"]) + 1e-12:
                return (f"distance {d:.6g} to {row['target']} outside "
                        f"[{exact:.6g}, {exact * (1 + res['metrication']):.6g}]")
        return None
    return gate


def _gate_caccioppoli(rep: dict) -> str | None:
    bad = [i for i, c in enumerate(rep["results"]["checks"]) if not c["passed"]]
    return f"certificates {bad} failed" if bad else None


def _gate_qr(rep: dict) -> str | None:
    harm = rep["results"].get("harmonicity")
    if harm is None or not harm["passed"]:
        return "component harmonicity not certified"
    return None


# -- job lists -------------------------------------------------------------------

def _field_file(path: str, n: int, rng: np.random.Generator) -> None:
    """Seeded anisotropic field: rotated diag(l1, l2) per cell, eigenvalues in [0.5, 2.5]."""
    cells = (n - 1) * (n - 1)
    theta = rng.uniform(0.0, math.pi, cells)
    lam = np.stack([rng.uniform(0.5, 1.0, cells), rng.uniform(1.5, 2.5, cells)], axis=-1)
    c, s = np.cos(theta), np.sin(theta)
    rot = np.stack([np.stack([c, -s], -1), np.stack([s, c], -1)], -2)
    mats = np.einsum("cij,cj,ckj->cik", rot, lam, rot)
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    with open(path, "w") as fh:
        json.dump({"matrices": mats.reshape(-1).tolist(), "alpha": 0.5, "beta": 2.5}, fh)


def _specs(workload: str, seed: int, smoke: bool, workdir: str,
           rng: np.random.Generator) -> list[tuple[str, str, dict, Gate, str | None]]:
    """(name, command, config, gate, known_defect) for each job of the workload."""
    specs: list[tuple[str, str, dict, Gate, str | None]] = []
    if workload == "ring-newton":
        # few large solves: factorization and Hessian assembly dominate
        cases = ((33, 2.0), (17, 3.0), (17, 4.0)) if smoke else \
            ((257, 2.0), (129, 3.0), (129, 4.0))
        rel_tol = 0.15 if smoke else 0.01
        for n, p in cases:
            cfg = {"domain": _domain(n), "field": "identity", "p": p, "seed": seed,
                   "solver": {"grad_tol": GRAD_TOL},
                   "capacity": {"condenser": {
                       "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.25},
                       "outer": {"type": "outside_disk", "center": [0.0, 0.0],
                                 "radius": 0.75}}}}
            specs.append((f"ring-{n}-p{p:g}", "capacity", cfg, _gate_ring(p, rel_tol), None))
    elif workload == "check-suites":
        # many tiny equilibrium solves: per-call overhead and repeated sets
        n, trials = (9, 4) if smoke else (17, 50)
        field = os.path.join(workdir, "field.json")
        _field_file(field, n, rng)
        cfg = {"domain": _domain(n), "field": f"file:{field}", "p": 3.0, "seed": seed,
               "solver": {"grad_tol": GRAD_TOL},
               "check": {"suites": ["sector", "monotone", "contraction", "d1d2",
                                    "choquet", "union_diff"], "trials": trials}}
        specs.append((f"check-{n}", "check", cfg, _gate_check(trials), None))
    elif workload == "obstacle":
        # the only path through solve_obstacle: L-BFGS-B, then active-set rounds
        for n in ((17, 21) if smoke else (65, 97)):
            center = rng.uniform(-0.1, 0.1, 2).round(4).tolist()
            cfg = {"domain": _domain(n), "field": "identity", "p": 3.0, "seed": seed,
                   "solver": {"grad_tol": GRAD_TOL},
                   "solve": {"boundary": {"values": 0.0},
                             "obstacle": {"region": {"type": "disk", "center": center,
                                                     "radius": 0.3},
                                          "level": 0.5}}}
            specs.append((f"obstacle-{n}", "solve", cfg, _gate_obstacle, None))
    else:  # geometry, solver-free: Dijkstra and mapping analysis
        nm, nc, nq = (33, 17, 17) if smoke else (257, 129, 65)
        source = rng.uniform(-0.1, 0.1, 2).round(4).tolist()
        targets = rng.uniform(-0.9, 0.9, (3, 2)).round(4).tolist()
        cfg = {"domain": _domain(nm), "field": "identity", "seed": seed,
               "metric": {"source": source, "neighborhood": 16, "targets": targets,
                          "cutoff": {"r": 0.5}, "truncation": {"r": 0.3, "R": 0.6}}}
        specs.append((f"metric-{nm}", "metric", cfg, _gate_metric(nm), None))
        balls = [{"center": rng.uniform(-0.3, 0.3, 2).round(4).tolist(), "r": 0.2, "R": 0.4}
                 for _ in range(2)]
        cfg = {"domain": _domain(nc), "field": "identity", "p": 2.0, "seed": seed,
               "caccioppoli": {"u": "re_z2", "balls": balls, "variant": "ball"}}
        specs.append((f"caccioppoli-{nc}", "caccioppoli", cfg, _gate_caccioppoli, None))
        for name, mapping, defect in GALLERY:
            cfg = {"domain": _domain(nq), "seed": seed, "qr": {"mapping": mapping}}
            specs.append((f"qr-{name}-{nq}", "qr", cfg, _gate_qr, defect))
    return specs


def build(workload: str, seed: int, workdir: str, smoke: bool = False) -> list[Job]:
    """Write the workload's configs into workdir and return its job list."""
    parts = COMPOSITES.get(workload, (workload,))
    if not set(parts) <= set(WORKLOADS):
        raise ValueError(f"unknown workload {workload!r} "
                         f"(known: {', '.join((*COMPOSITES, *WORKLOADS))})")
    specs = []
    for part in parts:
        rng = np.random.default_rng([seed, WORKLOADS.index(part)])
        specs += _specs(part, seed, smoke, workdir, rng)
    jobs = []
    for name, command, cfg, gate, defect in specs:
        config = os.path.join(workdir, f"{name}.config.json")
        out = os.path.join(workdir, f"{name}.report.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        jobs.append(Job(name, (command, "--config", config, "--out", out), out, gate, defect))
    return jobs


def check_job(job: Job, code: int, stderr: str) -> tuple[bool, str | None]:
    """(failed, problem): problem is None when the outcome is expected."""
    if code != 0:
        if job.known_defect is not None and code == 2 and "non-finite" in stderr:
            return True, None
        return True, f"{job.name}: exit {code}: {stderr.strip()[-300:]}"
    with open(job.out) as fh:
        report: dict[str, Any] = json.load(fh)
    problem = job.gate(report)
    return problem is not None, None if problem is None else f"{job.name}: {problem}"
