#!/usr/bin/env python3
"""SHA-256 digests of the benchmark jobs' reports, for byte-identity checks.

Writes the `solvers` and `geometry` job configs of perfbench/workloads.py
for one seed, plus jobs on paths the benchmark never runs (a plain
`solve`, a regularized p = 1.5 solve, a curved obstacle, `check` with
`--tol`, two-ball `caccioppoli` cutoff and Euclidean runs, a 3-D p = 3
`solve`, and a `qr` map with a flagged cell), runs each job through
`dirichlet_p.cli.main` with `--csv`, and prints `name exit json-sha256
csv-sha256` per job ("-" for a file the job did not write).  Run it on two
checkouts and diff the outputs.

When a change moves reports in their last digits, compare them by value:
`--keep DIR` saves each job's JSON report as DIR/<name>.json, and
`--compare DIR` checks each report of this run against the one saved
there.  Values other than floats must match exactly.  Floats must agree
within rtol 1e-9 plus atol 1e-12, except the solver residuals
(`solver_residual`, `residual_norm`, and `residual` in the rows of a
`trace` or `rounds` list): where either side is at most the job's
`grad_tol`, both must be, and they are not compared with each other.
The run then prints `compare <name> ok` or the number of differences,
followed by `max_rel R max_abs A`, the largest relative and absolute
deviation of any compared float (a converged residual checked only
against `grad_tol` does not count; a float that moves off 0 counts as
`inf` relative), and then the differing paths.  It exits 1 on any
difference.  To compare with an older checkout, run this
script there with `--keep` (copy it in if it predates the option).

Usage: python scripts/report_digest.py [--seed 101] [--smoke] [--keep DIR] [--compare DIR]
"""

import argparse
import hashlib
import json
import math
import os
import pathlib
import shutil
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from dirichlet_p import cli  # noqa: E402
from dirichlet_p.config import parse_solve_options  # noqa: E402

RTOL, ATOL = 1e-9, 1e-12
RESIDUALS = ("solver_residual", "residual_norm")
TRACES = ("trace", "rounds")


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def _field_file_3d(path: str, n: int, rng: np.random.Generator) -> None:
    """Seeded anisotropic 3-D field: Q diag(l) Q^T per cell, Q a random rotation,
    eigenvalues in [0.5, 2.5]."""
    cells = (n - 1) ** 3
    q, _ = np.linalg.qr(rng.standard_normal((cells, 3, 3)))
    lam = np.stack([rng.uniform(0.5, 1.0, cells), rng.uniform(1.0, 1.5, cells),
                    rng.uniform(1.5, 2.5, cells)], axis=-1)
    mats = (q * lam[:, None, :]) @ np.swapaxes(q, -1, -2)
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    with open(path, "w") as fh:
        json.dump({"matrices": mats.reshape(-1).tolist(), "alpha": 0.5, "beta": 2.5}, fh)


def _extra_jobs(seed: int, workdir: str, smoke: bool) -> list[workloads.Job]:
    """Jobs outside the benchmark, on a seeded anisotropic field; their reports go ungated."""
    n = 9 if smoke else 17
    field = os.path.join(workdir, "extra-field.json")
    workloads._field_file(field, n, np.random.default_rng([seed, 99]))
    base = {"domain": workloads._domain(n), "field": f"file:{field}", "seed": seed}
    boundary = {"values": {"affine": {"linear": [1.0, 0.5], "constant": 0.25}}}
    configs = [(f"solve-{n}-newton_regularized", "solve", {
        **base, "p": 3.0, "solver": {"grad_tol": 1e-6, "max_iter": 20000},
        "solve": {"boundary": boundary}}, []),
        (f"solve-{n}-p1.5-eps", "solve", {
            **base, "p": 1.5, "eps": 1e-6, "solve": {"boundary": boundary}}, [])]
    # its active set changes over several loop iterations; a flat obstacle's never does
    nodes = np.linspace(-1.0, 1.0, n)
    dist2 = (nodes[:, None] - 0.05) ** 2 + (nodes[None, :] + 0.03) ** 2
    configs.append((f"obstacle-{n}-curved", "solve", {
        **base, "p": 3.0, "solver": {"grad_tol": workloads.GRAD_TOL},
        "solve": {"boundary": {"values": 0.0}, "obstacle": {
            "shape": [n, n], "values": (0.6 - 2.0 * dist2).tolist()}}}, []))
    configs.append((f"check-{n}-tol", "check", {
        **base, "p": 3.0, "check": {"suites": ["sector", "monotone", "contraction", "d1d2",
                                               "choquet", "union_diff"], "trials": 4}},
        ["--tol", "1e-7"]))
    # the only run of truncation_function on a distance field: two balls of
    # different R, so the smaller one reads a field computed for the larger;
    # re_z2 is not harmonic for this field, so residual_tol admits its residual
    configs.append((f"caccioppoli-{n}-cutoff", "caccioppoli", {
        **base, "p": 2.0, "caccioppoli": {
            "u": "re_z2", "variant": "cutoff", "residual_tol": 1e3,
            "balls": [{"center": [0.0, 0.0], "r": 0.2, "R": 0.4},
                      {"center": [0.25, -0.25], "r": 0.15, "R": 0.3}]}}, []))
    # the only run of the Euclidean variant: its constant p sqrt(beta/alpha)
    # comes from the field's declared bounds, alpha = 0.5 and beta = 2.5
    configs.append((f"caccioppoli-{n}-euclidean", "caccioppoli", {
        **base, "p": 2.0, "caccioppoli": {
            "u": "re_z2", "variant": "euclidean", "residual_tol": 1e3,
            "balls": [{"center": [0.0, 0.0], "r": 0.2, "R": 0.4},
                      {"center": [0.25, -0.25], "r": 0.15, "R": 0.3}]}}, []))
    # the only 3-D report: it pins the cell products and corner sums off the 2-D path
    n3 = 7 if smoke else 9
    field3 = os.path.join(workdir, "extra-field-3d.json")
    _field_file_3d(field3, n3, np.random.default_rng([seed, 3]))
    configs.append((f"solve-{n3}-3d", "solve", {
        "domain": {"dim": 3, "extent": [[-1.0, 1.0]] * 3, "shape": [n3] * 3},
        "field": f"file:{field3}", "seed": seed, "p": 3.0,
        "solver": {"grad_tol": workloads.GRAD_TOL},
        "solve": {"boundary": {"values": {"affine": {"linear": [1.0, 0.5, -0.25],
                                                      "constant": 0.25}}}}}, []))
    # a cell centre on the origin, where the stretch's Jacobian vanishes: one flagged cell
    configs.append(("qr-radial1.5-flagged-17", "qr", {
        "domain": {"dim": 2, "extent": [[-1.0625, 0.9375]] * 2, "shape": [17, 17]},
        "seed": seed, "qr": {"mapping": {"kind": "radial", "a": 1.5, "puncture": 0.25}}}, []))
    jobs = []
    for name, command, cfg, flags in configs:
        config = os.path.join(workdir, f"{name}.config.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(workdir, f"{name}.report.json")
        jobs.append(workloads.Job(name, (command, "--config", config, "--out", out, *flags),
                                  out, lambda report: None))
    return jobs


def compare_reports(ref, new, grad_tol: float, path: str = "", in_trace: bool = False,
                    moved: list[float] | None = None) -> list[str]:
    """Paths at which report `new` differs from `ref`, with the reason.

    `moved`, when given as [max_rel, max_abs], is raised to the largest
    relative and absolute deviation of the finite floats compared.
    """
    if type(ref) is not type(new):
        return [f"{path}: {ref!r} != {new!r}"]
    if isinstance(ref, dict):
        if ref.keys() != new.keys():
            return [f"{path}: keys {sorted(ref)} != {sorted(new)}"]
        out = []
        for key in ref:
            residual = key in RESIDUALS or (in_trace and key == "residual")
            if residual and isinstance(ref[key], float) and isinstance(new[key], float) \
                    and min(ref[key], new[key]) <= grad_tol:
                if max(ref[key], new[key]) > grad_tol:
                    out.append(f"{path}.{key}: {ref[key]!r} and {new[key]!r} straddle "
                               f"grad_tol {grad_tol:g}")
                continue
            out += compare_reports(ref[key], new[key], grad_tol, f"{path}.{key}",
                                   in_trace or key in TRACES, moved)
        return out
    if isinstance(ref, list):
        if len(ref) != len(new):
            return [f"{path}: length {len(ref)} != {len(new)}"]
        return [d for i, (a, b) in enumerate(zip(ref, new))
                for d in compare_reports(a, b, grad_tol, f"{path}[{i}]", in_trace, moved)]
    if isinstance(ref, float):
        if moved is not None and ref != new and math.isfinite(ref) and math.isfinite(new):
            dev = abs(new - ref)
            moved[0] = max(moved[0], dev / abs(ref) if ref else math.inf)
            moved[1] = max(moved[1], dev)
        if math.isclose(new, ref, rel_tol=RTOL, abs_tol=ATOL) or ref == new:
            return []
        return [f"{path}: {ref!r} != {new!r}"]
    return [] if ref == new else [f"{path}: {ref!r} != {new!r}"]


def _grad_tol(job: workloads.Job) -> float:
    """The solver tolerance the job runs with, from its config and any --tol flag."""
    argv = list(job.argv)
    with open(argv[argv.index("--config") + 1]) as fh:
        cfg = json.load(fh)
    tol = float(argv[argv.index("--tol") + 1]) if "--tol" in argv else None
    return parse_solve_options(cfg, tol).grad_tol


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--smoke", action="store_true", help="the small job lists")
    parser.add_argument("--keep", metavar="DIR", help="save each JSON report as DIR/<name>.json")
    parser.add_argument("--compare", metavar="DIR",
                        help="compare each JSON report with DIR/<name>.json by value")
    args = parser.parse_args()
    if args.keep:
        os.makedirs(args.keep, exist_ok=True)
    failed = False
    with tempfile.TemporaryDirectory() as workdir:
        jobs = [*workloads.build("solvers", args.seed, workdir, args.smoke),
                *workloads.build("geometry", args.seed, workdir, args.smoke),
                *_extra_jobs(args.seed, workdir, args.smoke)]
        for job in jobs:
            code = cli.main([*job.argv, "--csv"])
            out = pathlib.Path(job.out)
            print(job.name, code, _sha256(out), _sha256(out.with_suffix(".csv")), flush=True)
            if args.keep and out.exists():
                shutil.copyfile(out, os.path.join(args.keep, f"{job.name}.json"))
            if args.compare:
                ref = pathlib.Path(args.compare, f"{job.name}.json")
                moved = [0.0, 0.0]
                if not (ref.exists() and out.exists()):
                    diffs = [f"missing report {ref if out.exists() else out}"]
                else:
                    diffs = compare_reports(json.loads(ref.read_text()),
                                            json.loads(out.read_text()), _grad_tol(job),
                                            moved=moved)
                failed |= bool(diffs)
                print("compare", job.name, f"{len(diffs)} differences" if diffs else "ok",
                      f"max_rel {moved[0]:.2g} max_abs {moved[1]:.2g}")
                for diff in diffs[:10]:
                    print("  " + diff, flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
