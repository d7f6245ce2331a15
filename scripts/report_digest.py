#!/usr/bin/env python3
"""SHA-256 digests of the benchmark jobs' reports, for byte-identity checks.

Writes the `solvers` and `geometry` job configs of perfbench/workloads.py
for one seed, plus jobs on paths the benchmark never runs (a plain
`solve`, a regularized p = 1.5 solve, a curved obstacle, and `check` with
`--tol`), runs each job through `dirichlet_p.cli.main`
with `--csv`, and prints `name exit json-sha256 csv-sha256` per job ("-"
for a file the job did not write).  Run it on two checkouts and diff the
outputs.

Usage: python scripts/report_digest.py [--seed 101] [--smoke]
"""

import argparse
import hashlib
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import numpy as np  # noqa: E402
import workloads  # noqa: E402
from dirichlet_p import cli  # noqa: E402


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


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
    jobs = []
    for name, command, cfg, flags in configs:
        config = os.path.join(workdir, f"{name}.config.json")
        with open(config, "w") as fh:
            json.dump(cfg, fh)
        out = os.path.join(workdir, f"{name}.report.json")
        jobs.append(workloads.Job(name, (command, "--config", config, "--out", out, *flags),
                                  out, lambda report: None))
    return jobs


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--smoke", action="store_true", help="the small job lists")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        jobs = [*workloads.build("solvers", args.seed, workdir, args.smoke),
                *workloads.build("geometry", args.seed, workdir, args.smoke),
                *_extra_jobs(args.seed, workdir, args.smoke)]
        for job in jobs:
            code = cli.main([*job.argv, "--csv"])
            out = pathlib.Path(job.out)
            print(job.name, code, _sha256(out), _sha256(out.with_suffix(".csv")), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
