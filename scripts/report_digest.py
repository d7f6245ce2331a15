#!/usr/bin/env python3
"""SHA-256 digests of the benchmark jobs' reports, for byte-identity checks.

Writes the `solvers` and `geometry` job configs of perfbench/workloads.py
for one seed, runs each job through `dirichlet_p.cli.main` with `--csv`,
and prints `name exit json-sha256 csv-sha256` per job ("-" for a file the
job did not write).  Run it on two checkouts and diff the outputs.

Usage: python scripts/report_digest.py [--seed 101] [--smoke]
"""

import argparse
import hashlib
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from dirichlet_p import cli  # noqa: E402


def _sha256(path: pathlib.Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest() if path.exists() else "-"


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seed", type=int, default=101)
    parser.add_argument("--smoke", action="store_true", help="the small job lists")
    args = parser.parse_args()
    with tempfile.TemporaryDirectory() as workdir:
        for workload in ("solvers", "geometry"):
            for job in workloads.build(workload, args.seed, workdir, args.smoke):
                code = cli.main([*job.argv, "--csv"])
                out = pathlib.Path(job.out)
                print(job.name, code, _sha256(out), _sha256(out.with_suffix(".csv")),
                      flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
