#!/usr/bin/env python3
"""Resident memory after every job of a benchmark workload, over repeated passes.

Builds the job list of one workload of perfbench/workloads.py (a job list
such as `ring-newton`, or a composite such as `solvers`) for one seed, runs
it in this process through `dirichlet_p.cli.main` for N passes, the way
perfbench/run.py does, and after each job prints

    pass job VmRSS_MB ru_maxrss_MB

the current resident size (from /proc/self/status, "-" where that is not
readable) and the process's peak so far.  A shift in the benchmark's
`peak_rss_mb` and the job that sets the peak show here in seconds, without
a full benchmark run.  Run it on two checkouts and compare the last lines.
A job that exits nonzero is reported on standard error.

Usage: python scripts/rss_passes.py [--workload solvers] [--seed 7] [--passes 12] [--smoke]
"""

import argparse
import contextlib
import io
import pathlib
import resource
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "perfbench")]

import workloads  # noqa: E402
from dirichlet_p import cli  # noqa: E402


def _vm_rss_mb() -> str:
    try:
        with open("/proc/self/status") as fh:
            kb = next(line.split()[1] for line in fh if line.startswith("VmRSS:"))
    except (OSError, StopIteration):
        return "-"
    return f"{int(kb) / 1024.0:.1f}"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="solvers")
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--passes", type=int, default=12)
    parser.add_argument("--smoke", action="store_true", help="tiny grids")
    args = parser.parse_args()
    if args.passes < 1:
        parser.error("--passes must be at least 1")

    failed = 0
    with tempfile.TemporaryDirectory(prefix="rss-passes-") as workdir:
        jobs = workloads.build(args.workload, args.seed, workdir, args.smoke)
        for k in range(1, args.passes + 1):
            for job in jobs:
                err = io.StringIO()
                with contextlib.redirect_stderr(err):
                    code = cli.main(list(job.argv))
                if code != 0:
                    failed += 1
                    print(f"{job.name}: exit {code}: {err.getvalue().strip()[-300:]}",
                          file=sys.stderr)
                peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
                print(f"{k} {job.name} {_vm_rss_mb()} {peak:.1f}", flush=True)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
