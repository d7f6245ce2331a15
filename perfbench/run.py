#!/usr/bin/env python3
"""End-to-end and per-layer benchmark of the dirichlet-p command line.

Usage (from the repository root):

    python3 perfbench/run.py --workload solvers --seed 1 --seconds 55 --trace 0
    python3 perfbench/run.py --workload geometry --seed 1 --seconds 25 --trace 1
    python3 perfbench/run.py --workload obstacle --seed 1 --seconds 2 --trace 0 --smoke

It drives `dirichlet_p.cli.main` in-process from the sources under `src/`,
one job at a time (a closed loop with one client), repeating the workload's
fixed job list until `--seconds` is spent, and checks every job's report.
A host-speed probe (perfbench/hostspeed.py) is timed next to every job.
With `--trace 0` it reports the end-to-end metrics (ref_wall_s, setup_s,
peak_rss_mb); with `--trace 1` it runs the job list untraced and then
traced, and reports the per-layer metrics of perfbench/spans.py.  The last
line of standard output is one JSON object with the keys correct,
attempted, failed and metrics.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKROOT = ROOT / ".perfbench-work"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "NUMEXPR_NUM_THREADS")
SETUP_SAMPLES = 5
END_TO_END_UNITS = {"ref_wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
PREDICTION = ("ROADMAP item 1 (Newton Hessian rank-one factor 4 -> 2): solve.newton_iters "
              "falls about 5x and ref_wall_s falls on ring-newton, check-suites and obstacle; "
              "geometry does not change.")


def _setup(workload: str, seed: int, smoke: bool, workdir: str):
    """Import the package and its libraries, then write the workload's inputs."""
    import numpy  # noqa: F401
    import scipy.optimize  # noqa: F401
    import scipy.sparse.linalg  # noqa: F401

    import workloads
    from dirichlet_p import cli

    return cli, workloads.build(workload, seed, workdir, smoke)


def _slowdown(host) -> float:
    return statistics.median(host.factor() for _ in range(3))


def _probe_setup(args) -> tuple[float, float]:
    """Set-up time and host slowdown in a fresh interpreter (imports are cached in this one)."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    if args.smoke:
        cmd.append("--smoke")
    out = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    setup, slowdown = out.stdout.split()[-2:]
    return float(setup), float(slowdown)


Pass = list[tuple[float, float]]  # per job: (wall time, host slowdown around it)


def _run_jobs(cli, jobs, host) -> tuple[Pass, list[int], list[str]]:
    """One pass over the job list: each job's (wall time, slowdown), exit code and stderr.

    The host-speed probe runs before the first job and after every job; a
    job's slowdown is the mean of the probes on either side of it.
    """
    times, codes, errors = [], [], []
    before = host.factor()
    for job in jobs:
        buf = io.StringIO()
        with contextlib.redirect_stderr(buf):
            t0 = perf_counter()
            try:
                code = cli.main(list(job.argv))
            except Exception:  # a crash is a failed job, not a failed benchmark
                traceback.print_exc()
                code = -1
            wall = perf_counter() - t0
        after = host.factor()
        times.append((wall, (before + after) / 2))
        before = after
        codes.append(code)
        errors.append(buf.getvalue())
    return times, codes, errors


def _wall(passes: list[Pass]) -> float:
    """Wall time of the job list: the sum over jobs of each job's median time.

    Per-job medians drop a noise burst that hits one job of one pass, which
    the median of whole-pass times would keep.
    """
    return sum(statistics.median(t for t, _ in job) for job in zip(*passes))


def _ref_wall(passes: list[Pass]) -> float:
    """`_wall` with each job's time divided by the host's slowdown around it."""
    return sum(statistics.median(t / f for t, f in job) for job in zip(*passes))


class Tally:
    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def check(self, workloads, jobs, codes, errors) -> None:
        for job, code, err in zip(jobs, codes, errors):
            failed, problem = workloads.check_job(job, code, err)
            self.attempted += 1
            self.failed += failed
            if problem is not None:
                self.problems.append(problem)


def _measure(cli, workloads, jobs, host, tally: Tally, budget: float) -> list[Pass]:
    """Repeat the job list until the next pass would overrun the budget."""
    passes: list[Pass] = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times, codes, errors = _run_jobs(cli, jobs, host)
        passes.append(times)
        tally.check(workloads, jobs, codes, errors)
        if perf_counter() - start + (perf_counter() - t0) > budget:
            return passes


def _machine(threads: str) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {"python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "nproc": len(os.sched_getaffinity(0)),
            "cpu": cpu, "thread_caps": {v: threads for v in THREAD_VARS}}


def _traced(cli, workloads, jobs, host, tally: Tally,
            budget: float) -> tuple[dict, list[str], dict[str, list[Pass]]]:
    """Per-layer metrics, medians over traced passes, plus the self-checks.

    Untraced and traced passes alternate, so machine noise hits both sides
    of trace.overhead_frac alike.
    """
    from spans import DETERMINISTIC, METRICS, Tracer

    tracer = Tracer()
    walls: dict[str, list[Pass]] = {"untraced": [], "traced": []}
    passes: list[dict] = []
    problems = []
    start = perf_counter()
    while True:
        t0 = perf_counter()
        times, codes, errors = _run_jobs(cli, jobs, host)
        walls["untraced"].append(times)
        tally.check(workloads, jobs, codes, errors)
        tracer.reset()
        tracer.install()
        try:
            times, codes, errors = _run_jobs(cli, jobs, host)
        finally:
            tracer.uninstall()
        walls["traced"].append(times)
        wall = sum(t for t, _ in times)
        tally.check(workloads, jobs, codes, errors)
        size = sum(os.path.getsize(j.out) for j, c in zip(jobs, codes) if c == 0)
        passes.append(tracer.metrics(size))
        # self times partition the cli.main spans, which fill the pass
        if not 0.99 * wall <= tracer.accounted_s() <= wall * (1 + 1e-9):
            problems.append(f"spans account for {tracer.accounted_s():.4f} s "
                            f"of a {wall:.4f} s pass")
        if len(passes) >= 2 and perf_counter() - start + (perf_counter() - t0) > budget:
            break
    for name in DETERMINISTIC:
        seen = {p[name] for p in passes}
        if len(seen) > 1:
            problems.append(f"counter {name} differs between passes: {sorted(seen)}")
    overhead = _ref_wall(walls["traced"]) / _ref_wall(walls["untraced"]) - 1
    metrics = {name: overhead if name == "trace.overhead_frac" else
               statistics.median(p[name] for p in passes) for name, _unit in METRICS}
    return metrics, problems, walls


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=55.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="tiny grids, for tests")
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()

    if not (SRC / "dirichlet_p" / "cli.py").is_file():
        print(f"perfbench: no dirichlet_p sources under {SRC}", file=sys.stderr)
        return 2
    threads = str(len(os.sched_getaffinity(0)))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path[:0] = [str(Path(__file__).resolve().parent), str(SRC)]

    WORKROOT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORKROOT)
    try:
        t0 = perf_counter()
        try:
            cli, jobs = _setup(args.workload, args.seed, args.smoke, workdir)
        except ValueError as exc:
            print(f"perfbench: {exc}", file=sys.stderr)
            return 2
        setup = perf_counter() - t0
        from hostspeed import HostSpeed

        host = HostSpeed()
        if args.setup_probe:
            print(repr(setup), repr(_slowdown(host)))
            return 0
        import logging

        import workloads
        from spans import METRICS

        # bind the CLI's log handler to the real stderr, not a per-job buffer
        logging.basicConfig(stream=sys.stderr, level=logging.ERROR)
        probes = 0 if args.trace else SETUP_SAMPLES - 1
        setups = [(setup, _slowdown(host))] + [_probe_setup(args) for _ in range(probes)]

        tally = Tally()
        if args.trace:
            metrics, problems, walls = _traced(cli, workloads, jobs, host, tally, args.seconds)
            tally.problems += problems
            units = dict(METRICS)
            wall = _wall(walls["untraced"])
        else:
            walls = _measure(cli, workloads, jobs, host, tally, args.seconds)
            wall = _wall(walls)
            metrics = {
                "ref_wall_s": _ref_wall(walls),
                "setup_s": statistics.median(t / f for t, f in setups),
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            }
            units = END_TO_END_UNITS
        jobs_failed = tally.failed / tally.attempted

        record = {
            "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, "smoke": args.smoke, "machine": _machine(threads),
            "jobs": [j.name for j in jobs], "jobs_failed": jobs_failed,
            "job_times_s_and_slowdowns": walls,
            "setup_samples_s_and_slowdowns": setups,
            "known_defects": sorted({f"{j.name}: {j.known_defect}" for j in jobs
                                     if j.known_defect}),
            "problems": tally.problems, "prediction": PREDICTION,
        }
        print("record " + json.dumps(record))
        for name, value in metrics.items():
            print(f"{name} {value:.6g} {units[name]}")
        print(f"wall_s {wall:.6g} s (unscaled)")
        print(f"jobs_failed {jobs_failed:.6g} share ({tally.failed} of {tally.attempted})")
        for problem in tally.problems:
            print(f"PROBLEM {problem}", file=sys.stderr)
        print(json.dumps({
            "correct": not tally.problems,
            "attempted": tally.attempted,
            "failed": tally.failed,
            "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORKROOT.rmdir()


if __name__ == "__main__":
    sys.exit(main())
