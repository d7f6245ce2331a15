"""Smoke test of the benchmark at tiny grids.

Run from the repository root:

    python3 -m pytest -q perfbench/test_smoke.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def _run(*args: str, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, str(cwd / "perfbench" / "run.py"), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=170)


def _result(workload: str, trace: int, seed: int = 3) -> tuple[dict, str]:
    proc = _run("--workload", workload, "--seed", str(seed), "--seconds", "1",
                "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    return result, proc.stdout


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_reported_with_its_unit(workload: str, trace: int) -> None:
    result, stdout = _result(workload, trace)
    assert result["correct"] is True, stdout
    assert result["attempted"] >= 1
    expected = {m["name"]: m["unit"] for m in SPEC["per_layer" if trace else "end_to_end"]}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    assert got == expected
    # the human-readable lines between the record and the result: "name value unit"
    printed = {line.split()[0]: line.split()[2] for line in stdout.splitlines()[1:-1]}
    assert printed == {**expected, "wall_s": "s", "jobs_failed": "share"}


def test_known_qr_defects_are_counted_not_hidden() -> None:
    result, stdout = _result("geometry", 0)
    record = json.loads(next(line for line in stdout.splitlines()
                             if line.startswith("record "))[len("record "):])
    assert len(record["known_defects"]) == 4
    passes = result["attempted"] // len(record["jobs"])
    assert result["failed"] == 4 * passes


def test_counters_repeat_across_runs() -> None:
    first, _ = _result("ring-newton", 1)
    second, _ = _result("ring-newton", 1)
    for name in ("splu.calls", "splu.lu_nnz", "solve.newton_iters",
                 "assemble.assemble_form_matrix.calls", "capacity.equilibrium_solves"):
        assert first["metrics"][name]["value"] == second["metrics"][name]["value"], name


def test_refuses_to_run_without_the_sources(tmp_path: Path) -> None:
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = _run("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                cwd=tmp_path)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
