"""scripts/report_digest.py digests every job's reports and compares them by value."""

import importlib.util
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_smoke_digests_every_job():
    out = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "report_digest.py"), "--smoke"],
        capture_output=True, text=True, timeout=300, check=True).stdout
    lines = out.splitlines()
    assert len(lines) == 18
    digest = re.compile(r"\S+ 0 [0-9a-f]{64} [0-9a-f]{64}")
    bad = [line for line in lines if not digest.fullmatch(line)]
    assert not bad, bad


def _load_script():
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


class TestCompareReports:
    compare = staticmethod(_load_script().compare_reports)

    def test_floats_within_tolerance_match(self):
        ref = {"value": 1.0, "rows": [{"lhs": 0.0, "passed": True}]}
        new = {"value": 1.0 + 5e-10, "rows": [{"lhs": 5e-13, "passed": True}]}
        assert self.compare(ref, new, 1e-9) == []

    @pytest.mark.parametrize("new", [
        {"value": 1.0 + 2e-9, "iterations": 5, "passed": True},
        {"value": 1.0, "iterations": 6, "passed": True},
        {"value": 1.0, "iterations": 5.0, "passed": True},
        {"value": 1.0, "iterations": 5, "passed": False},
        {"value": 1.0, "iterations": 5},
    ], ids=["float", "int", "int-as-float", "bool", "missing-key"])
    def test_other_changes_are_reported(self, new):
        ref = {"value": 1.0, "iterations": 5, "passed": True}
        assert len(self.compare(ref, new, 1e-9)) == 1

    def test_list_length_is_exact(self):
        assert self.compare({"values": [1.0, 2.0]}, {"values": [1.0]}, 1e-9)

    def test_converged_residuals_are_bounded_not_compared(self):
        ref = {"residual_norm": 1e-12, "diagnostics": {"solver_residual": 3e-13},
               "rounds": [{"residual": 0.25}, {"residual": 2e-12}]}
        new = {"residual_norm": 4e-10, "diagnostics": {"solver_residual": 7e-10},
               "rounds": [{"residual": 0.25}, {"residual": 9e-10}]}
        assert self.compare(ref, new, 1e-9) == []
        assert len(self.compare(ref, new, 1e-10)) == 3

    def test_residuals_above_grad_tol_are_compared(self):
        ref = {"trace": [{"residual": 0.25}]}
        assert self.compare(ref, {"trace": [{"residual": 0.26}]}, 1e-9)

    def test_residual_outside_a_trace_is_an_ordinary_float(self):
        # a certified harmonicity residual is not a solver residual
        assert self.compare({"details": {"residual": 1e-12}},
                            {"details": {"residual": 4e-12}}, 1e-9)


def test_compare_mode_against_kept_reports(tmp_path):
    script = str(ROOT / "scripts" / "report_digest.py")
    subprocess.run([sys.executable, script, "--smoke", "--keep", str(tmp_path)],
                   capture_output=True, text=True, timeout=300, check=True)
    assert len(list(tmp_path.glob("*.json"))) == 18
    # one integer changed in one saved report
    saved = tmp_path / "ring-33-p2.json"
    saved.write_text(saved.read_text().replace('"solver_iterations": ', '"solver_iterations": 1'))
    run = subprocess.run([sys.executable, script, "--smoke", "--compare", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    compared = [line for line in run.stdout.splitlines() if line.startswith("compare ")]
    assert len(compared) == 18
    assert [line for line in compared if not line.endswith(" ok")] \
        == ["compare ring-33-p2 1 differences"]
    assert run.returncode == 1
