"""scripts/report_digest.py digests every job's reports and compares them by value.

tests/golden holds the `--smoke --seed 101` JSON reports of every job.  A
change that moves a report value beyond the compare tolerances writes them
again with `python scripts/report_digest.py --smoke --seed 101 --keep
tests/golden` and says which jobs moved and by how much.
"""

import importlib.util
import json
import math
import pathlib
import re
import shutil
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
SCRIPT = str(ROOT / "scripts" / "report_digest.py")
GOLDEN = ROOT / "tests" / "golden"


def _smoke_compare(golden: pathlib.Path, *flags: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, SCRIPT, "--smoke", "--seed", "101",
                           "--compare", str(golden), *flags],
                          capture_output=True, text=True, timeout=300)


def _compare_lines(stdout: str) -> dict[str, list[str]]:
    """Job name -> the fields after it on its `compare` line."""
    return {line.split()[1]: line.split()[2:]
            for line in stdout.splitlines() if line.startswith("compare ")}


@pytest.fixture(scope="module")
def kept(tmp_path_factory) -> pathlib.Path:
    return tmp_path_factory.mktemp("kept")


@pytest.fixture(scope="module")
def golden_run(kept) -> subprocess.CompletedProcess:
    """One smoke run that digests every job, compares it with tests/golden and keeps it."""
    return _smoke_compare(GOLDEN, "--keep", str(kept))


def test_smoke_digests_every_job(golden_run):
    lines = [line for line in golden_run.stdout.splitlines()
             if not line.startswith(("compare ", "  "))]
    assert len(lines) == 21
    digest = re.compile(r"\S+ 0 [0-9a-f]{64} [0-9a-f]{64}")
    bad = [line for line in lines if not digest.fullmatch(line)]
    assert not bad, bad


def test_smoke_reports_match_golden(golden_run):
    compared = _compare_lines(golden_run.stdout)
    assert len(compared) == 21 == len(list(GOLDEN.glob("*.json")))
    assert {name for name, fields in compared.items() if fields[0] != "ok"} == set(), \
        golden_run.stdout
    assert golden_run.returncode == 0


def test_smoke_reports_are_stdlib_indent_2_json(golden_run, kept):
    # pins the byte layout of every command's report, whatever its values
    reports = sorted(kept.glob("*.json"))
    assert len(reports) == 21
    for path in reports:
        text = path.read_text()
        assert text == json.dumps(json.loads(text), sort_keys=True, indent=2) + "\n", path.name


def _edited_golden(tmp_path: pathlib.Path, name: str, edit) -> pathlib.Path:
    golden = tmp_path / "golden"
    shutil.copytree(GOLDEN, golden)
    report = json.loads((golden / f"{name}.json").read_text())
    edit(report)
    (golden / f"{name}.json").write_text(json.dumps(report, indent=2))
    return golden


@pytest.mark.parametrize("name, edit", [
    ("ring-33-p2", lambda r: r["results"]["diagnostics"].update(
        pairing=r["results"]["diagnostics"]["pairing"] * (1.0 + 1e-6))),
    ("qr-z2-17", lambda r: r["results"]["harmonicity"].update(passed=False)),
], ids=["float-moved-1e-6-relative", "passed-flipped"])
def test_edited_golden_fails_the_compare(tmp_path, name, edit):
    run = _smoke_compare(_edited_golden(tmp_path, name, edit))
    compared = _compare_lines(run.stdout)
    assert {job: fields[0] for job, fields in compared.items() if fields[0] != "ok"} \
        == {name: "1"}
    assert run.returncode == 1


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

    def test_moved_records_the_largest_float_deviations(self):
        ref = {"a": 2.0, "b": [1e-13, 0.0, 5.0], "n": 3, "residual_norm": 1e-12}
        new = {"a": 2.0 + 4e-10, "b": [3e-13, 1e-13, 5.0], "n": 3, "residual_norm": 5e-12}
        moved = [0.0, 0.0]
        assert self.compare(ref, new, 1e-9, moved=moved) == []
        # 1e-13 -> 3e-13 is 2 relative; 0 -> 1e-13 is inf relative; the
        # converged residual is bounded by grad_tol, not compared
        assert moved == [math.inf, pytest.approx(4e-10, rel=1e-6)]
        moved = [0.0, 0.0]
        self.compare({"a": 2.0, "b": 4.0}, {"a": 2.0 + 1e-3, "b": 4.0 + 1e-3}, 1e-9,
                     moved=moved)
        assert moved == [pytest.approx(5e-4), pytest.approx(1e-3)]

    def test_residual_outside_a_trace_is_an_ordinary_float(self):
        # a certified harmonicity residual is not a solver residual
        assert self.compare({"details": {"residual": 1e-12}},
                            {"details": {"residual": 4e-12}}, 1e-9)


def test_compare_mode_against_kept_reports(tmp_path):
    script = str(ROOT / "scripts" / "report_digest.py")
    subprocess.run([sys.executable, script, "--smoke", "--keep", str(tmp_path)],
                   capture_output=True, text=True, timeout=300, check=True)
    assert len(list(tmp_path.glob("*.json"))) == 21
    # one integer changed in one saved report
    saved = tmp_path / "ring-33-p2.json"
    saved.write_text(saved.read_text().replace('"solver_iterations": ', '"solver_iterations": 1'))
    run = subprocess.run([sys.executable, script, "--smoke", "--compare", str(tmp_path)],
                         capture_output=True, text=True, timeout=300)
    compared = _compare_lines(run.stdout)
    assert len(compared) == 21
    assert {name: fields[:2] for name, fields in compared.items() if fields[0] != "ok"} \
        == {"ring-33-p2": ["1", "differences"]}
    # every job also prints how far its floats moved: here not at all
    assert {tuple(fields[-4:]) for fields in compared.values()} \
        == {("max_rel", "0", "max_abs", "0")}
    assert run.returncode == 1
