import json
import os
import pathlib
import subprocess
import sys

import numpy as np
import pytest

import dirichlet_p.cli as cli
from dirichlet_p.report import CheckReport


def write_config(tmp_path, name, cfg):
    path = tmp_path / name
    path.write_text(json.dumps(cfg))
    return str(path)


def base_domain_1d():
    return {"dim": 1, "extent": [[0.0, 1.0]], "shape": [17]}


def base_domain_2d(n=17):
    return {"dim": 2, "extent": [[0.0, 1.0], [0.0, 1.0]], "shape": [n, n]}


class TestSolveCommand:
    def test_affine_boundary_success(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(),
            "p": 3.0,
            "solve": {"boundary": {"mask": "domain_boundary",
                                   "values": {"affine": {"linear": [2.0, -1.0],
                                                         "constant": 0.5}}}},
        })
        out = tmp_path / "out.json"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["results"]["residual_norm"] <= 1e-8

    def test_nonconvergence_exit_two_with_trace(self, tmp_path):
        vals = (np.sin(7 * np.linspace(0, 1, 17))[:, None]
                * np.cos(5 * np.linspace(0, 1, 17))[None, :])
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(),
            "p": 4.0,
            "solver": {"grad_tol": 1e-13, "max_iter": 1},
            "solve": {"boundary": {"mask": "domain_boundary",
                                   "values": {"shape": [17, 17],
                                              "values": vals.reshape(-1).tolist()}}},
        })
        out = tmp_path / "out.json"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_COMPUTE
        rep = json.loads(out.read_text())
        assert rep["trace"]

    def test_missing_p_names_the_key(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(),
            "solve": {"boundary": {"values": 0.0}},
        })
        assert cli.main(["solve", "--config", cfg]) == cli.EXIT_CONFIG
        assert "'p'" in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(), "p": 2.0, "frobnicate": 1,
            "solve": {"boundary": {"values": 0.0}},
        })
        assert cli.main(["solve", "--config", cfg]) == cli.EXIT_CONFIG
        assert "frobnicate" in capsys.readouterr().err

    def test_obstacle_block(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(),
            "p": 2.0,
            "solve": {
                "boundary": {"mask": "domain_boundary", "values": 0.0},
                "obstacle": {"region": {"type": "interval", "a": 0.25, "b": 0.75},
                             "level": 1.0},
            },
        })
        out = tmp_path / "out.json"
        assert cli.main(["solve", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        sol = np.asarray(rep["results"]["solution"]["values"])
        x = np.linspace(0, 1, 17)
        exact = np.minimum(np.minimum(4 * x, 1.0), 4 * (1 - x))
        assert np.max(np.abs(sol - exact)) <= 1e-8


    def test_obstacle_grid_is_minus_inf_off_its_region(self, tmp_path):
        # the grid form of the obstacle block above: -inf where it does not bound
        x = np.linspace(0, 1, 17)
        lower = np.where(np.abs(x - 0.5) <= 0.25, 1.0, -np.inf)
        outs = []
        for name, obstacle in (
                ("region", {"region": {"type": "interval", "a": 0.25, "b": 0.75}, "level": 1.0}),
                ("grid", {"shape": [17], "values": lower.tolist()})):
            cfg = write_config(tmp_path, f"{name}.json", {
                "domain": base_domain_1d(), "p": 2.0,
                "solve": {"boundary": {"values": 0.0}, "obstacle": obstacle}})
            outs.append(tmp_path / f"{name}_out.json")
            assert cli.main(["solve", "--config", cfg, "--out", str(outs[-1])]) == cli.EXIT_OK
        assert outs[0].read_bytes() == outs[1].read_bytes()


class TestCapacityCommand:
    def test_1d_closed_form_value(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(),
            "p": 2.0,
            "capacity": {"condenser": {
                "inner": {"type": "interval", "a": 0.25, "b": 0.75},
                "outer": "domain_boundary"}},
        })
        out = tmp_path / "out.json"
        assert cli.main(["capacity", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert abs(rep["results"]["value"] - 16.0) <= 1e-8

    def test_determinism_across_thread_hints(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(9),
            "p": 3.0,
            "seed": 17,
            "capacity": {"condenser": {
                "inner": {"type": "rect", "min": [0.375, 0.375], "max": [0.625, 0.625]},
                "outer": "domain_boundary"}},
        })
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        assert cli.main(["capacity", "--config", cfg, "--out", str(out1),
                         "--threads", "1"]) == cli.EXIT_OK
        assert cli.main(["capacity", "--config", cfg, "--out", str(out2),
                         "--threads", "7"]) == cli.EXIT_OK
        assert out1.read_bytes() == out2.read_bytes()


class TestCheckCommand:
    def test_full_suite_passes(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(9),
            "p": 3.0,
            "seed": 5,
            "check": {"suites": ["sector", "monotone", "contraction", "d1d2",
                                 "choquet", "union_diff"], "trials": 8},
        })
        out = tmp_path / "out.json"
        assert cli.main(["check", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["results"]["failed"] == 0

    def test_seeded_rerun_byte_identical(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(),
            "p": 2.5, "eps": 0.0,
            "seed": 99,
            "check": {"suites": ["sector", "contraction"], "trials": 6},
        })
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        cli.main(["check", "--config", cfg, "--out", str(out1), "--threads", "2"])
        cli.main(["check", "--config", cfg, "--out", str(out2), "--threads", "5"])
        assert out1.read_bytes() == out2.read_bytes()

    def test_d1d2_on_a_grid_with_one_seeded_set(self, tmp_path):
        # on 4x4 the seeded boxes hold no nodes and one fallback box is used
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(4), "p": 3.0, "check": {"suites": ["d1d2"]},
        })
        out = tmp_path / "out.json"
        assert cli.main(["check", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rows = json.loads(out.read_text())["results"]["checks"]
        assert [r["check"] for r in rows] == ["dirichlet_axioms"]

    def test_unknown_suite_rejected(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(), "p": 2.0,
            "check": {"suites": ["sector", "bogus"]},
        })
        assert cli.main(["check", "--config", cfg]) == cli.EXIT_CONFIG
        assert "bogus" in capsys.readouterr().err

    def test_property_failure_exit_three(self, tmp_path, monkeypatch):
        failing = CheckReport(check="sector", p=2.0, grid="1d 17", passed=False,
                              lhs=1.0, rhs=0.0, tolerance=0.0)
        monkeypatch.setattr(cli, "check_sector", lambda *a, **k: failing)
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(), "p": 2.0,
            "check": {"suites": ["sector"], "trials": 1},
        })
        out = tmp_path / "out.json"
        assert cli.main(["check", "--config", cfg, "--out", str(out)]) == cli.EXIT_PROPERTY
        rep = json.loads(out.read_text())
        assert rep["results"]["failed"] == 1

    def test_csv_flattening(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(), "p": 2.0, "seed": 1,
            "check": {"suites": ["sector"], "trials": 3},
        })
        out = tmp_path / "out.json"
        assert cli.main(["check", "--config", cfg, "--out", str(out), "--csv"]) == cli.EXIT_OK
        csv_path = tmp_path / "out.csv"
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0].startswith("check,")
        assert len(lines) == 4

    def test_csv_on_stdout_matches_csv_file(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(), "p": 2.0, "seed": 1,
            "check": {"suites": ["sector"], "trials": 3},
        })
        out = tmp_path / "out.json"
        assert cli.main(["check", "--config", cfg, "--out", str(out), "--csv"]) == cli.EXIT_OK
        capsys.readouterr()
        assert cli.main(["check", "--config", cfg, "--csv"]) == cli.EXIT_OK
        stdout = capsys.readouterr().out
        report = out.read_text()
        assert stdout.startswith(report)
        table = (tmp_path / "out.csv").read_bytes().decode()
        assert stdout[len(report):] == table
        assert table.splitlines()[0].startswith("check,")


class TestQrCommand:
    def test_power_two_summary(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]],
                       "shape": [33, 33]},
            "qr": {"mapping": {"kind": "power", "k": 2, "puncture": 0.3},
                   "min_order": 1.0, "include_log": True},
        })
        out = tmp_path / "out.json"
        assert cli.main(["qr", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())["results"]
        assert abs(rep["K_O"] - 1.0) <= 1e-10
        assert abs(rep["K_I"] - 1.0) <= 1e-10
        assert rep["theta_identity_deviation"] <= 1e-10
        assert rep["harmonicity"]["passed"]

    def test_exact_floor_report_is_finite(self, tmp_path):
        # every residual sits at the rounding floor, so no order is observed
        cfg = write_config(tmp_path, "c.json", {
            "domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]],
                       "shape": [65, 65]},
            "qr": {"mapping": {"kind": "power", "k": 2, "puncture": 0.3}},
        })
        out = tmp_path / "out.json"
        assert cli.main(["qr", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        harm = json.loads(out.read_text())["results"]["harmonicity"]
        assert harm["passed"]
        json.dumps(harm, allow_nan=False)  # raises on nan or inf

    def test_large_linear_distortion_is_certified(self, tmp_path):
        # alpha = 1e-5, beta = 1e5: the induced field keeps a positive lower bound
        cfg = write_config(tmp_path, "c.json", {
            "domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]], "shape": [9, 9]},
            "qr": {"mapping": {"kind": "linear", "A": [[1e5, 0.0], [0.0, 1.0]]}},
        })
        out = tmp_path / "out.json"
        assert cli.main(["qr", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())["results"]
        assert (rep["alpha"], rep["beta"]) == (1e-5, 1e5)
        assert rep["harmonicity"]["passed"]


class TestMetricCommand:
    def test_distances_and_certificates(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(33),
            "metric": {"source": [0.5, 0.5], "neighborhood": 16,
                       "targets": [[1.0, 0.5]],
                       "cutoff": {"r": 0.3},
                       "truncation": {"r": 0.15, "R": 0.3}},
        })
        out = tmp_path / "out.json"
        assert cli.main(["metric", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())["results"]
        assert abs(rep["distances"][0]["distance"] - 0.5 / np.sqrt(2)) <= 0.02
        assert rep["cutoff"]["certificate"]["passed"]
        assert rep["truncation"]["certificate"]["passed"]


class TestCaccioppoliCommand:
    def test_ball_variant(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(33),
            "p": 2.0,
            "caccioppoli": {"u": {"affine": {"linear": [2.0, -1.0]}},
                            "balls": [{"center": [0.5, 0.5], "r": 0.1, "R": 0.25}],
                            "variant": "ball"},
        })
        out = tmp_path / "out.json"
        assert cli.main(["caccioppoli", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
        rep = json.loads(out.read_text())["results"]
        assert rep["checks"][0]["passed"]

    def test_cutoff_and_euclidean_variants(self, tmp_path):
        for variant in ("cutoff", "euclidean"):
            cfg = write_config(tmp_path, f"{variant}.json", {
                "domain": base_domain_2d(33),
                "p": 2.0,
                "caccioppoli": {"u": {"affine": {"linear": [1.0, 1.0]}},
                                "balls": [{"center": [0.5, 0.5], "r": 0.1, "R": 0.25}],
                                "variant": variant},
            })
            out = tmp_path / f"{variant}_out.json"
            assert cli.main(["caccioppoli", "--config", cfg,
                             "--out", str(out)]) == cli.EXIT_OK
            rep = json.loads(out.read_text())["results"]
            assert rep["variant"] == variant
            assert rep["checks"][0]["passed"]

    def test_csv_rows_carry_check_p_and_grid(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(33),
            "p": 2.0,
            "caccioppoli": {"u": {"affine": {"linear": [2.0, -1.0]}},
                            "balls": [{"center": [0.5, 0.5], "r": 0.1, "R": 0.25}]},
        })
        out = tmp_path / "out.json"
        assert cli.main(["caccioppoli", "--config", cfg, "--out", str(out),
                         "--csv"]) == cli.EXIT_OK
        header, row = (tmp_path / "out.csv").read_text().strip().splitlines()
        assert header.startswith("check,p,grid,")
        check, p, grid = row.split(",")[:3]
        assert check == "caccioppoli_ball"
        assert p == "2.0"
        assert grid

    def test_log_abs_needs_punctured_domain(self, tmp_path, capsys):
        cfg = write_config(tmp_path, "c.json", {
            "domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]],
                       "shape": [17, 17]},
            "p": 2.0,
            "caccioppoli": {"u": "log_abs",
                            "balls": [{"center": [0.0, 0.0], "r": 0.1, "R": 0.2}]},
        })
        assert cli.main(["caccioppoli", "--config", cfg]) == cli.EXIT_CONFIG
        assert "origin" in capsys.readouterr().err


class TestFlags:
    def test_tol_override_changes_solver_target(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_2d(),
            "p": 3.0,
            "solver": {"grad_tol": 1e-4},
            "solve": {"boundary": {"mask": "domain_boundary",
                                   "values": {"affine": {"linear": [1.0, 1.0]}}}},
        })
        out = tmp_path / "out.json"
        assert cli.main(["solve", "--config", cfg, "--out", str(out),
                         "--tol", "1e-10"]) == cli.EXIT_OK
        rep = json.loads(out.read_text())
        assert rep["results"]["diagnostics"]["grad_tol"] == 1e-10

    def test_seed_override_recorded(self, tmp_path):
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(), "p": 2.0, "seed": 1,
            "check": {"suites": ["sector"], "trials": 2},
        })
        out = tmp_path / "out.json"
        assert cli.main(["check", "--config", cfg, "--out", str(out),
                         "--seed", "33"]) == cli.EXIT_OK
        assert json.loads(out.read_text())["seed"] == 33

    @pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")],
                             ids=["nan", "inf", "neg-inf"])
    @pytest.mark.parametrize("wrap", [lambda v: [1.0, [2.0, v]], lambda v: {"a": {"b": v}},
                                      lambda v: cli._grid_payload(np.array([[1.0, 2.0],
                                                                            [v, 3.0]]))],
                             ids=["list", "dict", "grid"])
    def test_nonfinite_report_exits_two(self, tmp_path, monkeypatch, capsys, value, wrap):
        monkeypatch.setitem(cli._COMMANDS, "solve",
                            lambda cfg, seed, tol: {"value": wrap(value)})
        cfg = write_config(tmp_path, "c.json", {
            "domain": base_domain_1d(), "p": 2.0,
            "solve": {"boundary": {"values": 0.0}},
        })
        out = tmp_path / "out.json"
        assert cli.main(["solve", "--config", cfg, "--out", str(out),
                         "--csv"]) == cli.EXIT_COMPUTE
        assert "non-finite" in capsys.readouterr().err
        assert not out.exists()
        assert not (tmp_path / "out.csv").exists()


def _grid(*values):
    return cli._grid_payload(np.array(values, dtype=float))


EDGE_FLOATS = [-0.0, 5e-324, 1e-05, 1e16, 0.1 + 0.2]


@pytest.mark.parametrize("report", [
    {"results": {"solution": _grid(0.5)}},
    *[{"results": {"potential": _grid(x)}} for x in EDGE_FLOATS],
    {"results": {"potential": _grid(*EDGE_FLOATS, 1.0, -2.5e-300)}},
    {"grid": _grid(1.0, 2.0)},
    {"results": {"a": [_grid(1.0, 2.0), [_grid(3.0)]], "b": {"c": {"d": _grid(4.0, 5.0)}}}},
    {"results": {"rows": [{"solution": _grid(1.0, 2.0)}, (_grid(3.0), 4)]}},
    {"results": {"z": _grid(1.0), "a": _grid(2.0), "m": {"values": [], "shape": [0]}}},
    {"results": {"potential": cli._grid_payload(np.arange(6.0).reshape(2, 3)),
                 "empty": cli._grid_payload(np.zeros((0, 3))), "n": np.float64(0.25),
                 "flags": np.array([True, False]), "label": "\u00e9\x00", "none": None}},
], ids=["one-value", "negative-zero", "subnormal", "1e-05", "1e16", "0.1+0.2", "mixed",
        "top-level", "in-lists-and-dicts", "in-list-rows", "sorted-before-found",
        "shaped-empty-and-numpy"])
def test_encode_report_matches_stdlib_indent_2(report):
    expected = json.dumps(report, sort_keys=True, indent=2, default=cli._json_default,
                          allow_nan=False) + "\n"
    assert cli._encode_report(report) == expected


def test_grid_values_stay_lists_and_the_report_is_not_changed():
    report = {"results": {"solution": _grid(1.0, 2.0), "rows": [{"passed": True}]}}
    before = repr(report)
    cli._encode_report(report)
    assert repr(report) == before
    assert isinstance(report["results"]["solution"]["values"], list)
    assert cli._flatten_for_csv(report)[1:] == [
        ["solution.shape[0]", 2], ["solution.values[0]", 1.0],
        ["solution.values[1]", 2.0], ["rows[0].passed", True]]


def test_failure_two_lists_deep_exits_three(tmp_path, monkeypatch):
    monkeypatch.setitem(cli._COMMANDS, "solve", lambda cfg, seed, tol: {
        "values": [0.5, 1.0], "rows": [[1.0, {"check": "x", "passed": True}],
                                       [2.0, {"check": "y", "passed": False}]]})
    cfg = write_config(tmp_path, "c.json", {
        "domain": base_domain_1d(), "p": 2.0, "solve": {"boundary": {"values": 0.0}},
    })
    assert cli.main(["solve", "--config", cfg, "--out", str(tmp_path / "o.json")]) \
        == cli.EXIT_PROPERTY


def _ring_config(n):
    return {"domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]], "shape": [n, n]},
            "p": 3.0, "solver": {"grad_tol": 1e-9},
            "capacity": {"condenser": {
                "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.25},
                "outer": {"type": "outside_disk", "center": [0.0, 0.0], "radius": 0.75}}}}


def test_ring_report_unchanged_by_a_run_on_another_grid(tmp_path):
    # per-grid caches must not carry one run's state into the next
    ring = write_config(tmp_path, "ring.json", _ring_config(33))
    check = write_config(tmp_path, "check.json", _set_suite_config(
        ["sector", "monotone", "contraction", "d1d2", "choquet", "union_diff"]))
    first, second = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["capacity", "--config", ring, "--out", str(first)]) == cli.EXIT_OK
    assert cli.main(["check", "--config", check, "--out", str(tmp_path / "c.json")]) \
        == cli.EXIT_OK
    assert cli.main(["capacity", "--config", ring, "--out", str(second)]) == cli.EXIT_OK
    assert first.read_bytes() == second.read_bytes()


def _metric_config(**extra):
    return {"domain": base_domain_2d(9),
            "metric": {"source": [0.5, 0.5], "neighborhood": 8, **extra}}


def _caccioppoli_config(u, ball):
    return {"domain": base_domain_2d(9), "p": 2.0,
            "caccioppoli": {"u": u, "balls": [ball]}}


BALL = {"center": [0.5, 0.5], "r": 0.1, "R": 0.25}


def _euclidean_config(r, R):
    return {"domain": base_domain_2d(17), "p": 2.0,
            "caccioppoli": {"u": "re_z2", "variant": "euclidean",
                            "balls": [{"center": [0.5, 0.5], "r": r, "R": R}]}}


def _radial_qr_config(**extra):
    # a radial map on a box that omits the origin: its harmonicity check runs
    return {"domain": {"dim": 2, "extent": [[0.5, 1.5], [0.5, 1.5]], "shape": [9, 9]},
            "qr": {"mapping": {"kind": "radial", "a": 1.5}, **extra}}


@pytest.mark.parametrize("command, config, key", [
    ("metric", _metric_config(cutoff={}), "'r'"),
    ("metric", _metric_config(truncation={"r": 0.1, "R": 0.3, "typo": 1}), "'typo'"),
    ("caccioppoli", _caccioppoli_config("re_z2", {"center": [0.5, 0.5], "r": 0.1}), "'R'"),
    ("caccioppoli", _caccioppoli_config({"affine": {"linear": [1, 2, 3]}}, BALL), "'linear'"),
    ("caccioppoli", _caccioppoli_config({"affine": {"slope": [1, 2]}}, BALL), "'slope'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0,
               "solve": {"boundary": {"values": 0.0},
                         "obstacle": {"region": {"type": "interval", "a": 0.25, "b": 0.75},
                                      "lvl": 1.0}}}, "'lvl'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0,
               "solve": {"boundary": {"values": 0.0, "mask": {"type": ["rect"]}}}}, "'type'"),
    ("qr", {"domain": base_domain_2d(), "qr": {"mapping": {"kind": {"power": 2}}}}, "'kind'"),
], ids=["cutoff-missing-r", "truncation-unknown-key", "ball-missing-R",
        "affine-wrong-length", "affine-unknown-key", "obstacle-unknown-key",
        "node-set-type-not-a-name", "mapping-kind-not-a-name"])
def test_malformed_nested_block_is_a_config_error(tmp_path, capsys, command, config, key):
    path = write_config(tmp_path, "c.json", config)
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert key in err


@pytest.mark.parametrize("command, config, key", [
    ("caccioppoli", {"domain": base_domain_2d(9), "p": 2.0,
                     "caccioppoli": {"u": "re_z2", "balls": 3}}, "'balls'"),
    ("caccioppoli", {"domain": base_domain_2d(9), "p": 2.0,
                     "caccioppoli": {"u": "re_z2", "balls": []}}, "'balls'"),
    ("metric", _metric_config(targets=3), "'targets'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "check": {"suites": "sector"}},
     "'suites'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "check": {"trials": "x"}}, "'trials'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "check": {"trials": 0}}, "'trials'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "check": {"trials": -4}}, "'trials'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "check": {"suites": []}}, "'suites'"),
    ("capacity", {"domain": base_domain_1d(), "p": 2.0, "capacity": {
        "condenser": {"inner": {"type": "interval", "a": 0.25, "b": 0.5},
                      "outer": "domain_boundary"}, "vi_samples": "many"}}, "'vi_samples'"),
    ("capacity", {"domain": base_domain_1d(), "p": 2.0, "capacity": {
        "condenser": {"inner": {"type": "interval", "a": 0.25, "b": 0.5},
                      "outer": "domain_boundary"}, "vi_samples": 2}}, "'vi_samples'"),
    ("capacity", {"domain": base_domain_1d(), "p": 2.0, "capacity": {
        "condenser": {"inner": {"type": "interval", "a": 0.25, "b": 0.5},
                      "outer": "domain_boundary"}, "vi_samples": -3}}, "'vi_samples'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "seed": "abc"}, "'seed'"),
    ("caccioppoli", _caccioppoli_config("re_z2", {**BALL, "r": "a"}), "'r'"),
    ("metric", _metric_config(neighborhood=12), "'neighborhood'"),
    ("caccioppoli", _caccioppoli_config({"affine": {"linear": ["a", "b"]}}, BALL), "'linear'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0, "solver": {"grad_tol": "x"},
               "solve": {"boundary": {"values": 0.0}}}, "'grad_tol'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0, "solver": {"max_iter": 2.5},
               "solve": {"boundary": {"values": 0.0}}}, "'max_iter'"),
    ("capacity", {"domain": base_domain_1d(), "p": 2.0, "capacity": {
        "condenser": {"inner": {"type": "interval", "a": "x", "b": 0.5},
                      "outer": "domain_boundary"}}}, "'a'"),
    ("solve", {"domain": {"dim": 2, "extent": 3, "shape": [9, 9]}, "p": 2.0,
               "solve": {"boundary": {"values": 0.0}}}, "'extent'"),
    ("qr", {"domain": base_domain_2d(9), "qr": {"mapping": {"kind": "power", "k": None}}},
     "'k'"),
    ("qr", {"domain": base_domain_2d(9),
            "qr": {"mapping": {"kind": "power", "k": 2, "puncture": [0.1]}}}, "'puncture'"),
    ("qr", {"domain": base_domain_2d(9),
            "qr": {"mapping": {"kind": "radial", "a": 2.0, "puncture": {}}}}, "'puncture'"),
    ("metric", {"domain": base_domain_2d(9), "metric": {"source": "xy"}}, "'source'"),
    ("capacity", {"domain": base_domain_2d(9), "p": 2.0, "capacity": {
        "condenser": {"inner": {"type": "disk", "center": "x", "radius": 0.2},
                      "outer": "domain_boundary"}}}, "'center'"),
    ("capacity", {"domain": base_domain_2d(9), "p": 2.0, "capacity": {
        "condenser": {"inner": {"type": "rect", "min": "a", "max": [0.6, 0.6]},
                      "outer": "domain_boundary"}}}, "'min'"),
    ("capacity", {"domain": base_domain_2d(9), "p": 2.0, "capacity": {
        "condenser": {"inner": {"type": "nodes", "indices": [["a", 4]]},
                      "outer": "domain_boundary"}}}, "'indices'"),
    ("qr", {"domain": base_domain_2d(9), "qr": {"mapping": {"kind": "power", "k": 2.5}}},
     "'k'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "check": {"trials": 2.5}}, "'trials'"),
    ("metric", _metric_config(neighborhood=16.5), "'neighborhood'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "seed": 1.5}, "'seed'"),
    ("check", {"domain": base_domain_1d(), "p": 2.0, "check": {"trials": True}}, "'trials'"),
    ("capacity", {"domain": base_domain_2d(9), "p": 2.0, "capacity": {
        "condenser": {"inner": {"type": "nodes", "indices": [[4.7, 4]]},
                      "outer": "domain_boundary"}}}, "'indices'"),
    ("solve", {"domain": {"dim": 2, "extent": [[0, 1], [0, 1]], "shape": [9.5, 9]}, "p": 2.0,
               "solve": {"boundary": {"values": 0.0}}}, "'shape'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0, "field": "scalar:inf",
               "solve": {"boundary": {"values": 0.0}}}, "'scalar:inf'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0, "field": "scalar:nan",
               "solve": {"boundary": {"values": 0.0}}}, "'scalar:nan'"),
    ("check", {"domain": {**base_domain_1d(), "dim": True}, "p": 2.0}, "'dim'"),
    ("check", {"domain": {**base_domain_2d(9), "dim": 2.0}, "p": 2.0}, "'dim'"),
    ("qr", {"domain": base_domain_2d(9),
            "qr": {"mapping": {"kind": "power", "k": 2}, "verify": "false"}}, "'verify'"),
    ("qr", {"domain": base_domain_2d(9),
            "qr": {"mapping": {"kind": "power", "k": 2}, "verify": 0}}, "'verify'"),
    ("qr", {"domain": base_domain_2d(9),
            "qr": {"mapping": {"kind": "power", "k": 2}, "include_log": "false"}},
     "'include_log'"),
    ("qr", {"domain": base_domain_2d(9),
            "qr": {"mapping": {"kind": "power", "k": 2}, "include_log": 1}}, "'include_log'"),
    ("metric", {**_metric_config(), "p": "abc"}, "'p'"),
    ("qr", {"domain": base_domain_2d(9), "p": "abc",
            "qr": {"mapping": {"kind": "power", "k": 2}}}, "'p'"),
    ("metric", {**_metric_config(), "p": [2.0]}, "'p'"),
    ("qr", _radial_qr_config(min_order=-3), "'min_order'"),
    ("qr", _radial_qr_config(min_order=float("nan")), "'min_order'"),
    ("caccioppoli", _euclidean_config(0.5, 0.3), "'r'"),
    ("caccioppoli", _euclidean_config(0.3, 0.3), "'r'"),
    ("caccioppoli", _euclidean_config(-0.3, 0.4), "'r'"),
    ("caccioppoli", _caccioppoli_config("re_z2", {**BALL, "r": 0.3, "R": 0.2}), "'r'"),
    ("caccioppoli", _caccioppoli_config("re_z2", {**BALL, "r": -0.1}), "'r'"),
    ("caccioppoli", {**_caccioppoli_config("re_z2", BALL), "caccioppoli": {
        "u": "re_z2", "balls": [BALL], "residual_tol": -1}}, "'residual_tol'"),
    ("metric", _metric_config(cutoff={"r": 0}), "'r'"),
    ("metric", _metric_config(cutoff={"r": -0.1}), "'r'"),
    ("metric", _metric_config(truncation={"r": 0.3, "R": 0.2}), "'r'"),
    ("metric", {**_metric_config(), "p": True}, "'p'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0,
               "solve": {"boundary": {"values": True}}}, "'values'"),
    ("caccioppoli", _caccioppoli_config("re_z2", {**BALL, "r": "0.1"}), "'r'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0, "solver": {"grad_tol": "1e-9"},
               "solve": {"boundary": {"values": 0.0}}}, "'grad_tol'"),
    ("solve", {"domain": base_domain_1d(), "p": "3",
               "solve": {"boundary": {"values": 0.0}}}, "'p'"),
    ("solve", {"domain": {**base_domain_1d(), "extent": [["0", "1"]]}, "p": 2.0,
               "solve": {"boundary": {"values": 0.0}}}, "'extent'"),
    ("metric", {**_metric_config(), "p": float("inf")}, "'p'"),
    ("metric", _metric_config(source=["nan", 0]), "'source'"),
    ("qr", {**_radial_qr_config(), "field": "bogus"}, "'field'"),
    ("metric", {**_metric_config(), "solver": {"typo": 1}}, "'typo'"),
    ("metric", {**_metric_config(), "eps": "x"}, "'eps'"),
    ("caccioppoli", {**_caccioppoli_config("re_z2", BALL), "solver": {"grad_tol": "x"}},
     "'grad_tol'"),
    ("metric", {**_metric_config(), "output": 5}, "'output'"),
    ("solve", {"domain": base_domain_1d(), "p": 2.0, "solve": {"boundary": {"values": {
        "shape": [17], "values": [float("nan")] + [0.0] * 16}}}}, "'values'"),
], ids=["balls-not-a-list", "balls-empty", "targets-not-a-list", "suites-not-a-list",
        "trials-not-int", "trials-zero", "trials-negative", "suites-empty",
        "vi-samples-not-int", "vi-samples-two", "vi-samples-negative", "seed-not-int",
        "ball-r-not-float", "neighborhood-not-8-or-16", "affine-linear-not-numbers", "grad-tol-not-float", "max-iter-not-int",
        "interval-a-not-float", "extent-not-a-list", "power-k-null",
        "puncture-a-list", "puncture-an-object", "metric-source-a-string",
        "disk-center-a-string", "rect-min-a-string", "node-index-a-string",
        "power-k-not-int", "trials-not-int-valued", "neighborhood-not-int",
        "seed-not-int-valued", "trials-a-boolean", "node-index-not-int", "shape-not-int",
        "scalar-inf", "scalar-nan", "dim-a-boolean", "dim-not-int", "verify-a-string",
        "verify-an-int", "include-log-a-string", "include-log-an-int", "metric-p-a-string",
        "qr-p-a-string", "metric-p-a-list", "min-order-negative", "min-order-nan",
        "euclidean-r-above-R", "euclidean-r-equal-R", "euclidean-r-negative", "ball-r-above-R",
        "ball-r-negative", "residual-tol-negative", "cutoff-r-zero", "cutoff-r-negative",
        "truncation-r-above-R", "metric-p-a-boolean", "boundary-values-a-boolean",
        "ball-r-a-string", "grad-tol-a-string", "p-a-string", "extent-strings", "p-inf",
        "source-a-string-nan", "qr-field-unparsed", "metric-solver-unknown-key",
        "metric-eps-a-string", "caccioppoli-grad-tol-a-string", "output-not-a-string",
        "grid-values-nan"])
def test_wrong_typed_value_is_a_config_error(tmp_path, capsys, command, config, key):
    path = write_config(tmp_path, "c.json", config)
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert key in err


def _set_suite_config(suites):
    return {"domain": base_domain_2d(9), "p": 3.0, "seed": 5,
            "check": {"suites": suites, "trials": 1}}


def test_check_run_solves_each_node_set_once(tmp_path, monkeypatch):
    import dirichlet_p.capacity as capacity_module

    solve = capacity_module._cap_of_nodes
    keys = []

    def counting(inner, outer, ctx, opts):
        keys.append((inner.tobytes(), outer.tobytes()))
        return solve(inner, outer, ctx, opts)

    monkeypatch.setattr(capacity_module, "_cap_of_nodes", counting)
    cfg = write_config(tmp_path, "c.json", _set_suite_config(["d1d2", "choquet", "union_diff"]))
    counts = []
    for _ in range(2):
        keys.clear()
        assert cli.main(["check", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 0
        assert len(keys) == len(set(keys))
        counts.append(len(keys))
    assert counts[0] == counts[1] > 0


def test_patched_capacity_reaches_the_check_report(tmp_path, monkeypatch):
    import dirichlet_p.capacity as capacity_module

    # a supermodular set function breaks subadditivity on the shared memo
    monkeypatch.setattr(capacity_module, "_cap_of_nodes",
                        lambda inner, outer, ctx, opts: (float(inner.sum()) ** 2, None))
    cfg = write_config(tmp_path, "c.json", _set_suite_config(["choquet", "union_diff"]))
    assert cli.main(["check", "--config", cfg, "--out", str(tmp_path / "o.json")]) \
        == cli.EXIT_PROPERTY


def test_qr_run_analyzes_each_level_once(tmp_path, monkeypatch):
    import dirichlet_p.mappings as mappings_module

    calls = []

    def counting(mapping, _analyze=mappings_module.analyze):
        calls.append(mapping.domain.shape)
        return _analyze(mapping)

    monkeypatch.setattr(mappings_module, "analyze", counting)
    monkeypatch.setattr(cli, "analyze", counting)
    cfg = write_config(tmp_path, "c.json", {
        "domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]], "shape": [17, 17]},
        "qr": {"mapping": {"kind": "radial", "a": 1.5}, "verify": True},
    })
    assert cli.main(["qr", "--config", cfg, "--out", str(tmp_path / "o.json")]) == 0
    assert calls == [(17, 17), (33, 33)]


@pytest.mark.parametrize("include_log, expected", [(None, True), (False, False),
                                                    (True, True)])
def test_qr_include_log_null_is_automatic(tmp_path, include_log, expected):
    # the radial stretch omits zero on its region, so "auto" includes log|f|
    cfg = write_config(tmp_path, "c.json", {
        "domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]], "shape": [17, 17]},
        "qr": {"mapping": {"kind": "radial", "a": 1.5}, "include_log": include_log},
    })
    out = tmp_path / "o.json"
    assert cli.main(["qr", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    harmonicity = json.loads(out.read_text())["results"]["harmonicity"]
    assert harmonicity["details"]["include_log"] is expected
    assert ("log_abs" in harmonicity["details"]["fields"]) is expected


def test_qr_verify_false_skips_the_harmonicity_check(tmp_path):
    cfg = write_config(tmp_path, "c.json", {
        "domain": base_domain_2d(9),
        "qr": {"mapping": {"kind": "power", "k": 2}, "verify": False},
    })
    out = tmp_path / "o.json"
    assert cli.main(["qr", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert "harmonicity" not in json.loads(out.read_text())["results"]


@pytest.mark.parametrize("p", [3, 2.5])
def test_shared_p_is_echoed_as_a_float(tmp_path, p):
    cfg = write_config(tmp_path, "c.json", {**_metric_config(), "p": p})
    out = tmp_path / "o.json"
    assert cli.main(["metric", "--config", cfg, "--out", str(out)]) == cli.EXIT_OK
    assert json.loads(out.read_text())["p"] == float(p)


def _disk_condenser_config(solver):
    return {"domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]], "shape": [9, 9]},
            "p": 4.0, "solver": solver,
            "capacity": {"condenser": {
                "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.25},
                "outer": "domain_boundary"}}}


@pytest.mark.parametrize("command, config, key", [
    ("solve", {"domain": base_domain_1d(), "p": 3.0, "solver": {"method": "lbfgs"},
               "solve": {"boundary": {"values": 0.0}}}, "'method'"),
    ("capacity", _disk_condenser_config({"armijo_c1": 1e-4}), "'armijo_c1'"),
    # a backtrack factor of 1 never shrinks the step, so the line search would not end
    ("capacity", _disk_condenser_config({"backtrack": 1.0, "armijo_c1": 0.9}), "'backtrack'"),
], ids=["method", "armijo-c1", "backtrack-one"])
def test_removed_solver_key_is_a_config_error(tmp_path, capsys, command, config, key):
    path = write_config(tmp_path, "c.json", config)
    assert cli.main([command, "--config", path]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "unknown key" in err
    assert key in err


@pytest.mark.parametrize("solver, flags", [
    ({"grad_tol": float("inf")}, []),
    ({"grad_tol": float("nan")}, []),
    ({}, ["--tol", "inf"]),
    ({}, ["--tol", "nan"]),
], ids=["config-inf", "config-nan", "flag-inf", "flag-nan"])
def test_nonfinite_grad_tol_is_a_config_error(tmp_path, capsys, solver, flags):
    # an infinite tolerance would accept the p = 2 start after no iterations
    path = write_config(tmp_path, "c.json", _disk_condenser_config(solver))
    assert cli.main(["capacity", "--config", path, *flags]) == cli.EXIT_CONFIG
    err = capsys.readouterr().err
    assert "config error" in err
    assert "grad_tol" in err


def test_cli_import_leaves_scipy_ndimage_unloaded():
    # every ndimage user imports it inside the function that needs it
    src = str(pathlib.Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    probe = "import sys, dirichlet_p.cli; print('scipy.ndimage' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", probe], env=env, check=True,
                         capture_output=True, text=True).stdout
    assert out.strip() == "False"
