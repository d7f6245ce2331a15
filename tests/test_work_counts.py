"""Deterministic work counts of the solvers: factorizations, Hessians, CG.

The Newton run record (`solve._NewtonRun`) is pinned against the trace
rows it summarizes, and the factorizations are counted where the program
makes them (`splu` as `assemble` and `solve` reach it), so a change that
factors more, or assembles more Hessians, fails here.
"""

import numpy as np
import pytest

from dirichlet_p import solve as solve_module
from dirichlet_p.config import node_set_from_shape
from dirichlet_p.grid import GridDomain, GridFunction, boundary_mask, unit_structure
from dirichlet_p.pform import PFormContext
from dirichlet_p.solve import (
    SolveError,
    SolveOptions,
    _newton,
    hessian_matrix,
    solve_dirichlet,
    solve_obstacle,
)
from conftest import count_factorizations

COUNTS = ("iterations", "factorizations", "cg_iterations", "cg_failures", "backtracks", "shifts")


def _ring_65():
    d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (65, 65))
    inner = node_set_from_shape({"type": "disk", "center": [0.0, 0.0], "radius": 0.25}, d)
    outer = node_set_from_shape(
        {"type": "outside_disk", "center": [0.0, 0.0], "radius": 0.75}, d)
    return PFormContext(unit_structure(d), 3.0), GridFunction(np.where(inner, 1.0, 0.0),
                                                              inner | outer)


def _obstacle_33(curved: bool):
    d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
    c = d.node_coords() - np.array([0.05, -0.03])
    if curved:
        lo = 0.6 - 2.0 * np.sum(c ** 2, axis=-1)
    else:
        lo = np.where(np.sum(c ** 2, axis=-1) <= 0.3 ** 2, 0.5, -np.inf)
    bc = GridFunction(np.zeros(d.node_shape), boundary_mask(d))
    return PFormContext(unit_structure(d), 3.0), GridFunction(lo), bc


def _spy(monkeypatch):
    """Record every Newton run and count the Hessian assemblies."""
    runs, hessians = [], []

    def newton_spy(*args, _newton=solve_module._newton, **kwargs):
        runs.append(_newton(*args, **kwargs))
        return runs[-1]

    def hessian_spy(*args, _hessian=solve_module.hessian_matrix, **kwargs):
        hessians.append(None)
        return _hessian(*args, **kwargs)

    monkeypatch.setattr(solve_module, "_newton", newton_spy)
    monkeypatch.setattr(solve_module, "hessian_matrix", hessian_spy)
    return runs, hessians


def _counts(run):
    return {name: getattr(run, name) for name in COUNTS}


def _assert_run_matches_its_rows(run):
    rows = run.trace
    assert run.iterations == len(rows) - 1
    assert run.factorizations == sum(row["factored"] for row in rows)
    assert run.cg_iterations == sum(row["cg_iterations"] for row in rows)
    assert run.residual == rows[-1]["residual"]
    assert run.stop == "converged"


class TestNewtonRunRecord:
    def test_ring_65_p3(self, monkeypatch):
        runs, hessians = _spy(monkeypatch)
        ctx, bc = _ring_65()
        res = solve_dirichlet(ctx, bc)
        (run,) = runs
        _assert_run_matches_its_rows(run)
        assert _counts(run) == {"iterations": 4, "factorizations": 0, "cg_iterations": 16,
                                "cg_failures": 0, "backtracks": 0, "shifts": 0}
        assert len(hessians) == run.iterations
        assert run.trace is res.diagnostics["trace"] and run.energy_trace is res.energy_trace
        assert np.array_equal(run.u, res.solution.values.reshape(-1))
        # the free block, still holding the linear start's factor
        assert np.array_equal(run.block.keep, ~bc.mask.reshape(-1))
        assert run.block.lu is not None

    def test_curved_obstacle_33(self, monkeypatch):
        runs, hessians = _spy(monkeypatch)
        ctx, lo, bc = _obstacle_33(curved=True)
        res = solve_obstacle(ctx, lo, bc, SolveOptions(grad_tol=1e-9))
        linear, run = runs
        for r in runs:
            _assert_run_matches_its_rows(r)
        assert _counts(linear) == {"iterations": 5, "factorizations": 5, "cg_iterations": 0,
                                   "cg_failures": 0, "backtracks": 0, "shifts": 0}
        assert _counts(run) == {"iterations": 5, "factorizations": 3, "cg_iterations": 6,
                                "cg_failures": 0, "backtracks": 0, "shifts": 0}
        assert len(hessians) == res.iterations == linear.iterations + run.iterations
        assert res.diagnostics["rounds"] == linear.trace + run.trace
        assert res.diagnostics["active_nodes"] == int(run.active.sum())

    def test_solve_error_carries_the_partial_run(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        mask = boundary_mask(d)
        g = np.sin(7 * d.node_coords()[..., 0]) * np.cos(5 * d.node_coords()[..., 1])
        with pytest.raises(SolveError) as err:
            solve_dirichlet(PFormContext(unit_structure(d), 4.0),
                            GridFunction(np.where(mask, g, 0.0), mask),
                            SolveOptions(grad_tol=1e-13, max_iter=1))
        run = err.value.run
        assert run.stop == "max_iter" and run.iterations == 1
        assert run.trace is err.value.trace and len(run.trace) == 2
        assert run.residual == run.trace[-1]["residual"] > 1e-13
        assert run.cg_iterations == sum(row["cg_iterations"] for row in run.trace)


class TestFactorizationGate:
    """One factorization per solve on a fixed block; Hessian counts as before."""

    def test_ring_solve_factors_once(self, monkeypatch):
        factored = count_factorizations(monkeypatch)
        runs, hessians = _spy(monkeypatch)
        ctx, bc = _ring_65()
        res = solve_dirichlet(ctx, bc)
        # the linear start's factor of the free block, and no other
        assert factored == [int((~bc.mask).sum())]
        assert not any(row["factored"] for row in res.diagnostics["trace"])
        assert len(hessians) == 4
        assert res.residual_norm <= SolveOptions().grad_tol

    def test_flat_obstacle_factors_once(self, monkeypatch):
        factored = count_factorizations(monkeypatch)
        runs, hessians = _spy(monkeypatch)
        ctx, lo, bc = _obstacle_33(curved=False)
        opts = SolveOptions(grad_tol=1e-9)
        res = solve_obstacle(ctx, lo, bc, opts)
        linear, run = runs
        # zero data needs no linear factor; the p = 2 run factors its block
        # at its first step, and the p-run preconditions with that factor
        assert len(factored) == 1
        assert [row["factored"] for row in linear.trace] == [True, False]
        assert not any(row["factored"] for row in run.trace)
        assert run.block is linear.block
        assert len(hessians) == 6
        assert res.residual_norm <= opts.grad_tol

    def test_zero_hessian_diagonal_factors_afresh(self, monkeypatch):
        # a flat patch of the iterate zeroes its centre node's p = 3 Hessian
        # diagonal: the rescaled factor does not exist there, so the step
        # factors afresh (singular, hence under the Levenberg shift)
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (17, 17))
        ctx = PFormContext(unit_structure(d), 3.0)
        mask = boundary_mask(d)
        x = d.node_coords()
        vals, block = solve_module._linear_start(ctx, x[..., 0] + 0.5 * x[..., 1] ** 2, mask)
        vals = vals.reshape(d.node_shape)
        vals[6:9, 6:9] = vals[7, 7]
        H = hessian_matrix(GridFunction(vals), ctx, block=block)
        assert np.count_nonzero(H.diagonal() <= 0.0) == 1
        assert block.lu is not None and block.preconditioner(H) is None

        spla, finite = solve_module.spla, []
        cg = spla.cg

        def checked_cg(A, b, *, M, **kwargs):
            finite.append(bool(np.isfinite(b).all() and np.isfinite(M.matvec(b)).all()))
            return cg(A, b, M=M, **kwargs)

        monkeypatch.setattr(spla, "cg", checked_cg)
        run = _newton(vals, mask, ctx, SolveOptions(), block=block)
        assert run.trace[0]["factored"] and run.trace[0]["cg_iterations"] == 0
        assert run.factorizations >= 2 and run.shifts >= 1
        assert all(finite)
        assert run.stop == "converged" and run.residual <= SolveOptions().grad_tol
