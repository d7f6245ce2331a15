import numpy as np
import pytest
import scipy.optimize

from dirichlet_p import grid as grid_module
from dirichlet_p import pform as pform_module
from dirichlet_p import solve as solve_module
from dirichlet_p.assemble import stiffness_matrix
from dirichlet_p.capacity import Condenser, capacity
from dirichlet_p.config import node_set_from_shape
from dirichlet_p.grid import (
    GridDomain,
    GridFunction,
    GridStructure,
    boundary_mask,
    unit_structure,
)
from dirichlet_p.pform import PFormContext, p_energy, p_operator
from dirichlet_p.solve import (
    SolveError,
    SolveOptions,
    _newton,
    harmonicity_residual,
    hessian_matrix,
    solve_dirichlet,
    solve_obstacle,
)
from conftest import (
    count_factorizations,
    lbfgs_reference,
    linear_reference,
    random_elliptic_field,
    reference_objective,
)


def _affine_boundary(domain, lin, const=0.0):
    mask = boundary_mask(domain)
    coords = domain.node_coords()
    vals = coords @ np.asarray(lin, dtype=float) + const
    return GridFunction(np.where(mask, vals, 0.0), mask), vals


class TestDirichlet:
    @pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0])
    def test_affine_data_reproduced_exactly(self, square, square_structure, p):
        ctx = PFormContext(square_structure, p)
        bc, exact = _affine_boundary(square, [1.5, -0.5], 0.25)
        res = solve_dirichlet(ctx, bc)
        assert res.residual_norm <= 1e-10
        assert np.max(np.abs(res.solution.values - exact)) <= 1e-12

    def test_initial_energy_is_energy_of_start_point(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (5, 5))
        ctx = PFormContext(unit_structure(d), 3.0)
        bc, _ = _affine_boundary(d, [1.0, 0.5])
        bc.values[bc.mask] += np.sin(7.0 * np.arange(bc.mask.sum()))
        start, _ = solve_module._linear_start(ctx, bc.values, bc.mask)
        res = solve_dirichlet(ctx, bc, SolveOptions(grad_tol=1e-6, max_iter=5000))
        assert res.iterations > 0
        assert res.diagnostics["initial_energy"] == p_energy(
            GridFunction(start.reshape(d.node_shape)), ctx)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_1d_identity_profile(self, p):
        d = GridDomain(((0.0, 1.0),), (17,))
        ctx = PFormContext(unit_structure(d), p)
        x = d.node_coords()[..., 0]
        mask = boundary_mask(d)
        res = solve_dirichlet(ctx, GridFunction(np.where(mask, x, 0.0), mask))
        assert np.max(np.abs(res.solution.values - x)) <= 1e-12

    def test_p2_quadratic_harmonic_is_exact(self):
        # x^2 - y^2 lies in the kernel of the discrete operator, so the
        # p = 2 solve reproduces it to rounding (stronger than O(h^2))
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        ctx = PFormContext(unit_structure(d), 2.0)
        mask = boundary_mask(d)
        c = d.node_coords()
        exact = c[..., 0] ** 2 - c[..., 1] ** 2
        res = solve_dirichlet(ctx, GridFunction(np.where(mask, exact, 0.0), mask))
        assert np.max(np.abs(res.solution.values - exact)) <= 1e-12

    def test_p2_quartic_harmonic_second_order(self):
        errs = {}
        for shape in (17, 33):
            d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (shape, shape))
            ctx = PFormContext(unit_structure(d), 2.0)
            mask = boundary_mask(d)
            c = d.node_coords()
            exact = c[..., 0] ** 4 - 6 * c[..., 0] ** 2 * c[..., 1] ** 2 + c[..., 1] ** 4
            res = solve_dirichlet(ctx, GridFunction(np.where(mask, exact, 0.0), mask),
                                  SolveOptions(grad_tol=1e-11))
            errs[shape] = float(np.max(np.abs(res.solution.values - exact)))
        order = np.log2(errs[17] / errs[33])
        assert order >= 1.9

    @staticmethod
    def _radial_rates(p, eps, dim, sizes, shift=0.0):
        """Observed orders log(e1/e2)/log(h1/h2) of the max error against
        u* = |x - x0|^((p-n)/(p-1)) (log at p = n), the p-harmonic radial
        function with pole x0 off [-1, 1]^n, n = dim, on the grids with
        `sizes` nodes per axis, with data u* on the boundary, or u*(x + shift h e_1)."""
        x0 = np.array([-1.6, -1.3, -1.45][:dim])

        def exact(x):
            r = np.linalg.norm(x - x0, axis=-1)
            return np.log(r) if p == dim else r ** ((p - dim) / (p - 1.0))

        errors, spacings = [], []
        for n in sizes:
            d = GridDomain(((-1.0, 1.0),) * dim, (n,) * dim)
            mask = boundary_mask(d)
            x = d.node_coords()
            data = exact(x + shift * d.spacing[0] * np.eye(dim)[0])
            res = solve_dirichlet(PFormContext(unit_structure(d), p, eps),
                                  GridFunction(np.where(mask, data, 0.0), mask),
                                  SolveOptions(grad_tol=1e-9))
            errors.append(float(np.max(np.abs(res.solution.values - exact(x)))))
            spacings.append(d.spacing[0])
        return np.diff(np.log(errors)) / np.diff(np.log(spacings))

    @pytest.mark.parametrize("p, eps", [(1.5, 1e-12), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)])
    def test_second_order_on_a_smooth_radial_solution(self, p, eps):
        # observed, not proved: the scheme converges at O(h^2) in max norm
        assert np.all(self._radial_rates(p, eps, 2, (33, 65, 129)) >= 1.9)

    def test_first_order_data_error_fails_the_order_bound(self):
        # falsifier: data off by one spacing along x caps the rate near 1
        assert np.all(self._radial_rates(3.0, 0.0, 2, (33, 65, 129), shift=1.0) < 1.9)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_second_order_on_a_smooth_radial_solution_in_3d(self, p):
        # spacing ratios 2/3 and 3/4; observed rates 2.2-3.0
        assert np.all(self._radial_rates(p, 0.0, 3, (9, 13, 17)) >= 1.9)

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_first_order_data_error_fails_the_order_bound_in_3d(self, p):
        assert np.all(self._radial_rates(p, 0.0, 3, (9, 13, 17), shift=1.0) < 1.9)

    def test_maximum_principle(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (13, 13))
        s = GridStructure(d, random_elliptic_field(d, rng))
        mask = boundary_mask(d)
        for p in (2.0, 3.0):
            ctx = PFormContext(s, p)
            g = rng.standard_normal(d.node_shape)
            bc = GridFunction(np.where(mask, g, 0.0), mask)
            res = solve_dirichlet(ctx, bc, SolveOptions(grad_tol=1e-9))
            lo, hi = g[mask].min(), g[mask].max()
            pad = 1e-6 * (hi - lo)
            assert res.solution.values.min() >= lo - pad
            assert res.solution.values.max() <= hi + pad

    def test_uniqueness_across_initial_guesses(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (13, 13))
        ctx = PFormContext(unit_structure(d), 3.0)
        mask = boundary_mask(d)
        g = rng.standard_normal(d.node_shape)
        bc = GridFunction(np.where(mask, g, 0.0), mask)
        opts = SolveOptions(grad_tol=1e-10)
        r1 = solve_dirichlet(ctx, bc, opts)
        # Newton from a random start far from the linear solution
        far = np.where(mask, g, rng.standard_normal(d.node_shape))
        r2 = solve_module._newton(far, mask, ctx, opts)
        assert r2.stop == "converged"
        assert np.max(np.abs(r1.solution.values - r2.u.reshape(d.node_shape))) \
            <= 10 * opts.grad_tol

    def test_energy_trace_nonincreasing(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        ctx = PFormContext(unit_structure(d), 4.0)
        mask = boundary_mask(d)
        g = np.sin(5 * d.node_coords()[..., 0]) * np.cos(3 * d.node_coords()[..., 1])
        res = solve_dirichlet(ctx, GridFunction(np.where(mask, g, 0.0), mask))
        trace = res.energy_trace
        assert all(a >= b - 1e-12 * abs(a) for a, b in zip(trace, trace[1:]))

    def test_nonconvergence_raises_with_trace(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        ctx = PFormContext(unit_structure(d), 4.0)
        mask = boundary_mask(d)
        g = np.sin(7 * d.node_coords()[..., 0]) * np.cos(5 * d.node_coords()[..., 1])
        with pytest.raises(SolveError) as err:
            solve_dirichlet(ctx, GridFunction(np.where(mask, g, 0.0), mask),
                            SolveOptions(grad_tol=1e-13, max_iter=1))
        assert err.value.trace

    def test_requires_boundary_mask(self, square, square_structure):
        ctx = PFormContext(square_structure, 2.0)
        with pytest.raises(ValueError):
            solve_dirichlet(ctx, GridFunction(np.zeros(square.node_shape)))

    def test_newton_agrees_with_lbfgs_reference(self):
        d = GridDomain(((0.0, 1.0),), (17,))
        ctx = PFormContext(unit_structure(d), 3.0)
        mask = boundary_mask(d)
        g = np.where(mask, d.node_coords()[..., 0] ** 2, 0.0)
        bc = GridFunction(g, mask)
        newton = solve_dirichlet(ctx, bc, SolveOptions(grad_tol=1e-9))
        ref = lbfgs_reference(ctx, bc, grad_tol=1e-7, max_iter=4000)
        assert np.max(np.abs(newton.solution.values - ref)) <= 1e-5

    def test_p2_matches_direct_linear_solve(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        s = GridStructure(d, random_elliptic_field(d, rng))
        ctx = PFormContext(s, 2.0)
        mask = boundary_mask(d)
        g = rng.standard_normal(d.node_shape)
        bc = GridFunction(np.where(mask, g, 0.0), mask)
        res = solve_dirichlet(ctx, bc)
        direct = linear_reference(s, g, mask)
        assert np.max(np.abs(res.solution.values - direct)) <= 1e-8


class TestNewton:
    @pytest.mark.parametrize("shape", [(9,), (7, 6), (4, 5, 4)])
    @pytest.mark.parametrize("p, eps", [(2.0, 0.0), (2.5, 0.0), (3.0, 0.0), (4.0, 0.0),
                                        (1.5, 1e-3)])
    def test_hessian_matches_operator_differences(self, shape, p, eps, rng):
        d = GridDomain(tuple((0.0, 1.0) for _ in shape), shape)
        ctx = PFormContext(GridStructure(d, random_elliptic_field(d, rng)), p, eps)
        u = rng.standard_normal(shape)
        v = rng.standard_normal(shape)
        t = 1e-5

        def op(w):
            return p_operator(GridFunction(w), ctx).reshape(-1)

        fd = (op(u + t * v) - op(u - t * v)) / (2.0 * t)
        hv = hessian_matrix(GridFunction(u), ctx) @ v.reshape(-1)
        assert np.linalg.norm(hv - fd) <= 1e-7 * np.linalg.norm(fd)

    @pytest.mark.parametrize("shape", [(9,), (8, 13), (17, 17), (4, 5, 4)])
    def test_p2_hessian_is_the_stiffness_matrix_bitwise(self, shape, rng):
        # at p = 2, eps = 0 the rank-one term vanishes, flat cells included,
        # so a p = 2 Hessian can stand in for the stiffness matrix
        d = GridDomain(tuple((0.0, 1.0 + 0.5 * j) for j in range(len(shape))), shape)
        s = GridStructure(d, random_elliptic_field(d, rng))
        u = rng.standard_normal(shape)
        u[tuple(slice(0, max(2, n // 2)) for n in shape)] = 0.5
        assert np.any(grid_module.gamma(u, s) == 0.0)
        H = hessian_matrix(GridFunction(u), PFormContext(s, 2.0))
        S = stiffness_matrix(s)
        assert np.array_equal(H.indptr, S.indptr) and np.array_equal(H.indices, S.indices)
        assert H.data.tobytes() == S.data.tobytes()

    def test_one_flux_per_evaluated_point(self, monkeypatch):
        # energy, gradient and Hessian of each point share one cell flux: a
        # ring solve computes it once at the start and once per line-search
        # trial, and never twice at one point
        points = []

        def spy(u, structure, _flux_gamma=grid_module._flux_gamma):
            points.append(grid_module._values(u).tobytes())
            return _flux_gamma(u, structure)

        for module in (grid_module, pform_module, solve_module):
            monkeypatch.setattr(module, "_flux_gamma", spy)
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
        inner = node_set_from_shape({"type": "disk", "center": [0.0, 0.0], "radius": 0.25}, d)
        outer = node_set_from_shape(
            {"type": "outside_disk", "center": [0.0, 0.0], "radius": 0.75}, d)
        bc = GridFunction(np.where(inner, 1.0, 0.0), inner | outer)
        res = solve_dirichlet(PFormContext(unit_structure(d), 3.0), bc)
        calls, distinct = len(points), len(set(points))
        assert res.iterations >= 3
        assert distinct == calls
        # every step of this solve is a full step: one trial per iteration,
        # after the linear start's flux at the pinned data and Newton's at the start
        assert calls == 2 + res.iterations

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_ring_condenser_converges_fast(self, p):
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
        inner = node_set_from_shape({"type": "disk", "center": [0.0, 0.0], "radius": 0.25}, d)
        outer = node_set_from_shape(
            {"type": "outside_disk", "center": [0.0, 0.0], "radius": 0.75}, d)
        result = capacity(Condenser(inner, outer), PFormContext(unit_structure(d), p))
        assert result.diagnostics["solver_iterations"] <= 8

    @pytest.mark.parametrize("p", [3.0, 4.0])
    @pytest.mark.parametrize("dim, n", [(2, 65), (3, 17)])
    def test_quadratic_rate_on_ring_condenser(self, dim, n, p):
        # with the exact Hessian each step squares the residual once it is
        # below 1; a wrong rank-one factor leaves the rate linear
        d = GridDomain(((-1.0, 1.0),) * dim, (n,) * dim)
        center = [0.0] * dim
        inner = node_set_from_shape({"type": "disk", "center": center, "radius": 0.25}, d)
        outer = node_set_from_shape(
            {"type": "outside_disk", "center": center, "radius": 0.75}, d)
        bc = GridFunction(np.where(inner, 1.0, 0.0), inner | outer)
        res = solve_dirichlet(PFormContext(unit_structure(d), p), bc)
        r = [row["residual"] for row in res.diagnostics["trace"]]
        steps = [(a, b) for a, b in zip(r, r[1:]) if a < 1.0]
        assert steps
        assert all(b <= 0.1 * a ** 2 for a, b in steps), r

    @staticmethod
    def _ring_65():
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (65, 65))
        inner = node_set_from_shape({"type": "disk", "center": [0.0, 0.0], "radius": 0.25}, d)
        outer = node_set_from_shape(
            {"type": "outside_disk", "center": [0.0, 0.0], "radius": 0.75}, d)
        return PFormContext(unit_structure(d), 3.0), GridFunction(np.where(inner, 1.0, 0.0),
                                                                  inner | outer)

    def test_one_factorization_per_inactive_set(self, monkeypatch):
        # the block never changes, so the linear start's factor of it is the
        # only one: every Newton step solves by CG preconditioned with that
        # factor, rescaled to the step's Hessian
        factored = count_factorizations(monkeypatch)
        ctx, bc = self._ring_65()
        res = solve_dirichlet(ctx, bc)
        rows = res.diagnostics["trace"]
        assert factored == [int((~bc.mask).sum())]
        assert not any(row["factored"] for row in rows)
        assert all(row["cg_iterations"] > 0 for row in rows[:-1])
        assert rows[-1]["cg_iterations"] == 0
        assert res.iterations == len(rows) - 1 >= 3

    def test_failed_cg_falls_back_to_a_fresh_factor(self, monkeypatch):
        ctx, bc = self._ring_65()
        opts = SolveOptions()
        default = solve_dirichlet(ctx, bc, opts)

        def failing_cg(A, b, **kwargs):
            return np.zeros_like(b), kwargs["maxiter"]

        monkeypatch.setattr(solve_module.spla, "cg", failing_cg)
        res = solve_dirichlet(ctx, bc, opts)
        rows = res.diagnostics["trace"]
        assert all(row["factored"] for row in rows[:-1])
        assert [row["cg_iterations"] for row in rows] == [0] * len(rows)
        assert res.residual_norm <= opts.grad_tol
        assert np.max(np.abs(res.solution.values - default.solution.values)) <= 1e-10

    def test_levenberg_shift_factors_afresh(self, monkeypatch):
        # CG misses at the first step, so that step factors, and that first
        # Newton factorization fails: the shift turns on, decays by a third
        # per full step, and every step taken under it factors
        spla = solve_module.spla
        splu, cg = spla.splu, spla.cg
        factorizations, cg_calls = [], []

        def failing_second(*args, **kwargs):
            factorizations.append(None)
            if len(factorizations) == 2:  # the first is the linear start's
                raise RuntimeError("Factor is exactly singular")
            return splu(*args, **kwargs)

        def missing_once(A, b, **kwargs):
            cg_calls.append(None)
            if len(cg_calls) == 1:
                return np.zeros_like(b), kwargs["maxiter"]
            return cg(A, b, **kwargs)

        monkeypatch.setattr(spla, "splu", failing_second)
        monkeypatch.setattr(spla, "cg", missing_once)
        ctx, bc = self._ring_65()
        res = solve_dirichlet(ctx, bc)
        rows = res.diagnostics["trace"]
        assert rows[0]["factored"] and rows[0]["lambda"] == 0.0
        shifted = [row for row in rows[:-1] if row["lambda"] > 0.0]
        assert shifted and rows[1] in shifted
        assert all(row["factored"] and row["cg_iterations"] == 0 for row in shifted)
        assert res.residual_norm <= SolveOptions().grad_tol

    def test_active_set_change_factors_afresh(self):
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (9, 9))
        c = d.node_coords() - np.array([0.05, -0.03])
        lo = GridFunction(0.6 - 2.0 * np.sum(c ** 2, axis=-1))
        bc = GridFunction(np.zeros(d.node_shape), boundary_mask(d))
        opts = SolveOptions(grad_tol=1e-9)
        res = solve_obstacle(PFormContext(unit_structure(d), 3.0), lo, bc, opts)
        rounds = res.diagnostics["rounds"]
        # a row's step follows a change when the row pinned or released nodes,
        # or when it starts the p = 2 run, which has no factored block yet
        starts = [i for i, row in enumerate(rounds) if row["iteration"] == 0]
        ends = [i - 1 for i in starts[1:]] + [len(rounds) - 1]
        after_change = [row for i, row in enumerate(rounds) if i not in ends
                        and (i == 0 or row["violated"] or row["released"])]
        assert any(row["released"] for row in after_change)
        assert all(row["factored"] and row["cg_iterations"] == 0 for row in after_change)
        # the p-run starts on the p = 2 run's last block, which its set keeps,
        # and preconditions with that block's factor
        first = rounds[starts[1]]
        assert not (first["violated"] or first["released"])
        assert not first["factored"] and first["cg_iterations"] > 0
        # and the p-run reuses its own factor once the set has settled again
        assert any(not row["factored"] and row["cg_iterations"] > 0
                   for row in rounds[starts[1] + 1:])
        assert all(not rounds[i]["factored"] for i in ends)
        assert res.residual_norm <= opts.grad_tol


def _spy_blocks(monkeypatch):
    """Record every `_SpdBlock` built, the block of every Hessian call and
    the block every linear start returns."""
    import dirichlet_p.assemble as assemble_module

    built, hessians, linear = [], [], []

    class Counted(assemble_module._SpdBlock):
        def __init__(self, shape, nodes):
            super().__init__(shape, nodes)
            built.append(self)

    def hessian_spy(u, ctx, *, _hessian=solve_module.hessian_matrix, **kwargs):
        hessians.append(kwargs["block"])
        return _hessian(u, ctx, **kwargs)

    def linear_spy(*args, _linear=solve_module._linear_start):
        vals, block = _linear(*args)
        linear.append(block)
        return vals, block

    for module in (assemble_module, solve_module):
        monkeypatch.setattr(module, "_SpdBlock", Counted)
    monkeypatch.setattr(solve_module, "hessian_matrix", hessian_spy)
    monkeypatch.setattr(solve_module, "_linear_start", linear_spy)
    return built, hessians, linear


class TestOnePatternPerInactiveSet:
    def test_dirichlet_solve_builds_one_block(self, monkeypatch):
        built, hessians, linear = _spy_blocks(monkeypatch)
        ctx, bc = TestNewton._ring_65()
        res = solve_dirichlet(ctx, bc)
        assert len(built) == 1
        assert linear == built and hessians == built * len(hessians) and len(hessians) == 4
        # the linear start's factor preconditions every Newton step
        assert [(row["factored"], row["cg_iterations"]) for row in res.diagnostics["trace"]] \
            == [(False, 3), (False, 3), (False, 3), (False, 7), (False, 0)]

    def test_curved_obstacle_builds_one_block_per_inactive_set(self, monkeypatch):
        built, hessians, linear = _spy_blocks(monkeypatch)
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
        c = d.node_coords() - np.array([0.05, -0.03])
        lo = GridFunction(0.6 - 2.0 * np.sum(c ** 2, axis=-1))
        bc = GridFunction(np.zeros(d.node_shape), boundary_mask(d))
        res = solve_obstacle(PFormContext(unit_structure(d), 3.0), lo, bc,
                             SolveOptions(grad_tol=1e-9))
        rounds = res.diagnostics["rounds"]
        # the zero boundary data needs no linear block; the p = 2 run changes
        # its set at each of its 5 steps, the p-run at its first 3 of 5: it
        # is handed the p = 2 run's last block, but its first row releases
        # nodes, so it builds its own and factors it
        assert linear == [None]
        assert len(built) == 8
        runs = [b for i, b in enumerate(hessians) if i == 0 or b is not hessians[i - 1]]
        assert runs == built
        assert not any(np.array_equal(a.keep, b.keep) for a, b in zip(built, built[1:]))
        assert [(row["factored"], row["cg_iterations"]) for row in rounds] == \
            [(True, 0)] * 5 + [(False, 0)] + [(True, 0)] * 3 + [(False, 2), (False, 4), (False, 0)]
        assert [row["released"] for row in rounds] == [45, 60, 34, 20, 4, 0, 4, 16, 2, 0, 0, 0]


def _reference_obstacle(ctx, lo, boundary, opts, complementarity_tol=1e-8):
    """The former solve_obstacle: a bounded L-BFGS-B warm start, then
    active-set rounds that each re-solve the Dirichlet problem with the
    active nodes pinned.  Returns (solution values, active node count)."""
    domain = ctx.domain
    mask = boundary.mask
    free = ~mask.reshape(-1)
    lo_flat = lo.reshape(-1)
    node_mass = domain.node_mass.reshape(-1)
    vals = linear_reference(ctx.structure, boundary.values, mask).reshape(-1)
    vals[free] = np.maximum(vals[free], lo_flat[free])
    _, fun, jac = reference_objective(vals, mask, ctx)
    bounds = [(l if np.isfinite(l) else None, None) for l in lo_flat[free]]
    out = scipy.optimize.minimize(
        fun, vals[free], jac=jac, method="L-BFGS-B", bounds=bounds,
        options={"maxiter": max(200, opts.max_iter), "ftol": 1e-16, "gtol": 1e-12})
    vals[free] = out.x
    atol = complementarity_tol * max(float(np.max(np.abs(vals))), 1.0)
    active = free & (vals <= lo_flat + atol) & np.isfinite(lo_flat)
    for _ in range(60):
        mask2 = mask.reshape(-1) | active
        bc = GridFunction(np.where(active, lo_flat, vals).reshape(domain.node_shape),
                          mask2.reshape(domain.node_shape))
        vals = solve_dirichlet(ctx, bc, opts).solution.values.reshape(-1)
        coeff = p_operator(GridFunction(vals.reshape(domain.node_shape)), ctx,
                           mask=mask).reshape(-1)
        violated = free & ~active & (vals < lo_flat - atol)
        negative_mult = active & (coeff < -complementarity_tol * np.maximum(node_mass, 1e-300))
        if not violated.any() and not negative_mult.any():
            return vals.reshape(domain.node_shape), int(active.sum())
        active = (active | violated) & ~negative_mult
        vals[violated] = lo_flat[violated]
    raise SolveError("active-set refinement did not stabilize")


class TestObstacle:
    @pytest.mark.parametrize("field", ["identity", "anisotropic"])
    @pytest.mark.parametrize("p, eps", [(2.0, 0.0), (3.0, 0.0), (4.0, 0.0), (1.5, 1e-6)])
    def test_curved_obstacle_matches_reference(self, field, p, eps):
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
        s = unit_structure(d) if field == "identity" else GridStructure(
            d, random_elliptic_field(d, np.random.default_rng(7)))
        ctx = PFormContext(s, p, eps)
        c = d.node_coords() - np.array([0.05, -0.03])
        lo = 0.6 - 2.0 * np.sum(c ** 2, axis=-1)
        bc = GridFunction(np.zeros(d.node_shape), boundary_mask(d))
        opts = SolveOptions(grad_tol=1e-9)
        res = solve_obstacle(ctx, GridFunction(lo), bc, opts)
        ref, ref_active = _reference_obstacle(ctx, lo, bc, opts)
        assert np.max(np.abs(res.solution.values - ref)) <= 1e-9
        assert res.diagnostics["active_nodes"] == ref_active
        assert res.diagnostics["complementarity_violation"] == 0.0
        assert res.residual_norm <= opts.grad_tol
        assert res.diagnostics["vi_residual"] <= 1e-8
        assert res.iterations <= 20
        trace = res.energy_trace
        assert all(a >= b for a, b in zip(trace, trace[1:]))
        assert trace[-1] == pytest.approx(p_energy(res.solution, ctx), rel=1e-12)

    @pytest.mark.parametrize("p", [3.0, 4.0])
    def test_flat_obstacle_takes_few_newton_steps(self, p):
        # the p = 2 stage gives the p-loop a start without a kink at the
        # contact set; from the projected linear solve this takes 17-19 steps
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
        region = node_set_from_shape(
            {"type": "disk", "center": [0.05, -0.03], "radius": 0.3}, d)
        lo = np.where(region, 0.5, -np.inf)
        ctx = PFormContext(unit_structure(d), p)
        bc = GridFunction(np.zeros(d.node_shape), boundary_mask(d))
        opts = SolveOptions(grad_tol=1e-9)
        res = solve_obstacle(ctx, GridFunction(lo), bc, opts)
        ref, ref_active = _reference_obstacle(ctx, lo, bc, opts)
        assert res.iterations <= 8
        assert res.diagnostics["active_nodes"] == ref_active
        assert np.max(np.abs(res.solution.values - ref)) <= 1e-12

    def test_loop_pins_every_node_without_a_step(self):
        # a start below a concave obstacle pins every free node at once, and
        # the solution is the obstacle itself: no inactive block is left to
        # factor, and the loop must converge rather than fail its line search
        d = GridDomain(((0.0, 1.0),), (17,))
        ctx = PFormContext(unit_structure(d), 3.0)
        mask = boundary_mask(d)
        lo = 1.0 - 4.0 * (d.node_coords()[..., 0] - 0.5) ** 2
        run = _newton(np.where(mask, lo, 0.0), mask, ctx, SolveOptions(), lower=lo)
        assert run.active.all() and run.iterations == 0 and run.residual == 0.0
        assert np.array_equal(run.u, lo)
        assert [r["violated"] for r in run.trace] == [15, 0]
        assert run.stop == "converged" and run.block is None

    def test_inactive_obstacle_reduces_to_dirichlet(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (13, 13))
        ctx = PFormContext(unit_structure(d), 2.0)
        mask = boundary_mask(d)
        g = rng.standard_normal(d.node_shape)
        bc = GridFunction(np.where(mask, g, 0.0), mask)
        unconstrained = solve_dirichlet(ctx, bc)
        lower = GridFunction(np.full(d.node_shape, -np.inf))
        res = solve_obstacle(ctx, lower, bc)
        assert np.max(np.abs(res.solution.values - unconstrained.solution.values)) <= 1e-7
        assert res.diagnostics["active_nodes"] == 0

    def test_constant_plate(self, square, square_structure):
        ctx = PFormContext(square_structure, 3.0)
        mask = boundary_mask(square)
        bc = GridFunction(np.where(mask, 1.0, 0.0), mask)
        lower = GridFunction(np.ones(square.node_shape))
        res = solve_obstacle(ctx, lower, bc)
        assert np.allclose(res.solution.values, 1.0)
        assert res.residual_norm <= 1e-9

    def test_1d_condenser_closed_form(self):
        d = GridDomain(((0.0, 1.0),), (17,))
        ctx = PFormContext(unit_structure(d), 2.0)
        x = d.node_coords()[..., 0]
        mask = boundary_mask(d)
        lower = np.where((x >= 0.25) & (x <= 0.75), 1.0, -np.inf)
        res = solve_obstacle(ctx, GridFunction(lower),
                             GridFunction(np.zeros(d.node_shape), mask))
        exact = np.minimum(np.minimum(4 * x, 1.0), 4 * (1 - x))
        assert np.max(np.abs(res.solution.values - exact)) <= 1e-10
        assert res.diagnostics["complementarity_violation"] <= 1e-8
        assert res.diagnostics["vi_residual"] <= 1e-8

    def test_complementarity_fields(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        ctx = PFormContext(unit_structure(d), 2.0)
        mask = boundary_mask(d)
        c = d.node_coords()
        bump = 0.5 - 2.0 * ((c[..., 0] - 0.5) ** 2 + (c[..., 1] - 0.5) ** 2)
        res = solve_obstacle(ctx, GridFunction(bump),
                             GridFunction(np.zeros(d.node_shape), mask))
        assert np.all(res.solution.values >= bump - 1e-10)
        assert res.diagnostics["active_nodes"] > 0
        assert res.diagnostics["complementarity_product"] <= 1e-6
        assert res.diagnostics["vi_residual"] <= 1e-7

    def test_infeasible_rejected(self, square, square_structure):
        ctx = PFormContext(square_structure, 2.0)
        mask = boundary_mask(square)
        bc = GridFunction(np.zeros(square.node_shape), mask)
        lower = GridFunction(np.ones(square.node_shape))  # above the boundary data
        with pytest.raises(ValueError, match="infeasible"):
            solve_obstacle(ctx, lower, bc)


class TestHarmonicityResidual:
    def test_affine_machine_zero(self, square, square_structure):
        ctx = PFormContext(square_structure, 3.0)
        u = GridFunction.from_callable(square, lambda x, y: 2 * x - y)
        region = np.ones(square.node_shape, dtype=bool)
        assert harmonicity_residual(u, region, ctx) <= 1e-12

    def test_solver_output_satisfies_tolerance(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (13, 13))
        ctx = PFormContext(unit_structure(d), 3.0)
        mask = boundary_mask(d)
        g = rng.standard_normal(d.node_shape)
        opts = SolveOptions(grad_tol=1e-9)
        res = solve_dirichlet(ctx, GridFunction(np.where(mask, g, 0.0), mask), opts)
        region = np.ones(d.node_shape, dtype=bool)
        assert harmonicity_residual(res.solution, region, ctx) <= opts.grad_tol

    def test_kink_detected(self):
        d = GridDomain(((-1.0, 1.0),), (17,))
        ctx = PFormContext(unit_structure(d), 2.0)
        u = GridFunction.from_callable(d, lambda x: np.abs(x))
        region = np.ones(d.node_shape, dtype=bool)
        assert harmonicity_residual(u, region, ctx) > 1.0

    def test_empty_region_rejected(self, square, square_structure):
        ctx = PFormContext(square_structure, 2.0)
        u = GridFunction.constant(square, 0.0)
        with pytest.raises(ValueError, match="interior"):
            harmonicity_residual(u, np.zeros(square.node_shape, dtype=bool), ctx)
