"""Three-dimensional smoke coverage and the regularized p < 2 path."""

import numpy as np
import pytest

from dirichlet_p.capacity import Condenser, capacity, nodes_in_box
from dirichlet_p.grid import (
    GridDomain,
    GridFunction,
    boundary_mask,
    dp_norm,
    energy,
    gamma,
    gradient,
    unit_structure,
)
from dirichlet_p.metric import (
    certify_gradient_bound,
    cutoff_gamma_bound,
    distance_cutoff,
    intrinsic_distance,
    stencil_offsets,
)
from dirichlet_p.pform import (
    PFormContext,
    check_monotone,
    check_sector,
    p_form,
    p_operator,
)
from dirichlet_p.solve import SolveOptions, solve_dirichlet


@pytest.fixture
def cube():
    return GridDomain(((0.0, 1.0), (0.0, 1.0), (0.0, 1.0)), (7, 7, 7))


class TestThreeD:
    def test_affine_gradient_exact(self, cube):
        u = GridFunction.from_callable(cube, lambda x, y, z: x - 2 * y + 3 * z)
        g = gradient(u, cube)
        assert np.allclose(g[..., 0], 1.0, atol=1e-13)
        assert np.allclose(g[..., 1], -2.0, atol=1e-13)
        assert np.allclose(g[..., 2], 3.0, atol=1e-13)

    def test_energy_of_diagonal_coordinate_sum(self, cube):
        s = unit_structure(cube)
        u = GridFunction.from_callable(cube, lambda x, y, z: x + y + z)
        # gamma = 2 * 3 = 6 on the unit cube
        assert np.allclose(gamma(u, s), 6.0)
        assert np.isclose(energy(u, u, s), 3.0)
        from dirichlet_p.grid import cell_mean

        mean_sq = float(np.sum(cell_mean(u, cube) ** 2 * cube.measure))
        assert np.isclose(dp_norm(u, s, 2.0) ** 2, mean_sq + 6.0, rtol=1e-12)

    def test_affine_solve_exact(self, cube):
        ctx = PFormContext(unit_structure(cube), 3.0)
        mask = boundary_mask(cube)
        c = cube.node_coords()
        exact = 2 * c[..., 0] - c[..., 1] + 0.5 * c[..., 2]
        res = solve_dirichlet(ctx, GridFunction(np.where(mask, exact, 0.0), mask))
        assert np.max(np.abs(res.solution.values - exact)) <= 1e-11

    def test_pairing_identity(self, cube, rng):
        ctx = PFormContext(unit_structure(cube), 3.0)
        u = GridFunction(rng.standard_normal(cube.node_shape))
        v = GridFunction(rng.standard_normal(cube.node_shape))
        F = p_operator(u, ctx)
        assert np.isclose(np.sum(F * v.values), p_form(u, v, ctx), rtol=1e-12)

    def test_capacity_monotone(self, cube):
        ctx = PFormContext(unit_structure(cube), 2.0)
        outer = boundary_mask(cube)
        small = nodes_in_box(cube, (0.4, 0.4, 0.4), (0.6, 0.6, 0.6))
        big = nodes_in_box(cube, (0.25, 0.25, 0.25), (0.75, 0.75, 0.75))
        c_small = capacity(Condenser(small, outer), ctx).value
        c_big = capacity(Condenser(big, outer), ctx).value
        assert 0.0 < c_small <= c_big + 1e-10

    def test_metric_stencil_and_cutoff(self):
        d = GridDomain(((0.0, 1.0),) * 3, (9, 9, 9))
        s = unit_structure(d)
        assert len(stencil_offsets(3, 8)) == 26
        fld = intrinsic_distance((4, 4, 4), s, 8)
        assert fld.distances[4, 4, 4] == 0.0
        cut = distance_cutoff(fld, 0.3)
        assert certify_gradient_bound(cut, s, cutoff_gamma_bound(3, 8)).passed


class TestRegularizedBelowTwo:
    def test_affine_solve_with_regularization(self):
        d = GridDomain(((0.0, 1.0),), (17,))
        ctx = PFormContext(unit_structure(d), 1.5, eps=1e-10)
        mask = boundary_mask(d)
        x = d.node_coords()[..., 0]
        res = solve_dirichlet(ctx, GridFunction(np.where(mask, x, 0.0), mask),
                              SolveOptions(grad_tol=1e-8))
        assert np.max(np.abs(res.solution.values - x)) <= 1e-7

    def test_form_finite_on_flat_cells(self, square, square_structure):
        ctx = PFormContext(square_structure, 1.5, eps=1e-12)
        u = GridFunction.constant(square, 1.0)  # gamma = 0 everywhere
        v = GridFunction.from_callable(square, lambda x, y: x)
        assert p_form(u, v, ctx) == 0.0
        assert np.isfinite(p_form(v, v, ctx))

    def test_monotone_and_sector_still_hold(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 1.5, eps=1e-9)
        for _ in range(20):
            u = GridFunction(rng.standard_normal(square.node_shape))
            v = GridFunction(rng.standard_normal(square.node_shape))
            rep = check_monotone(u, v, ctx)
            assert rep.details["pairing"] >= -1e-9
            assert check_sector(u, v, ctx).slack >= -1e-9

    def test_capacity_flagged_regularized(self):
        d = GridDomain(((0.0, 1.0),), (17,))
        ctx = PFormContext(unit_structure(d), 1.5, eps=1e-10)
        outer = boundary_mask(d)
        x = d.node_coords()[..., 0]
        inner = (x >= 0.25) & (x <= 0.75)
        r = capacity(Condenser(inner, outer), ctx, SolveOptions(grad_tol=1e-8))
        assert r.diagnostics["regularized"] is True
        # ramps are p-harmonic for every p, so the closed form still holds
        want = 2.0 ** 0.75 * (0.25 ** (-0.5) + 0.25 ** (-0.5))
        assert np.isclose(r.value, want, rtol=1e-5)


class TestFunctionalMasking:
    def test_masked_nodes_pair_to_zero(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        mask = boundary_mask(square)
        u = GridFunction(rng.standard_normal(square.node_shape), mask)
        F = p_operator(u, ctx)
        probe = np.zeros(square.node_shape)
        probe[0, 3] = 1.0  # a masked node
        assert mask[0, 3]
        assert np.sum(F * probe) == 0.0
