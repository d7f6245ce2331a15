import math

import numpy as np
import pytest
import scipy.linalg

from dirichlet_p import pform as pform_module
from dirichlet_p.assemble import assemble_form_matrix, mass_matrix, stiffness_matrix
from dirichlet_p.capacity import Condenser, capacity, nodes_in_box
from dirichlet_p.grid import (
    CoefficientField,
    GridDomain,
    GridFunction,
    GridStructure,
    _flux_gamma,
    boundary_mask,
    carre_du_champ,
    energy,
    gamma,
    gradient,
    gradient_adjoint,
    unit_structure,
)
from dirichlet_p.pform import (
    PFormContext,
    PurePotentialError,
    _form_density,
    _safe_power,
    check_coercive,
    check_contraction_operates,
    check_dirichlet_axioms,
    check_hemicontinuous,
    check_monotone,
    check_sector,
    estimate_poincare,
    p_energy,
    p_form,
    p_operator,
    scaled_operator_field,
)
from dirichlet_p.solve import SolveOptions, hessian_matrix
from conftest import random_elliptic_field, random_function


class TestContextValidation:
    def test_rejects_small_p(self, square_structure):
        with pytest.raises(ValueError):
            PFormContext(square_structure, 1.0)

    def test_rejects_unregularized_below_two(self, square_structure):
        with pytest.raises(ValueError):
            PFormContext(square_structure, 1.5)
        ctx = PFormContext(square_structure, 1.5, eps=1e-12)
        assert ctx.eps == 1e-12

    def test_rejects_negative_eps(self, square_structure):
        with pytest.raises(ValueError):
            PFormContext(square_structure, 3.0, eps=-1.0)


class TestPForm:
    def test_p2_reduces_to_twice_energy(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        ctx = PFormContext(s, 2.0)
        for _ in range(20):
            u = random_function(square, rng)
            v = random_function(square, rng)
            lhs = p_form(u, v, ctx)
            rhs = 2.0 * energy(u, v, s)
            assert abs(lhs - rhs) <= 1e-12 * max(abs(rhs), 1.0)

    def test_single_cell_p4_value(self):
        d = GridDomain(((0.0, 1.0),), (5,))
        s = unit_structure(d)
        u = GridFunction.from_callable(d, lambda x: x)
        ctx = PFormContext(s, 4.0)
        assert np.isclose(p_form(u, u, ctx), 4.0)
        assert np.isclose(p_energy(u, ctx), 1.0)

    def test_diagonal_matches_gamma_norm(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        for p in (2.0, 2.5, 3.0, 4.0):
            ctx = PFormContext(s, p)
            u = random_function(square, rng)
            direct = float(np.sum(gamma(u, s) ** (p / 2.0) * s.measure))
            assert np.isclose(p_form(u, u, ctx), direct, rtol=1e-12)

    def test_homogeneity_degree_p_minus_one(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        for p in (2.0, 2.5, 3.0, 4.0):
            ctx = PFormContext(s, p)
            u = random_function(square, rng)
            v = random_function(square, rng)
            base = p_form(u, v, ctx)
            for t in (0.25, 1.0, 3.5):
                lhs = p_form(GridFunction(t * u.values), v, ctx)
                assert abs(lhs - t ** (p - 1.0) * base) <= 1e-12 * max(abs(base), 1.0) * t ** (p - 1)

    def test_energy_homogeneity_degree_p(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        base = p_energy(u, ctx)
        for t in (0.5, 2.0):
            assert np.isclose(p_energy(GridFunction(t * u.values), ctx),
                              t ** 3 * base, rtol=1e-12)

    def test_constant_has_zero_energy(self, square, square_structure):
        ctx = PFormContext(square_structure, 3.0)
        assert p_energy(GridFunction.constant(square, 5.0), ctx) == 0.0


class TestOperator:
    def test_pairing_identity_machine_precision(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        mask = boundary_mask(square)
        for p in (2.0, 3.0, 4.0):
            ctx = PFormContext(s, p)
            u = random_function(square, rng)
            F = p_operator(u, ctx, mask=mask)
            for _ in range(5):
                v = random_function(square, rng)
                v.values[mask] = 0.0
                direct = p_form(u, GridFunction(v.values), ctx)
                assert abs(np.sum(F * v.values) - direct) <= 1e-12 * max(abs(direct), 1.0)

    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0])
    def test_scaled_operator_field_is_the_unmasked_operator_over_the_mass(self, square, rng,
                                                                           p):
        s = GridStructure(square, random_elliptic_field(square, rng))
        ctx = PFormContext(s, p, 1e-6 if p < 2 else 0.0)
        u = GridFunction(random_function(square, rng).values, mask=boundary_mask(square))
        ref = np.abs(p_operator(u, ctx, mask=np.zeros(square.node_shape, dtype=bool))) \
            / square.node_mass
        got = scaled_operator_field(u, ctx)
        assert np.array_equal(got.view(np.int64), ref.view(np.int64))

    def test_constant_gives_zero_functional(self, square, square_structure):
        ctx = PFormContext(square_structure, 3.0)
        F = p_operator(GridFunction.constant(square, 2.0), ctx)
        assert np.all(F == 0.0)

    def test_operator_homogeneity(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        F1 = p_operator(u, ctx)
        F2 = p_operator(GridFunction(2.0 * u.values), ctx)
        assert np.allclose(F2, 2.0 ** 2 * F1, rtol=1e-12)

    def test_euler_identity(self, square, square_structure, rng):
        for p in (2.0, 2.5, 4.0):
            ctx = PFormContext(square_structure, p)
            u = random_function(square, rng)
            F = p_operator(u, ctx)
            assert np.isclose(np.sum(F * u.values), p * p_energy(u, ctx), rtol=1e-11)

    def test_p2_matches_assembled_stiffness_entrywise(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (8, 8))
        s = GridStructure(d, random_elliptic_field(d, rng))
        ctx = PFormContext(s, 2.0)
        S = stiffness_matrix(s).toarray()
        n = d.num_nodes
        cols = np.zeros((n, n))
        for j in range(n):
            e = np.zeros(n)
            e[j] = 1.0
            cols[:, j] = p_operator(GridFunction(e.reshape(d.node_shape)), ctx).reshape(-1)
        assert np.max(np.abs(cols - S)) <= 1e-10 * max(np.max(np.abs(S)), 1.0)

    def test_gradient_consistency_central_difference(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        delta = 1e-4
        for p in (2.0, 3.0, 4.0):
            ctx = PFormContext(s, p)
            u = random_function(square, rng, smooth=True)
            v = random_function(square, rng, smooth=True)
            plus = p_energy(GridFunction(u.values + delta * v.values), ctx)
            minus = p_energy(GridFunction(u.values - delta * v.values), ctx)
            cd = (plus - minus) / (2.0 * delta)
            assert abs(cd - p_form(u, v, ctx)) <= 1e-6


# Two-gradient forms of the operator code, as written before each operator
# call took the cell gradient once; the current code must match them value
# for value.  Each sum runs over the components left to right.
def _apply(G, g):
    """G g per cell, summed over the components left to right."""
    d = g.shape[-1]
    return np.stack([sum(G[..., i, j] * g[..., j] for j in range(d)) for i in range(d)], axis=-1)


def _inner(a, b):
    """(a, b) per cell, summed over the components left to right."""
    return sum(a[..., i] * b[..., i] for i in range(a.shape[-1]))


def _reference_gamma_pair(u, v, s):
    gu = gradient(u, s.domain)
    gv = gradient(v, s.domain)
    return 2.0 * _inner(_apply(s.field.matrices, gu), gv)


def _reference_weights(u, ctx):
    return _safe_power(_reference_gamma_pair(u, u, ctx.structure) + ctx.eps,
                       (ctx.p - 2.0) / 2.0)


def _reference_p_form(u, v, ctx):
    integrand = _reference_weights(u, ctx) * _reference_gamma_pair(u, v, ctx.structure)
    return float(np.sum(integrand * ctx.measure))


def _reference_p_operator(u, ctx):
    Ggu = _apply(ctx.structure.field.matrices, gradient(u, ctx.domain))
    w = _reference_weights(u, ctx)
    q = 2.0 * (ctx.measure * w)[..., None] * Ggu
    return gradient_adjoint(q, ctx.domain)


def _reference_hessian(u, ctx):
    g = gradient(u, ctx.domain)
    G = ctx.structure.field.matrices
    Gg = _apply(G, g)
    base = 2.0 * _inner(Gg, g) + ctx.eps
    w = _safe_power(base, (ctx.p - 2.0) / 2.0)
    w4 = _safe_power(base, (ctx.p - 4.0) / 2.0)
    rank1 = 2.0 * (ctx.p - 2.0) * w4[..., None, None] * (Gg[..., :, None] * Gg[..., None, :])
    blocks = 2.0 * ctx.measure[..., None, None] * (w[..., None, None] * G + rank1)
    return assemble_form_matrix(ctx.domain, blocks)


def _field(kind, domain, rng):
    """SPD, bitwise asymmetric (within validation), diagonal or identity field."""
    if kind == "identity":
        return CoefficientField.identity(domain)
    mats = np.array(random_elliptic_field(domain, rng).matrices)
    if kind == "asymmetric" and domain.dim > 1:
        mats[..., 0, -1] *= 1.0 + 1e-13
        assert not np.array_equal(mats[..., 0, -1], mats[..., -1, 0])
    elif kind == "diagonal":
        mats *= np.eye(domain.dim)
    return CoefficientField(mats, 0.5 - 1e-6, 2.0 + 1e-6)


def _with_flat_patch(shape, rng):
    """Random node values with a constant patch, so some cells have gamma = 0."""
    u = rng.standard_normal(shape)
    u[tuple(slice(0, max(2, n // 2)) for n in shape)] = 0.75
    return GridFunction(u)


def _assert_equal_to_reference(u, v, ctx):
    s = ctx.structure
    assert np.array_equal(gamma(u, s), _reference_gamma_pair(u, u, s))
    assert np.array_equal(carre_du_champ(u, v, s), _reference_gamma_pair(u, v, s))
    assert np.array_equal(_form_density(u, v, ctx),
                          _reference_weights(u, ctx) * _reference_gamma_pair(u, v, s))
    assert p_form(u, v, ctx) == _reference_p_form(u, v, ctx)
    assert np.array_equal(p_operator(u, ctx), _reference_p_operator(u, ctx))
    H_ref = _reference_hessian(u, ctx)
    for H in (hessian_matrix(u, ctx), hessian_matrix(u, ctx, flux=_flux_gamma(u, s))):
        assert np.array_equal(H.indptr, H_ref.indptr)
        assert np.array_equal(H.indices, H_ref.indices)
        assert np.array_equal(H.data, H_ref.data)


P_EPS = [(1.5, 1e-3), (2.0, 0.0), (3.0, 0.0), (4.0, 0.0)]


class TestOneGradient:
    """The operators against the two-gradient references, equal value for value.

    Both sum the cell products over the components left to right, in every
    dimension; the references start their sums at 0, so equality here is up
    to the sign of zero."""

    @pytest.mark.parametrize("shape", [(9,), (7, 6), (4, 5, 4)])
    @pytest.mark.parametrize("p, eps", P_EPS)
    def test_bitwise_equal_to_two_gradient_reference(self, shape, p, eps, rng):
        d = GridDomain(tuple((0.0, 1.0) for _ in shape), shape)
        ctx = PFormContext(GridStructure(d, random_elliptic_field(d, rng)), p, eps)
        u = GridFunction(rng.standard_normal(shape))
        v = GridFunction(rng.standard_normal(shape))
        _assert_equal_to_reference(u, v, ctx)

    @pytest.mark.parametrize("shape", [(2, 2), (8, 13), (17, 17), (9,), (4, 5, 4)])
    @pytest.mark.parametrize("kind", ["spd", "asymmetric", "diagonal", "identity"])
    @pytest.mark.parametrize("p, eps", P_EPS)
    def test_field_kinds_and_flat_cells(self, shape, kind, p, eps, rng):
        # unequal spacings, so no coupling cancels by symmetry of the box
        d = GridDomain(tuple((0.0, 1.0 + 0.5 * j) for j in range(len(shape))), shape)
        ctx = PFormContext(GridStructure(d, _field(kind, d, rng)), p, eps)
        u = _with_flat_patch(shape, rng)
        _assert_equal_to_reference(u, GridFunction(rng.standard_normal(shape)), ctx)
        assert np.any(gamma(u, ctx.structure) == 0.0)

    def test_3d_flux_matches_the_einsum_formula(self, rng):
        # the loop sums in another order than einsum; both are accurate
        d = GridDomain(((0.0, 1.0), (0.0, 1.5), (0.0, 2.0)), (17, 17, 17))
        s = GridStructure(d, random_elliptic_field(d, rng))
        u = GridFunction(rng.standard_normal(d.shape))
        g = gradient(u, d)
        Gg = np.einsum("...ij,...j->...i", s.field.matrices, g)
        gam = 2.0 * np.einsum("...i,...i->...", Gg, g)
        flux, gam_loop = _flux_gamma(u, s)
        assert np.max(np.abs(gam_loop - gam) / gam) <= 1e-14
        assert np.max(np.abs(flux - Gg)) <= 1e-14 * np.max(np.abs(Gg))

    @pytest.mark.parametrize("expo", [-1.0, -0.5, -0.25, -1.5])
    def test_safe_power_matches_masked_formula(self, expo, rng):
        base = rng.standard_normal((64, 48))
        base[rng.random(base.shape) < 0.1] = 0.0
        base[0, :3] = [-0.0, np.nan, np.inf]
        assert np.any(base == 0.0) and np.any(base < 0.0)
        masked = np.zeros_like(base)
        pos = base > 0.0
        masked[pos] = base[pos] ** expo
        assert _safe_power(base, expo).tobytes() == masked.tobytes()


class TestSector:
    def test_equality_at_diagonal(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        rep = check_sector(u, u, ctx)
        assert rep.passed and abs(rep.slack) <= 1e-9 * max(rep.rhs, 1.0)
        rep_neg = check_sector(u, GridFunction(-u.values), ctx)
        assert rep_neg.passed and abs(rep_neg.slack) <= 1e-9 * max(rep_neg.rhs, 1.0)

    def test_random_sweep(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (8, 8))
        s = unit_structure(d)
        for p in (2.5, 3.0, 4.0):
            ctx = PFormContext(s, p)
            for _ in range(200):
                u = random_function(d, rng)
                v = random_function(d, rng)
                rep = check_sector(u, v, ctx)
                assert rep.passed and rep.slack >= -rep.tolerance

    @pytest.mark.parametrize("wrong", [
        # the p = 4 form: homogeneous of degree 3 in u, not p - 1 = 2
        lambda u, v, ctx, _p_form=pform_module.p_form:
            _p_form(u, v, PFormContext(ctx.structure, 4.0)),
        lambda u, v, ctx, _p_form=pform_module.p_form: -_p_form(u, v, ctx),
    ], ids=["degree-3", "negated"])
    def test_wrong_form_fails(self, square, square_structure, rng, monkeypatch, wrong):
        # u = 2w, v = w is the equality case of the honest sector bound
        ctx = PFormContext(square_structure, 3.0)
        w = random_function(square, rng)
        u = GridFunction(2.0 * w.values)
        assert check_sector(u, w, ctx).passed
        monkeypatch.setattr(pform_module, "p_form", wrong)
        rep = check_sector(u, w, ctx)
        assert rep.passed is False
        assert rep.slack < -rep.tolerance


class TestMonotone:
    def test_identical_inputs(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        rep = check_monotone(u, u, ctx)
        assert rep.passed
        assert rep.details["pairing"] == 0.0
        assert rep.details["gamma_difference_max"] == 0.0

    def test_constant_shift(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        v = GridFunction(u.values + 4.0)
        rep = check_monotone(u, v, ctx)
        assert rep.passed
        assert abs(rep.details["pairing"]) <= 1e-9
        assert rep.details["gamma_difference_max"] <= 1e-18

    def test_random_sweep_per_cell(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        ctx = PFormContext(s, 3.0)
        for _ in range(100):
            u = random_function(square, rng)
            v = random_function(square, rng)
            rep = check_monotone(u, v, ctx)
            assert rep.passed
            assert rep.details["min_cell_value"] >= -rep.tolerance

    @pytest.mark.parametrize("wrong", [
        # divided by |u|^p: homogeneous of degree -1 in u, so it decays along rays
        lambda u, v, ctx, _density=pform_module._form_density:
            _density(u, v, ctx) / np.linalg.norm(u.values) ** ctx.p,
        lambda u, v, ctx, _density=pform_module._form_density: -_density(u, v, ctx),
    ], ids=["degree-minus-1", "negated"])
    def test_wrong_operator_fails(self, square, square_structure, rng, monkeypatch, wrong):
        ctx = PFormContext(square_structure, 3.0)
        w = random_function(square, rng)
        v = GridFunction(2.0 * w.values)
        assert check_monotone(w, v, ctx).passed
        monkeypatch.setattr(pform_module, "_form_density", wrong)
        rep = check_monotone(w, v, ctx)
        assert rep.passed is False
        assert rep.details["min_cell_value"] < -rep.tolerance
        assert rep.details["pairing"] < 0.0


class TestPoincare:
    def test_dense_eigensolver_oracle_1d(self):
        d = GridDomain(((0.0, 1.0),), (5,))  # h = 0.25, 3 interior nodes
        s = unit_structure(d)
        mask = boundary_mask(d)
        k = estimate_poincare(s, mask)
        free = ~mask.reshape(-1)
        S = stiffness_matrix(s).toarray()[np.ix_(free, free)]
        M = mass_matrix(d).toarray()[np.ix_(free, free)]
        expected = float(np.max(scipy.linalg.eigvalsh(M, S)))
        assert np.isclose(k, expected, rtol=1e-8)

    def test_dense_eigensolver_oracle_2d(self, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (7, 7))
        s = GridStructure(d, random_elliptic_field(d, rng))
        mask = boundary_mask(d)
        k = estimate_poincare(s, mask)
        free = ~mask.reshape(-1)
        S = stiffness_matrix(s).toarray()[np.ix_(free, free)]
        M = mass_matrix(d).toarray()[np.ix_(free, free)]
        expected = float(np.max(scipy.linalg.eigvalsh(M, S)))
        assert np.isclose(k, expected, rtol=1e-7)

    @pytest.mark.parametrize("shape", [(3,), (3, 3)])
    def test_one_free_node_matches_dense_oracle(self, shape, rng):
        # ARPACK needs two unknowns, so one free node takes its own branch
        d = GridDomain(((0.0, 1.0),) * len(shape), shape)
        s = GridStructure(d, random_elliptic_field(d, rng))
        mask = boundary_mask(d)
        free = ~mask.reshape(-1)
        assert free.sum() == 1
        S = stiffness_matrix(s).toarray()[np.ix_(free, free)]
        M = mass_matrix(d).toarray()[np.ix_(free, free)]
        expected = float(np.max(scipy.linalg.eigvalsh(M, S)))
        assert np.isclose(estimate_poincare(s, mask), expected, rtol=1e-12)

    @pytest.mark.parametrize("shape", [(17,), (9, 9), (33, 33), (13, 13, 13)])
    def test_unit_box_closed_form(self, shape):
        # K = tridiag(-1, 2, -1)/h^2 and M = tridiag(1/4, 1/2, 1/4) share the
        # DST-I modes; the lowest, theta = pi h, gives 1/k = 8 d tan^2(pi h/2) / h^2
        d = GridDomain(((0.0, 1.0),) * len(shape), shape)
        h = 1.0 / (shape[0] - 1)
        exact = h ** 2 / (8 * d.dim * math.tan(math.pi * h / 2) ** 2)
        mask = boundary_mask(d)
        assert estimate_poincare(unit_structure(d), mask) == pytest.approx(exact, rel=1e-12)
        # the falsifier: a field 1% stronger scales the constant by 1/1.01
        scaled = GridStructure(d, CoefficientField.scalar(d, 1.01))
        assert estimate_poincare(scaled, mask) != pytest.approx(exact, rel=1e-12)

    def test_refinement_approaches_continuum_monotonically(self):
        # the unit interval with pinned ends and unit coefficient has the
        # continuum constant 1/(2 pi^2) for the full carre du champ pairing
        target = 1.0 / (2.0 * math.pi ** 2)
        ks = []
        for shape in (17, 65, 257):
            d = GridDomain(((0.0, 1.0),), (shape,))
            ks.append(estimate_poincare(unit_structure(d), boundary_mask(d)))
        assert ks[0] < ks[1] < ks[2] < target
        assert abs(ks[-1] - target) <= 1e-3

    def test_measure_scaling_invariance(self):
        d = GridDomain(((0.0, 1.0),), (17,))
        d_scaled = GridDomain(((0.0, 1.0),), (17,), np.full((16,), 5.0))
        k1 = estimate_poincare(unit_structure(d), boundary_mask(d))
        k2 = estimate_poincare(unit_structure(d_scaled), boundary_mask(d_scaled))
        assert np.isclose(k1, k2, rtol=1e-7)

    def test_empty_mask_rejected(self, line_structure, line):
        with pytest.raises(ValueError):
            estimate_poincare(line_structure, np.zeros(line.node_shape, dtype=bool))


class TestCoercive:
    def test_zero_function_trivial(self, line, line_structure):
        ctx = PFormContext(line_structure, 3.0)
        assert p_form(GridFunction.constant(line, 0.0),
                      GridFunction.constant(line, 0.0), ctx) == 0.0

    def test_1d_sampled_bound(self, rng):
        d = GridDomain(((0.0, 1.0),), (16,))
        s = unit_structure(d)
        mask = boundary_mask(d)
        k = estimate_poincare(s, mask)
        for p in (2.0, 3.0):
            rep = check_coercive(PFormContext(s, p), k, mask, n_samples=30, rng=rng)
            assert rep.passed, rep.witness

    def test_2d_sampled_bound(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        mask = boundary_mask(square)
        k = estimate_poincare(s, mask)
        rep = check_coercive(PFormContext(s, 3.0), k, mask, n_samples=20, rng=rng)
        assert rep.passed, rep.witness

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_too_small_constant_fails(self, p):
        # the same samples pass with the computed Poincare constant and fail
        # with a hundredth of it
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        s = unit_structure(d)
        mask = boundary_mask(d)
        k = estimate_poincare(s, mask)
        ctx = PFormContext(s, p)
        assert check_coercive(ctx, k, mask).passed
        rep = check_coercive(ctx, k / 100.0, mask)
        assert rep.passed is False
        assert rep.witness is not None and rep.witness["lhs"] > rep.witness["rhs"]

    @pytest.mark.parametrize("n_samples", [0, -1])
    def test_rejects_no_samples(self, square, square_structure, n_samples):
        # a check that draws nothing would pass vacuously
        with pytest.raises(ValueError, match="sample"):
            check_coercive(PFormContext(square_structure, 3.0), 1.0, boundary_mask(square),
                           n_samples=n_samples)


class TestHemicontinuity:
    def test_equal_inputs_constant_map(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        rep = check_hemicontinuous(u, u, ctx, samples=8)
        assert rep.passed
        assert rep.details["max_jump_fine"] == 0.0

    def test_p2_affine_in_t(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 2.0)
        u = random_function(square, rng)
        v = random_function(square, rng)
        rep = check_hemicontinuous(u, v, ctx, samples=16)
        assert rep.passed
        scale = max(abs(rep.details["max_jump_fine"]), 1.0)
        assert rep.details["max_second_difference"] <= 1e-9 * scale

    def test_p3_refinement_ratio(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        v = random_function(square, rng)
        rep = check_hemicontinuous(u, v, ctx, samples=64)
        assert rep.passed and rep.lhs <= 0.75

    def test_step_in_the_map_fails(self, square, square_structure, rng, monkeypatch):
        # t -> <op(t u), u> with a jump of 1e4 at t = 1/2: the largest
        # increment no longer shrinks when the sampling doubles
        ctx = PFormContext(square_structure, 3.0)
        u = GridFunction(rng.standard_normal(square.node_shape))
        zero = GridFunction(np.zeros(square.node_shape))
        assert check_hemicontinuous(u, zero, ctx).passed

        def stepped(w, d, ctx, _p_form=pform_module.p_form):
            t = float(np.vdot(w.values, u.values) / np.vdot(u.values, u.values))
            return _p_form(w, d, ctx) + (1e4 if t >= 0.5 else 0.0)

        monkeypatch.setattr(pform_module, "p_form", stepped)
        rep = check_hemicontinuous(u, zero, ctx)
        assert rep.passed is False
        assert rep.lhs > 0.75

    def test_rejects_too_few_samples(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        with pytest.raises(ValueError):
            check_hemicontinuous(u, u, ctx, samples=2)


class TestContraction:
    def test_unit_on_interior_range_is_exact_zero(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = GridFunction(rng.uniform(0.1, 0.9, square.node_shape))
        v = random_function(square, rng)
        rep = check_contraction_operates(u, v, ctx, kind="unit")
        assert rep.passed
        assert rep.details["pairing"] == 0.0
        assert rep.details["regime"] == "exact"

    def test_unit_on_constant_two(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = GridFunction.constant(square, 2.0)
        v = random_function(square, rng)
        rep = check_contraction_operates(u, v, ctx, kind="unit")
        assert rep.passed and rep.details["pairing"] == 0.0

    def test_smooth_tanh_sweep(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        ctx = PFormContext(s, 3.0)
        for _ in range(60):
            u = GridFunction(2.0 * rng.standard_normal(square.node_shape))
            v = GridFunction(2.0 * rng.standard_normal(square.node_shape))
            rep = check_contraction_operates(u, v, ctx, kind="smooth", T=np.tanh)
            assert rep.passed
            assert rep.details["pairing"] >= -rep.tolerance

    def test_threshold_and_negative_part(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 2.5)
        for _ in range(30):
            u = random_function(square, rng)
            v = random_function(square, rng)
            r1 = check_contraction_operates(u, v, ctx, kind="threshold", alpha=0.7)
            r2 = check_contraction_operates(u, v, ctx, kind="negative_part")
            assert r1.passed and r2.passed

    @pytest.mark.parametrize("kind", ["unit", "smooth"])
    def test_negative_pairing_fails(self, square, square_structure, rng, monkeypatch, kind):
        ctx = PFormContext(square_structure, 3.0)
        u = GridFunction(rng.uniform(0.1, 0.9, square.node_shape))
        v = random_function(square, rng)
        T = np.tanh if kind == "smooth" else None
        honest = check_contraction_operates(u, v, ctx, kind=kind, T=T)
        assert honest.passed and honest.details["regime"] == "exact"
        monkeypatch.setattr(pform_module, "_pairing_difference", lambda *args: -1.0)
        rep = check_contraction_operates(u, v, ctx, kind=kind, T=T)
        assert rep.check == f"contraction_{kind}"
        assert rep.passed is False
        assert rep.details["pairing"] == -1.0 and rep.tolerance == honest.tolerance

    def test_rejects_expanding_map(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        with pytest.raises(ValueError, match="contraction"):
            check_contraction_operates(u, u, ctx, kind="smooth", T=lambda x: 2.0 * x)

    def test_rejects_nonvanishing_at_zero(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 3.0)
        u = random_function(square, rng)
        with pytest.raises(ValueError, match="fix 0"):
            check_contraction_operates(u, u, ctx, kind="smooth",
                                       T=lambda x: np.clip(x + 0.5, -1, 1) * 0 + 0.5)


def _equilibrium_pair(p: float):
    d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
    s = unit_structure(d)
    ctx = PFormContext(s, p)
    outer = boundary_mask(d)
    big = nodes_in_box(d, (0.25, 0.25), (0.75, 0.75))
    small = nodes_in_box(d, (0.375, 0.375), (0.625, 0.625))
    opts = SolveOptions(grad_tol=1e-10)
    e_big = capacity(Condenser(big, outer), ctx, opts).potential
    e_small = capacity(Condenser(small, outer), ctx, opts).potential
    return ctx, outer, e_big, e_small


class TestDirichletAxioms:
    def test_identical_potentials(self):
        ctx, outer, e_big, _ = _equilibrium_pair(3.0)
        rep = check_dirichlet_axioms(e_big, e_big, 0.25, ctx, mask=outer)
        assert rep.passed
        assert abs(rep.details["pairing_meet"]) <= rep.tolerance

    def test_nested_equilibrium_potentials(self):
        ctx, outer, e_big, e_small = _equilibrium_pair(3.0)
        rep = check_dirichlet_axioms(e_big, e_small, 0.5, ctx, mask=outer)
        assert rep.passed, rep.details

    def test_zero_partner(self):
        ctx, outer, e_big, _ = _equilibrium_pair(2.0)
        zero = GridFunction(np.zeros(ctx.domain.node_shape), outer)
        rep = check_dirichlet_axioms(e_big, zero, 0.5, ctx, mask=outer)
        assert rep.passed
        assert abs(rep.details["pairing_meet"]) <= rep.tolerance

    def test_one_operator_evaluation_per_input(self, monkeypatch):
        ctx, outer, e_big, e_small = _equilibrium_pair(3.0)
        calls = []

        def counting(u, *args, _p_operator=pform_module.p_operator, **kwargs):
            calls.append(u)
            return _p_operator(u, *args, **kwargs)

        monkeypatch.setattr(pform_module, "p_operator", counting)
        assert check_dirichlet_axioms(e_big, e_small, 0.5, ctx, mask=outer).passed
        assert len(calls) == 2 and calls[0] is e_big and calls[1] is e_small

    def test_rejects_non_potential(self, square, square_structure, rng):
        ctx = PFormContext(square_structure, 2.0)
        outer = boundary_mask(square)
        bad = GridFunction(np.where(outer, 0.0, rng.standard_normal(square.node_shape)), outer)
        with pytest.raises(PurePotentialError, match="node"):
            check_dirichlet_axioms(bad, bad, 0.1, ctx, mask=outer)

    def test_violation_locator(self, square, square_structure):
        ctx = PFormContext(square_structure, 2.0)
        outer = boundary_mask(square)
        vals = np.zeros(square.node_shape)
        vals[4, 4] = -1.0  # strict interior dip: negative coefficient nearby
        zero = GridFunction(np.zeros(square.node_shape), outer)
        with pytest.raises(PurePotentialError,
                           match=r"coefficient -[0-9.e+-]+ at node \(\d+, \d+\)"):
            check_dirichlet_axioms(GridFunction(vals), zero, 0.1, ctx, mask=outer)
