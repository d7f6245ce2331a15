import dataclasses

import numpy as np
import pytest

from dirichlet_p import mappings as mappings_module
from dirichlet_p.grid import (
    CoefficientField,
    GridDomain,
    _det,
    _sym_eigvalsh,
    energy,
    gradient,
    unit_structure,
)
from dirichlet_p.mappings import (
    JacobianField,
    LinearMapping,
    Mapping,
    PowerMapping,
    RadialStretch,
    SampledMapping,
    analyze,
    differentiate,
    distortion_tensor,
    induced_structure,
    verify_component_harmonicity,
)
from dirichlet_p.mappings import _dilatations, _singular_values
from dirichlet_p.pform import PFormContext, _weights
from conftest import assert_passes_validation, random_2x2_blocks, random_function


@pytest.fixture
def box():
    return GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (17, 17))


class TestDifferentiate:
    def test_linear_map(self, box):
        A = np.array([[1.0, 0.5], [0.0, 2.0]])
        jf = differentiate(LinearMapping(box, A))
        assert np.allclose(jf.Df, A)
        assert np.allclose(jf.J, np.linalg.det(A))
        assert not jf.flagged.any()

    def test_power_two_at_unit_point(self):
        # single cell centered exactly at z = 1: f'(z) = 2z = 2
        d = GridDomain(((0.9, 1.1), (-0.1, 0.1)), (2, 2))
        jf = differentiate(PowerMapping(d, 2))
        assert np.allclose(jf.Df[0, 0], [[2.0, 0.0], [0.0, 2.0]], atol=1e-14)
        assert np.isclose(jf.J[0, 0], 4.0)

    def test_radial_stretch_singular_values(self):
        # single cell centered at |x| = 1 on the axis
        a = 2.5
        d = GridDomain(((0.9, 1.1), (-0.1, 0.1)), (2, 2))
        jf = differentiate(RadialStretch(d, a))
        sv = np.linalg.svd(jf.Df[0, 0], compute_uv=False)
        assert np.allclose(sv, [a, 1.0], rtol=1e-12)
        assert np.isclose(jf.J[0, 0], a)

    def test_sampled_uses_grid_gradient(self, box):
        lin = LinearMapping(box, np.array([[2.0, 0.0], [0.0, 1.0]]))
        sampled = SampledMapping(box, lin.node_values())
        jf = differentiate(sampled)
        assert np.allclose(jf.Df, [[2.0, 0.0], [0.0, 1.0]], atol=1e-12)

    def test_orientation_reversal_flagged(self, box):
        mapping = LinearMapping(box, np.diag([1.0, -1.0]))
        assert differentiate(mapping).flagged.all()
        with pytest.raises(ValueError, match="degenerate"):
            analyze(mapping)


class TestDilatations:
    def test_conformal_power_maps(self, box):
        for k in (2, 3):
            an = analyze(PowerMapping(box, k))
            assert abs(an.K_O - 1.0) <= 1e-10
            assert abs(an.K_I - 1.0) <= 1e-10

    def test_radial_stretch_dilatation(self, box):
        an = analyze(RadialStretch(box, 3.0))
        assert abs(an.K_O - 3.0) <= 1e-8
        assert abs(an.K_I - 3.0) <= 1e-8

    def test_linear_diag(self, box):
        an = analyze(LinearMapping(box, np.diag([2.0, 1.0])))
        assert np.isclose(an.K_O, 2.0)
        assert np.isclose(an.K_I, 2.0)


class TestDistortionTensor:
    def test_conformal_is_identity(self, box):
        an = analyze(PowerMapping(box, 2))
        assert np.max(np.abs(an.theta - np.eye(2))) <= 1e-10
        assert an.details["det_error"] <= 1e-10

    def test_linear_diag_value(self, box):
        an = analyze(LinearMapping(box, np.diag([2.0, 1.0])))
        assert np.allclose(an.theta, np.diag([0.5, 2.0]), atol=1e-12)

    def test_unit_determinant_all_kinds(self, box):
        mappings = [PowerMapping(box, 3), RadialStretch(box, 2.0),
                    LinearMapping(box, np.array([[1.0, 0.3], [0.3, 2.0]]))]
        for m in mappings:
            an = analyze(m)
            assert an.details["det_error"] <= 1e-10

    def test_ellipticity_sandwich(self, box):
        an = analyze(RadialStretch(box, 3.0))
        eigs = np.linalg.eigvalsh(an.theta)
        assert np.all(eigs >= an.alpha - 1e-9)
        assert np.all(eigs <= an.beta + 1e-9)
        assert np.isclose(an.alpha, 1.0 / 3.0, rtol=1e-8)
        assert np.isclose(an.beta, 3.0, rtol=1e-8)

    def test_scaling_invariance(self, box):
        A = np.array([[1.0, 0.4], [0.4, 1.5]])
        t1 = analyze(LinearMapping(box, A)).theta
        t2 = analyze(LinearMapping(box, 3.0 * A)).theta
        assert np.allclose(t1, t2, atol=1e-12)


class TestClosedFormKernels:
    """The 2-D cell algebra against LAPACK on random, near-singular and conformal blocks."""

    @pytest.mark.parametrize("kind", ["random", "near_singular", "conformal"])
    def test_singular_values_match_lapack(self, kind):
        Df = random_2x2_blocks()[kind]
        # rows ordered largest first: a downward-graded block, on which
        # LAPACK's smallest singular value keeps its relative accuracy
        # (with the small row first it loses about 5e-5)
        big_first = np.take_along_axis(
            Df, np.argsort(-np.linalg.norm(Df, axis=-1), axis=-1)[..., None], axis=-2)
        ref = np.linalg.svd(big_first, compute_uv=False)
        sv = _singular_values(Df)
        assert np.all(np.abs(sv[:, 0] - ref[:, 0]) <= 1e-14 * ref[:, 0])
        assert np.all(np.abs(sv[:, 1] - ref[:, 1]) <= 1e-10 * ref[:, 1])

    @pytest.mark.parametrize("kind", ["random", "near_singular", "conformal"])
    def test_theta_matches_lapack(self, kind):
        Df = random_2x2_blocks()[kind]
        jf = differentiate_blocks(Df)
        ok = ~jf.flagged
        inv = np.linalg.inv(Df[ok])
        ref = jf.J[ok][:, None, None] * (inv @ np.swapaxes(inv, -1, -2))
        theta = distortion_tensor(jf)[ok]
        assert np.array_equal(theta, np.swapaxes(theta, -1, -2))
        # both sides carry rounding of order eps * cond(Df); the fixed bound
        # holds up to cond(Df) = 100, about 98% of the random blocks
        sv = np.linalg.svd(Df[ok], compute_uv=False)
        bound = np.maximum(1e-13, 4 * np.finfo(float).eps * sv[:, 0] / sv[:, 1])
        err = np.linalg.norm(theta - ref, axis=(-2, -1))
        assert np.all(err <= bound * np.linalg.norm(ref, axis=(-2, -1)))

    def test_conformal_theta_is_exactly_the_identity(self, box):
        Df = random_2x2_blocks()["conformal"]
        jf = differentiate_blocks(Df)
        assert np.array_equal(distortion_tensor(jf), np.broadcast_to(np.eye(2), Df.shape))
        for k in (2, 3):
            an = analyze(PowerMapping(box, k))
            assert np.array_equal(an.theta, np.broadcast_to(np.eye(2), an.theta.shape))
            assert an.details["det_error"] == 0.0

    def test_three_d_stays_on_lapack(self):
        d3 = GridDomain(((-1.0, 1.0),) * 3, (7, 7, 7))
        mapping = RadialStretch(d3, 1.5)
        an = analyze(mapping)
        jf = differentiate(mapping)
        Df, J, ok = jf.Df, jf.J, ~jf.flagged
        assert np.array_equal(J, np.linalg.det(Df))
        assert np.array_equal(_singular_values(Df), np.linalg.svd(Df, compute_uv=False))
        inv = np.linalg.inv(Df[ok])
        theta = (J[ok] ** (2.0 / 3.0))[:, None, None] * (inv @ np.swapaxes(inv, -1, -2))
        assert np.array_equal(an.theta[ok], 0.5 * (theta + np.swapaxes(theta, -1, -2)))
        assert np.array_equal(_sym_eigvalsh(an.theta), np.linalg.eigvalsh(an.theta))
        assert an.details["det_error"] == np.max(np.abs(np.linalg.det(an.theta[ok]) - 1.0))


def _broadcast_radial_jacobian(mapping: RadialStretch) -> np.ndarray:
    """Frozen oracle: the stretch's Jacobian from a broadcast identity and outer product."""
    c = mapping.domain.cell_centers()
    n = mapping.domain.dim
    r = np.linalg.norm(c, axis=-1)
    rhat = c / np.where(r > 0, r, 1.0)[..., None]
    eye = np.broadcast_to(np.eye(n), c.shape[:-1] + (n, n))
    proj = rhat[..., :, None] * rhat[..., None, :]
    return np.where(r[..., None, None] > 0,
                    (r ** (mapping.a - 1.0))[..., None, None] * (eye + (mapping.a - 1.0) * proj),
                    np.zeros_like(proj))


class TestRadialJacobian:
    @pytest.mark.parametrize("extent, shape", [
        (((-1.0, 1.0),) * 2, (65, 65)),
        (((-1.0, 1.0),) * 2, (129, 129)),
        (((-1.0, 1.0),) * 3, (9, 9, 9)),
        # the digest's flagged grid: one cell centre on the origin
        (((-1.0625, 0.9375),) * 2, (17, 17)),
    ])
    @pytest.mark.parametrize("a", [0.5, 1.5, 3.0])
    def test_entries_equal_the_broadcast_formula_bitwise(self, extent, shape, a):
        mapping = RadialStretch(GridDomain(extent, shape), a)
        # a < 1 puts 0 ** (a - 1) = inf at a centre on the origin, where both give 0
        with np.errstate(divide="ignore", invalid="ignore"):
            jac, ref = mapping.cell_jacobian(), _broadcast_radial_jacobian(mapping)
        assert jac.shape == ref.shape
        # bytes, so a -0.0 where the oracle has +0.0 fails too
        assert jac.tobytes() == ref.tobytes()

    def test_vanishes_at_a_centre_on_the_origin(self):
        d = GridDomain(((-1.0625, 0.9375),) * 2, (17, 17))
        jac = RadialStretch(d, 1.5).cell_jacobian()
        origin = np.all(d.cell_centers() == 0.0, axis=-1)
        assert origin.sum() == 1
        assert jac[origin].tobytes() == np.zeros((1, 2, 2)).tobytes()


class _GivenBlocks(Mapping):
    """A plane mapping known only by its cell Jacobi matrices, one per cell of a square grid."""

    def __init__(self, Df: np.ndarray):
        side = int(np.sqrt(len(Df)))
        self.domain = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (side + 1, side + 1))
        self._Df = Df.reshape(side, side, 2, 2)

    def cell_jacobian(self) -> np.ndarray:
        return self._Df


def _gathered_dilatations(jf: JacobianField) -> tuple[float, float]:
    """The dilatations from the unflagged cells gathered first (the former formulas)."""
    ok = ~jf.flagged
    sv = _singular_values(jf.Df[ok])
    J = jf.J[ok]
    return float(np.max(sv[..., 0] ** 2 / J)), float(np.max(J / sv[..., -1] ** 2))


def _gathered_theta(jf: JacobianField) -> np.ndarray:
    """The plane's distortion tensor on the gathered unflagged cells, scattered back."""
    ok = ~jf.flagged
    out = np.empty_like(jf.Df)
    out[jf.flagged] = np.eye(2)
    Df, J = jf.Df[ok], jf.J[ok]
    a, b, c, d = Df[..., 0, 0], Df[..., 0, 1], Df[..., 1, 0], Df[..., 1, 1]
    off = -(a * b + c * d) / J
    out[ok] = np.stack([np.stack([(b * b + d * d) / J, off], axis=-1),
                        np.stack([off, (a * a + c * c) / J], axis=-1)], axis=-2)
    return out


class TestWholeCellArrays:
    """The plane's cell algebra runs on every cell and masks the flagged ones;
    it equals the gather-based formulas bit for bit."""

    @pytest.fixture(scope="class")
    def blocks(self):
        Df = random_2x2_blocks()["random"]
        jf = differentiate_blocks(Df)
        assert 0 < jf.flagged.sum() < jf.flagged.size  # about half are flagged
        return Df, jf

    def test_distortion_tensor_equals_gathered(self, blocks):
        _, jf = blocks
        theta = distortion_tensor(jf)
        assert theta.tobytes() == _gathered_theta(jf).tobytes()
        assert np.array_equal(theta[jf.flagged], np.broadcast_to(
            np.eye(2), (int(jf.flagged.sum()), 2, 2)))

    def test_dilatations_equal_gathered(self, blocks):
        _, jf = blocks
        assert _dilatations(jf) == _gathered_dilatations(jf)

    def test_analyze_equals_gathered(self, blocks):
        Df, jf = blocks
        mapping = _GivenBlocks(Df)
        an = analyze(mapping)
        K_O, K_I = _gathered_dilatations(jf)
        theta = _gathered_theta(jf)
        ok = ~jf.flagged
        assert (an.K_O, an.K_I, an.alpha, an.beta) == (K_O, K_I, K_O ** -1.0, K_I ** 1.0)
        assert an.theta.tobytes() == theta.reshape(an.theta.shape).tobytes()
        assert an.details["det_error"] == float(np.max(np.abs(_det(theta[ok]) - 1.0)))
        assert an.details["flagged_cells"] == int(jf.flagged.sum())
        assert an.excluded_measure == float(np.sum(np.where(
            jf.flagged.reshape(mapping.domain.cells_shape), mapping.domain.measure, 0.0)))
        eigs = _sym_eigvalsh(theta)
        assert an.details["eigenvalue_range"] == (float(eigs.min()), float(eigs.max()))

    def test_all_flagged_map_is_degenerate(self, box):
        with pytest.raises(ValueError, match="degenerate"):
            analyze(LinearMapping(box, np.diag([-1.0, 1.0])))
        with pytest.raises(ValueError, match="degenerate"):
            analyze(RadialStretch(GridDomain(((-0.5, 0.5),) * 2, (2, 2)), 2.0))

    def test_power_jacobian_equals_stacked_rows(self, box):
        Df = PowerMapping(box, 3).cell_jacobian()
        c = box.cell_centers()
        fp = 3 * (c[..., 0] + 1j * c[..., 1]) ** 2
        assert Df.tobytes() == np.stack([np.stack([fp.real, -fp.imag], axis=-1),
                                         np.stack([fp.imag, fp.real], axis=-1)],
                                        axis=-2).tobytes()


def differentiate_blocks(Df: np.ndarray) -> JacobianField:
    """The JacobianField that `differentiate` builds from these blocks."""
    J = _det(Df)
    return JacobianField(Df=Df, J=J, flagged=J <= 0.0)


class TestInducedStructure:
    def test_conformal_matches_identity_structure(self, box, rng):
        an = analyze(PowerMapping(box, 2))
        induced = induced_structure(an, box)
        reference = unit_structure(box)
        for _ in range(5):
            u = random_function(box, rng)
            v = random_function(box, rng)
            assert np.isclose(energy(u, v, induced), energy(u, v, reference),
                              rtol=1e-10, atol=1e-12)

    @pytest.mark.parametrize("dim, make", [
        (2, lambda d: PowerMapping(d, 2, puncture=0.3)),
        (2, lambda d: PowerMapping(d, 3, puncture=0.3)),
        (2, lambda d: RadialStretch(d, 1.5, puncture=0.25)),
        (2, lambda d: RadialStretch(d, 3.0, puncture=0.25)),
        (2, lambda d: LinearMapping(d, np.diag([2.0, 1.0]))),
        (2, lambda d: LinearMapping(d, np.array([[1.0, 0.4], [0.4, 1.5]]))),
        (3, lambda d: LinearMapping(d, np.array([[1.0, 0.4, 0.0], [0.2, 1.5, 0.3],
                                                 [0.0, 0.1, 0.8]]))),
    ], ids=["z2", "z3", "radial1.5", "radial3", "linear-diag", "linear-shear", "linear-3d"])
    def test_distortion_field_passes_validation(self, dim, make):
        # the maps of scripts/mapping_gallery.py at 17^2, plus one 3-D map
        d = GridDomain(((-1.0, 1.0),) * dim, (17,) * dim)
        assert_passes_validation(induced_structure(analyze(make(d)), d).field)

    def test_large_distortion_keeps_a_positive_lower_bound(self, box):
        # alpha = 1e-5 against beta = 1e5: an absolute widening of 1e-9 beta
        # would push the lower bound below 0, a relative one does not
        an = analyze(LinearMapping(box, np.diag([1e5, 1.0])))
        fld = induced_structure(an, box).field
        assert 0 < fld.alpha <= min(an.alpha, an.details["eigenvalue_range"][0])
        assert fld.beta >= max(an.beta, an.details["eigenvalue_range"][1])
        assert_passes_validation(fld)

    def test_bounds_that_are_not_positive_are_rejected(self, box):
        # one cell of theta made semidefinite: no positive lower bound holds
        an = analyze(LinearMapping(box, np.diag([1e5, 1.0])))
        theta = an.theta.copy()
        theta[3, 4] = np.diag([0.0, 1.0])
        eigs = _sym_eigvalsh(theta)
        singular = dataclasses.replace(an, theta=theta, details={
            **an.details, "eigenvalue_range": (float(eigs.min()), float(eigs.max()))})
        with pytest.raises(ValueError, match="alpha"):
            induced_structure(singular, box)
        with pytest.raises(ValueError, match="alpha"):
            CoefficientField(theta, 0.0, an.beta)

    def test_context_has_p_equal_dimension(self, box, monkeypatch):
        # the induced form is the n-form: every residual field is measured with p = n
        seen = []

        def spying(u, ctx, _field=mappings_module.scaled_operator_field):
            seen.append(ctx.p)
            return _field(u, ctx)

        monkeypatch.setattr(mappings_module, "scaled_operator_field", spying)
        d3 = GridDomain(((-1.0, 1.0),) * 3, (9, 9, 9))
        for mapping, n in ((RadialStretch(box, 2.0), 2.0), (RadialStretch(d3, 1.5), 3.0)):
            seen.clear()
            assert verify_component_harmonicity(mapping).p == n
            assert seen and set(seen) == {n}


class TestComponentHarmonicity:
    def test_identity_map_floor(self, box):
        rep = verify_component_harmonicity(LinearMapping(box, np.eye(2)))
        assert rep.passed
        regimes = {v["regime"] for v in rep.details["fields"].values()}
        assert regimes == {"exact_floor"}

    def test_power_two_components_and_log(self):
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (65, 65))
        rep = verify_component_harmonicity(PowerMapping(d, 2, puncture=0.3),
                                           min_order=1.9, include_log=True)
        assert rep.passed
        fields = rep.details["fields"]
        assert fields["component_0"]["regime"] == "exact_floor"
        assert fields["component_1"]["regime"] == "exact_floor"
        assert fields["log_abs"]["order"] >= 1.9

    def test_non_harmonic_component_fails(self):
        # z^2's differential, but components (|z|^2, 2xy): the first has
        # Laplacian 4, so its residual does not shrink under refinement
        class SquaredModulus(PowerMapping):
            def node_values(self):
                c = self.domain.node_coords()
                x, y = c[..., 0], c[..., 1]
                return np.stack([x * x + y * y, 2.0 * x * y], axis=-1)

            def refined(self):
                return SquaredModulus(self.domain.refined(), self.k, self.puncture)

        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
        rep = verify_component_harmonicity(SquaredModulus(d, 2))
        assert rep.passed is False
        first = rep.details["fields"]["component_0"]
        assert first["regime"] == "refinement"
        assert first["order"] == 0.0
        assert rep.details["fields"]["component_1"]["regime"] == "exact_floor"

    def test_radial_stretch_components(self):
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (65, 65))
        rep = verify_component_harmonicity(RadialStretch(d, 3.0, puncture=0.25),
                                           min_order=1.0)
        assert rep.passed
        for name, row in rep.details["fields"].items():
            if row["regime"] == "refinement":
                assert row["order"] >= 1.0

    def test_sampled_cannot_refine(self, box):
        sm = SampledMapping(box, LinearMapping(box, np.eye(2)).node_values())
        with pytest.raises(ValueError, match="refine"):
            verify_component_harmonicity(sm)


def _flux(G: np.ndarray, xi: np.ndarray, p: float) -> np.ndarray:
    """The monotone flux A(x, xi) = (G xi, xi)^((p-2)/2) G xi, over leading axes."""
    Gxi = np.einsum("...ij,...j->...i", G, xi)
    q = np.einsum("...i,...i->...", Gxi, xi)
    return (q ** ((p - 2.0) / 2.0))[..., None] * Gxi


class TestAOperator:
    """The flux A(x, xi) of the p-form, through the inline oracle `_flux`."""

    def test_positive_homogeneity(self, rng):
        G = np.array([[2.0, 0.3], [0.3, 1.0]])
        xi = rng.standard_normal(2)
        for p in (2.0, 3.0, 4.0):
            lhs = _flux(G, 2.5 * xi, p)
            rhs = 2.5 ** (p - 1.0) * _flux(G, xi, p)
            assert np.allclose(lhs, rhs, rtol=1e-12)

    def test_coercivity_lower_bound(self, rng):
        G = np.array([[2.0, 0.3], [0.3, 1.0]])
        alpha = float(np.min(np.linalg.eigvalsh(G)))
        for p in (2.0, 3.0):
            for _ in range(20):
                xi = rng.standard_normal(2)
                val = float(_flux(G, xi, p) @ xi)
                q = float(xi @ (G @ xi))
                assert np.isclose(val, q ** (p / 2.0), rtol=1e-12)
                assert val >= alpha ** (p / 2.0) * np.linalg.norm(xi) ** p - 1e-12

    def test_batched_over_cells(self, box, rng):
        # over the cells of the induced structure, p_operator's weight times
        # G grad u is 2^((p-2)/2) A(grad u), since gamma = 2 (G xi, xi)
        s = induced_structure(analyze(RadialStretch(box, 2.0)), box)
        u = random_function(box, rng)
        for p in (2.0, 3.0, 4.0):
            Ggu, w = _weights(u, PFormContext(s, p))
            ref = 2.0 ** ((p - 2.0) / 2.0) * _flux(s.field.matrices, gradient(u, box), p)
            assert ref.shape == box.cells_shape + (2,)
            assert np.allclose(w[..., None] * Ggu, ref, rtol=1e-12, atol=0.0)
