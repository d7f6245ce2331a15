import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dirichlet_p.assemble import mass_matrix, stiffness_matrix
from dirichlet_p.grid import (
    CoefficientField,
    GridDomain,
    GridFunction,
    GridStructure,
    ShapeMismatchError,
    boundary_mask,
    carre_du_champ,
    cell_mean,
    dp_norm,
    energy,
    gamma,
    gradient,
    gradient_adjoint,
    join,
    meet,
    unit_structure,
)
from dirichlet_p.grid import _avg_adjoint, _length, _sym_eigvalsh
from conftest import (
    assert_passes_validation,
    random_2x2_blocks,
    random_elliptic_field,
    random_function,
)


class TestGridDomain:
    def test_basic_counts(self):
        d = GridDomain(((0.0, 1.0), (0.0, 2.0)), (5, 9))
        assert d.dim == 2
        assert d.num_nodes == 45
        assert d.num_cells == 32
        assert d.spacing == (0.25, 0.25)
        assert np.isclose(d.total_measure, 2.0)

    def test_density_measure(self):
        dens = np.full((4,), 3.0)
        d = GridDomain(((0.0, 1.0),), (5,), dens)
        assert np.allclose(d.measure, 3.0 * 0.25)
        assert np.isclose(d.total_measure, 3.0)

    @pytest.mark.parametrize("with_density", [False, True])
    def test_measure_is_cached_and_read_only(self, with_density, rng):
        dens = rng.uniform(0.5, 2.0, (4, 6)) if with_density else None
        d = GridDomain(((0.0, 1.0), (0.0, 3.0)), (5, 7), dens)
        m = d.measure
        assert m is d.measure and d.spacing is d.spacing
        assert not m.flags.writeable
        with pytest.raises(ValueError):
            m[0, 0] = 1.0
        volume = 0.25 * 0.5
        fresh = dens * volume if with_density else np.full((4, 6), volume)
        assert m.tobytes() == fresh.tobytes()

    def test_validation(self):
        with pytest.raises(ValueError):
            GridDomain(((1.0, 0.0),), (5,))
        with pytest.raises(ValueError):
            GridDomain(((0.0, 1.0),), (1,))
        with pytest.raises(ValueError):
            GridDomain(((0.0, 1.0),) * 4, (3, 3, 3, 3))
        with pytest.raises(ValueError):
            GridDomain(((0.0, 1.0),), (5,), np.array([1.0, -1.0, 1.0, 1.0]))

    @pytest.mark.parametrize("shape", [(9.7, 9), (9, 9.0), (True, 9), ("9", 9)],
                             ids=["fraction", "integral-float", "boolean", "string"])
    def test_shape_that_is_not_an_integer_is_refused(self, shape):
        # int() would truncate 9.7 to a 9-node axis and read True as 1
        with pytest.raises(TypeError):
            GridDomain(((0.0, 1.0), (0.0, 1.0)), shape)
        assert GridDomain(((0.0, 1.0), (0.0, 1.0)), (np.int64(9), 9)).shape == (9, 9)

    def test_node_mass_sums_to_measure(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (5, 7))
        assert np.isclose(np.sum(d.node_mass), d.total_measure)
        d1 = GridDomain(((0.0, 1.0),), (5,))
        assert np.allclose(d1.node_mass, [0.125, 0.25, 0.25, 0.25, 0.125])

    @pytest.mark.parametrize("density", [None, "random"])
    def test_node_mass_is_built_once_and_read_only(self, density, rng):
        extent, shape = ((0.0, 1.0), (0.0, 2.0), (-1.0, 1.0)), (5, 7, 4)
        dens = None if density is None else rng.uniform(0.5, 2.0, (4, 6, 3))
        d = GridDomain(extent, shape, dens)
        mass = d.node_mass
        assert mass is d.node_mass and not mass.flags.writeable
        # the per-call formula it replaces: each cell's measure split over its corners
        ref = d.measure / 2 ** d.dim
        for axis in range(d.dim):
            ref = _avg_adjoint(ref, axis, weight=1.0)
        assert mass.shape == shape and np.array_equal(mass, ref)
        with pytest.raises(ValueError):
            mass[0, 0, 0] = 1.0

    def test_refined_keeps_box(self):
        d = GridDomain(((0.0, 1.0), (0.0, 2.0)), (5, 9))
        r = d.refined()
        assert r.shape == (9, 17)
        assert r.extent == d.extent
        assert np.isclose(r.total_measure, d.total_measure)


class TestCoefficientField:
    def test_identity_and_scalar(self, square):
        f = CoefficientField.identity(square)
        assert f.alpha == f.beta == 1.0
        g = CoefficientField.scalar(square, 2.5)
        assert g.alpha == g.beta == 2.5

    @pytest.mark.parametrize("build", [CoefficientField.identity,
                                       lambda d: CoefficientField.scalar(d, 2.5)],
                             ids=["identity", "scalar"])
    @pytest.mark.parametrize("dim", [1, 2, 3])
    def test_fields_built_without_checks_pass_them(self, build, dim):
        d = GridDomain(((0.0, 1.0),) * dim, (4, 5, 3)[:dim])
        fld = build(d)
        assert fld.matrices.shape == d.cells_shape + (dim, dim)
        assert_passes_validation(fld)

    @pytest.mark.parametrize("value", [0.0, -1.0, np.inf, np.nan])
    def test_scalar_rejects_nonpositive_and_nonfinite(self, square, value):
        with pytest.raises(ValueError, match="scalar"):
            CoefficientField.scalar(square, value)

    def test_rejects_asymmetric(self, square):
        mats = np.broadcast_to(np.array([[1.0, 0.5], [0.0, 1.0]]),
                               square.cells_shape + (2, 2))
        with pytest.raises(ValueError, match="symmetric"):
            CoefficientField(np.array(mats), 0.5, 2.0)

    def test_rejects_eigenvalues_outside_bounds(self, square):
        mats = np.broadcast_to(3.0 * np.eye(2), square.cells_shape + (2, 2))
        with pytest.raises(ValueError, match="bounds"):
            CoefficientField(np.array(mats), 0.5, 2.0)

    def test_random_elliptic_passes_validation(self, square, rng):
        fld = random_elliptic_field(square, rng)
        assert fld.alpha == 0.5 and fld.beta == 2.0


    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("bad", [np.nan, np.inf])
    def test_rejects_nonfinite_entries(self, square, bad):
        mats = np.array(np.broadcast_to(np.eye(2), square.cells_shape + (2, 2)))
        mats[3, 4, 1, 1] = bad
        with pytest.raises(ValueError, match="bounds"):
            CoefficientField(mats, 0.5, 2.0)


class TestSymEigvalsh:
    @pytest.mark.parametrize("kind", ["random", "near_singular", "conformal"])
    def test_2x2_matches_lapack(self, kind):
        mats = random_2x2_blocks()[kind]
        ref = np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
        scale = np.max(np.abs(ref), axis=-1, keepdims=True)  # spectral norm
        assert np.all(np.abs(_sym_eigvalsh(mats) - ref) <= 1e-14 * scale)

    def test_2x2_graded_block_keeps_small_eigenvalue(self, rng):
        # D C D with D = diag(1, 1e-6): eigenvalues near 1 and 1e-12, where
        # m - r would cancel to about 2e-4 relative
        q, _ = np.linalg.qr(rng.standard_normal((1000, 2, 2)))
        C = np.einsum("...ij,...j,...kj->...ik", q, rng.uniform(0.5, 2.0, (1000, 2)), q)
        D = np.array([1.0, 1e-6])
        mats = C * D[:, None] * D[None, :]
        lo = np.linalg.eigvalsh(mats)[:, 0]
        assert np.all(np.abs(_sym_eigvalsh(mats)[:, 0] - lo) <= 1e-13 * lo)

    def test_2x2_edge_blocks(self):
        mats = np.array([np.zeros((2, 2)), -np.eye(2), np.diag([-3.0, 2.0]),
                         [[0.0, 1.0], [1.0, 0.0]], [[1.0, 2.0], [0.0, 1.0]]])
        expected = [[0.0, 0.0], [-1.0, -1.0], [-3.0, 2.0], [-1.0, 1.0], [0.0, 2.0]]
        assert np.allclose(_sym_eigvalsh(mats), expected, rtol=0.0, atol=1e-15)

    @pytest.mark.parametrize("n", [1, 3])
    def test_other_sizes_are_lapack(self, rng, n):
        mats = rng.standard_normal((50, n, n))
        assert np.array_equal(_sym_eigvalsh(mats),
                              np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2))))


class TestLength:
    """grid._length against np.linalg.norm(v, axis=-1); squares that overflow
    give inf on both sides (numpy's overflow warning is silenced)."""

    @pytest.fixture(autouse=True)
    def _quiet_overflow(self):
        with np.errstate(over="ignore"):
            yield

    @pytest.mark.parametrize("shape", [(3,), (7, 2), (5, 6, 3), (3, 4, 5, 2), (4, 1)])
    @pytest.mark.parametrize("magnitude", ["unit", "1e150", "1e-150", "mixed"])
    def test_equals_numpy_norm_bitwise(self, rng, shape, magnitude):
        v = rng.standard_normal(shape)
        if magnitude == "mixed":
            v *= 10.0 ** rng.uniform(-160.0, 160.0, shape)
        elif magnitude != "unit":
            v *= float(magnitude)
        v.reshape(-1)[::5] = 0.0
        expected = np.linalg.norm(v, axis=-1)
        assert np.array_equal(_length(v), expected)
        # on strided component planes too, and with integer coordinates
        assert np.array_equal(_length(v[..., ::-1]), np.linalg.norm(v[..., ::-1], axis=-1))
        ints = np.round(100.0 * rng.standard_normal(shape)).astype(int)
        assert np.array_equal(_length(ints), np.linalg.norm(ints, axis=-1))

    def test_zeros_and_overflow(self):
        v = np.array([[0.0, 0.0], [-0.0, 0.0], [1e155, 1e155], [1e-170, 1e-170]])
        assert np.array_equal(_length(v), np.linalg.norm(v, axis=-1))
        assert _length(v)[2] == np.inf and _length(v)[3] == 0.0


class TestGradient:
    def test_constant_gives_zero(self, square):
        u = GridFunction.constant(square, 4.2)
        assert np.all(gradient(u, square) == 0.0)

    def test_1d_linear_exact(self):
        for shape in (2, 5, 33):
            d = GridDomain(((0.0, 1.0),), (shape,))
            u = GridFunction.from_callable(d, lambda x: x)
            assert np.allclose(gradient(u, d), 1.0, atol=1e-14)

    def test_2d_affine_exact(self, square):
        u = GridFunction.from_callable(square, lambda x, y: 3 * x - 2 * y)
        g = gradient(u, square)
        assert np.allclose(g[..., 0], 3.0, atol=1e-13)
        assert np.allclose(g[..., 1], -2.0, atol=1e-13)

    def test_linearity(self, square, rng):
        u = random_function(square, rng)
        v = random_function(square, rng)
        a, b = 2.25, -0.75
        lhs = gradient(GridFunction(a * u.values + b * v.values), square)
        rhs = a * gradient(u, square) + b * gradient(v, square)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_shape_mismatch(self, square):
        with pytest.raises(ShapeMismatchError):
            gradient(np.zeros((3, 3)), square)

    def test_adjoint_identity(self, square, rng):
        q = rng.standard_normal(square.cells_shape + (2,))
        v = random_function(square, rng)
        lhs = float(np.sum(gradient_adjoint(q, square) * v.values))
        rhs = float(np.sum(q * gradient(v, square)))
        assert np.isclose(lhs, rhs, rtol=1e-13)


class TestCarreDuChamp:
    def test_constant_partner_vanishes(self, square_structure, square, rng):
        u = random_function(square, rng)
        v = GridFunction.constant(square, 7.0)
        assert np.all(carre_du_champ(u, v, square_structure) == 0.0)

    def test_1d_linear_value(self):
        d = GridDomain(((0.0, 1.0),), (9,))
        s = unit_structure(d)
        u = GridFunction.from_callable(d, lambda x: x)
        assert np.allclose(gamma(u, s), 2.0)

    def test_2d_orthogonal(self, square_structure, square):
        u = GridFunction.from_callable(square, lambda x, y: x)
        v = GridFunction.from_callable(square, lambda x, y: y)
        assert np.allclose(carre_du_champ(u, v, square_structure), 0.0, atol=1e-14)
        assert np.allclose(gamma(u, square_structure), 2.0)

    def test_symmetry_bilinearity(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        u, v, w = (random_function(square, rng) for _ in range(3))
        assert np.allclose(carre_du_champ(u, v, s), carre_du_champ(v, u, s), rtol=1e-12)
        lhs = carre_du_champ(GridFunction(2.0 * u.values + 3.0 * w.values), v, s)
        rhs = 2.0 * carre_du_champ(u, v, s) + 3.0 * carre_du_champ(w, v, s)
        assert np.allclose(lhs, rhs, atol=1e-10 * np.max(np.abs(rhs)))

    def test_cauchy_schwarz_per_cell(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        for _ in range(50):
            u = random_function(square, rng)
            v = random_function(square, rng)
            guv = carre_du_champ(u, v, s)
            gu = gamma(u, s)
            gv = gamma(v, s)
            bound = np.sqrt(np.maximum(gu, 0.0) * np.maximum(gv, 0.0))
            assert np.all(np.abs(guv) <= bound + 1e-12 * np.maximum(bound, 1.0))

    def test_subadditivity_per_cell(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        for _ in range(50):
            u = random_function(square, rng)
            v = random_function(square, rng)
            lhs = np.sqrt(np.maximum(gamma(GridFunction(u.values + v.values), s), 0.0))
            rhs = np.sqrt(np.maximum(gamma(u, s), 0.0)) + np.sqrt(np.maximum(gamma(v, s), 0.0))
            assert np.all(lhs <= rhs + 1e-12 * np.maximum(rhs, 1.0))


class TestEnergy:
    def test_constant_zero(self, square_structure, square):
        u = GridFunction.constant(square, 3.0)
        assert energy(u, u, square_structure) == 0.0

    def test_1d_linear_unit(self):
        d = GridDomain(((0.0, 1.0),), (7,))
        u = GridFunction.from_callable(d, lambda x: x)
        assert np.isclose(energy(u, u, unit_structure(d)), 1.0)

    def test_2d_sum_coordinates(self, square, square_structure):
        u = GridFunction.from_callable(square, lambda x, y: x + y)
        assert np.isclose(energy(u, u, square_structure), 2.0)

    def test_positive_semidefinite_and_symmetric(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        for _ in range(20):
            u = random_function(square, rng)
            v = random_function(square, rng)
            assert energy(u, u, s) >= 0.0
            assert np.isclose(energy(u, v, s), energy(v, u, s), rtol=1e-12)

    def test_matches_assembled_quadratic_form(self, square, rng):
        s = GridStructure(square, random_elliptic_field(square, rng))
        S = stiffness_matrix(s)
        for _ in range(10):
            u = random_function(square, rng)
            v = random_function(square, rng)
            direct = energy(u, v, s)
            matrix = 0.5 * float(u.values.reshape(-1) @ (S @ v.values.reshape(-1)))
            assert np.isclose(direct, matrix, rtol=1e-12, atol=1e-13)

    def test_mass_matrix_matches_cell_average_integral(self, square, rng):
        M = mass_matrix(square)
        for _ in range(5):
            u = random_function(square, rng)
            direct = float(np.sum(cell_mean(u, square) ** 2 * square.measure))
            matrix = float(u.values.reshape(-1) @ (M @ u.values.reshape(-1)))
            assert np.isclose(direct, matrix, rtol=1e-12)


class TestDpNorm:
    def test_zero(self, square_structure, square):
        assert dp_norm(GridFunction.constant(square, 0.0), square_structure, 3.0) == 0.0

    def test_single_cell_hand_value(self):
        d = GridDomain(((0.0, 1.0),), (2,))
        u = GridFunction.from_callable(d, lambda x: x)
        assert np.isclose(dp_norm(u, unit_structure(d), 2.0), 1.5)

    def test_homogeneity(self, square, square_structure, rng):
        u = random_function(square, rng)
        for t in (-2.5, 0.5, 3.0):
            lhs = dp_norm(GridFunction(t * u.values), square_structure, 2.5)
            assert np.isclose(lhs, abs(t) * dp_norm(u, square_structure, 2.5), rtol=1e-12)

    def test_rejects_small_p(self, square, square_structure):
        with pytest.raises(ValueError):
            dp_norm(GridFunction.constant(square, 1.0), square_structure, 1.0)

    @settings(max_examples=30, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), p=st.sampled_from([2.0, 2.5, 3.0, 4.0]))
    def test_triangle_inequality(self, seed, p):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (6, 6))
        s = unit_structure(d)
        r = np.random.default_rng(seed)
        u = GridFunction(r.standard_normal(d.node_shape))
        v = GridFunction(r.standard_normal(d.node_shape))
        lhs = dp_norm(GridFunction(u.values + v.values), s, p)
        rhs = dp_norm(u, s, p) + dp_norm(v, s, p)
        assert lhs <= rhs * (1.0 + 1e-12)


class TestLatticeOps:
    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1))
    def test_meet_join_identity(self, seed):
        r = np.random.default_rng(seed)
        u = GridFunction(r.standard_normal((5, 5)))
        v = GridFunction(r.standard_normal((5, 5)))
        total = meet(u, v).values + join(u, v).values
        assert np.array_equal(total, u.values + v.values)

    def test_mask_merge_conflict(self, square):
        m1 = boundary_mask(square)
        m2 = np.zeros(square.node_shape, dtype=bool)
        m2[0, 0] = True
        u = GridFunction(np.ones(square.node_shape), m1)
        v = GridFunction(np.ones(square.node_shape), m2)
        with pytest.raises(ShapeMismatchError):
            meet(u, v)


class TestTruncationLocality:
    """Level-set locality of the meet: exact on aligned cells, O(h) in aggregate."""

    @staticmethod
    def _per_cell_sides(diff: np.ndarray, domain: GridDomain):
        lo = diff
        hi = diff
        for axis in range(domain.dim):
            sl0 = [slice(None)] * domain.dim
            sl1 = [slice(None)] * domain.dim
            sl0[axis] = slice(None, -1)
            sl1[axis] = slice(1, None)
            lo = np.minimum(lo[tuple(sl0)], lo[tuple(sl1)])
            hi = np.maximum(hi[tuple(sl0)], hi[tuple(sl1)])
        return lo, hi

    def _deviation(self, shape: int, seed: int) -> tuple[float, float]:
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (shape, shape))
        s = unit_structure(d)
        r = np.random.default_rng(seed)
        u = GridFunction.from_callable(d, lambda x, y: np.sin(3 * x) + 0.3 * y)
        v = GridFunction.from_callable(d, lambda x, y: 0.5 * np.cos(2 * y) + 0.4 * x)
        w = GridFunction(r.standard_normal(d.node_shape))
        guw = carre_du_champ(u, w, s)
        gvw = carre_du_champ(v, w, s)
        gmw = carre_du_champ(meet(u, v), w, s)
        lo, hi = self._per_cell_sides(u.values - v.values, d)
        below = hi < 0.0   # u < v strictly on every corner
        above = lo > 0.0
        scale = np.max(np.abs(guw)) + np.max(np.abs(gvw))
        aligned_dev = np.where(below, np.abs(gmw - guw),
                               np.where(above, np.abs(gmw - gvw), 0.0))
        aligned_err = float(np.max(aligned_dev[below | above])) if (below | above).any() else 0.0
        # straddling cells deviate from both branches; the band has O(h) mass
        straddle = ~(below | above)
        nearest = np.minimum(np.abs(gmw - guw), np.abs(gmw - gvw))
        straddle_mass = float(np.sum(np.where(straddle, nearest, 0.0) * d.measure))
        return aligned_err / scale, straddle_mass / scale

    def test_exact_on_aligned_cells(self):
        aligned_err, _ = self._deviation(17, 5)
        assert aligned_err <= 1e-13

    def test_aggregate_deviation_shrinks_with_h(self):
        _, coarse = self._deviation(17, 5)
        _, fine = self._deviation(33, 5)
        assert fine <= 0.75 * coarse
