"""The stencil-pattern assembly against a Kronecker-product oracle, its cache,
and the nested-dissection order in which the solvers factor their blocks."""

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dirichlet_p.assemble import (
    _SPD_SPLU,
    _block_order,
    _dissection_order,
    _stencil_pattern,
    assemble_form_matrix,
    solve_linear_dirichlet,
    stiffness_matrix,
)
from dirichlet_p.grid import GridDomain, GridFunction, GridStructure
from dirichlet_p.pform import PFormContext
from dirichlet_p.solve import SolveOptions, _newton, hessian_matrix

from conftest import random_elliptic_field


def _two_point_1d(n: int, left: float, right: float) -> sp.csr_matrix:
    """(n-1) x n matrix whose row i is left * e_i + right * e_(i+1)."""
    rows = np.repeat(np.arange(n - 1), 2)
    cols = rows + np.tile([0, 1], n - 1)
    data = np.tile([left, right], n - 1)
    return sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))


def _gradient_operators(domain: GridDomain) -> list[sp.csr_matrix]:
    """Sparse maps D_k from flat node values to flat cell-gradient components."""
    ops = []
    h = domain.spacing
    for axis in range(domain.dim):
        op = None
        for j, n in enumerate(domain.shape):
            f = (_two_point_1d(n, -1.0 / h[axis], 1.0 / h[axis]) if j == axis
                 else _two_point_1d(n, 0.5, 0.5))
            op = f if op is None else sp.kron(op, f, format="csr")
        ops.append(op)
    return ops


def _kronecker_oracle(domain: GridDomain, W: np.ndarray) -> sp.csr_matrix:
    """sum_kl D_k^T diag(W_kl) D_l, skipping all-zero components."""
    ops = _gradient_operators(domain)
    n = domain.num_nodes
    A = sp.csr_matrix((n, n))
    for k in range(domain.dim):
        for l in range(domain.dim):
            w = W[..., k, l].reshape(-1)
            if np.any(w):
                A = A + ops[k].T @ sp.diags(w) @ ops[l]
    return A.tocsr()


def _domain(shape, density=None):
    # unequal spacings, so no coupling cancels by symmetry of the box
    return GridDomain(tuple((0.0, 1.0 + 0.5 * j) for j in range(len(shape))), shape, density)


def _assert_matches_oracle(domain, W):
    A = assemble_form_matrix(domain, W)
    K = _kronecker_oracle(domain, W)
    scale = abs(K).max()
    np.testing.assert_allclose(A.toarray(), K.toarray(), rtol=1e-14, atol=1e-14 * scale)
    assert A.has_sorted_indices
    assert A.indices.dtype == np.int32


SHAPES = [(9,), (7, 6), (4, 5, 4)]


class TestAgainstKroneckerOracle:
    @pytest.mark.parametrize("shape", SHAPES)
    def test_random_anisotropic(self, shape, rng):
        d = _domain(shape)
        _assert_matches_oracle(d, 2.0 * d.measure[..., None, None]
                               * random_elliptic_field(d, rng).matrices)

    @pytest.mark.parametrize("shape", SHAPES)
    def test_density(self, shape, rng):
        d = _domain(shape, density=rng.uniform(0.5, 2.0, tuple(s - 1 for s in shape)))
        _assert_matches_oracle(d, 2.0 * d.measure[..., None, None]
                               * np.broadcast_to(np.eye(len(shape)), d.cells_shape + (d.dim,) * 2))

    @pytest.mark.parametrize("shape", SHAPES)
    def test_nonsymmetric_cell_matrices(self, shape, rng):
        d = _domain(shape)
        _assert_matches_oracle(d, rng.standard_normal(d.cells_shape + (d.dim, d.dim)))

    @pytest.mark.parametrize("shape", SHAPES[1:])
    def test_one_all_zero_component(self, shape, rng):
        d = _domain(shape)
        W = random_elliptic_field(d, rng).matrices.copy()
        W[..., 0, 0] = 0.0
        _assert_matches_oracle(d, W)

    def test_identity_field_drops_exact_zero_couplings(self):
        # on equal spacings the axis-neighbour couplings cancel exactly
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (9, 9))
        W = np.broadcast_to(np.eye(2), d.cells_shape + (2, 2))
        A = assemble_form_matrix(d, W)
        K = _kronecker_oracle(d, W)
        assert A.nnz == K.nnz == 81 + 4 * 64
        assert np.all(A.data != 0.0)
        assert (A != K).nnz == 0


class TestPatternCache:
    def test_cached_arrays_are_read_only(self):
        for arr in _stencil_pattern((5, 6)):
            assert not arr.flags.writeable

    def test_writes_into_an_assembled_matrix_leave_the_cache_intact(self, rng):
        d = _domain((7, 6))
        W = random_elliptic_field(d, rng).matrices
        A = assemble_form_matrix(d, W)
        A.eliminate_zeros()
        A.indices[:] = 0
        A.indptr[:] = 0
        again = assemble_form_matrix(d, W)
        _stencil_pattern.cache_clear()
        fresh = assemble_form_matrix(d, W)
        assert np.array_equal(again.indptr, fresh.indptr)
        assert np.array_equal(again.indices, fresh.indices)
        assert np.array_equal(again.data, fresh.data)


class TestShapeCaches:
    # the node shapes of one `solvers` benchmark pass
    SHAPES = [(257, 257), (129, 129), (17, 17), (65, 65), (97, 97)]

    @pytest.mark.parametrize("cached", [_stencil_pattern, _dissection_order])
    def test_second_sweep_over_five_shapes_adds_no_misses(self, cached):
        for shape in self.SHAPES:
            cached(shape)
        misses = cached.cache_info().misses
        for shape in self.SHAPES:
            cached(shape)
        assert cached.cache_info().misses == misses


def _box_boundary(shape):
    mask = np.zeros(shape, dtype=bool)
    for axis in range(len(shape)):
        mask[(slice(None),) * axis + (0,)] = True
        mask[(slice(None),) * axis + (-1,)] = True
    return mask


def _ball(shape, radius):
    coords = np.indices(shape) - (np.array(shape) // 2).reshape((-1,) + (1,) * len(shape))
    return np.sum(coords ** 2, axis=0) <= radius ** 2


def _structure(shape, rng):
    d = _domain(shape)
    return GridStructure(d, random_elliptic_field(d, rng))


class TestDissectionOrder:
    @pytest.mark.parametrize("shape", [(2,), (9,), (2, 2), (8, 13), (17, 17), (5, 6, 7),
                                       (17, 17, 17)])
    def test_is_a_permutation(self, shape):
        order = _dissection_order(shape)
        assert np.array_equal(np.sort(order), np.arange(np.prod(shape)))

    @pytest.mark.parametrize("shape", [(9,), (8, 13), (17, 17), (5, 6, 7), (17, 17, 17)])
    def test_halves_come_first_and_the_middle_plane_last(self, shape):
        axis = int(np.argmax(shape))
        mid = shape[axis] // 2
        side = np.sign(np.indices(shape)[axis].reshape(-1) - mid)
        order = _dissection_order(shape)
        n_lower, n_sep = int(np.sum(side < 0)), int(np.sum(side == 0))
        assert np.all(side[order[:n_lower]] < 0)
        assert np.all(side[order[n_lower:-n_sep]] > 0)
        assert np.all(side[order[-n_sep:]] == 0)
        # no 3^d-stencil pair couples the two halves
        indptr, indices, _ = _stencil_pattern(shape)
        rows = np.repeat(np.arange(len(indptr) - 1), np.diff(indptr))
        assert not np.any(side[rows] * side[indices] < 0)

    @pytest.mark.parametrize("shape", [(9,), (8, 13), (5, 6, 7)])
    def test_filtered_order_holds_exactly_the_kept_nodes(self, shape, rng):
        keep = rng.random(int(np.prod(shape))) < 0.6
        o = _block_order(shape, keep)
        assert np.array_equal(np.sort(o), np.flatnonzero(keep))
        rank = np.argsort(_dissection_order(shape))
        assert np.all(np.diff(rank[o]) > 0)

    def test_cache_is_read_only_and_blocks_are_copies(self, rng):
        shape = (8, 13)
        cached = _dissection_order(shape)
        assert not cached.flags.writeable
        o = _block_order(shape, np.ones(cached.size, dtype=bool))
        assert not np.shares_memory(o, cached)
        o[:] = 0
        st = _structure(shape, rng)
        mask = _box_boundary(shape)
        solve_linear_dirichlet(st, np.where(mask, 1.0, 0.0), mask)
        kept = np.array(cached)
        _dissection_order.cache_clear()
        assert np.array_equal(_dissection_order(shape), kept)
        assert np.array_equal(_dissection_order(shape), cached)


def _lu_fill(A, **options):
    lu = spla.splu(A.tocsc(), **options)
    return lu.L.nnz + lu.U.nnz


class TestDissectionFill:
    """The dissection order fills no more than SuperLU's own minimum degree,
    which serves only as the oracle here."""

    def _assert_fill_at_most_mmd(self, A, shape, free):
        o = _block_order(shape, free)
        mmd = _lu_fill(A.tocsc()[free][:, free], **dict(_SPD_SPLU, permc_spec="MMD_AT_PLUS_A"))
        assert _lu_fill(A[o][:, o], **_SPD_SPLU) <= mmd

    def test_hessian_block_65_squared_p3(self, rng):
        shape = (65, 65)
        st = _structure(shape, rng)
        mask = _box_boundary(shape)
        x = np.indices(shape)[0] / (shape[0] - 1)
        u = solve_linear_dirichlet(st, np.where(mask, x, 0.0), mask)
        H = hessian_matrix(GridFunction(u), PFormContext(st, 3.0))
        self._assert_fill_at_most_mmd(H, shape, ~mask.reshape(-1))

    def test_stiffness_block_17_cubed(self, rng):
        shape = (17, 17, 17)
        mask = _box_boundary(shape)
        self._assert_fill_at_most_mmd(stiffness_matrix(_structure(shape, rng)), shape,
                                      ~mask.reshape(-1))


def _spsolve_block(st, vals, pinned):
    """Reference: spsolve on the unpinned block with the pinned values moved right."""
    S = stiffness_matrix(st).tocsc()
    pinned = pinned.reshape(-1)
    vals = vals.reshape(-1)
    rhs = -S[~pinned][:, pinned] @ vals[pinned]
    return spla.spsolve(S[~pinned][:, ~pinned], rhs)


def _assert_rel_close(actual, expected, rtol=1e-12):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


# 1-D, 2-D and 3-D shapes, each with the radius of its obstacle-style ball
SOLVE_CASES = [((33,), 4), ((17, 13), 3), ((9, 8, 7), 2)]


class TestBlockSolvesMatchSpsolve:
    @pytest.mark.parametrize("shape, radius", SOLVE_CASES)
    def test_solve_linear_dirichlet(self, shape, radius, rng):
        st = _structure(shape, rng)
        mask = _box_boundary(shape) | _ball(shape, radius)
        vals = np.where(mask, rng.standard_normal(shape), 0.0)
        u = solve_linear_dirichlet(st, vals, mask)
        assert np.array_equal(u[mask], vals[mask])
        _assert_rel_close(u[~mask], _spsolve_block(st, vals, mask))

    @pytest.mark.parametrize("shape, radius", SOLVE_CASES)
    def test_newton_step_on_an_inactive_block(self, shape, radius, rng):
        # at p = 2 the last Newton step lands on the linear solution of the
        # inactive block: the ball starts active on an obstacle above the
        # boundary data, and stays so but for nodes with a negative multiplier
        st = _structure(shape, rng)
        mask = _box_boundary(shape)
        ball = _ball(shape, radius)
        lower = np.where(ball, 2.0, -np.inf)
        vals = np.where(mask, np.indices(shape)[0] / (shape[0] - 1), np.where(ball, 2.0, 0.0))
        free = ~mask.reshape(-1)
        u, _res, iterations, _, _, active, _ = _newton(
            vals, mask, PFormContext(st, 2.0), SolveOptions(), lower=lower,
            active=ball.reshape(-1)[free])
        assert iterations >= 1 and active.any()
        pinned = mask.reshape(-1).copy()
        pinned[free] = active
        _assert_rel_close(u[~pinned], _spsolve_block(st, u, pinned))
