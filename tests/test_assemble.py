"""The stencil-pattern assembly against a Kronecker-product oracle, and its cache."""

import numpy as np
import pytest
import scipy.sparse as sp

from dirichlet_p.assemble import _stencil_pattern, assemble_form_matrix
from dirichlet_p.grid import GridDomain

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
