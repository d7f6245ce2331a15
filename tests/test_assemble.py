"""The stencil-pattern assembly against a Kronecker-product oracle and against
the node-major layout it replaced, the nested-dissection order in which the
solvers factor their blocks and its cache, the gathered blocks against
slices of the full matrix, and the solvers' linear start, built on the
gradient route, against `spsolve` on the assembled stiffness matrix."""

import itertools

import numpy as np
import pytest
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from dirichlet_p.assemble import (
    _SPD_SPLU,
    _block_order,
    _dissection_order,
    _form_slots,
    _SpdBlock,
    assemble_form_matrix,
    stiffness_matrix,
)
from dirichlet_p.grid import GridDomain, GridFunction, GridStructure, unit_structure
from dirichlet_p.pform import PFormContext
from dirichlet_p.solve import SolveOptions, _linear_start, _newton, hessian_matrix

from conftest import linear_reference, random_elliptic_field


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


class TestShapeCaches:
    # the node shapes of one `solvers` benchmark pass
    SHAPES = [(257, 257), (129, 129), (17, 17), (65, 65), (97, 97)]

    @pytest.mark.parametrize("cached", [_dissection_order])
    def test_second_sweep_over_five_shapes_adds_no_misses(self, cached):
        for shape in self.SHAPES:
            cached(shape)
        misses = cached.cache_info().misses
        for shape in self.SHAPES:
            cached(shape)
        assert cached.cache_info().misses == misses


def _node_major_assembly(domain, W):
    """The assembly as written before the offset-major slot planes: a (nodes, 3^d)
    slot array and Python `sum` corner entries.  The current one must match it
    bit for bit."""
    dim = domain.dim
    scale = 0.5 ** (dim - 1) / np.asarray(domain.spacing)
    V = W * np.outer(scale, scale)
    corners = list(itertools.product((0, 1), repeat=dim))

    def signed(terms, corner):
        return sum(t if c else -t for t, c in zip(terms, corner))

    VB = [[signed([V[..., k, l] for l in range(dim)], b) for k in range(dim)] for b in corners]
    slots = np.zeros(domain.shape + (3 ** dim,))
    for a in corners:
        rows = tuple(slice(a_j, a_j + n - 1) for a_j, n in zip(a, domain.shape))
        for b, vb in zip(corners, VB):
            offset = np.ravel_multi_index(tuple(np.subtract(b, a) + 1), (3,) * dim)
            slots[rows + (offset,)] += signed(vb, a)
    # the CSR comes from (row, column) pairs through scipy, sharing no pattern code
    n = domain.num_nodes
    offsets = np.array(list(itertools.product((-1, 0, 1), repeat=dim)))
    nodes = np.indices(domain.shape).reshape(dim, n).T
    neighbours = nodes[:, None, :] + offsets
    inside = np.all((neighbours >= 0) & (neighbours < domain.shape), axis=-1)
    rows = np.repeat(np.arange(n), inside.sum(axis=1))
    cols = np.ravel_multi_index(tuple(neighbours[inside].T), domain.shape)
    A = sp.coo_matrix((slots.reshape(n, -1)[inside], (rows, cols)), shape=(n, n)).tocsr()
    A.eliminate_zeros()
    return A


def _assert_same_csr(A, B):
    assert np.array_equal(A.indptr, B.indptr)
    assert np.array_equal(A.indices, B.indices)
    assert A.data.tobytes() == B.data.tobytes()


class TestOffsetMajorAssembly:
    @pytest.mark.parametrize("shape", [(2, 2), (8, 13), (17, 17), (9,), (2,), (4, 5, 4), (2, 2, 2)])
    @pytest.mark.parametrize("kind", ["spd", "nonsymmetric", "zero_component"])
    def test_matches_node_major(self, shape, kind, rng):
        d = _domain(shape)
        if kind == "spd":
            W = 2.0 * d.measure[..., None, None] * random_elliptic_field(d, rng).matrices
        else:
            W = rng.standard_normal(d.cells_shape + (d.dim, d.dim))
            if kind == "zero_component":
                W[..., 0, -1] = 0.0
        _assert_same_csr(assemble_form_matrix(d, W), _node_major_assembly(d, W))

    @pytest.mark.parametrize("shape", [(2, 2), (8, 8), (17, 17), (9,), (4, 4, 4)])
    def test_identity_field_drops_cancelling_couplings(self, shape):
        # equal spacings: in 2-D the identity field's axis-neighbour couplings
        # cancel exactly, and must not be stored
        d = GridDomain(((0.0, 1.0),) * len(shape), (shape[0],) * len(shape))
        W = 2.0 * d.measure[..., None, None] * np.eye(d.dim)
        A = assemble_form_matrix(d, W)
        _assert_same_csr(A, _node_major_assembly(d, W))
        assert np.all(A.data != 0.0)
        if d.dim == 2:
            # fewer entries than the node pairs of the stencil
            assert A.nnz < np.prod([3 * n - 2 for n in d.shape])


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


def _linear(st, vals, mask):
    """The values of the solvers' linear start, on the node grid."""
    return _linear_start(PFormContext(st, 2.0), vals, mask)[0].reshape(st.domain.node_shape)


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
        full = _SpdBlock(shape, np.arange(np.prod(shape)))
        rows = np.repeat(full.nodes, np.diff(full.indptr))
        assert not np.any(side[rows] * side[full.nodes[full.indices]] < 0)

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
        _linear(st, np.where(mask, 1.0, 0.0), mask)
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
        u = _linear(st, np.where(mask, x, 0.0), mask)
        H = hessian_matrix(GridFunction(u), PFormContext(st, 3.0))
        self._assert_fill_at_most_mmd(H, shape, ~mask.reshape(-1))

    def test_stiffness_block_17_cubed(self, rng):
        shape = (17, 17, 17)
        mask = _box_boundary(shape)
        self._assert_fill_at_most_mmd(stiffness_matrix(_structure(shape, rng)), shape,
                                      ~mask.reshape(-1))


def _assert_rel_close(actual, expected, rtol=1e-12):
    assert np.max(np.abs(actual - expected)) <= rtol * np.max(np.abs(expected))


# 1-D, 2-D and 3-D shapes, each with the radius of its obstacle-style ball
SOLVE_CASES = [((33,), 4), ((17, 13), 3), ((9, 8, 7), 2)]


class TestBlockSolvesMatchSpsolve:
    @pytest.mark.parametrize("shape, radius", SOLVE_CASES)
    def test_linear_start(self, shape, radius, rng):
        # the start keeps the pinned values, ignores the free ones, and hands
        # on the free block in dissection order with the stiffness block's factor
        st = _structure(shape, rng)
        mask = _box_boundary(shape) | _ball(shape, radius)
        vals = np.where(mask, rng.standard_normal(shape), rng.standard_normal(shape))
        u, block = _linear_start(PFormContext(st, 3.0), vals, mask)
        u = u.reshape(shape)
        assert np.array_equal(u[mask], vals[mask])
        _assert_rel_close(u[~mask], linear_reference(st, vals, mask)[~mask])
        free = ~mask.reshape(-1)
        assert np.array_equal(block.keep, free)
        assert np.array_equal(block.nodes, _block_order(shape, free))
        S_oo = stiffness_matrix(st)[block.nodes][:, block.nodes]
        assert np.array_equal(block.lu_diagonal, S_oo.diagonal())
        _assert_rel_close(block.lu.solve(S_oo @ u.reshape(-1)[block.nodes]),
                          u.reshape(-1)[block.nodes])

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
        run = _newton(vals, mask, PFormContext(st, 2.0), SolveOptions(), lower=lower,
                      active=ball.reshape(-1)[free])
        assert run.iterations >= 1 and run.active.any()
        pinned = mask.reshape(-1).copy()
        pinned[free] = run.active
        _assert_rel_close(run.u[~pinned], linear_reference(st, run.u, pinned).reshape(-1)[~pinned])


class TestRescaledFactor:
    """`_SpdBlock.preconditioner`: the kept factor of A_F, rescaled so that the
    operator it inverts, S^-1 A_F S^-1, has exactly H's diagonal."""

    @staticmethod
    def _blocks(rng):
        shape = (9, 8)
        st = _structure(shape, rng)
        mask = _box_boundary(shape)
        block = _SpdBlock(shape, _block_order(shape, ~mask.reshape(-1)))
        A = stiffness_matrix(st)[block.nodes][:, block.nodes]
        u = GridFunction(rng.standard_normal(shape))
        return block, A, hessian_matrix(u, PFormContext(st, 3.0), block=block)

    def test_operator_has_the_hessian_diagonal(self, rng):
        block, A, H = self._blocks(rng)
        assert block.preconditioner(H) is None
        block.factor(A)
        inverse = block.preconditioner(H) @ np.eye(H.shape[0])
        M = np.linalg.inv(inverse)
        s = np.sqrt(A.diagonal() / H.diagonal())
        _assert_rel_close(M, A.toarray() / np.outer(s, s))
        _assert_rel_close(np.diag(M), H.diagonal(), rtol=1e-10)
        _assert_rel_close(inverse, inverse.T)
        assert np.all(np.linalg.eigvalsh(0.5 * (M + M.T)) > 0.0)

    def test_none_without_a_positive_finite_rescaling(self, rng):
        block, A, H = self._blocks(rng)
        block.factor(A)
        for entry in (0.0, -1.0, 1e-320):
            bad = H.tolil()
            bad[3, 3] = entry
            assert block.preconditioner(bad.tocsr()) is None
        assert block.preconditioner(H) is not None

    def test_failed_factorization_keeps_no_factor(self, rng):
        block, A, H = self._blocks(rng)
        block.factor(A)
        singular = A.tolil()
        singular[2, :] = 0.0
        singular[:, 2] = 0.0
        with pytest.raises(RuntimeError):
            block.factor(singular.tocsr())
        assert block.lu is None and block.preconditioner(H) is None


class TestZeroDataSolve:
    @pytest.mark.parametrize("shape, radius", SOLVE_CASES)
    def test_zero_data_returns_zeros_without_factoring(self, shape, radius, rng, monkeypatch):
        import dirichlet_p.assemble as assemble_module

        def no_factor(*args, **kwargs):
            raise AssertionError("zero data must not be factored")

        monkeypatch.setattr(assemble_module.spla, "splu", no_factor)
        ctx = PFormContext(_structure(shape, rng), 2.0)
        mask = _box_boundary(shape) | _ball(shape, radius)
        vals = np.where(mask, 0.0, rng.standard_normal(shape))
        vals[mask & (np.indices(shape)[0] == 0)] = -0.0
        u, block = _linear_start(ctx, vals, mask)
        u = u.reshape(shape)
        assert block is None
        assert np.array_equal(np.signbit(u[mask]), np.signbit(vals[mask]))
        assert np.all(u[~mask] == 0.0) and not np.signbit(u[~mask]).any()
        vals[mask] = rng.standard_normal(shape)[mask]
        with pytest.raises(AssertionError, match="factored"):
            _linear_start(ctx, vals, mask)


BLOCK_SHAPES = [(17,), (9, 9), (16, 13), (6, 5, 7)]


def _block_fields(d, rng):
    """The identity field (whose 2-D axis couplings cancel and are dropped) and a random one."""
    eye = 2.0 * d.measure[..., None, None] * np.eye(d.dim)
    return {"identity": eye,
            "random": 2.0 * d.measure[..., None, None] * random_elliptic_field(d, rng).matrices}


def _unit_spacing(shape):
    # equal spacings, so the identity field's couplings cancel exactly
    return GridDomain(tuple((0.0, n - 1.0) for n in shape), shape)


def _block_masks(shape, rng):
    """A full free block (box boundary pinned) and a holed inactive block."""
    boundary = _box_boundary(shape)
    holed = boundary | _ball(shape, max(1, min(shape) // 4)) | (rng.random(shape) < 0.1)
    return {"free": ~boundary.reshape(-1), "holed": ~holed.reshape(-1)}


class TestGatheredBlock:
    """`_SpdBlock.matrix` against the full matrix sliced by `[nodes][:, nodes]`,
    the way the solvers took their blocks before; the slicing stays here only
    as the oracle."""

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    @pytest.mark.parametrize("field", ["identity", "random"])
    @pytest.mark.parametrize("holes", ["free", "holed"])
    def test_equals_the_sliced_full_matrix_in_stored_order(self, shape, field, holes, rng):
        d = _unit_spacing(shape)
        W = _block_fields(d, rng)[field]
        keep = _block_masks(shape, rng)[holes]
        block = _SpdBlock(shape, _block_order(shape, keep))
        assert np.array_equal(block.keep, keep)
        sliced = assemble_form_matrix(d, W)[block.nodes][:, block.nodes]
        for gathered in (block.matrix(_form_slots(d, W)), assemble_form_matrix(d, W, block)):
            _assert_same_csr(gathered, sliced)
            assert gathered.indices.dtype == np.int32
            _assert_same_csr(gathered.tocsc(), sliced.tocsc())
        if field == "identity" and d.dim == 2:
            assert sliced.nnz < len(block.src)

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    @pytest.mark.parametrize("holes", ["free", "holed"])
    def test_hessian_block(self, shape, holes, rng):
        d = _unit_spacing(shape)
        ctx = PFormContext(GridStructure(d, random_elliptic_field(d, rng)), 3.0)
        u = GridFunction(rng.standard_normal(shape))
        block = _SpdBlock(shape, _block_order(shape, _block_masks(shape, rng)[holes]))
        _assert_same_csr(hessian_matrix(u, ctx, block=block),
                         hessian_matrix(u, ctx)[block.nodes][:, block.nodes])

    def test_pattern_survives_eliminate_zeros(self, rng):
        shape = (9, 9)
        d = _unit_spacing(shape)
        block = _SpdBlock(shape, _block_order(shape, _block_masks(shape, rng)["holed"]))
        pattern = (block.indptr.copy(), block.indices.copy(), block.src.copy())
        for W in _block_fields(d, rng).values():
            block.matrix(_form_slots(d, W)).indices[:] = 0
        assert all(np.array_equal(a, b) for a, b in
                   zip(pattern, (block.indptr, block.indices, block.src)))

    @pytest.mark.parametrize("shape", BLOCK_SHAPES)
    @pytest.mark.parametrize("field", ["identity", "random"])
    @pytest.mark.parametrize("holes", ["free", "holed"])
    def test_linear_start_matches_the_assembled_route(self, shape, field, holes, rng):
        # the start takes its right side from the gradient route (the p = 2
        # operator) and its matrix from the slot planes; the reference takes
        # both from the assembled matrix, S[free][:, free] and S[free][:, mask]
        d = _unit_spacing(shape)
        st = unit_structure(d) if field == "identity" else GridStructure(
            d, random_elliptic_field(d, rng))
        mask = ~_block_masks(shape, rng)[holes].reshape(shape)
        vals = rng.standard_normal(shape)
        u = _linear(st, vals, mask)
        _assert_rel_close(u[~mask], linear_reference(st, vals, mask)[~mask])
