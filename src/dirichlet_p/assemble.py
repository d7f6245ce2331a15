"""Sparse assembly of the grid bilinear forms.

Assembles quadratic forms

    u^T A v = sum_cells sum_kl w_kl(c) (grad u)_k (grad v)_l

from per-cell coefficient matrices w.  With w = 2 m G this is the matrix of
the bilinear map (u, v) -> int gamma(u, v) dm, i.e. the linear operator at
p = 2.  Each cell adds its 2^d x 2^d corner matrix into a fixed CSR
pattern of the 3^d-point node stencil, which is built once per node shape.
The slots are kept offset-major, one node-shaped plane per stencil offset,
so each corner pair adds into one contiguous plane; in 2-D the corner
entries are four signed sums written out in closed form.  This route
shares no code with the algebraic gradient/adjoint pipeline, so the two
can cross-check each other.

The symmetric positive definite blocks that the solvers factor (free or
inactive nodes) are taken in a geometric nested-dissection order of the
node grid, also built once per node shape: the subsequence of that order
on a block's nodes is again a dissection order, at O(n) cost per block.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import GridDomain, GridStructure

__all__ = [
    "cell_average_operator",
    "assemble_form_matrix",
    "stiffness_matrix",
    "mass_matrix",
    "solve_linear_dirichlet",
]

# `splu` options for the symmetric positive definite blocks, which arrive in
# the dissection order of `_block_order`: no ordering of its own, kept
# symmetric, with diagonal pivots (stable for SPD matrices in any symmetric order)
_SPD_SPLU = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
             "options": {"SymmetricMode": True}}

# bound of the per-node-shape caches; one `solvers` benchmark pass meets five shapes
_SHAPE_CACHE = 16


def _two_point_1d(n: int, left: float, right: float) -> sp.csr_matrix:
    """(n-1) x n matrix whose row i is left * e_i + right * e_(i+1)."""
    rows = np.repeat(np.arange(n - 1), 2)
    cols = rows + np.tile([0, 1], n - 1)
    data = np.tile([left, right], n - 1)
    return sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))


def cell_average_operator(domain: GridDomain) -> sp.csr_matrix:
    """Sparse map from flat node values to flat cell corner-averages."""
    op = None
    for n in domain.shape:
        f = _two_point_1d(n, 0.5, 0.5)
        op = f if op is None else sp.kron(op, f, format="csr")
    return op


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _stencil_pattern(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """CSR (indptr, indices) of the 3^d-point stencil on a node grid, and its slot mask.

    Slot (i, o) couples node i with node i + o for the offset o in
    {-1, 0, 1}^d (lexicographic order, so each row's columns ascend);
    `keep`, flat in node-major (i, o) order, marks the slots whose
    neighbour lies in the grid.  The arrays are int32 (and bool) and
    read-only.
    """
    dim = len(shape)
    keep = np.ones(shape + (3,) * dim, dtype=bool)
    for axis, n in enumerate(shape):
        along = np.arange(n)[:, None] + np.arange(-1, 2)
        view = [1] * (2 * dim)
        view[axis], view[dim + axis] = n, 3
        keep &= ((along >= 0) & (along < n)).reshape(view)
    num_nodes = int(np.prod(shape))
    keep = keep.reshape(num_nodes, 3 ** dim)
    strides = [int(np.prod(shape[j + 1:])) for j in range(dim)]
    offsets = np.array([np.dot(o, strides) for o in itertools.product((-1, 0, 1), repeat=dim)],
                       dtype=np.int32)
    indices = (np.arange(num_nodes, dtype=np.int32)[:, None] + offsets)[keep]
    indptr = np.zeros(num_nodes + 1, dtype=np.int32)
    np.cumsum(keep.sum(axis=1), out=indptr[1:])
    keep = keep.reshape(-1)
    for arr in (indptr, indices, keep):
        arr.setflags(write=False)
    return indptr, indices, keep


@functools.lru_cache(maxsize=_SHAPE_CACHE)
def _dissection_order(shape: tuple[int, ...]) -> np.ndarray:
    """Geometric nested-dissection order of the flat nodes of a grid.

    A box of nodes is cut at the middle node of its longest axis (the first
    such axis on ties); the two halves are ordered first, recursively, and
    the separator plane last.  Boxes with at most 2 nodes per axis are
    leaves.  Leaves and separators keep their nodes' lexicographic order.
    Built level by level over all boxes at once; the array is read-only.
    """
    dim = len(shape)
    n = int(np.prod(shape))
    coords = np.indices(shape).reshape(dim, n).T
    order = np.empty(n, dtype=np.intp)
    nodes = np.arange(n)
    box = np.zeros(n, dtype=np.intp)
    lo = np.zeros((1, dim), dtype=np.intp)
    hi = np.array([shape], dtype=np.intp)
    start = np.zeros(1, dtype=np.intp)
    while nodes.size:
        b = np.arange(len(lo))
        ext = hi - lo
        axis = np.argmax(ext, axis=1)
        cut = ext[b, axis] > 2
        mid = lo[b, axis] + ext[b, axis] // 2
        # place each leaf box whole, and each cut box's separator plane after its halves
        plo, phi = lo.copy(), hi.copy()
        plo[b[cut], axis[cut]] = mid[cut]
        phi[b[cut], axis[cut]] = mid[cut] + 1
        pext = phi - plo
        offset = start + ext.prod(axis=1) - pext.prod(axis=1)
        strides = np.ones_like(lo)
        strides[:, :-1] = np.cumprod(pext[:, :0:-1], axis=1)[:, ::-1]
        c = coords[nodes]
        side = c[np.arange(len(nodes)), axis[box]] - mid[box]
        placed = ~cut[box] | (side == 0)
        pb = box[placed]
        order[offset[pb] + ((c[placed] - plo[pb]) * strides[pb]).sum(axis=1)] = nodes[placed]
        # the halves of the cut boxes become the next level's boxes: lower halves first
        cb, ca = b[cut], axis[cut]
        k = len(cb)
        lo = np.concatenate([lo[cb], lo[cb]])
        hi = np.concatenate([hi[cb], hi[cb]])
        hi[np.arange(k), ca] = mid[cut]
        lo[k + np.arange(k), ca] = mid[cut] + 1
        start = np.concatenate([start[cb], start[cb] + (hi[:k] - lo[:k]).prod(axis=1)])
        rest = ~placed
        box = (np.cumsum(cut) - 1)[box[rest]] + k * (side[rest] > 0)
        nodes = nodes[rest]
    order.setflags(write=False)
    return order


def _block_order(shape: tuple[int, ...], keep: np.ndarray) -> np.ndarray:
    """The flat nodes where `keep` holds, in the grid's dissection order (a new array)."""
    order = _dissection_order(shape)
    return order[keep[order]]


def assemble_form_matrix(domain: GridDomain, cell_matrices: np.ndarray) -> sp.csr_matrix:
    """Matrix of (u, v) -> sum_c (W(c) grad u(c), grad v(c)) for per-cell W."""
    W = np.asarray(cell_matrices, dtype=float)
    expected = domain.cells_shape + (domain.dim, domain.dim)
    if W.shape != expected:
        raise ValueError(f"expected per-cell matrices of shape {expected}, got {W.shape}")
    dim = domain.dim
    # gradient component k weighs corner a of a cell by +-scale_k, plus on the
    # far end of axis k; the signed sums are exact where terms cancel, so the
    # couplings that vanish (the identity field's axis neighbours) stay zero
    scale = 0.5 ** (dim - 1) / np.asarray(domain.spacing)
    V = W * np.outer(scale, scale)
    corners = list(itertools.product((0, 1), repeat=dim))
    # slot plane o holds, for every node i, its coupling with node i + o
    slots = np.zeros((3 ** dim,) + domain.shape)

    def add(a, b, entry, sign=1):
        """Add sign * entry to the slots that couple corner a with corner b of each cell."""
        offset = 0
        for a_j, b_j in zip(a, b):
            offset = 3 * offset + b_j - a_j + 1
        rows = tuple(slice(a_j, a_j + n - 1) for a_j, n in zip(a, domain.shape))
        if sign > 0:
            slots[(offset,) + rows] += entry
        else:
            slots[(offset,) + rows] -= entry

    if dim == 2:
        # the signed sums written out: with S_k = V_k0 + V_k1 and
        # D_k = V_k1 - V_k0, the entry of corners (a, b) is +-Q[a0 != a1][b0 != b1],
        # + exactly when a1 == b1; these are the IEEE values of the sums below
        S0, S1 = V[..., 0, 0] + V[..., 0, 1], V[..., 1, 0] + V[..., 1, 1]
        D0, D1 = V[..., 0, 1] - V[..., 0, 0], V[..., 1, 1] - V[..., 1, 0]
        Q = ((S0 + S1, D0 + D1), (S1 - S0, D1 - D0))
        for a in corners:
            for b in corners:
                add(a, b, Q[a[0] != a[1]][b[0] != b[1]], 1 if a[1] == b[1] else -1)
    else:
        def signed(terms, corner):
            first, *rest = (t if c else -t for t, c in zip(terms, corner))
            return sum(rest, first)

        VB = [[signed([V[..., k, l] for l in range(dim)], b) for k in range(dim)]
              for b in corners]
        for a in corners:
            for b, vb in zip(corners, VB):
                add(a, b, signed(vb, a))
    indptr, indices, keep = _stencil_pattern(domain.shape)
    n = domain.num_nodes
    data = slots.reshape(3 ** dim, n).T[keep.reshape(n, -1)]
    # copies: eliminate_zeros rewrites the index arrays in place
    A = sp.csr_matrix((data, indices.copy(), indptr.copy()), shape=(n, n))
    A.eliminate_zeros()
    return A


def stiffness_matrix(structure: GridStructure) -> sp.csr_matrix:
    """Matrix S with u^T S v = int gamma(u, v) dm (the p = 2 operator)."""
    m = structure.measure[..., None, None]
    return assemble_form_matrix(structure.domain, 2.0 * m * structure.field.matrices)


def mass_matrix(domain: GridDomain) -> sp.csr_matrix:
    """Matrix M with u^T M v = sum_c ubar(c) vbar(c) m(c)."""
    C = cell_average_operator(domain)
    return (C.T @ sp.diags(domain.measure.reshape(-1)) @ C).tocsr()


def solve_linear_dirichlet(structure: GridStructure, boundary_values: np.ndarray,
                           mask: np.ndarray) -> np.ndarray:
    """Solve the p = 2 problem: S u = 0 on free nodes, u pinned on the mask."""
    mask_flat = np.asarray(mask, dtype=bool).reshape(-1)
    if not mask_flat.any():
        raise ValueError("the Dirichlet mask is empty")
    vals = np.asarray(boundary_values, dtype=float).reshape(-1).copy()
    free = ~mask_flat
    if not free.any():
        return vals.reshape(structure.domain.node_shape)
    if not vals[mask_flat].any():
        # zero data: the solution is 0, with no block to assemble or factor
        vals[free] = 0.0
        return vals.reshape(structure.domain.node_shape)
    o = _block_order(structure.domain.node_shape, free)
    S_o = stiffness_matrix(structure)[o]
    rhs = -(S_o[:, mask_flat] @ vals[mask_flat])
    vals[o] = spla.splu(S_o[:, o].tocsc(), **_SPD_SPLU).solve(rhs)
    return vals.reshape(structure.domain.node_shape)
