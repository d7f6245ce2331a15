"""Sparse assembly of the grid bilinear forms.

Assembles quadratic forms

    u^T A v = sum_cells sum_kl w_kl(c) (grad u)_k (grad v)_l

from per-cell coefficient matrices w.  With w = 2 m G this is the matrix of
the bilinear map (u, v) -> int gamma(u, v) dm, i.e. the linear operator at
p = 2.  Each cell adds its 2^d x 2^d corner matrix into slot planes of
the 3^d-point node stencil, kept offset-major, one node-shaped plane per
stencil offset, so each corner pair adds into one contiguous plane.  The
corner entries come from one table of signed sums in every dimension.
This route shares no code with the algebraic gradient/adjoint pipeline,
so the two can cross-check each other.

A matrix is gathered from the slot planes into the pattern of a node list
(`_SpdBlock`), one gather per matrix.  The blocks that the solvers factor
list their nodes in a geometric nested-dissection order of the node grid,
built once per node shape.  This module assembles and factors; `solve`
decides what is solved with which factor.
"""

from __future__ import annotations

import functools
import itertools

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import GridDomain, GridStructure

__all__ = [
    "assemble_form_matrix",
    "stiffness_matrix",
    "mass_matrix",
]

# `splu` options for the symmetric positive definite blocks, which arrive in
# the dissection order of `_block_order`: no ordering of its own, kept
# symmetric, with diagonal pivots (stable for SPD matrices in any symmetric order)
_SPD_SPLU = {"permc_spec": "NATURAL", "diag_pivot_thresh": 0.0,
             "options": {"SymmetricMode": True}}

# bound of the dissection-order cache; one `solvers` benchmark pass meets five node shapes
_SHAPE_CACHE = 16


def _stencil_offsets(shape: tuple[int, ...]) -> np.ndarray:
    """Flat node offsets of the 3^d stencil, in lexicographic order of {-1, 0, 1}^d (int32)."""
    strides = [int(np.prod(shape[j + 1:])) for j in range(len(shape))]
    return np.array([np.dot(o, strides) for o in itertools.product((-1, 0, 1), repeat=len(shape))],
                    dtype=np.int32)


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


def _signed_sum(terms: list[np.ndarray], signs: tuple[int, ...]) -> np.ndarray:
    """sum_k signs[k] terms[k]: the first term signed, the others added or subtracted in order."""
    total = terms[0] if signs[0] > 0 else -terms[0]
    for term, sign in zip(terms[1:], signs[1:]):
        total = total + term if sign > 0 else total - term
    return total


def _form_slots(domain: GridDomain, cell_matrices: np.ndarray) -> np.ndarray:
    """Slot planes of the form (u, v) -> sum_c (W(c) grad u(c), grad v(c)).

    Plane o, one per stencil offset in lexicographic order, holds for every
    node i its coupling with node i + o; slots whose neighbour lies outside
    the grid stay zero.
    """
    W = np.asarray(cell_matrices, dtype=float)
    expected = domain.cells_shape + (domain.dim, domain.dim)
    if W.shape != expected:
        raise ValueError(f"expected per-cell matrices of shape {expected}, got {W.shape}")
    dim = domain.dim
    # gradient component k weighs corner a of a cell by sigma(a)_k scale_k,
    # sigma(a)_k = +1 on the far end of axis k and -1 on the near end, so the
    # entry of corners (a, b) is sigma(a)^T V sigma(b).  Negating sigma negates
    # a signed sum exactly, so the planes of the sigma with last entry +1 serve
    # every pair.  The sums are exact where terms cancel, so the couplings that
    # vanish (the identity field's axis neighbours) stay zero.
    scale = 0.5 ** (dim - 1) / np.asarray(domain.spacing)
    V = W * np.outer(scale, scale)
    sigmas = [s + (1,) for s in itertools.product((-1, 1), repeat=dim - 1)]
    VB = {sb: [_signed_sum([V[..., k, l] for l in range(dim)], sb) for k in range(dim)]
          for sb in sigmas}
    planes = {(sa, sb): _signed_sum(VB[sb], sa) for sa in sigmas for sb in sigmas}
    corners = list(itertools.product((0, 1), repeat=dim))
    # sigma(a), or -sigma(a) where its last entry is -1
    sigma = {a: tuple(2 * c - 1 if a[-1] else 1 - 2 * c for c in a) for a in corners}
    # slot plane o holds, for every node i, its coupling with node i + o
    slots = np.zeros((3 ** dim,) + domain.shape)
    for a in corners:
        rows = tuple(slice(a_j, a_j + n - 1) for a_j, n in zip(a, domain.shape))
        for b in corners:
            offset = 0
            for a_j, b_j in zip(a, b):
                offset = 3 * offset + b_j - a_j + 1
            plane = planes[sigma[a], sigma[b]]
            if a[-1] == b[-1]:
                slots[(offset,) + rows] += plane
            else:
                slots[(offset,) + rows] -= plane
    return slots


class _SpdBlock:
    """The block of a stencil form on the given nodes, in their order, as a gather pattern.

    The solvers pass a block's nodes in the grid's dissection order
    (`_block_order`); the full matrix is the block of all nodes in natural
    order.  (`indptr`, `indices`) is the int32 CSR pattern in the positions
    of `nodes`, each row in stencil-offset order as in the full matrix
    sliced by `[nodes][:, nodes]`; `keep` marks the nodes on the flat grid,
    and `src` indexes each entry's slot in the flat slot planes.  The block
    keeps the last factorization made on it (`factor`), which
    `preconditioner` rescales to a later matrix's diagonal.
    """

    def __init__(self, shape: tuple[int, ...], nodes: np.ndarray):
        self.nodes = np.asarray(nodes)
        # the kept factorization and the diagonal of the matrix it factors
        self.lu = None
        self.lu_diagonal = None
        n, m = int(np.prod(shape)), len(self.nodes)
        # block positions on the grid padded by one node per side, where every
        # stencil neighbour of a node has an index and the pad holds no block node
        padded = tuple(k + 2 for k in shape)
        position = np.full(padded, -1, dtype=np.int32)
        in_block = np.full(n, -1, dtype=np.int32)
        in_block[self.nodes] = np.arange(m, dtype=np.int32)
        self.keep = in_block >= 0
        position[(slice(1, -1),) * len(shape)] = in_block.reshape(shape)
        rows = np.ravel_multi_index(tuple(c + 1 for c in np.unravel_index(self.nodes, shape)),
                                    padded)
        # (offset, row) arrays; the transposes list the entries row by row, in offset order
        columns = position.reshape(-1)[_stencil_offsets(padded)[:, None] + rows]
        stored = columns >= 0
        self.indices = columns.T[stored.T]
        self.indptr = np.zeros(m + 1, dtype=np.int32)
        np.cumsum(stored.sum(axis=0), out=self.indptr[1:])
        planes = np.arange(len(columns), dtype=np.int32)[:, None] * np.int32(n)
        self.src = (planes + self.nodes.astype(np.int32)).T[stored.T]

    def factor(self, A: sp.spmatrix) -> spla.SuperLU:
        """Factor A, a matrix on this block, and keep the factor and A's diagonal.

        A failed factorization raises `splu`'s RuntimeError and leaves no factor.
        """
        self.lu = self.lu_diagonal = None
        self.lu = spla.splu(A.tocsc(), **_SPD_SPLU)
        self.lu_diagonal = A.diagonal()
        return self.lu

    def preconditioner(self, H: sp.spmatrix) -> spla.LinearOperator | None:
        """The kept factor F of A_F, rescaled to H's diagonal, as an operator for CG.

        M^-1 r = s * F^-1 (s * r) with s = sqrt(diag(A_F) / diag(H)), so
        M = S^-1 A_F S^-1 (S = diag(s)) is symmetric positive definite with
        exactly H's diagonal.  None when nothing is factored, when any
        diagonal entry of H is not positive, or when s is not finite.
        """
        if self.lu is None:
            return None
        h = H.diagonal()
        if not np.all(h > 0.0):
            return None
        with np.errstate(over="ignore", divide="ignore", invalid="ignore"):
            s = np.sqrt(self.lu_diagonal / h)
        if not np.all(np.isfinite(s)):
            return None
        solve = self.lu.solve
        return spla.LinearOperator(H.shape, matvec=lambda r: s * solve(s * r.ravel()),
                                   dtype=float)

    def matrix(self, slots: np.ndarray) -> sp.csr_matrix:
        """The block of the form with these slot planes, its zero entries dropped."""
        m = len(self.nodes)
        # copies: eliminate_zeros rewrites the index arrays in place
        A = sp.csr_matrix((slots.reshape(-1)[self.src], self.indices.copy(), self.indptr.copy()),
                          shape=(m, m))
        A.eliminate_zeros()
        return A


def assemble_form_matrix(domain: GridDomain, cell_matrices: np.ndarray,
                         block: _SpdBlock | None = None) -> sp.csr_matrix:
    """Matrix of (u, v) -> sum_c (W(c) grad u(c), grad v(c)) for per-cell W.

    With `block` given, only that block is gathered from the slot planes.
    """
    if block is None:
        block = _SpdBlock(domain.shape, np.arange(domain.num_nodes))
    return block.matrix(_form_slots(domain, cell_matrices))


def _stiffness_cells(structure: GridStructure) -> np.ndarray:
    """Per-cell matrices 2 m G of the stiffness form."""
    return 2.0 * structure.measure[..., None, None] * structure.field.matrices


def stiffness_matrix(structure: GridStructure) -> sp.csr_matrix:
    """Matrix S with u^T S v = int gamma(u, v) dm (the p = 2 operator)."""
    return assemble_form_matrix(structure.domain, _stiffness_cells(structure))


def mass_matrix(domain: GridDomain) -> sp.csr_matrix:
    """Matrix M with u^T M v = sum_c ubar(c) vbar(c) m(c)."""
    # C maps flat node values to flat cell corner-averages: a Kronecker
    # product of one (n-1) x n two-point average per axis
    C = None
    for n in domain.shape:
        f = sp.diags([0.5, 0.5], [0, 1], shape=(n - 1, n), format="csr")
        C = f if C is None else sp.kron(C, f, format="csr")
    return (C.T @ sp.diags(domain.measure.reshape(-1)) @ C).tocsr()
