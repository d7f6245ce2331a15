"""Sparse assembly of the grid bilinear forms.

Builds the node-to-cell difference and averaging operators as Kronecker
products of their 1-D factors and assembles quadratic forms

    u^T A v = sum_cells sum_kl w_kl(c) (grad u)_k (grad v)_l

from per-cell coefficient matrices w.  With w = 2 m G this is the matrix of
the bilinear map (u, v) -> int gamma(u, v) dm, i.e. the linear operator at
p = 2.  This route shares no code with the algebraic gradient/adjoint
pipeline, so the two can cross-check each other.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .grid import GridDomain, GridStructure

__all__ = [
    "gradient_operators",
    "cell_average_operator",
    "assemble_form_matrix",
    "stiffness_matrix",
    "mass_matrix",
    "solve_linear_dirichlet",
]


def _two_point_1d(n: int, left: float, right: float) -> sp.csr_matrix:
    """(n-1) x n matrix whose row i is left * e_i + right * e_(i+1)."""
    rows = np.repeat(np.arange(n - 1), 2)
    cols = rows + np.tile([0, 1], n - 1)
    data = np.tile([left, right], n - 1)
    return sp.csr_matrix((data, (rows, cols)), shape=(n - 1, n))


def gradient_operators(domain: GridDomain) -> list[sp.csr_matrix]:
    """Sparse maps D_k from flat node values to flat cell-gradient components."""
    ops = []
    h = domain.spacing
    for axis in range(domain.dim):
        factors = []
        for j, n in enumerate(domain.shape):
            factors.append(_two_point_1d(n, -1.0 / h[axis], 1.0 / h[axis]) if j == axis
                           else _two_point_1d(n, 0.5, 0.5))
        op = factors[0]
        for f in factors[1:]:
            op = sp.kron(op, f, format="csr")
        ops.append(op)
    return ops


def cell_average_operator(domain: GridDomain) -> sp.csr_matrix:
    """Sparse map from flat node values to flat cell corner-averages."""
    op = None
    for n in domain.shape:
        f = _two_point_1d(n, 0.5, 0.5)
        op = f if op is None else sp.kron(op, f, format="csr")
    return op


def assemble_form_matrix(domain: GridDomain, cell_matrices: np.ndarray) -> sp.csr_matrix:
    """Matrix of (u, v) -> sum_c (W(c) grad u(c), grad v(c)) for per-cell W."""
    W = np.asarray(cell_matrices, dtype=float)
    expected = domain.cells_shape + (domain.dim, domain.dim)
    if W.shape != expected:
        raise ValueError(f"expected per-cell matrices of shape {expected}, got {W.shape}")
    ops = gradient_operators(domain)
    n = domain.num_nodes
    A = sp.csr_matrix((n, n))
    for k in range(domain.dim):
        for l in range(domain.dim):
            w = W[..., k, l].reshape(-1)
            if not np.any(w):
                continue
            A = A + ops[k].T @ sp.diags(w) @ ops[l]
    return A.tocsr()


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
    S = stiffness_matrix(structure).tocsc()
    S_ff = S[free][:, free]
    S_fm = S[free][:, mask_flat]
    rhs = -S_fm @ vals[mask_flat]
    vals[free] = spla.spsolve(S_ff.tocsc(), rhs)
    return vals.reshape(structure.domain.node_shape)
