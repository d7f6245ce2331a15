import numpy as np
import pytest
import scipy.optimize
import scipy.sparse.linalg as spla

from dirichlet_p.assemble import stiffness_matrix
from dirichlet_p.grid import (
    CoefficientField,
    GridDomain,
    GridFunction,
    unit_structure,
)
from dirichlet_p.pform import PFormContext, p_energy, p_operator


def random_elliptic_field(domain: GridDomain, rng: np.random.Generator,
                          alpha: float = 0.5, beta: float = 2.0) -> CoefficientField:
    """Per-cell random symmetric matrices with eigenvalues in [alpha, beta]."""
    n = domain.dim
    raw = rng.standard_normal(domain.cells_shape + (n, n))
    q, _ = np.linalg.qr(raw)
    eigs = rng.uniform(alpha, beta, domain.cells_shape + (n,))
    mats = np.einsum("...ij,...j,...kj->...ik", q, eigs, q)
    mats = 0.5 * (mats + np.swapaxes(mats, -1, -2))
    return CoefficientField(mats, alpha, beta)


def assert_passes_validation(fld: CoefficientField) -> None:
    """The validating constructor accepts `fld` and keeps its matrices and bounds."""
    assert fld.matrices.flags.c_contiguous and not fld.matrices.flags.writeable
    checked = CoefficientField(fld.matrices, fld.alpha, fld.beta)
    assert np.array_equal(checked.matrices, fld.matrices)
    assert (checked.alpha, checked.beta) == (fld.alpha, fld.beta)


class _CountingSpla:
    """scipy.sparse.linalg, with every `splu` call's matrix order recorded."""

    def __init__(self, spla, orders: list[int]):
        self._spla, self._orders = spla, orders

    def __getattr__(self, name):
        return getattr(self._spla, name)

    def splu(self, A, *args, **kwargs):
        self._orders.append(A.shape[0])
        return self._spla.splu(A, *args, **kwargs)


def count_factorizations(monkeypatch) -> list[int]:
    """The order of every matrix that `assemble` factors, in call order.

    Every factorization goes through `assemble._SpdBlock.factor`.
    """
    from dirichlet_p import assemble

    orders: list[int] = []
    monkeypatch.setattr(assemble, "spla", _CountingSpla(assemble.spla, orders))
    return orders


def random_2x2_blocks(seed: int = 2024) -> dict[str, np.ndarray]:
    """Seeded 2x2 blocks for testing the closed-form cell kernels.

    "random": 65,536 standard normal blocks; "near_singular": 1,000 with
    one row (chosen at random) scaled by 1e-8; "conformal": 1,000 blocks
    [[a, -b], [b, a]].
    """
    rng = np.random.default_rng(seed)
    near = rng.standard_normal((1000, 2, 2))
    near[np.arange(1000), rng.integers(0, 2, 1000)] *= 1e-8
    a, b = rng.standard_normal((2, 1000))
    return {"random": rng.standard_normal((65536, 2, 2)), "near_singular": near,
            "conformal": np.stack([np.stack([a, -b], -1), np.stack([b, a], -1)], -2)}


def random_function(domain: GridDomain, rng: np.random.Generator,
                    smooth: bool = False) -> GridFunction:
    vals = rng.standard_normal(domain.node_shape)
    if smooth:
        for _ in range(3):
            for axis in range(domain.dim):
                vals = 0.5 * vals + 0.25 * (np.roll(vals, 1, axis) + np.roll(vals, -1, axis))
    return GridFunction(vals)


def reference_objective(base: np.ndarray, mask: np.ndarray, ctx: PFormContext):
    """(embed, fun, jac): p_energy and the free p_operator coefficients at free values.

    Built on the public p_energy and p_operator only, not on the solver's
    own evaluator; embed writes free values into a copy of the flat array
    base, whose masked entries stay pinned.
    """
    free = ~mask.reshape(-1)
    shape = ctx.domain.node_shape

    def embed(x: np.ndarray) -> np.ndarray:
        u = base.copy()
        u[free] = x
        return u

    def fun(x: np.ndarray) -> float:
        return p_energy(GridFunction(embed(x).reshape(shape)), ctx)

    def jac(x: np.ndarray) -> np.ndarray:
        gf = GridFunction(embed(x).reshape(shape))
        return p_operator(gf, ctx, mask=mask).reshape(-1)[free]

    return embed, fun, jac


def linear_reference(structure, values: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """The p = 2 solution with `values` pinned on the mask, by `spsolve`.

    Built on the assembled `stiffness_matrix` alone, S[free][:, free] u_free
    = -S[free][:, mask] values[mask], so it shares no code with the
    solvers' linear start, whose right side comes from the gradient route.
    """
    S = stiffness_matrix(structure).tocsc()
    pinned = np.asarray(mask, dtype=bool).reshape(-1)
    u = np.where(pinned, np.asarray(values, dtype=float).reshape(-1), 0.0)
    u[~pinned] = spla.spsolve(S[~pinned][:, ~pinned], -S[~pinned][:, pinned] @ u[pinned])
    return u.reshape(structure.domain.node_shape)


def lbfgs_reference(ctx: PFormContext, boundary: GridFunction, grad_tol: float,
                    max_iter: int) -> np.ndarray:
    """Minimizer of p_energy with the masked values of `boundary` pinned.

    scipy's L-BFGS-B on `reference_objective`, from `linear_reference`,
    restarted until the mass-scaled residual is at most grad_tol: a
    reference for the Newton loop that shares only p_energy and p_operator
    with it.
    """
    mask = boundary.mask
    free = ~mask.reshape(-1)
    mass = ctx.domain.node_mass.reshape(-1)[free]
    start = linear_reference(ctx.structure, boundary.values, mask)
    embed, fun, jac = reference_objective(start.reshape(-1), mask, ctx)
    x = start.reshape(-1)[free]
    for _ in range(6):
        x = scipy.optimize.minimize(
            fun, x, jac=jac, method="L-BFGS-B",
            options={"maxiter": max_iter, "ftol": 1e-18, "gtol": 1e-14}).x
        if np.max(np.abs(jac(x)) / mass) <= grad_tol:
            return embed(x).reshape(ctx.domain.node_shape)
    raise AssertionError("the L-BFGS-B reference stalled above grad_tol")


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)


@pytest.fixture
def line():
    """Unit interval with 17 nodes (h = 1/16, aligned with quarters)."""
    return GridDomain(((0.0, 1.0),), (17,))


@pytest.fixture
def square():
    return GridDomain(((0.0, 1.0), (0.0, 1.0)), (9, 9))


@pytest.fixture
def line_structure(line):
    return unit_structure(line)


@pytest.fixture
def square_structure(square):
    return unit_structure(square)
