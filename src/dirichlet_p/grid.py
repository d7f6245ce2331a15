"""Discrete Dirichlet structures on rectangular grids.

Functions live on grid nodes, gradients and the coefficient field live on
cells.  A cell gradient component is the mean of the forward differences
taken over the cell's parallel edges, which makes the carre du champ

    gamma(u, v) = 2 (G grad u, grad v)

a pointwise-algebraic quantity per cell: Cauchy-Schwarz, subadditivity and
the lattice identities then hold cell by cell exactly (up to rounding),
not merely in integrated form.  Cells are also the integration atoms: the
measure of a cell is density * cell volume, and integrals of node
functions use the cell average of the corner values.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

__all__ = [
    "ShapeMismatchError",
    "GridDomain",
    "CoefficientField",
    "GridStructure",
    "GridFunction",
    "unit_structure",
    "boundary_mask",
    "cell_mean",
    "gradient",
    "gradient_adjoint",
    "carre_du_champ",
    "gamma",
    "energy",
    "dp_norm",
    "meet",
    "join",
]


class ShapeMismatchError(ValueError):
    """Operands are defined on incompatible grids."""


def _readonly(arr: np.ndarray) -> np.ndarray:
    out = np.ascontiguousarray(arr, dtype=float)
    out.setflags(write=False)
    return out


def _require_finite(mats: np.ndarray) -> None:
    """Reject NaN or infinite coefficient entries before any arithmetic on them."""
    if not np.isfinite(mats).all():
        raise ValueError("non-finite coefficient entries: their eigenvalues escape any bounds")


def _integer(value: Any) -> int:
    """An integer: 2.5 and True are refused where int() would turn them into 2 and 1."""
    if isinstance(value, bool):
        raise TypeError("expected an integer, got a boolean")
    return operator.index(value)


def _length(v: np.ndarray) -> np.ndarray:
    """Euclidean length over the last axis, bit for bit np.linalg.norm(v, axis=-1).

    The squares are summed left to right, as numpy's reduction over a short
    axis does, but on whole component planes instead of a length-2 or -3 axis.
    """
    v = np.asarray(v, dtype=float)
    out = v[..., 0] * v[..., 0]
    for i in range(1, v.shape[-1]):
        out += v[..., i] * v[..., i]
    return np.sqrt(out)


def _det(mats: np.ndarray) -> np.ndarray:
    """Per-block determinant: ad - bc for 2x2 blocks, LAPACK otherwise."""
    if mats.shape[-1] != 2:
        return np.linalg.det(mats)
    return mats[..., 0, 0] * mats[..., 1, 1] - mats[..., 0, 1] * mats[..., 1, 0]


def _sym_eigvalsh(mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of the symmetric part of each block, ascending.

    2x2 blocks use the closed form m +- r, m = (a + d)/2 and
    r = hypot((a - d)/2, b).  The eigenvalue of larger magnitude,
    m + sign(m) r, adds terms of one sign; the other is (ad - b^2) over
    it, which keeps its accuracy where m - sign(m) r would cancel.
    Other sizes use LAPACK.
    """
    if mats.shape[-1] != 2:
        return np.linalg.eigvalsh(0.5 * (mats + np.swapaxes(mats, -1, -2)))
    a, d = mats[..., 0, 0], mats[..., 1, 1]
    b = 0.5 * (mats[..., 0, 1] + mats[..., 1, 0])
    m = 0.5 * (a + d)
    r = np.hypot(0.5 * (a - d), b)
    neg = m < 0
    big = m + np.where(neg, -r, r)
    nonzero = big != 0  # big = 0 only for the zero block
    small = np.where(nonzero, (a * d - b * b) / np.where(nonzero, big, 1.0), 0.0)
    return np.stack([np.where(neg, big, small), np.where(neg, small, big)], axis=-1)


@dataclass(frozen=True, eq=False)
class GridDomain:
    """Rectangular grid: geometry plus a finite measure.

    extent   -- per-axis intervals ((a_1, b_1), ..., (a_n, b_n))
    shape    -- per-axis node counts, each >= 2
    density  -- optional per-cell positive weight; the measure of a cell is
                density * prod(spacing).  Defaults to 1 everywhere, giving
                Lebesgue measure.
    """

    extent: tuple[tuple[float, float], ...]
    shape: tuple[int, ...]
    density: np.ndarray | None = None

    def __post_init__(self) -> None:
        extent = tuple((float(a), float(b)) for a, b in self.extent)
        shape = tuple(_integer(s) for s in self.shape)
        object.__setattr__(self, "extent", extent)
        object.__setattr__(self, "shape", shape)
        if not 1 <= len(extent) <= 3:
            raise ValueError(f"dimension must be 1, 2 or 3, got {len(extent)}")
        if len(shape) != len(extent):
            raise ValueError("extent and shape have different lengths")
        for (a, b), s in zip(extent, shape):
            if not (np.isfinite(a) and np.isfinite(b) and a < b):
                raise ValueError(f"invalid interval [{a}, {b}]")
            if s < 2:
                raise ValueError("each axis needs at least 2 nodes")
        if self.density is not None:
            dens = _readonly(np.broadcast_to(np.asarray(self.density, dtype=float), self.cells_shape))
            if not np.all(dens > 0):
                raise ValueError("density must be strictly positive on every cell")
            object.__setattr__(self, "density", dens)

    @property
    def dim(self) -> int:
        return len(self.shape)

    @property
    def node_shape(self) -> tuple[int, ...]:
        return self.shape

    @property
    def cells_shape(self) -> tuple[int, ...]:
        return tuple(s - 1 for s in self.shape)

    @property
    def num_nodes(self) -> int:
        return int(np.prod(self.shape))

    @property
    def num_cells(self) -> int:
        return int(np.prod(self.cells_shape))

    @functools.cached_property
    def spacing(self) -> tuple[float, ...]:
        return tuple((b - a) / (s - 1) for (a, b), s in zip(self.extent, self.shape))

    @property
    def cell_volume(self) -> float:
        return float(np.prod(self.spacing))

    @functools.cached_property
    def measure(self) -> np.ndarray:
        """Per-cell measure m(c) = density(c) * cell volume; built once, read-only."""
        if self.density is None:
            return _readonly(np.full(self.cells_shape, self.cell_volume))
        return _readonly(self.density * self.cell_volume)

    @property
    def total_measure(self) -> float:
        return float(np.sum(self.measure))

    def axes(self) -> list[np.ndarray]:
        return [np.linspace(a, b, s) for (a, b), s in zip(self.extent, self.shape)]

    def node_coords(self) -> np.ndarray:
        """Node coordinates, shape = node_shape + (dim,)."""
        grids = np.meshgrid(*self.axes(), indexing="ij")
        return np.stack(grids, axis=-1)

    def cell_centers(self) -> np.ndarray:
        """Cell center coordinates, shape = cells_shape + (dim,)."""
        mids = [0.5 * (ax[:-1] + ax[1:]) for ax in self.axes()]
        grids = np.meshgrid(*mids, indexing="ij")
        return np.stack(grids, axis=-1)

    @functools.cached_property
    def node_mass(self) -> np.ndarray:
        """Per-node mass: each cell spreads its measure equally on its corners.

        Built once, read-only.
        """
        out = self.measure / 2 ** self.dim
        for axis in range(self.dim):
            out = _avg_adjoint(out, axis, weight=1.0)
        return _readonly(out)

    def refined(self) -> "GridDomain":
        """Same box with each cell split in two per axis (half the spacing)."""
        shape = tuple(2 * s - 1 for s in self.shape)
        density = None
        if self.density is not None:
            density = self.density
            for axis in range(self.dim):
                density = np.repeat(density, 2, axis=axis)
        return GridDomain(self.extent, shape, density)

    def describe(self) -> str:
        """Report label such as '2d 33x33'."""
        return f"{self.dim}d " + "x".join(str(s) for s in self.shape)


@dataclass(frozen=True, eq=False)
class CoefficientField:
    """Per-cell symmetric matrix field G with ellipticity bounds.

    `CoefficientField(matrices, alpha, beta)` and `from_cells`, the paths by
    which fields enter from outside the program (`file:` fields, library
    callers), validate finiteness, symmetry and that every cell's
    eigenvalues lie in [alpha, beta]; the bounds are declared inputs, not
    inferred.  `identity`, `scalar` and `mappings.induced_structure` (the
    distortion tensor, whose eigenvalues `analyze` has certified) build
    fields that are valid by construction and skip the re-check.
    """

    matrices: np.ndarray
    alpha: float
    beta: float

    def __post_init__(self) -> None:
        mats = _readonly(self.matrices)
        object.__setattr__(self, "matrices", mats)
        object.__setattr__(self, "alpha", float(self.alpha))
        object.__setattr__(self, "beta", float(self.beta))
        if not (0 < self.alpha <= self.beta):
            raise ValueError("need 0 < alpha <= beta")
        d = mats.shape[-1]
        if mats.shape[-2] != d:
            raise ValueError("coefficient matrices must be square")
        _require_finite(mats)
        sym_err = np.max(np.abs(mats - np.swapaxes(mats, -1, -2)))
        scale = max(np.max(np.abs(mats)), 1e-300)
        if sym_err > 1e-10 * scale:
            raise ValueError(f"coefficient matrices not symmetric (error {sym_err:.3e})")
        eigs = _sym_eigvalsh(mats)
        tol = 1e-8 * (self.alpha + self.beta)
        lo, hi = float(np.min(eigs)), float(np.max(eigs))
        if not (lo >= self.alpha - tol and hi <= self.beta + tol):
            raise ValueError(
                f"eigenvalues [{lo:.6g}, {hi:.6g}] escape the declared bounds "
                f"[{self.alpha:.6g}, {self.beta:.6g}]"
            )

    @property
    def dim(self) -> int:
        return self.matrices.shape[-1]

    @classmethod
    def _certified(cls, matrices: np.ndarray, alpha: float, beta: float) -> "CoefficientField":
        """A field valid by construction: finite and symmetric, 0 < alpha <= beta,
        every cell's eigenvalues in [alpha, beta].  Stored read-only; only the
        bounds themselves are checked, not the matrices."""
        if not (0 < alpha <= beta):
            raise ValueError("need 0 < alpha <= beta")
        fld = object.__new__(cls)
        object.__setattr__(fld, "matrices", _readonly(matrices))
        object.__setattr__(fld, "alpha", float(alpha))
        object.__setattr__(fld, "beta", float(beta))
        return fld

    @classmethod
    def identity(cls, domain: GridDomain) -> "CoefficientField":
        eye = np.broadcast_to(np.eye(domain.dim), domain.cells_shape + (domain.dim, domain.dim))
        return cls._certified(np.array(eye), 1.0, 1.0)

    @classmethod
    def scalar(cls, domain: GridDomain, value: float) -> "CoefficientField":
        value = float(value)
        if not (np.isfinite(value) and value > 0):
            raise ValueError(f"scalar coefficient must be positive and finite, got {value}")
        eye = value * np.eye(domain.dim)
        mats = np.broadcast_to(eye, domain.cells_shape + (domain.dim, domain.dim))
        return cls._certified(np.array(mats), value, value)

    @classmethod
    def from_cells(cls, domain: GridDomain, matrices: np.ndarray,
                   alpha: float | None = None, beta: float | None = None) -> "CoefficientField":
        mats = np.asarray(matrices, dtype=float)
        expected = domain.cells_shape + (domain.dim, domain.dim)
        if mats.shape != expected:
            raise ShapeMismatchError(f"expected matrix field of shape {expected}, got {mats.shape}")
        if alpha is None or beta is None:
            _require_finite(mats)
            eigs = _sym_eigvalsh(mats)
            alpha = float(np.min(eigs)) if alpha is None else alpha
            beta = float(np.max(eigs)) if beta is None else beta
        return cls(mats, alpha, beta)


@dataclass(frozen=True, eq=False)
class GridStructure:
    """A grid domain together with its coefficient field.

    This is the discrete carrier of the whole calculus: measure, gradient,
    carre du champ and energy are all derived from it.  Immutable, safe to
    share between workers.
    """

    domain: GridDomain
    field: CoefficientField

    def __post_init__(self) -> None:
        if self.field.matrices.shape[:-2] != self.domain.cells_shape:
            raise ShapeMismatchError("coefficient field does not match the domain's cells")
        if self.field.dim != self.domain.dim:
            raise ShapeMismatchError("coefficient matrices have the wrong dimension")

    @property
    def dim(self) -> int:
        return self.domain.dim

    @property
    def measure(self) -> np.ndarray:
        return self.domain.measure

    def describe(self) -> str:
        return self.domain.describe()


def unit_structure(domain: GridDomain) -> GridStructure:
    """Structure with the identity coefficient field."""
    return GridStructure(domain, CoefficientField.identity(domain))


@dataclass(eq=False)
class GridFunction:
    """Node values with an optional Dirichlet mask.

    Masked nodes carry prescribed (finite) values; operators treat them as
    pinned.  The mask is boolean and node-shaped.
    """

    values: np.ndarray
    mask: np.ndarray | None = None

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        if self.mask is not None:
            self.mask = np.asarray(self.mask, dtype=bool)
            if self.mask.shape != self.values.shape:
                raise ShapeMismatchError("mask and values have different shapes")
            if not np.all(np.isfinite(self.values[self.mask])):
                raise ValueError("masked nodes must carry finite values")

    @classmethod
    def from_callable(cls, domain: GridDomain, fn: Callable[..., np.ndarray],
                      mask: np.ndarray | None = None) -> "GridFunction":
        coords = domain.node_coords()
        comps = [coords[..., i] for i in range(domain.dim)]
        return cls(np.asarray(fn(*comps), dtype=float) * np.ones(domain.node_shape), mask)

    @classmethod
    def constant(cls, domain: GridDomain, value: float,
                 mask: np.ndarray | None = None) -> "GridFunction":
        return cls(np.full(domain.node_shape, float(value)), mask)

    def copy(self) -> "GridFunction":
        return GridFunction(self.values.copy(), None if self.mask is None else self.mask.copy())


def _values(u) -> np.ndarray:
    return u.values if isinstance(u, GridFunction) else np.asarray(u, dtype=float)


def _check_shape(vals: np.ndarray, domain: GridDomain) -> None:
    if vals.shape != domain.node_shape:
        raise ShapeMismatchError(f"function shape {vals.shape} != grid nodes {domain.node_shape}")


def _merge_masks(u: GridFunction, v: GridFunction) -> np.ndarray | None:
    mu = u.mask if isinstance(u, GridFunction) else None
    mv = v.mask if isinstance(v, GridFunction) else None
    if mu is None:
        return mv
    if mv is None:
        return mu
    if not np.array_equal(mu, mv):
        raise ShapeMismatchError("operands carry different Dirichlet masks")
    return mu


def boundary_mask(domain: GridDomain) -> np.ndarray:
    """Mask of the outermost node layer."""
    mask = np.zeros(domain.node_shape, dtype=bool)
    for axis in range(domain.dim):
        sl = [slice(None)] * domain.dim
        sl[axis] = 0
        mask[tuple(sl)] = True
        sl[axis] = -1
        mask[tuple(sl)] = True
    return mask


# -- cell calculus -----------------------------------------------------------

def _halves(axis: int) -> tuple[tuple[slice, ...], tuple[slice, ...]]:
    """Indices of an array without its last and without its first entry along `axis`."""
    head = (slice(None),) * axis
    return head + (slice(None, -1),), head + (slice(1, None),)


def _avg(arr: np.ndarray, axis: int) -> np.ndarray:
    lower, upper = _halves(axis)
    return 0.5 * (arr[lower] + arr[upper])


def _avg_adjoint(arr: np.ndarray, axis: int, weight: float = 0.5) -> np.ndarray:
    shp = list(arr.shape)
    shp[axis] += 1
    out = np.zeros(shp)
    lower, upper = _halves(axis)
    out[lower] += weight * arr
    out[upper] += weight * arr
    return out


def cell_mean(u, domain: GridDomain) -> np.ndarray:
    """Arithmetic mean of the corner node values, one value per cell."""
    vals = _values(u)
    _check_shape(vals, domain)
    for axis in range(domain.dim):
        vals = _avg(vals, axis)
    return vals


def _gradient_components(u, domain: GridDomain) -> list[np.ndarray]:
    """The components of `gradient`, one cell array per axis."""
    vals = _values(u)
    _check_shape(vals, domain)
    h = domain.spacing
    comps = []
    for axis in range(domain.dim):
        d = np.diff(vals, axis=axis) / h[axis]
        for other in range(domain.dim):
            if other != axis:
                d = _avg(d, other)
        comps.append(d)
    return comps


def gradient(u, domain: GridDomain) -> np.ndarray:
    """Cell gradient, shape = cells_shape + (dim,).

    Component i is the mean over the cell's edges parallel to axis i of the
    forward differences (u(node + e_i) - u(node)) / h_i.  Linear in u and
    exact for affine functions.
    """
    return np.stack(_gradient_components(u, domain), axis=-1)


def gradient_adjoint(q: np.ndarray, domain: GridDomain) -> np.ndarray:
    """Adjoint of `gradient`: node coefficients F with sum(F * v) = sum_c q(c) . grad v(c)."""
    q = np.asarray(q, dtype=float)
    if q.shape != domain.cells_shape + (domain.dim,):
        raise ShapeMismatchError("covector field does not match the grid cells")
    h = domain.spacing
    out = np.zeros(domain.node_shape)
    for axis in range(domain.dim):
        w = q[..., axis]
        for other in range(domain.dim):
            if other != axis:
                w = _avg_adjoint(w, other)
        lower, upper = _halves(axis)
        out[upper] += w / h[axis]
        out[lower] -= w / h[axis]
    return out


def _dot(xs, ys) -> np.ndarray:
    """sum_i xs[i] * ys[i] per cell, summed left to right from the first product."""
    out = xs[0] * ys[0]
    for x, y in zip(xs[1:], ys[1:]):
        out += x * y
    return out


def _flux_gamma(u, structure: GridStructure) -> tuple[np.ndarray, np.ndarray]:
    """(G grad u, gamma(u)) per cell from a single gradient evaluation."""
    g = _gradient_components(u, structure.domain)
    G = structure.field.matrices
    Gg = [_dot([G[..., i, j] for j in range(len(g))], g) for i in range(len(g))]
    return np.stack(Gg, axis=-1), 2.0 * _dot(Gg, g)


def _pair(Ggu: np.ndarray, v, domain: GridDomain) -> np.ndarray:
    """gamma(u, v) = 2 (G grad u, grad v) per cell, from G grad u."""
    return 2.0 * _dot([Ggu[..., i] for i in range(domain.dim)], _gradient_components(v, domain))


def carre_du_champ(u, v, structure: GridStructure) -> np.ndarray:
    """Per-cell field gamma(u, v) = 2 (G grad u, grad v); symmetric, bilinear."""
    return _pair(_flux_gamma(u, structure)[0], v, structure.domain)


def gamma(u, structure: GridStructure) -> np.ndarray:
    """gamma(u) = gamma(u, u) >= 0 per cell."""
    return _flux_gamma(u, structure)[1]


def energy(u, v, structure: GridStructure) -> float:
    """Bilinear energy E(u, v) = 1/2 * sum_c gamma(u, v)(c) m(c)."""
    return 0.5 * float(np.sum(carre_du_champ(u, v, structure) * structure.measure))


def dp_norm(u, structure: GridStructure, p: float) -> float:
    """Graph norm ( int |u|^p dm + int gamma(u)^(p/2) dm )^(1/p).

    Both summands are cell integrals; |u| enters through the cell average of
    the corner values.  Satisfies the triangle inequality (Minkowski on the
    finite sums).
    """
    p = float(p)
    if p <= 1:
        raise ValueError(f"the norm needs p > 1, got {p}")
    m = structure.measure
    ubar = cell_mean(u, structure.domain)
    g = gamma(u, structure)
    total = float(np.sum(np.abs(ubar) ** p * m) + np.sum(np.maximum(g, 0.0) ** (p / 2) * m))
    return total ** (1.0 / p)


# -- lattice operations ------------------------------------------------------

def meet(u: GridFunction, v: GridFunction) -> GridFunction:
    """Nodewise minimum u ^ v."""
    return GridFunction(np.minimum(_values(u), _values(v)), _merge_masks(u, v))


def join(u: GridFunction, v: GridFunction) -> GridFunction:
    """Nodewise maximum u v v."""
    return GridFunction(np.maximum(_values(u), _values(v)), _merge_masks(u, v))
