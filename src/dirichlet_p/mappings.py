"""Quasiregular mapping analysis: differentials, dilatations, distortion.

For a mapping f of an n-dimensional box into R^n, the per-cell Jacobi
matrix Df and Jacobian J = det Df yield the outer and inner dilatations

    K_O = max_c |Df|^n / J,      K_I = max_c J / l(Df)^n,

(|Df| the largest, l(Df) the smallest singular value) and the
unit-determinant distortion tensor

    theta = J^(2/n) Df^-1 Df^-T,

whose eigenvalues lie in [K_O^(-2/n), K_I^(2/n)] cell by cell.  Feeding
theta back as the coefficient field of a grid structure, with exponent
p = n, produces the nonlinear form for which the components of f (and
log|f|, when f omits 0) are harmonic; `verify_component_harmonicity`
checks exactly that through mass-scaled residuals under grid refinement,
comparing residuals at the same physical nodes across resolutions.

Analytic kinds (plane powers, radial stretches, linear maps) are
differentiated in closed form at cell centers; sampled mappings reuse the
grid gradient so that their harmonicity tests live in one consistent
discrete calculus.

The per-cell algebra is closed form in 2-D: J = ad - bc, the singular
values from the conformal and anticonformal parts of Df, theta as
adj(Df) adj(Df)^T / J, and theta's eigenvalues and determinant from its
own entries.  In 1-D and 3-D it goes through LAPACK (det, svd, inv,
eigvalsh).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .grid import (
    CoefficientField,
    GridDomain,
    GridFunction,
    GridStructure,
    ShapeMismatchError,
    _det,
    _length,
    _sym_eigvalsh,
    boundary_mask,
    gradient,
)
from .pform import PFormContext, scaled_operator_field
from .solve import _region_interior
from .report import CheckReport

__all__ = [
    "Mapping",
    "PowerMapping",
    "RadialStretch",
    "LinearMapping",
    "SampledMapping",
    "JacobianField",
    "QrAnalysis",
    "differentiate",
    "distortion_tensor",
    "analyze",
    "induced_structure",
    "verify_component_harmonicity",
]

# mass-scaled residual below which verify_component_harmonicity sees rounding only
_RESIDUAL_FLOOR = 1e-10


class Mapping:
    """Base: a mapping of a grid domain into R^n, n = domain dimension."""

    domain: GridDomain

    def node_values(self) -> np.ndarray:
        """Values at nodes, shape node_shape + (n,)."""
        raise NotImplementedError

    def cell_jacobian(self) -> np.ndarray:
        """Jacobi matrices at cell centers, shape cells_shape + (n, n)."""
        raise NotImplementedError

    def refined(self) -> "Mapping":
        """The same mapping on `domain.refined()`."""
        raise NotImplementedError

    def omits_zero(self) -> bool:
        """Whether |f| is bounded away from 0 on the analysis region."""
        return False

    def safe_region(self) -> np.ndarray:
        """Node mask on which residuals are measured (excludes punctures)."""
        return ~boundary_mask(self.domain)

    def _component_functions(self) -> list[np.ndarray]:
        vals = self.node_values()
        return [vals[..., i] for i in range(self.domain.dim)]


class _PuncturedMapping(Mapping):
    """Mapping whose analysis region omits a ball around the origin.

    The ball's radius is `puncture` times the box half-width.
    """

    puncture: float

    def safe_region(self) -> np.ndarray:
        scale = max(abs(b) for ab in self.domain.extent for b in ab)
        outside = _length(self.domain.node_coords()) > self.puncture * scale
        return outside & ~boundary_mask(self.domain)


@dataclass(eq=False)
class PowerMapping(_PuncturedMapping):
    """Plane mapping z -> z^k (n = 2); conformal away from the origin.

    The puncture radius excludes a neighborhood of the branch point from
    the harmonicity region (log|f| is singular there).
    """

    domain: GridDomain
    k: int
    puncture: float = 0.15

    def __post_init__(self) -> None:
        if self.domain.dim != 2:
            raise ValueError("power mappings live in the plane")
        if self.k == 0:
            raise ValueError("exponent must be nonzero")

    def node_values(self) -> np.ndarray:
        c = self.domain.node_coords()
        z = c[..., 0] + 1j * c[..., 1]
        w = z ** self.k
        return np.stack([w.real, w.imag], axis=-1)

    def cell_jacobian(self) -> np.ndarray:
        c = self.domain.cell_centers()
        z = c[..., 0] + 1j * c[..., 1]
        fp = self.k * z ** (self.k - 1)
        out = np.empty(fp.shape + (2, 2))
        out[..., 0, 0] = out[..., 1, 1] = fp.real
        out[..., 1, 0] = fp.imag
        out[..., 0, 1] = -fp.imag
        return out

    def refined(self) -> "PowerMapping":
        return PowerMapping(self.domain.refined(), self.k, self.puncture)


@dataclass(eq=False)
class RadialStretch(_PuncturedMapping):
    """x -> |x|^(a-1) x with a > 0; quasiconformal with both dilatations a.

    Defined on a box around the origin with a punctured neighborhood of 0
    removed from the analysis region (default radius 0.1 of the box
    half-width).
    """

    domain: GridDomain
    a: float
    puncture: float = 0.1

    def __post_init__(self) -> None:
        if self.a <= 0:
            raise ValueError("stretch exponent must be positive")

    def node_values(self) -> np.ndarray:
        c = self.domain.node_coords()
        r = _length(c)
        scale = np.where(r > 0, r ** (self.a - 1.0), 0.0)
        return scale[..., None] * c

    def cell_jacobian(self) -> np.ndarray:
        """r^(a-1) (I + (a-1) rhat rhat^T) per cell, and 0 at a centre on the origin.

        Each entry is scale * (delta_ij + (a-1) (rhat_i rhat_j)); the delta
        term also turns a -0.0 product into +0.0, as I + ... does.
        """
        c = self.domain.cell_centers()
        n = self.domain.dim
        r = _length(c)
        rhat = c / np.where(r > 0, r, 1.0)[..., None]
        scale = np.where(r > 0, r ** (self.a - 1.0), 0.0)
        out = np.empty(c.shape[:-1] + (n, n))
        for i in range(n):
            for j in range(i, n):
                entry = (1.0 if i == j else 0.0) + (self.a - 1.0) * (rhat[..., i] * rhat[..., j])
                np.multiply(scale, entry, out=out[..., i, j])
                out[..., j, i] = out[..., i, j]
        return out

    def refined(self) -> "RadialStretch":
        return RadialStretch(self.domain.refined(), self.a, self.puncture)

    def omits_zero(self) -> bool:
        return True  # on the punctured region |f| = |x|^a > 0


@dataclass(eq=False)
class LinearMapping(Mapping):
    domain: GridDomain
    matrix: np.ndarray

    def __post_init__(self) -> None:
        self.matrix = np.asarray(self.matrix, dtype=float)
        n = self.domain.dim
        if self.matrix.shape != (n, n):
            raise ValueError("matrix dimension does not match the domain")

    def node_values(self) -> np.ndarray:
        return np.einsum("ij,...j->...i", self.matrix, self.domain.node_coords())

    def cell_jacobian(self) -> np.ndarray:
        n = self.domain.dim
        return np.broadcast_to(self.matrix, self.domain.cells_shape + (n, n)).copy()

    def refined(self) -> "LinearMapping":
        return LinearMapping(self.domain.refined(), self.matrix)


@dataclass(eq=False)
class SampledMapping(Mapping):
    """Mapping given by its node samples; differentiated with the grid gradient."""

    domain: GridDomain
    values: np.ndarray

    def __post_init__(self) -> None:
        self.values = np.asarray(self.values, dtype=float)
        expected = self.domain.node_shape + (self.domain.dim,)
        if self.values.shape != expected:
            raise ShapeMismatchError(f"expected samples of shape {expected}")

    def node_values(self) -> np.ndarray:
        return self.values

    def cell_jacobian(self) -> np.ndarray:
        comps = [gradient(self.values[..., i], self.domain)
                 for i in range(self.domain.dim)]
        return np.stack(comps, axis=-2)  # row i = grad of component i

    def refined(self) -> "SampledMapping":
        raise ValueError("sampled mappings cannot be refined; supply finer samples")


@dataclass(eq=False)
class JacobianField:
    """Per-cell Jacobi matrices, Jacobians, and the degeneracy flags."""

    Df: np.ndarray
    J: np.ndarray
    flagged: np.ndarray  # J <= 0: excluded from dilatations, reported


def _singular_values(Df: np.ndarray) -> np.ndarray:
    """Per-cell singular values, descending.

    For 2x2 blocks, Df z = alpha z + beta conj(z) in complex notation, so
    sigma_max = |alpha| + |beta| = (|(a+d, c-b)| + |(a-d, c+b)|)/2, and
    sigma_min = |ad - bc| / sigma_max (0 where Df = 0), which keeps its
    relative accuracy where the difference |alpha| - |beta| would cancel.
    Other sizes use LAPACK.
    """
    if Df.shape[-1] != 2:
        return np.linalg.svd(Df, compute_uv=False)
    a, b, c, d = Df[..., 0, 0], Df[..., 0, 1], Df[..., 1, 0], Df[..., 1, 1]
    smax = 0.5 * (np.hypot(a + d, c - b) + np.hypot(a - d, c + b))
    nonzero = smax > 0
    smin = np.where(nonzero, np.abs(_det(Df)) / np.where(nonzero, smax, 1.0), 0.0)
    return np.stack([smax, smin], axis=-1)


def differentiate(mapping: Mapping) -> JacobianField:
    """Per-cell differential and Jacobian; cells with J <= 0 are flagged."""
    Df = mapping.cell_jacobian()
    J = _det(Df)
    return JacobianField(Df=Df, J=J, flagged=J <= 0.0)


def _dilatations(jf: JacobianField) -> tuple[float, float]:
    """Outer and inner dilatations K_O, K_I over the unflagged cells (both >= 1).

    Every cell is computed; the flagged ones (J <= 0, possibly 0) are masked
    at the two maxima.
    """
    ok = ~jf.flagged
    if not ok.any():
        raise ValueError("every cell is degenerate; no dilatations")
    n = jf.Df.shape[-1]
    sv = _singular_values(jf.Df)
    with np.errstate(divide="ignore", invalid="ignore"):
        K_O = float(np.max(sv[..., 0] ** n / jf.J, where=ok, initial=-np.inf))
        K_I = float(np.max(jf.J / sv[..., -1] ** n, where=ok, initial=-np.inf))
    return K_O, K_I


def distortion_tensor(jf: JacobianField) -> np.ndarray:
    """Unit-determinant tensor J^(2/n) Df^-1 Df^-T per cell.

    In the plane this is adj(Df) adj(Df)^T / J, symmetric by construction.
    Flagged cells get the identity (they are excluded from analysis and
    their mass is reported separately).  The plane's entries are written
    for every cell, the flagged ones included, and then overwritten.
    """
    n = jf.Df.shape[-1]
    out = np.empty(jf.Df.shape)
    if n == 2:
        a, b, c, d = jf.Df[..., 0, 0], jf.Df[..., 0, 1], jf.Df[..., 1, 0], jf.Df[..., 1, 1]
        with np.errstate(divide="ignore", invalid="ignore"):
            out[..., 0, 0] = (b * b + d * d) / jf.J
            out[..., 0, 1] = out[..., 1, 0] = -(a * b + c * d) / jf.J
            out[..., 1, 1] = (a * a + c * c) / jf.J
    else:
        ok = ~jf.flagged
        inv = np.linalg.inv(jf.Df[ok])
        theta = (jf.J[ok] ** (2.0 / n))[..., None, None] * (inv @ np.swapaxes(inv, -1, -2))
        out[ok] = 0.5 * (theta + np.swapaxes(theta, -1, -2))
    out[jf.flagged] = np.eye(n)
    return out


@dataclass(eq=False)
class QrAnalysis:
    """Everything the distortion analysis produces for one mapping."""

    K_O: float
    K_I: float
    theta: np.ndarray
    alpha: float  # K_O^(-2/n)
    beta: float   # K_I^(2/n)
    excluded_measure: float
    details: dict[str, Any] = field(default_factory=dict)


def analyze(mapping: Mapping) -> QrAnalysis:
    """Differential, dilatations, distortion tensor, ellipticity bounds.

    Certifies the ellipticity sandwich per cell: every eigenvalue of theta
    lies in [K_O^(-2/n), K_I^(2/n)] up to rounding, and det theta = 1.
    Flagged cells hold I, whose eigenvalue and determinant 1 lie inside
    every certified bound, so theta is read whole.  `details` carries the
    smallest and largest eigenvalue over all cells as "eigenvalue_range".
    """
    jf = differentiate(mapping)
    K_O, K_I = _dilatations(jf)
    n = mapping.domain.dim
    theta = distortion_tensor(jf)
    alpha = K_O ** (-2.0 / n)
    beta = K_I ** (2.0 / n)
    # from theta's own entries, not from sv: otherwise the check is a tautology
    eigs = _sym_eigvalsh(theta)
    tol = 1e-10 * max(beta, 1.0)
    lo, hi = float(np.min(eigs)), float(np.max(eigs))
    if not (lo >= alpha - tol and hi <= beta + tol):  # NaN fails too
        raise ValueError(
            f"ellipticity certification failed: eigenvalues [{lo:.6g}, {hi:.6g}] "
            f"escape [{alpha:.6g}, {beta:.6g}]")
    det_err = float(np.max(np.abs(_det(theta) - 1.0)))
    excluded = float(np.sum(np.where(jf.flagged, mapping.domain.measure, 0.0)))
    return QrAnalysis(
        K_O=K_O, K_I=K_I, theta=theta, alpha=alpha, beta=beta, excluded_measure=excluded,
        details={"det_error": det_err, "flagged_cells": int(jf.flagged.sum()),
                 "eigenvalue_range": (lo, hi)},
    )


def induced_structure(analysis: QrAnalysis, domain: GridDomain) -> GridStructure:
    """Grid structure whose coefficient field is the distortion tensor.

    `analysis` must come from `analyze`, which has computed every cell's
    eigenvalues (flagged cells hold I) and certified them against
    [alpha, beta] within rounding; theta is symmetric by construction.  So
    the field is not re-validated: its bounds are min(alpha, lowest) and
    max(beta, highest eigenvalue), each widened by 1e-9 of itself, which
    stay positive whenever theta is positive definite.
    """
    lo, hi = analysis.details["eigenvalue_range"]
    fld = CoefficientField._certified(analysis.theta, min(analysis.alpha, lo) * (1.0 - 1e-9),
                                      max(analysis.beta, hi) * (1.0 + 1e-9))
    return GridStructure(domain, fld)


def _matched_residuals(mapping: Mapping, include_log: bool | None,
                       analysis: QrAnalysis) -> dict[str, Any]:
    """Residuals of components (and log|f|) at matched nodes, two levels."""
    fine = mapping.refined()
    out: dict[str, Any] = {}
    levels = []
    for m, an in ((mapping, analysis), (fine, analyze(fine))):
        ctx = PFormContext(induced_structure(an, m.domain), float(m.domain.dim))
        region = m.safe_region()
        eligible = _region_interior(region, m.domain.dim)
        if not eligible.any():
            raise ValueError("analysis region has empty interior")
        fields = {}
        comps = m._component_functions()
        for i, comp in enumerate(comps):
            fields[f"component_{i}"] = scaled_operator_field(GridFunction(comp), ctx)
        if include_log:
            vals = m.node_values()
            absf = _length(vals)
            if np.any(absf[region] <= 0):
                raise ValueError("log|f| requested but f hits 0 on the region")
            logf = np.where(absf > 0, np.log(np.where(absf > 0, absf, 1.0)), 0.0)
            fields["log_abs"] = scaled_operator_field(GridFunction(logf), ctx)
        levels.append((eligible, fields))
    coarse_eligible, coarse_fields = levels[0]
    fine_eligible, fine_fields = levels[1]
    idx = np.argwhere(coarse_eligible)
    fine_idx = tuple((2 * idx).T)
    on_fine_grid = fine_eligible[fine_idx]
    for name in coarse_fields:
        rc = float(np.max(coarse_fields[name][tuple(idx.T)]))
        rf_vals = fine_fields[name][fine_idx]
        rf = float(np.max(rf_vals[on_fine_grid])) if on_fine_grid.any() else float(
            np.max(rf_vals))
        out[name] = {"coarse": rc, "fine": rf}
    return out


def verify_component_harmonicity(mapping: Mapping, min_order: float = 1.0,
                                 include_log: bool | None = None, *,
                                 analysis: QrAnalysis | None = None) -> CheckReport:
    """Refinement check that the components of f are harmonic for p = n.

    Residuals are mass-scaled operator pairings measured at the same
    physical nodes on the mapping's grid and its refinement.  Each field
    passes when either both residuals sit below the rounding floor 1e-10
    (the discrete operator annihilates quadratic and cubic harmonics
    exactly) or the observed order log2(coarse/fine) reaches min_order.
    log|f| is included automatically when the mapping omits zero on its
    region.

    The row compares min_order (lhs) with the worst observed order (rhs).
    When every field sits at the rounding floor no order is observed, and
    the row reports the inequality that was checked instead: the largest
    residual (lhs) against the floor (rhs), so every number stays finite.

    `analysis`, when given, must be `analyze(mapping)`; it saves recomputing it.
    """
    if include_log is None:
        include_log = mapping.omits_zero()
    res = _matched_residuals(mapping, include_log,
                             analyze(mapping) if analysis is None else analysis)
    rows = {}
    passed = True
    worst_order = math.inf
    for name, pair in res.items():
        rc, rf = pair["coarse"], pair["fine"]
        if rc <= _RESIDUAL_FLOOR and rf <= _RESIDUAL_FLOOR:
            rows[name] = {**pair, "regime": "exact_floor", "order": None}
            continue
        order = math.log2(rc / rf) if rf > 0 else math.inf
        ok = order >= min_order
        rows[name] = {**pair, "regime": "refinement", "order": order}
        passed = passed and ok
        worst_order = min(worst_order, order)
    if all(row["regime"] == "exact_floor" for row in rows.values()):
        lhs, rhs = max(max(pair.values()) for pair in res.values()), _RESIDUAL_FLOOR
    else:
        lhs, rhs = min_order, worst_order
    return CheckReport(
        check="component_harmonicity", p=float(mapping.domain.dim),
        grid=mapping.domain.describe(),
        passed=passed, lhs=lhs, rhs=rhs, tolerance=_RESIDUAL_FLOOR,
        details={"fields": rows, "include_log": include_log},
    )
