"""The nonlinear p-form, its generating operator, and executable checkers.

For a grid structure with carre du champ gamma and measure m, and p > 1,

    form_p(u, v) = sum_c (gamma(u)(c) + eps)^((p-2)/2) gamma(u, v)(c) m(c)

with the convex potential

    energy_p(u) = (1/p) sum_c (gamma(u)(c) + eps)^(p/2) m(c)

whose exact algebraic gradient is the monotone operator generating the
form.  `p_operator` returns its node coefficients F, an array of the node
shape, zero on the Dirichlet mask, so that the pairing with a test
function v is sum(F * v); the identity sum(p_operator(u) * v) =
form_p(u, v) holds to machine precision by construction, not by
discretization.  eps is a regularization used below p = 2 where the
integrand is singular at gamma = 0; for p >= 2 it defaults to zero and
all identities are exact.

The check_* functions turn the defining properties of the form
(homogeneity, sector condition, monotonicity, coercivity, hemicontinuity,
contraction compatibility and the pure-potential axioms) into executable
verdicts with explicit tolerances.  The `check` command runs the sector,
monotone, contraction and pure-potential verdicts; `check_coercive` (with
`estimate_poincare`) and `check_hemicontinuous` are library verdicts that
no command runs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
import scipy.sparse.linalg as spla

from .assemble import mass_matrix, stiffness_matrix
from .grid import (
    GridFunction,
    GridStructure,
    ShapeMismatchError,
    _flux_gamma,
    _halves,
    _pair,
    _values,
    dp_norm,
    gamma,
    gradient_adjoint,
)
from .report import CheckReport

__all__ = [
    "PFormContext",
    "PurePotentialError",
    "p_form",
    "p_energy",
    "p_operator",
    "scaled_operator_field",
    "check_sector",
    "check_monotone",
    "check_coercive",
    "estimate_poincare",
    "check_hemicontinuous",
    "check_contraction_operates",
    "check_dirichlet_axioms",
]


@dataclass(frozen=True, eq=False)
class PFormContext:
    """A grid structure with the exponent p and the regularization policy.

    eps = 0 is permitted only for p >= 2; below that the weight
    gamma^((p-2)/2) is singular on cells with vanishing gradient and a
    strictly positive eps is required.  Results computed with eps > 0 are
    regularized and flagged as such by the reporting layer.
    """

    structure: GridStructure
    p: float
    eps: float = 0.0

    def __post_init__(self) -> None:
        object.__setattr__(self, "p", float(self.p))
        object.__setattr__(self, "eps", float(self.eps))
        if self.p <= 1:
            raise ValueError(f"the form needs p > 1, got p = {self.p}")
        if self.eps < 0:
            raise ValueError("eps must be nonnegative")
        if self.p < 2 and self.eps == 0:
            raise ValueError("p < 2 requires a positive regularization eps")

    @property
    def domain(self):
        return self.structure.domain

    @property
    def measure(self) -> np.ndarray:
        return self.structure.measure

    def describe(self) -> str:
        return self.structure.describe()


def _safe_power(base: np.ndarray, expo: float) -> np.ndarray:
    """base**expo with the convention 0**0 = 1 and 0**negative = 0."""
    if expo == 0.0:
        return np.ones_like(base)
    if expo > 0.0:
        return base ** expo
    # the whole array at once, then every cell that is not positive (NaN too) set to 0
    with np.errstate(divide="ignore", invalid="ignore"):
        out = base ** expo
    out[~(base > 0.0)] = 0.0
    return out


def _weight(g: np.ndarray, ctx: PFormContext) -> np.ndarray:
    """(gamma(u)+eps)^((p-2)/2) per cell, from the per-cell gamma(u)."""
    return _safe_power(g + ctx.eps, (ctx.p - 2.0) / 2.0)


def _weights(u, ctx: PFormContext) -> tuple[np.ndarray, np.ndarray]:
    """(G grad u, (gamma(u)+eps)^((p-2)/2)) per cell, from one gradient of u."""
    Ggu, g = _flux_gamma(u, ctx.structure)
    return Ggu, _weight(g, ctx)


def _form_density(u, v, ctx: PFormContext) -> np.ndarray:
    """Per-cell integrand (gamma(u)+eps)^((p-2)/2) gamma(u, v) of p_form."""
    Ggu, w = _weights(u, ctx)
    return w * _pair(Ggu, v, ctx.domain)


def p_form(u, v, ctx: PFormContext) -> float:
    """The nonlinear p-form: sum_c (gamma(u)+eps)^((p-2)/2) gamma(u,v) m.

    For p = 2 (and eps = 0) this coincides with twice the bilinear energy.
    Linear in v; homogeneous of degree p - 1 in u.
    """
    return float(np.sum(_form_density(u, v, ctx) * ctx.measure))


def p_energy(u, ctx: PFormContext) -> float:
    """Convex potential (1/p) int (gamma(u)+eps)^(p/2) dm.

    Its directional derivative at u in direction v equals p_form(u, v), and
    for eps = 0 it is positively homogeneous of degree p.
    """
    return _energy(gamma(u, ctx.structure), ctx)


def _energy(g: np.ndarray, ctx: PFormContext) -> float:
    """p_energy from the per-cell gamma(u)."""
    return float(np.sum(_safe_power(g + ctx.eps, ctx.p / 2.0) * ctx.measure)) / ctx.p


def p_operator(u, ctx: PFormContext, mask: np.ndarray | None = None) -> np.ndarray:
    """Gradient of p_energy at u: the monotone operator generating the form.

    Returns the node coefficients F, zeroed on the mask (taken from u when
    not given), so that sum(F * v) = p_form(u, v) to machine precision for
    every v vanishing on the mask.  Homogeneous of degree p - 1 for eps = 0.
    """
    if mask is None and isinstance(u, GridFunction):
        mask = u.mask
    coeff = _operator(_flux_gamma(u, ctx.structure), ctx)
    if mask is None:
        return coeff
    mask = np.asarray(mask, dtype=bool)
    if mask.shape != coeff.shape:
        raise ShapeMismatchError("mask and coefficients have different shapes")
    return np.where(mask, 0.0, coeff)


def _operator(flux: tuple[np.ndarray, np.ndarray], ctx: PFormContext) -> np.ndarray:
    """Unmasked p_operator coefficients from the cell flux (G grad u, gamma(u))."""
    Ggu, g = flux
    q = 2.0 * (ctx.measure * _weight(g, ctx))[..., None] * Ggu
    return gradient_adjoint(q, ctx.domain)


def scaled_operator_field(u, ctx: PFormContext) -> np.ndarray:
    """|p_operator(u)| divided by the node mass.

    This is the residual density used for harmonicity certificates and for
    solver convergence: it is the pairing against the nodal hat function at
    j, normalized by the measure carried by node j.
    """
    coeff = _operator(_flux_gamma(u, ctx.structure), ctx)
    return np.abs(coeff) / ctx.domain.node_mass


def _pairing_difference(a, b, direction, ctx: PFormContext) -> float:
    """<p_operator(a) - p_operator(b), direction>, accumulated per cell.

    Computing the difference of the two integrands cell by cell keeps exact
    cancellations (cells where both terms agree bitwise) intact.
    """
    integrand = _form_density(a, direction, ctx) - _form_density(b, direction, ctx)
    return float(np.sum(integrand * ctx.measure))


def _magnitude_scale(u, v, ctx: PFormContext) -> float:
    """Natural size of pairings built from u and v (sector-type bound)."""
    eu = p_energy(u, ctx) * ctx.p
    ev = p_energy(v, ctx) * ctx.p
    return max(eu, ev, 1e-300)


# -- checkers ----------------------------------------------------------------

def check_sector(u, v, ctx: PFormContext) -> CheckReport:
    """Sector condition |form(u,v)| <= form(u,u)^((p-1)/p) form(v,v)^(1/p).

    Exact Hoelder on the finite cell sums; asserted with a pure rounding
    tolerance.
    """
    euv = p_form(u, v, ctx)
    euu = p_form(u, u, ctx)
    evv = p_form(v, v, ctx)
    lhs = abs(euv)
    rhs = max(euu, 0.0) ** ((ctx.p - 1.0) / ctx.p) * max(evv, 0.0) ** (1.0 / ctx.p)
    tol = 1e-12 * max(rhs, 1.0)
    return CheckReport(
        check="sector", p=ctx.p, grid=ctx.describe(),
        passed=lhs <= rhs + tol, lhs=lhs, rhs=rhs, tolerance=tol,
        details={"form_uv": euv, "form_uu": euu, "form_vv": evv},
    )


def check_monotone(u, v, ctx: PFormContext) -> CheckReport:
    """Per-cell monotonicity of the operator, then the integrated pairing.

    The per-cell quantity w(u) gamma(u, u-v) - w(v) gamma(v, u-v) is
    nonnegative by the pointwise algebra of the carre du champ; integration
    gives <op(u) - op(v), u - v> >= 0.  When the pairing vanishes, gamma of
    the difference must vanish on every cell.
    """
    s = ctx.structure
    d = GridFunction(_values(u) - _values(v))
    percell = _form_density(u, d, ctx) - _form_density(v, d, ctx)
    pairing = float(np.sum(percell * ctx.measure))
    worst = float(np.min(percell)) if percell.size else 0.0
    scale = max(float(np.max(np.abs(percell))), 1.0)
    tol = 1e-12 * scale
    passed = worst >= -tol and pairing >= -tol * s.domain.total_measure
    details = {"pairing": pairing, "min_cell_value": worst}
    if abs(pairing) <= tol * s.domain.total_measure:
        gd = gamma(d, s)
        details["gamma_difference_max"] = float(np.max(gd)) if gd.size else 0.0
        passed = passed and details["gamma_difference_max"] <= math.sqrt(tol)
    return CheckReport(
        check="monotone", p=ctx.p, grid=ctx.describe(),
        passed=passed, lhs=-worst, rhs=0.0, tolerance=tol,
        details=details,
    )


def estimate_poincare(structure: GridStructure, mask: np.ndarray) -> float:
    """Best constant k with  int ubar^2 dm <= k int gamma(u) dm  on the mask's complement.

    The right-hand side is the full carre du champ integral (twice the
    bilinear energy); with that pairing the unit interval with pinned ends
    and unit coefficient has the continuum constant 1/(2 pi^2).  Computed
    as the largest eigenvalue of the pencil (M, S) on the free nodes by
    shift-invert Lanczos about zero: 1/k is the smallest eigenvalue of
    S x = mu M x.  M may be singular (checkerboard modes), S is not.
    """
    mask_flat = np.asarray(mask, dtype=bool).reshape(-1)
    if not mask_flat.any():
        raise ValueError("Poincare constant needs a nonempty Dirichlet mask")
    free = ~mask_flat
    if not free.any():
        raise ValueError("no free nodes left")
    S = stiffness_matrix(structure).tocsc()[free][:, free]
    M = mass_matrix(structure.domain).tocsc()[free][:, free]
    if S.shape[0] == 1:  # ARPACK needs at least two unknowns
        return float(M[0, 0] / S[0, 0])
    mu = spla.eigsh(S, k=1, M=M, sigma=0.0, return_eigenvectors=False)
    return float(1.0 / mu[0])


def check_coercive(ctx: PFormContext, k: float, mask: np.ndarray,
                   n_samples: int = 20, rng: np.random.Generator | None = None) -> CheckReport:
    """Sampled coercivity bound ||u||_{D_p}^p <= (1 + (sqrt(k) p / 2)^p) <op(u), u>.

    k must be a valid constant for  int ubar^2 dm <= k int gamma(u) dm  over
    functions vanishing on the mask (see estimate_poincare); the constant in
    front of the pairing is then inherited from the linear bound.  Violations
    are reported with the offending sample.
    """
    mask = np.asarray(mask, dtype=bool)
    if not mask.any():
        raise ValueError("coercivity needs a nonempty Dirichlet mask")
    if n_samples < 1:
        raise ValueError("need at least 1 sample")
    rng = rng or np.random.default_rng(0)
    c = 1.0 + (math.sqrt(k) * ctx.p / 2.0) ** ctx.p
    worst = math.inf
    witness = None
    lhs_w = rhs_w = 0.0
    for i in range(n_samples):
        vals = rng.standard_normal(ctx.domain.node_shape)
        if i % 2 == 1:  # smoother samples exercise a different regime
            for axis in range(ctx.domain.dim):
                vals = 0.5 * vals + 0.25 * (np.roll(vals, 1, axis) + np.roll(vals, -1, axis))
        vals = np.where(mask, 0.0, vals)
        u = GridFunction(vals, mask)
        lhs = dp_norm(u, ctx.structure, ctx.p) ** ctx.p
        rhs = c * p_form(u, u, ctx)
        slack = rhs - lhs
        if slack < worst:
            worst, lhs_w, rhs_w = slack, lhs, rhs
            if slack < 0:
                witness = {"sample_index": i, "lhs": lhs, "rhs": rhs}
    tol = 1e-10 * max(abs(rhs_w), 1.0)
    return CheckReport(
        check="coercive", p=ctx.p, grid=ctx.describe(),
        passed=worst >= -tol, lhs=lhs_w, rhs=rhs_w, tolerance=tol,
        witness=witness, details={"constant": c, "poincare_k": k, "samples": n_samples},
    )


def check_hemicontinuous(u, v, ctx: PFormContext, samples: int = 64) -> CheckReport:
    """Continuity of t -> <op(v + t(u-v)), u - v> along the segment.

    Evaluates the scalar map on `samples` and on 2*samples uniform points of
    [0, 1] and requires the maximal jump between adjacent samples to decay
    (ratio <= 0.75) under the doubling, which certifies a finite modulus of
    continuity.  For p = 2 the map is affine in t.
    """
    if samples < 3:
        raise ValueError("need at least 3 samples")
    du = _values(u) - _values(v)
    vv = _values(v)
    d = GridFunction(du)

    def g(ts: np.ndarray) -> np.ndarray:
        return np.array([p_form(GridFunction(vv + t * du), d, ctx) for t in ts])

    t1 = np.linspace(0.0, 1.0, samples)
    t2 = np.linspace(0.0, 1.0, 2 * samples)
    g1 = g(t1)
    g2 = g(t2)
    jump1 = float(np.max(np.abs(np.diff(g1)))) if samples > 1 else 0.0
    jump2 = float(np.max(np.abs(np.diff(g2))))
    scale = max(float(np.max(np.abs(g1))), 1.0)
    floor = 1e-13 * scale
    if jump1 <= floor and jump2 <= floor:
        ratio = 0.0
    else:
        ratio = jump2 / max(jump1, floor)
    second = float(np.max(np.abs(np.diff(g2, 2)))) if len(g2) > 2 else 0.0
    return CheckReport(
        check="hemicontinuous", p=ctx.p, grid=ctx.describe(),
        passed=ratio <= 0.75, lhs=ratio, rhs=0.75, tolerance=0.0,
        details={"max_jump_coarse": jump1, "max_jump_fine": jump2,
                 "max_second_difference": second, "samples": samples},
    )


def _apply_contraction(kind: str, vals: np.ndarray, alpha: float | None,
                       T: Callable[[np.ndarray], np.ndarray] | None) -> np.ndarray:
    if kind == "unit":
        return np.clip(vals, 0.0, 1.0)
    if kind == "negative_part":
        return np.minimum(vals, 0.0)
    if kind == "threshold":
        if alpha is None or alpha <= 0:
            raise ValueError("threshold contraction needs alpha > 0")
        return np.clip(vals, 0.0, alpha)
    if kind == "smooth":
        if T is None:
            raise ValueError("smooth contraction needs the map T")
        return np.asarray(T(vals), dtype=float)
    raise ValueError(f"unknown contraction kind {kind!r}")


def _alignment(vals: np.ndarray, cuts: tuple[float, ...], domain) -> np.ndarray:
    """Per-cell flag: all corner values on one side of every cut."""
    lo = vals
    hi = vals
    for axis in range(domain.dim):
        lower, upper = _halves(axis)
        lo = np.minimum(lo[lower], lo[upper])
        hi = np.maximum(hi[lower], hi[upper])
    levels = (-math.inf,) + cuts + (math.inf,)
    aligned = np.zeros(domain.cells_shape, dtype=bool)
    for a, b in zip(levels[:-1], levels[1:]):
        aligned |= (lo >= a) & (hi <= b)
    return aligned


def _validate_contraction(T: Callable[[np.ndarray], np.ndarray], lo: float, hi: float) -> None:
    span = max(hi - lo, 1.0)
    ts = np.linspace(lo - 0.1 * span, hi + 0.1 * span, 513)
    Tt = np.asarray(T(ts), dtype=float)
    slopes = np.abs(np.diff(Tt) / np.diff(ts))
    if np.max(slopes) > 1.0 + 1e-6:
        raise ValueError(f"map is not a contraction: sampled slope {np.max(slopes):.6g} > 1")
    at_zero = float(np.asarray(T(np.array([0.0])), dtype=float).reshape(-1)[0])
    if abs(at_zero) > 1e-12:
        raise ValueError("normal contraction must fix 0")


def check_contraction_operates(u, v, ctx: PFormContext, kind: str = "unit",
                               alpha: float | None = None,
                               T: Callable[[np.ndarray], np.ndarray] | None = None) -> CheckReport:
    """Compatibility of a normal contraction with the operator.

    For the clipping kinds (unit, negative_part, threshold) this evaluates
    the exchange pairing <op(v + Tu) - op(v), u - Tu> and asserts it is
    nonnegative.  On cells whose corner values of u all fall on one side of
    every clipping threshold the two integrands agree bitwise, so aligned
    inputs are checked at rounding accuracy; cells straddling a threshold
    contribute O(h) and widen the tolerance to C*h with C reported.

    For a smooth kind (|T'| <= 1, T(0) = 0, validated by sampling) the
    stronger pairing <op(u + Tu + v) - op(v), u - Tu> is asserted at
    rounding accuracy: the underlying per-cell inequality chain is purely
    algebraic.
    """
    uvals = _values(u)
    vvals = _values(v)
    if kind == "smooth":
        _validate_contraction(T, float(np.min(uvals)), float(np.max(uvals)))
    Tu = _apply_contraction(kind, uvals, alpha, T)
    direction = GridFunction(uvals - Tu)
    if kind == "smooth":
        a = GridFunction(uvals + Tu + vvals)
    else:
        a = GridFunction(vvals + Tu)
    b = GridFunction(vvals)
    pairing = _pairing_difference(a, b, direction, ctx)

    cuts = {"unit": (0.0, 1.0), "negative_part": (0.0,),
            "threshold": (0.0, alpha), "smooth": ()}[kind]
    aligned = _alignment(uvals, cuts, ctx.domain)
    all_aligned = bool(np.all(aligned))
    scale = _magnitude_scale(a, b, ctx)
    h_max = max(ctx.domain.spacing)
    if kind == "smooth" or all_aligned:
        tol = 1e-12 * max(scale, 1.0)
        regime = "exact"
    else:
        tol = scale * h_max
        regime = "straddling"
    return CheckReport(
        check=f"contraction_{kind}", p=ctx.p, grid=ctx.describe(),
        passed=pairing >= -tol, lhs=-pairing, rhs=0.0, tolerance=tol,
        details={
            "pairing": pairing,
            "regime": regime,
            "aligned_cells": int(np.sum(aligned)),
            "total_cells": int(aligned.size),
            "tolerance_constant": scale if regime == "straddling" else 0.0,
            "h": h_max,
        },
    )


class PurePotentialError(ValueError):
    """An input function fails the pure-potential cone condition."""


def _pure_potential_test(coeff: np.ndarray) -> tuple[bool, float, tuple[int, ...]]:
    """(clean, worst coefficient, node) for operator coefficients, zero on the mask.

    The sign condition holds up to 1e-10 times the largest coefficient.
    """
    j = int(np.argmin(coeff))
    idx = np.unravel_index(j, coeff.shape)
    worst = float(coeff[idx])
    scale = float(np.max(np.abs(coeff))) if coeff.size else 0.0
    return worst >= -1e-10 * max(scale, 1e-300), worst, tuple(int(i) for i in idx)


def _require_pure_potential(coeff: np.ndarray, name: str) -> None:
    clean, worst, idx = _pure_potential_test(coeff)
    if not clean:
        raise PurePotentialError(
            f"{name} is not a pure potential: coefficient {worst:.3e} at node {idx}"
        )


def check_dirichlet_axioms(u, v, alpha: float, ctx: PFormContext,
                           mask: np.ndarray | None = None) -> CheckReport:
    """The two pure-potential axioms of a nonlinear Dirichlet form.

    With u, v validated as pure potentials and alpha >= 0, asserts

        <op(u ^ v),          u - u ^ v>           >= -tol
        <op(u ^ (v + a)),    u - u ^ (v + a)>     >= -tol

    at rounding accuracy when every cell is aligned with the comparison
    level sets, and with tol = C*h (C reported) otherwise.
    """
    if alpha < 0:
        raise ValueError("alpha must be nonnegative")
    _require_pure_potential(p_operator(u, ctx, mask=mask), "u")
    v_coeff = p_operator(v, ctx, mask=mask)
    _require_pure_potential(v_coeff, "v")
    uvals = _values(u)
    vvals = _values(v)
    # inputs are pure potentials only up to solver tolerance; on aligned
    # cells the pairing reduces to <op(v), (u - v - shift)+>, so the negative
    # part of v's coefficients bounds how far below zero it can drift
    neg_mass = float(np.sum(np.maximum(-v_coeff, 0.0)))

    def one(other: np.ndarray) -> tuple[float, bool, float]:
        w = np.minimum(uvals, other)
        pairing = p_form(GridFunction(w), GridFunction(uvals - w), ctx)
        diff = uvals - other
        aligned = bool(np.all(_alignment(diff, (0.0,), ctx.domain)))
        scale = _magnitude_scale(GridFunction(w), GridFunction(uvals), ctx)
        slack_bound = neg_mass * float(np.max(np.maximum(diff, 0.0), initial=0.0))
        if aligned:
            tol = 1e-12 * max(scale, 1.0) + slack_bound
        else:
            tol = scale * max(ctx.domain.spacing) + slack_bound
        return pairing, aligned, tol

    p1, aligned1, tol1 = one(vvals)
    p2, aligned2, tol2 = one(vvals + float(alpha))
    passed = (p1 >= -tol1) and (p2 >= -tol2)
    return CheckReport(
        check="dirichlet_axioms", p=ctx.p, grid=ctx.describe(),
        passed=passed, lhs=-min(p1, p2), rhs=0.0,
        tolerance=max(tol1, tol2),
        details={
            "pairing_meet": p1, "pairing_shifted": p2, "alpha": float(alpha),
            "aligned_meet": aligned1, "aligned_shifted": aligned2,
        },
    )
