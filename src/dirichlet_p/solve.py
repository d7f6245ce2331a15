"""p-harmonic Dirichlet problems and the obstacle variational inequality.

The Dirichlet solve minimizes the convex potential `p_energy` over the
free nodes with pinned boundary values; convergence is declared on the
mass-scaled infinity norm of the operator coefficients (the same quantity
`harmonicity_residual` reports), not on energy decrements.  The method
is Newton with the exact sparse Hessian and a Levenberg shift that
covers cells with degenerate gradient; the initial guess is the linear
(p = 2) solution, which already lies in the convex basin.

The obstacle solve runs the same Newton loop with a primal-dual
active-set step (Hintermüller, Ito and Kunisch 2002): nodes below the
obstacle are pinned to it, pinned nodes with a negative multiplier are
released, and each step factors the inactive block only, under the same
Armijo search.  It solves the linear (p = 2) obstacle problem first, then
the p-problem from that solution and its active set.  Active nodes sit
exactly on the obstacle with nonnegative multipliers; inactive nodes
carry residuals at solver tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla
from scipy import ndimage

from .assemble import _SPD_SPLU, _block_order, assemble_form_matrix, solve_linear_dirichlet
from .grid import GridFunction, ShapeMismatchError, _flux_gamma, _values, dp_norm
from .pform import PFormContext, _safe_power, p_energy, p_operator, scaled_operator_field

__all__ = [
    "SolveError",
    "SolveOptions",
    "SolveResult",
    "hessian_matrix",
    "solve_dirichlet",
    "solve_obstacle",
    "harmonicity_residual",
    "vi_residual",
]

# Armijo sufficient-decrease constant and step-halving factor of the line search
_ARMIJO_C1 = 1e-4
_BACKTRACK = 0.5
# an active node is released when its multiplier is below -_RELEASE_TOL * node mass
_RELEASE_TOL = 1e-8


class SolveError(RuntimeError):
    """Non-convergence; carries the energy/residual trace for diagnosis."""

    def __init__(self, message: str, trace: list[dict[str, float]] | None = None):
        super().__init__(message)
        self.trace = trace or []


@dataclass(frozen=True)
class SolveOptions:
    grad_tol: float = 1e-8
    max_iter: int = 200

    def __post_init__(self) -> None:
        if not (np.isfinite(self.grad_tol) and self.grad_tol > 0):
            raise ValueError("grad_tol must be positive and finite")
        if self.max_iter < 1:
            raise ValueError("max_iter must be at least 1")


@dataclass(eq=False)
class SolveResult:
    solution: GridFunction
    residual_norm: float
    iterations: int
    energy_trace: list[float]
    diagnostics: dict[str, Any] = field(default_factory=dict)


def hessian_matrix(u, ctx: PFormContext) -> sp.csr_matrix:
    """Exact sparse Hessian of p_energy at u (positive semidefinite for p >= 2)."""
    G = ctx.structure.field.matrices
    Gg, gam = _flux_gamma(u, ctx.structure)
    base = gam + ctx.eps
    w = _safe_power(base, (ctx.p - 2.0) / 2.0)
    w4 = _safe_power(base, (ctx.p - 4.0) / 2.0)
    rank1 = 2.0 * (ctx.p - 2.0) * w4[..., None, None] * (Gg[..., :, None] * Gg[..., None, :])
    blocks = 2.0 * ctx.measure[..., None, None] * (w[..., None, None] * G + rank1)
    return assemble_form_matrix(ctx.domain, blocks)


def _scaled_residual(coeff: np.ndarray, mass: np.ndarray) -> float:
    """Largest |coefficient| / node mass; zero when there are no nodes."""
    return float(np.max(np.abs(coeff) / mass)) if coeff.size else 0.0


def _free_objective(base: np.ndarray, mask: np.ndarray, ctx: PFormContext):
    """Energy and its gradient as functions of the free values.

    Returns (embed, fun, jac): embed writes free values into a copy of the
    flat array base, whose masked entries stay pinned.
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
        return p_operator(gf, ctx, mask=mask).coefficients.reshape(-1)[free]

    return embed, fun, jac


def _newton(vals: np.ndarray, mask: np.ndarray, ctx: PFormContext, opts: SolveOptions,
            lower: np.ndarray | None = None, active: np.ndarray | None = None
            ) -> tuple[np.ndarray, float, int, list[float], list[dict], np.ndarray, np.ndarray]:
    """Newton on the free nodes, with the active-set step when `lower` is given.

    `lower` holds node values (-inf where unconstrained); `active` is the
    starting active set over the free nodes, whose nodes sit on `lower`.
    The last item returned is the free nodes' operator coefficients at the solution.
    """
    free = ~mask.reshape(-1)
    free_index = np.cumsum(free) - 1
    mass = ctx.domain.node_mass().reshape(-1)[free]
    embed, fun, jac = _free_objective(vals.reshape(-1), mask, ctx)
    x = vals.reshape(-1)[free]
    lo = np.full(x.shape, -np.inf) if lower is None else lower.reshape(-1)[free]
    active = np.zeros(x.shape, dtype=bool) if active is None else active.copy()
    J = fun(x)
    trace: list[dict] = []
    # energy_trace is the running minimum over iterates that violate no bound
    energy_trace = [J]
    lam = 0.0
    iterations = 0
    for it in range(opts.max_iter + 1):
        g = jac(x)
        violated = ~active & (x < lo)
        released = active & (g < -_RELEASE_TOL * mass)
        active = (active | violated) & ~released
        changed = bool(violated.any() or released.any())
        if violated.any():
            x = np.where(violated, lo, x)
            J = fun(x)
            g = jac(x)
        inactive = ~active
        res = _scaled_residual(g[inactive], mass[inactive])
        row = {"iteration": it, "energy": J, "residual": res, "lambda": lam}
        if lower is not None:
            row.update(p=ctx.p, active=int(active.sum()), violated=int(violated.sum()),
                       released=int(released.sum()))
        trace.append(row)
        if res <= opts.grad_tol and not changed:
            return embed(x), res, iterations, energy_trace, trace, active, g
        if it == opts.max_iter:
            break
        if not inactive.any():
            continue
        u = GridFunction(embed(x).reshape(ctx.domain.node_shape))
        block = free.copy()
        block[free] = inactive
        # the inactive block in the grid's dissection order; o indexes the free nodes
        nodes = _block_order(ctx.domain.node_shape, block)
        H_oo = hessian_matrix(u, ctx)[nodes][:, nodes].tocsc()
        o = free_index[nodes]
        step = None
        for _attempt in range(25):
            shift = lam * sp.diags(np.maximum(H_oo.diagonal(), 1e-300)) if lam > 0 else None
            A = H_oo + shift if shift is not None else H_oo
            d = np.zeros_like(x)
            try:
                d[o] = spla.splu(A.tocsc(), **_SPD_SPLU).solve(-g[o])
            except RuntimeError:
                lam = max(lam * 10.0, 1e-10)
                continue
            slope = float(g @ d)
            if not np.isfinite(slope) or slope >= 0:
                lam = max(lam * 10.0, 1e-10)
                continue
            # energy differences below float resolution cannot drive an
            # Armijo test; accept on residual decrease instead
            resolution_limited = abs(slope) <= 1e-13 * (abs(J) + 1.0)
            t = 1.0
            ok = False
            while t > 1e-14:
                x_try = x + t * d
                J_try = fun(x_try)
                if resolution_limited:
                    res_try = _scaled_residual(jac(x_try)[inactive], mass[inactive])
                    if res_try < res:
                        J_try = min(J_try, J)
                        ok = True
                        break
                elif J_try <= J + _ARMIJO_C1 * t * slope:
                    ok = True
                    break
                t *= _BACKTRACK
            if ok:
                step = (x_try, J_try, t)
                break
            lam = max(lam * 10.0, 1e-10)
        if step is None:
            raise SolveError("line search failed at a stationary-looking point", trace)
        x, J, t_used = step
        if not np.any(x < lo):
            energy_trace.append(min(energy_trace[-1], J))
        iterations += 1
        lam = lam / 3.0 if t_used == 1.0 else min(lam * 2.0 + 1e-12, 1e6)
        if lam < 1e-14:
            lam = 0.0
    raise SolveError(
        f"Newton did not reach grad_tol={opts.grad_tol:g} in {opts.max_iter} iterations "
        f"(residual {res:.3e}{', active set still changing' if changed else ''})", trace)


def solve_dirichlet(ctx: PFormContext, boundary: GridFunction,
                    opts: SolveOptions | None = None,
                    initial: GridFunction | None = None) -> SolveResult:
    """Minimize the p-energy subject to the boundary mask of `boundary`.

    Returns the minimizer with the prescribed values on masked nodes and
    mass-scaled interior operator coefficients below grad_tol.  The
    default initial guess is the linear (p = 2) solution; the minimizer is
    unique, so different initial guesses agree to solver tolerance.
    Raises SolveError (with the iteration trace attached) on
    non-convergence.
    """
    opts = opts or SolveOptions()
    if boundary.mask is None or not boundary.mask.any():
        raise ValueError("solve_dirichlet needs a nonempty boundary mask")
    if boundary.values.shape != ctx.domain.node_shape:
        raise ShapeMismatchError("boundary data does not match the grid")
    mask = boundary.mask
    if initial is not None:
        vals = np.where(mask, boundary.values, initial.values)
    else:
        vals = np.where(mask, boundary.values, 0.0)
        vals = solve_linear_dirichlet(ctx.structure, vals, mask)
    u, res, iters, etrace, trace, _, _ = _newton(vals, mask, ctx, opts)
    sol = GridFunction(u.reshape(ctx.domain.node_shape), mask)
    return SolveResult(
        solution=sol, residual_norm=res, iterations=iters, energy_trace=etrace,
        diagnostics={"method": "newton_regularized", "grad_tol": opts.grad_tol,
                     "initial_energy": etrace[0], "trace": trace},
    )


def _region_interior(region: np.ndarray, dim: int) -> np.ndarray:
    """Nodes of the region whose full stencil neighborhood stays inside it."""
    footprint = np.ones((3,) * dim, dtype=bool)
    return ndimage.binary_erosion(region, structure=footprint, border_value=0)


def harmonicity_residual(u, region: np.ndarray, ctx: PFormContext) -> float:
    """Largest mass-scaled pairing |<p_operator(u), hat_j>| over the region.

    Test nodes are those whose whole stencil neighborhood lies inside the
    region, so the value certifies harmonicity strictly inside it.  Zero
    (to rounding) for affine functions with a constant coefficient field.
    """
    region = np.asarray(region, dtype=bool)
    if region.shape != ctx.domain.node_shape:
        raise ShapeMismatchError("region mask does not match the grid")
    eligible = _region_interior(region, ctx.domain.dim)
    if not eligible.any():
        raise ValueError("region has empty interior")
    return float(np.max(scaled_operator_field(u, ctx)[eligible]))


def vi_residual(u: GridFunction, ctx: PFormContext, feasible: list[np.ndarray],
                mask: np.ndarray) -> float:
    """Worst normalized violation of <op(u), v - u> >= 0 over feasible samples."""
    return _vi_residual(p_operator(u, ctx, mask=mask).coefficients, u, ctx, feasible)


def _vi_residual(coeff: np.ndarray, u: GridFunction, ctx: PFormContext,
                 feasible: list[np.ndarray]) -> float:
    """vi_residual with the coefficients of op(u), zero on the mask, given."""
    worst = 0.0
    for v in feasible:
        d = np.asarray(v, dtype=float) - u.values
        norm = dp_norm(GridFunction(d), ctx.structure, ctx.p)
        if norm == 0.0:
            continue
        worst = max(worst, -float(np.sum(coeff * d)) / norm)
    return worst


def solve_obstacle(ctx: PFormContext, lower: GridFunction, boundary: GridFunction,
                   opts: SolveOptions | None = None) -> SolveResult:
    """Solve min p_energy over {u >= lower, u = boundary on the mask}.

    Runs the active-set Newton loop twice: on the p = 2 problem from the
    projected linear solve, then on the p-problem.  An active node is
    released when its multiplier is below -1e-8 times its node mass.
    On the free set, either the operator coefficient is nonnegative (up to
    tolerance) or u sits on the obstacle.  `energy_trace` is nonincreasing
    and ends at the solution's energy.  Diagnostics carry the active set
    size, the complementarity residuals, a check of the variational
    inequality against competitors sampled with seed 0, and `rounds`, one
    row per loop iteration of both runs.
    """
    opts = opts or SolveOptions()
    if boundary.mask is None or not boundary.mask.any():
        raise ValueError("solve_obstacle needs a nonempty boundary mask")
    domain = ctx.domain
    mask = boundary.mask
    lo = _values(lower)
    if lo.shape != domain.node_shape:
        raise ShapeMismatchError("obstacle does not match the grid")
    pinned = np.where(mask, boundary.values, 0.0)
    if np.any(boundary.values[mask] < lo[mask] - 1e-14):
        raise ValueError("infeasible: boundary data lies below the obstacle")

    free = ~mask.reshape(-1)
    lo_flat = lo.reshape(-1)
    node_mass = domain.node_mass().reshape(-1)

    vals = solve_linear_dirichlet(ctx.structure, pinned, mask).reshape(-1)
    vals[free] = np.maximum(vals[free], lo_flat[free])
    # the linear obstacle problem first: its solution meets the obstacle
    # smoothly, so the p-loop starts inside Newton's quadratic basin, which
    # the kinked projection does not
    vals, _, linear_iters, _, linear_trace, active, _ = _newton(
        vals, mask, PFormContext(ctx.structure, 2.0), opts, lo,
        vals[free] <= lo_flat[free])
    vals, residual, iterations, energy_trace, trace, active, g = _newton(
        vals, mask, ctx, opts, lo, active)

    u = GridFunction(vals.reshape(domain.node_shape), mask)
    coeff = np.zeros_like(vals)
    coeff[free] = g
    scaled = np.abs(coeff) / np.maximum(node_mass, 1e-300)
    slack = np.where(np.isfinite(lo_flat), vals - lo_flat, np.inf)
    comp = float(np.max(np.abs(np.minimum(slack[free], 0.0)))) if free.any() else 0.0
    prod = float(np.max(np.minimum(slack[free], 1.0) * scaled[free])) if free.any() else 0.0

    scale = max(float(np.max(np.abs(vals))), 1.0)
    rng = np.random.default_rng(0)
    feasible = []
    for _ in range(6):
        bump = np.abs(rng.standard_normal(vals.shape)) * scale * 0.1
        bump[mask.reshape(-1)] = 0.0
        feasible.append(vals + bump)
    feasible.append(np.where(free, np.maximum(vals, lo_flat) + scale, vals))
    vi = _vi_residual(coeff.reshape(domain.node_shape), u, ctx,
                      [f.reshape(domain.node_shape) for f in feasible])

    return SolveResult(
        solution=u, residual_norm=residual, iterations=linear_iters + iterations,
        energy_trace=energy_trace,
        diagnostics={
            "method": "active_set_newton",
            "active_nodes": int(active.sum()),
            "complementarity_violation": comp,
            "complementarity_product": prod,
            "vi_residual": vi,
            "rounds": linear_trace + trace,
        },
    )
