"""p-harmonic Dirichlet problems and the obstacle variational inequality.

The Dirichlet solve minimizes the convex potential `p_energy` over the
free nodes with pinned boundary values; convergence is declared on the
mass-scaled infinity norm of the operator coefficients (the same quantity
`harmonicity_residual` reports), not on energy decrements.  The method
is Newton with the exact sparse Hessian and a Levenberg shift that
covers cells with degenerate gradient, from the linear (p = 2) solution,
which already lies in the convex basin.  Each point the loop evaluates
(the start and every line-search trial) costs one cell flux
(G grad u, gamma(u)), from which its energy, its operator coefficients
and, at an iterate, its Hessian are all formed, bitwise equal to
`p_energy`, `p_operator` and `hessian_matrix` at that point.

Both solvers start with `_linear_start`: its right side is minus the
p = 2 operator at the pinned data, and its matrix the stiffness block of
the free nodes (`assemble._SpdBlock`), whose factor the block keeps for
Newton.  Every Newton step on a block that holds a factor F of some A_F
solves by CG preconditioned with M^-1 r = s * F^-1 (s * r),
s = sqrt(diag(A_F) / diag(H)), so that M has exactly the step's Hessian
diagonal, to the forcing term min(0.01, 0.01 res) (Eisenstat and Walker
1996), which keeps the quadratic local rate.  A step factors its Hessian
afresh when the block holds no factor, when the rescaling does not exist
(a Hessian diagonal entry that is not positive), when CG misses the
forcing term within 20 iterations, or when the Levenberg shift is on:
reuse of a lagged factor across Newton-Krylov steps (Knoll and Keyes
2004).  Each trace row records whether its step factored and how many CG
iterations it took, and each run's totals are kept in a `_NewtonRun`.
Each step's Hessian is gathered straight into its block's pattern, built
once per inactive set.

The obstacle solve runs the same Newton loop with a primal-dual
active-set step (Hintermüller, Ito and Kunisch 2002): nodes below the
obstacle are pinned to it, pinned nodes with a negative multiplier are
released, and each step solves on the inactive block only, under the same
Armijo search; a change of the active set changes the block, so the step
after it factors afresh.  It projects the linear start onto the obstacle,
solves the p = 2 obstacle problem from there, and then the p-problem from
that solution, its active set and its last block.  Active nodes sit
exactly on the obstacle with nonnegative multipliers; inactive nodes
carry residuals at solver tolerance.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Any

import numpy as np
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from .assemble import _block_order, _SpdBlock, _stiffness_cells, assemble_form_matrix
from .grid import GridFunction, ShapeMismatchError, _flux_gamma, _values, dp_norm
from .pform import (
    PFormContext,
    _energy,
    _operator,
    _safe_power,
    _weight,
    scaled_operator_field,
)

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
# a step that reuses the block's factor runs CG to the forcing term
# min(_CG_FORCING, _CG_FORCING * res), in at most _CG_MAXITER iterations
_CG_FORCING = 0.01
_CG_MAXITER = 20
# an active node is released when its multiplier is below -_RELEASE_TOL * node mass
_RELEASE_TOL = 1e-8


class SolveError(RuntimeError):
    """Non-convergence; carries the Newton run (`_NewtonRun`) as far as it
    got, and its energy/residual trace (empty without a run), for diagnosis."""

    def __init__(self, message: str, run: _NewtonRun | None = None):
        super().__init__(message)
        self.run = run
        self.trace = run.trace if run is not None else []


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


@dataclass(eq=False)
class _NewtonRun:
    """One run of the Newton loop: where it stopped, and the work it took.

    `u` holds the flat node values, `coeff` the free nodes' operator
    coefficients at u, `active` the active set over the free nodes, and
    `block` the last inactive block with its factor.  The counts are the
    Newton steps taken (`iterations`), the factorizations, the CG
    iterations, the CG solves that missed the forcing term, the step
    halvings of the line search (`backtracks`) and the raises of the
    Levenberg shift (`shifts`).  `stop` is "converged", "max_iter" or
    "line_search".
    """

    u: np.ndarray | None = None
    residual: float = np.inf
    coeff: np.ndarray | None = None
    active: np.ndarray | None = None
    block: _SpdBlock | None = None
    energy_trace: list[float] = field(default_factory=list)
    trace: list[dict] = field(default_factory=list)
    iterations: int = 0
    factorizations: int = 0
    cg_iterations: int = 0
    cg_failures: int = 0
    backtracks: int = 0
    shifts: int = 0
    stop: str = ""


def hessian_matrix(u, ctx: PFormContext, *,
                   flux: tuple[np.ndarray, np.ndarray] | None = None,
                   block: _SpdBlock | None = None) -> sp.csr_matrix:
    """Exact sparse Hessian of p_energy at u (positive semidefinite for p >= 2).

    flux, when given, is the cell flux (G grad u, gamma(u)) of u, which is
    then not differentiated again.  Each cell block entry is
    2 m (w G_ij + c4 g_i g_j) with g = G grad u, formed entry by entry.
    With `block` given, the result is only that block: gathered from the
    slot planes into the block's pattern, rows and columns in its
    dissection order and each row's entries in stencil-offset order, equal
    to the full matrix sliced by `[block.nodes][:, block.nodes]`.
    """
    G = ctx.structure.field.matrices
    Gg, gam = _flux_gamma(u, ctx.structure) if flux is None else flux
    w = _weight(gam, ctx)
    c4 = 2.0 * (ctx.p - 2.0) * _safe_power(gam + ctx.eps, (ctx.p - 4.0) / 2.0)
    m2 = 2.0 * ctx.measure
    blocks = np.empty(G.shape)
    for i, j in itertools.product(range(ctx.domain.dim), repeat=2):
        blocks[..., i, j] = m2 * (w * G[..., i, j] + c4 * (Gg[..., i] * Gg[..., j]))
    return assemble_form_matrix(ctx.domain, blocks, block)


def _scaled_residual(coeff: np.ndarray, mass: np.ndarray) -> float:
    """Largest |coefficient| / node mass; zero when there are no nodes."""
    return float(np.max(np.abs(coeff) / mass)) if coeff.size else 0.0


def _free_objective(base: np.ndarray, mask: np.ndarray, ctx: PFormContext):
    """The energy and its gradient at free values, from one cell flux per point.

    Returns (evaluate, gradient).  evaluate(x) writes the free values x into
    a copy of the flat array base, whose masked entries stay pinned, and
    returns (u, flux, energy): the node values u, their cell flux
    (G grad u, gamma(u)) and p_energy(u).  gradient(flux) returns the free
    nodes' p_operator coefficients at that point.  Both equal p_energy and
    p_operator bitwise.
    """
    free = ~mask.reshape(-1)
    shape = ctx.domain.node_shape

    def evaluate(x: np.ndarray) -> tuple[np.ndarray, tuple[np.ndarray, np.ndarray], float]:
        u = base.copy()
        u[free] = x
        u = u.reshape(shape)
        flux = _flux_gamma(u, ctx.structure)
        return u, flux, _energy(flux[1], ctx)

    def gradient(flux: tuple[np.ndarray, np.ndarray]) -> np.ndarray:
        return _operator(flux, ctx).reshape(-1)[free]

    return evaluate, gradient


def _linear_start(ctx: PFormContext, vals: np.ndarray,
                  mask: np.ndarray) -> tuple[np.ndarray, _SpdBlock | None]:
    """The linear (p = 2) solution with the values of `vals` pinned on the mask.

    Returns its flat node values and the free nodes' block, which keeps the
    stiffness block's factor for Newton.  Zero data give zeros and no
    block, with nothing assembled or factored.
    """
    u = np.where(mask, vals, 0.0).reshape(-1)
    free = ~mask.reshape(-1)
    if not (u.any() and free.any()):
        return u, None
    shape = ctx.domain.node_shape
    block = _SpdBlock(shape, _block_order(shape, free))
    # the right side -S[free, mask] vals[mask]: minus the p = 2 operator at the pinned data
    flux = _flux_gamma(u.reshape(shape), ctx.structure)
    rhs = -_operator(flux, PFormContext(ctx.structure, 2.0)).reshape(-1)[block.nodes]
    # freed before the factorization, which sets the peak memory of a solve
    del flux
    S_oo = assemble_form_matrix(ctx.domain, _stiffness_cells(ctx.structure), block).tocsc()
    u[block.nodes] = block.factor(S_oo).solve(rhs)
    return u, block


def _newton(vals: np.ndarray, mask: np.ndarray, ctx: PFormContext, opts: SolveOptions,
            lower: np.ndarray | None = None, active: np.ndarray | None = None,
            block: _SpdBlock | None = None) -> _NewtonRun:
    """Newton on the free nodes, with the active-set step when `lower` is given.

    `lower` holds node values (-inf where unconstrained); `active` is the
    starting active set over the free nodes, whose nodes sit on `lower`.
    `block`, when given, is a `_SpdBlock` to use while the inactive nodes
    are its nodes, with the factor it holds; a new one is built whenever
    the inactive set changes.  Raises SolveError, carrying the run so far.
    """
    shape = ctx.domain.node_shape
    free = ~mask.reshape(-1)
    free_index = np.cumsum(free) - 1
    mass = ctx.domain.node_mass.reshape(-1)[free]
    evaluate, gradient = _free_objective(vals.reshape(-1), mask, ctx)
    x = vals.reshape(-1)[free]
    lo = np.full(x.shape, -np.inf) if lower is None else lower.reshape(-1)[free]
    active = np.zeros(x.shape, dtype=bool) if active is None else active.copy()
    # each point is evaluated once: its values, cell flux, energy and gradient
    u, flux, J = evaluate(x)
    g = gradient(flux)
    # energy_trace is the running minimum over iterates that violate no bound
    run = _NewtonRun(energy_trace=[J])

    def stopped(reason: str) -> _NewtonRun:
        run.u, run.residual, run.coeff, run.active, run.block = u.reshape(-1), res, g, active, block
        run.stop = reason
        return run

    lam = 0.0
    for it in range(opts.max_iter + 1):
        violated = ~active & (x < lo)
        released = active & (g < -_RELEASE_TOL * mass)
        active = (active | violated) & ~released
        changed = bool(violated.any() or released.any())
        if violated.any():
            x = np.where(violated, lo, x)
            u, flux, J = evaluate(x)
            g = gradient(flux)
        inactive = ~active
        res = _scaled_residual(g[inactive], mass[inactive])
        row = {"iteration": it, "energy": J, "residual": res, "lambda": lam,
               "factored": False, "cg_iterations": 0}
        if lower is not None:
            row.update(p=ctx.p, active=int(active.sum()), violated=int(violated.sum()),
                       released=int(released.sum()))
        run.trace.append(row)
        if res <= opts.grad_tol and not changed:
            return stopped("converged")
        if it == opts.max_iter:
            break
        if not inactive.any():
            continue
        keep = free.copy()
        keep[free] = inactive
        # the inactive block, with its pattern and its factor, lives until the set changes
        if block is None or not np.array_equal(block.keep, keep):
            block = _SpdBlock(shape, _block_order(shape, keep))
        H_oo = hessian_matrix(u, ctx, flux=flux, block=block)
        # o indexes the free nodes in the block's dissection order
        o = free_index[block.nodes]
        cg_steps: list[np.ndarray] = []  # one entry per CG iteration of this step
        step = None
        for _attempt in range(25):
            d_o = None
            M = block.preconditioner(H_oo) if lam == 0.0 else None
            if M is not None:
                # the block was factored before: CG preconditioned with that factor
                d_cg, info = spla.cg(
                    H_oo, -g[o], rtol=min(_CG_FORCING, _CG_FORCING * res), maxiter=_CG_MAXITER,
                    M=M, callback=cg_steps.append)
                d_o = d_cg if info == 0 else None
                run.cg_failures += info != 0
            if d_o is None:
                A = H_oo + lam * sp.diags(np.maximum(H_oo.diagonal(), 1e-300)) if lam > 0 else H_oo
                row["factored"] = True
                run.factorizations += 1
                try:
                    d_o = block.factor(A).solve(-g[o])
                except RuntimeError:
                    lam = max(lam * 10.0, 1e-10)
                    run.shifts += 1
                    continue
            d = np.zeros_like(x)
            d[o] = d_o
            slope = float(g @ d)
            if not np.isfinite(slope) or slope >= 0:
                lam = max(lam * 10.0, 1e-10)
                run.shifts += 1
                continue
            # energy differences below float resolution cannot drive an
            # Armijo test; accept on residual decrease instead
            resolution_limited = abs(slope) <= 1e-13 * (abs(J) + 1.0)
            t = 1.0
            ok = False
            while t > 1e-14:
                x_try = x + t * d
                u_try, flux_try, J_try = evaluate(x_try)
                if resolution_limited:
                    g_try = gradient(flux_try)
                    res_try = _scaled_residual(g_try[inactive], mass[inactive])
                    if res_try < res:
                        J_try = min(J_try, J)
                        ok = True
                        break
                elif J_try <= J + _ARMIJO_C1 * t * slope:
                    g_try = gradient(flux_try)
                    ok = True
                    break
                t *= _BACKTRACK
                run.backtracks += 1
            if ok:
                step = (x_try, u_try, flux_try, J_try, g_try, t)
                break
            lam = max(lam * 10.0, 1e-10)
            run.shifts += 1
        row["cg_iterations"] = len(cg_steps)
        run.cg_iterations += len(cg_steps)
        if step is None:
            raise SolveError("line search failed at a stationary-looking point",
                             stopped("line_search"))
        x, u, flux, J, g, t_used = step
        if not np.any(x < lo):
            run.energy_trace.append(min(run.energy_trace[-1], J))
        run.iterations += 1
        lam = lam / 3.0 if t_used == 1.0 else min(lam * 2.0 + 1e-12, 1e6)
        if lam < 1e-14:
            lam = 0.0
    raise SolveError(
        f"Newton did not reach grad_tol={opts.grad_tol:g} in {opts.max_iter} iterations "
        f"(residual {res:.3e}{', active set still changing' if changed else ''})",
        stopped("max_iter"))


def solve_dirichlet(ctx: PFormContext, boundary: GridFunction,
                    opts: SolveOptions | None = None) -> SolveResult:
    """Minimize the p-energy subject to the boundary mask of `boundary`.

    Returns the minimizer with the prescribed values on masked nodes and
    mass-scaled interior operator coefficients below grad_tol, found by
    Newton from the linear (p = 2) solution.  Raises SolveError (with the
    iteration trace attached) on non-convergence.
    """
    opts = opts or SolveOptions()
    if boundary.mask is None or not boundary.mask.any():
        raise ValueError("solve_dirichlet needs a nonempty boundary mask")
    if boundary.values.shape != ctx.domain.node_shape:
        raise ShapeMismatchError("boundary data does not match the grid")
    mask = boundary.mask
    vals, block = _linear_start(ctx, boundary.values, mask)
    run = _newton(vals, mask, ctx, opts, block=block)
    sol = GridFunction(run.u.reshape(ctx.domain.node_shape), mask)
    return SolveResult(
        solution=sol, residual_norm=run.residual, iterations=run.iterations,
        energy_trace=run.energy_trace,
        diagnostics={"method": "newton_regularized", "grad_tol": opts.grad_tol,
                     "initial_energy": run.energy_trace[0], "trace": run.trace},
    )


def _region_interior(region: np.ndarray, dim: int) -> np.ndarray:
    """Nodes of the region whose full stencil neighborhood stays inside it."""
    from scipy import ndimage

    footprint = np.ones((3,) * dim, dtype=bool)
    return ndimage.binary_erosion(region, structure=footprint, border_value=0)


def harmonicity_residual(u, region: np.ndarray, ctx: PFormContext) -> float:
    """Largest mass-scaled pairing |<p_operator(u), hat_j>| over the region.

    Test nodes are those whose whole stencil neighborhood lies inside the
    region, so the value certifies harmonicity strictly inside it.  Zero
    (to rounding) for affine functions with a constant coefficient field.
    """
    return _interior_max(scaled_operator_field(u, ctx), region, ctx)


def _interior_max(density: np.ndarray, region: np.ndarray, ctx: PFormContext) -> float:
    """Largest value of a node field over the region's interior nodes (see harmonicity_residual)."""
    region = np.asarray(region, dtype=bool)
    if region.shape != ctx.domain.node_shape:
        raise ShapeMismatchError("region mask does not match the grid")
    eligible = _region_interior(region, ctx.domain.dim)
    if not eligible.any():
        raise ValueError("region has empty interior")
    return float(np.max(density[eligible]))


def vi_residual(coeff: np.ndarray, u: GridFunction, ctx: PFormContext,
                feasible: list[np.ndarray]) -> float:
    """Worst normalized violation of <op(u), v - u> >= 0 over feasible samples.

    coeff is p_operator(u) with the mask of the constraint set, so it is
    zero on the pinned nodes; each violation is divided by the D_p norm of
    v - u.
    """
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
    if np.any(boundary.values[mask] < lo[mask] - 1e-14):
        raise ValueError("infeasible: boundary data lies below the obstacle")

    free = ~mask.reshape(-1)
    lo_flat = lo.reshape(-1)
    node_mass = domain.node_mass.reshape(-1)

    vals, block = _linear_start(ctx, boundary.values, mask)
    vals[free] = np.maximum(vals[free], lo_flat[free])
    # the linear obstacle problem first: its solution meets the obstacle
    # smoothly, so the p-loop starts inside Newton's quadratic basin, which
    # the kinked projection does not
    linear = _newton(vals, mask, PFormContext(ctx.structure, 2.0), opts, lo,
                     vals[free] <= lo_flat[free], block)
    # the p-run starts on the p = 2 run's last block, and preconditions with its factor
    run = _newton(linear.u, mask, ctx, opts, lo, linear.active, linear.block)

    vals = run.u
    u = GridFunction(vals.reshape(domain.node_shape), mask)
    coeff = np.zeros_like(vals)
    coeff[free] = run.coeff
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
    vi = vi_residual(coeff.reshape(domain.node_shape), u, ctx,
                     [f.reshape(domain.node_shape) for f in feasible])

    return SolveResult(
        solution=u, residual_norm=run.residual, iterations=linear.iterations + run.iterations,
        energy_trace=run.energy_trace,
        diagnostics={
            "method": "active_set_newton",
            "active_nodes": int(run.active.sum()),
            "complementarity_violation": comp,
            "complementarity_product": prod,
            "vi_residual": vi,
            "rounds": linear.trace + run.trace,
        },
    )
