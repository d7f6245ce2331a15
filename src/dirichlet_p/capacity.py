"""Condenser capacities, equilibrium potentials, and set-function checks.

The capacity of a condenser (K, outer) is the infimum of the p-energy
pairing over functions that are >= 1 on K and vanish on the outer set; on
a finite grid the infimum is attained by the equilibrium potential, which
solves the Dirichlet problem with u = 1 pinned on K.  The inequality
constraint is certified after the fact through sampled variational
inequality residuals against genuine admissible competitors.

check_choquet and check_union_difference turn the defining properties of
a Choquet capacity (strong subadditivity, monotonicity, continuity along
monotone set sequences, countable subadditivity, positivity) into
executable verdicts.  In one dimension the join/meet exchange underlying
strong subadditivity is submodular edge by edge, so its defect is <= 0 up
to rounding; in higher dimensions straddling cells leave a positive
defect.  Either way the measured defect is folded into the reported
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Sequence

import numpy as np

from .grid import GridFunction, ShapeMismatchError, _length, gamma, join, meet
from .pform import (
    PFormContext,
    _pure_potential_test,
    _safe_power,
    p_form,
    p_operator,
)
from .report import CheckReport
from .solve import SolveOptions, SolveResult, solve_dirichlet, vi_residual

__all__ = [
    "Condenser",
    "CapacityResult",
    "capacity",
    "check_choquet",
    "check_union_difference",
    "nodes_in_interval",
    "nodes_in_ball",
    "nodes_in_box",
    "nodes_outside_ball",
]


# -- node-set helpers --------------------------------------------------------

def nodes_in_interval(domain, a: float, b: float) -> np.ndarray:
    """1-D node set {a <= x <= b}."""
    if domain.dim != 1:
        raise ValueError("interval sets are one-dimensional")
    x = domain.node_coords()[..., 0]
    return (x >= a) & (x <= b)


def nodes_in_ball(domain, center: Sequence[float], radius: float) -> np.ndarray:
    coords = domain.node_coords()
    c = np.asarray(center, dtype=float)
    return _length(coords - c) <= radius


def nodes_outside_ball(domain, center: Sequence[float], radius: float) -> np.ndarray:
    coords = domain.node_coords()
    c = np.asarray(center, dtype=float)
    return _length(coords - c) >= radius


def nodes_in_box(domain, lo: Sequence[float], hi: Sequence[float]) -> np.ndarray:
    coords = domain.node_coords()
    lo = np.asarray(lo, dtype=float)
    hi = np.asarray(hi, dtype=float)
    return np.all((coords >= lo) & (coords <= hi), axis=-1)


@dataclass(frozen=True, eq=False)
class Condenser:
    """Inner compact node set K and the outer set where potentials vanish."""

    inner: np.ndarray
    outer: np.ndarray

    def __post_init__(self) -> None:
        inner = np.asarray(self.inner, dtype=bool)
        outer = np.asarray(self.outer, dtype=bool)
        object.__setattr__(self, "inner", inner)
        object.__setattr__(self, "outer", outer)
        if inner.shape != outer.shape:
            raise ShapeMismatchError("inner and outer sets live on different grids")
        if not inner.any():
            raise ValueError("the inner set of a condenser must be nonempty")
        if not outer.any():
            raise ValueError("the outer set of a condenser must be nonempty")
        if (inner & outer).any():
            raise ValueError("inner and outer sets must be disjoint")


@dataclass(eq=False)
class CapacityResult:
    value: float
    potential: GridFunction
    vi_residual: float
    diagnostics: dict[str, Any] = field(default_factory=dict)


def _free_components_touching_inner(inner: np.ndarray, outer: np.ndarray) -> dict[str, int]:
    """Connectivity diagnostic of the region between the plates."""
    from scipy import ndimage

    free = ~(inner | outer)
    labels, n = ndimage.label(free)
    # label 0 marks the plates themselves
    touching = np.count_nonzero(np.unique(labels[ndimage.binary_dilation(inner)]))
    return {"free_components": int(n), "components_touching_inner": int(touching)}


def _equilibrium(inner: np.ndarray, outer: np.ndarray, ctx: PFormContext,
                 opts: SolveOptions) -> tuple[GridFunction, SolveResult]:
    mask = inner | outer
    values = np.where(inner, 1.0, 0.0)
    result = solve_dirichlet(ctx, GridFunction(values, mask), opts)
    potential = GridFunction(result.solution.values.copy(), outer.copy())
    return potential, result


def _cap_value(e: GridFunction, ctx: PFormContext) -> float:
    g = gamma(e, ctx.structure)
    return float(np.sum(_safe_power(g, ctx.p / 2.0) * ctx.measure))


def _cap_of_nodes(inner: np.ndarray, outer: np.ndarray, ctx: PFormContext,
                  opts: SolveOptions) -> tuple[float, GridFunction | None]:
    """Capacity allowing an empty inner set (value 0)."""
    if not np.asarray(inner, dtype=bool).any():
        return 0.0, None
    e, _ = _equilibrium(np.asarray(inner, dtype=bool), outer, ctx, opts)
    return _cap_value(e, ctx), e


def _memo_cap(memo: dict, inner: np.ndarray, outer: np.ndarray, ctx: PFormContext,
              opts: SolveOptions) -> tuple[float, GridFunction | None]:
    """`_cap_of_nodes` solved once per (inner, outer) pair; a memo serves one ctx and opts."""
    key = (inner.tobytes(), outer.tobytes())
    if key not in memo:
        memo[key] = _cap_of_nodes(inner, outer, ctx, opts)
    return memo[key]


def capacity(cond: Condenser, ctx: PFormContext, opts: SolveOptions | None = None,
             vi_samples: int = 8, rng: np.random.Generator | None = None) -> CapacityResult:
    """Capacity and equilibrium potential of a condenser.

    The returned value is int gamma(e)^(p/2) dm for the computed potential
    e.  When eps = 0 it is algebraically the operator pairing <op(e), e>
    (and `diagnostics["pairing"]`, the p-form of e with itself); the sums
    are formed in different orders, so they agree to rounding, not
    bitwise.  vi_residual is the worst normalized violation of
    <op(e), w - e> >= 0 over sampled admissible competitors w (w >= 1 on
    the inner set, w = 0 on the outer set), certifying the inequality-
    constrained formulation that the equality solve replaces.  The
    vi_samples competitors are the constant 1, max(e, 1) and
    vi_samples - 2 random upward bumps of e, so vi_samples must be >= 3.
    """
    opts = opts or SolveOptions()
    rng = rng or np.random.default_rng(0)
    if vi_samples < 3:
        raise ValueError(f"need vi_samples >= 3, got {vi_samples}")
    if cond.inner.shape != ctx.domain.node_shape:
        raise ShapeMismatchError("condenser does not match the grid")
    e, solve_res = _equilibrium(cond.inner, cond.outer, ctx, opts)
    value = _cap_value(e, ctx)
    pairing = p_form(e, e, ctx)

    free = ~(cond.inner | cond.outer)
    competitors = [np.where(cond.outer, 0.0, 1.0)]
    for _ in range(vi_samples - 2):
        bump = np.abs(rng.standard_normal(e.values.shape)) * 0.25
        competitors.append(e.values + np.where(free | cond.inner, bump, 0.0))
    competitors.append(np.where(cond.outer, 0.0, np.maximum(e.values, 1.0)))
    coeff = p_operator(e, ctx, mask=cond.outer)
    vi = vi_residual(coeff, e, ctx, competitors)

    _, worst_mult, _ = _pure_potential_test(coeff)
    diagnostics = {
        "pairing": pairing,
        "solver_iterations": solve_res.iterations,
        "solver_residual": solve_res.residual_norm,
        "potential_min": float(np.min(e.values)),
        "potential_max": float(np.max(e.values)),
        "min_multiplier": worst_mult,
        "regularized": ctx.eps > 0,
    }
    diagnostics.update(_free_components_touching_inner(cond.inner, cond.outer))
    return CapacityResult(value=value, potential=e, vi_residual=vi, diagnostics=diagnostics)


# -- Choquet property suite ---------------------------------------------------

def _solver_value_tol(ctx: PFormContext, opts: SolveOptions) -> float:
    return 2.0 * opts.grad_tol * ctx.domain.total_measure


def _exchange_defect(eK: GridFunction, eL: GridFunction, ctx: PFormContext) -> float:
    """Positive part of the join/meet defect of the capacity integrand.

    <= 0 up to rounding in one dimension (edge-separable energies are
    submodular); O(h) on straddling cells otherwise.
    """
    q = ctx.p / 2.0
    gm = _safe_power(gamma(meet(eK, eL), ctx.structure), q)
    gj = _safe_power(gamma(join(eK, eL), ctx.structure), q)
    gu = _safe_power(gamma(eK, ctx.structure), q)
    gv = _safe_power(gamma(eL, ctx.structure), q)
    defect = float(np.sum(np.maximum(gm + gj - gu - gv, 0.0) * ctx.measure))
    return defect


def check_choquet(sets: Sequence[np.ndarray], outer: np.ndarray, ctx: PFormContext,
                  opts: SolveOptions | None = None, *,
                  memo: dict | None = None) -> list[CheckReport]:
    """Run the Choquet-capacity property suite over a family of node sets.

    Emits one report per verified property: pairwise strong subadditivity,
    monotonicity on comparable pairs, stabilization along the decreasing
    chain of prefix intersections and the increasing chain of prefix
    unions, finite subadditivity of the full union, and strict positivity
    of every nonempty set.  Tolerances combine the solver tolerance with
    the measured join/meet exchange defect (rounding only in 1-D).  Each distinct
    set is solved once, in `memo` if given (one per ctx and opts).
    """
    opts = opts or SolveOptions()
    memo = {} if memo is None else memo
    outer = np.asarray(outer, dtype=bool)
    sets = [np.asarray(s, dtype=bool) & ~outer for s in sets]
    if not sets:
        raise ValueError("need at least one set")
    grid = ctx.describe()
    base_tol = _solver_value_tol(ctx, opts)

    def cap(s: np.ndarray) -> tuple[float, GridFunction | None]:
        return _memo_cap(memo, s, outer, ctx, opts)

    caps = [cap(s)[0] for s in sets]
    scale = max(max(caps), 1e-300)
    reports: list[CheckReport] = []

    # pairwise strong subadditivity
    for i in range(len(sets)):
        for j in range(i + 1, len(sets)):
            cu = cap(sets[i] | sets[j])[0]
            ci = cap(sets[i] & sets[j])[0]
            ei, ej = cap(sets[i])[1], cap(sets[j])[1]
            defect = 0.0
            if ei is not None and ej is not None:
                defect = _exchange_defect(ei, ej, ctx)
            tol = max(1e-9 * scale, 4.0 * base_tol) + defect
            lhs = cu + ci
            rhs = caps[i] + caps[j]
            reports.append(CheckReport(
                check="strong_subadditivity", p=ctx.p, grid=grid,
                passed=lhs <= rhs + tol, lhs=lhs, rhs=rhs,
                tolerance=tol,
                details={"pair": [i, j], "exchange_defect": defect,
                         "defect_per_h": defect / max(ctx.domain.spacing)},
            ))

    # monotonicity on comparable pairs
    for i in range(len(sets)):
        for j in range(len(sets)):
            if i != j and np.all(sets[i] <= sets[j]) and not np.array_equal(sets[i], sets[j]):
                tol = max(1e-9 * scale, 2.0 * base_tol)
                reports.append(CheckReport(
                    check="monotonicity", p=ctx.p, grid=grid,
                    passed=caps[i] <= caps[j] + tol, lhs=caps[i], rhs=caps[j],
                    tolerance=tol,
                    details={"subset": i, "superset": j},
                ))

    # decreasing chain of prefix intersections (finite stabilization)
    chain = [sets[0]]
    for s in sets[1:]:
        chain.append(chain[-1] & s)
    chain_caps = [cap(c)[0] for c in chain]
    tol = max(1e-9 * scale, 2.0 * base_tol)
    dec_ok = all(a >= b - tol for a, b in zip(chain_caps, chain_caps[1:]))
    reports.append(CheckReport(
        check="decreasing_compacts", p=ctx.p, grid=grid,
        passed=dec_ok, lhs=chain_caps[-1], rhs=chain_caps[0],
        tolerance=tol,
        details={"chain_values": chain_caps},
    ))

    # increasing chain of prefix unions
    chain = [sets[0]]
    for s in sets[1:]:
        chain.append(chain[-1] | s)
    chain_caps = [cap(c)[0] for c in chain]
    inc_ok = all(a <= b + tol for a, b in zip(chain_caps, chain_caps[1:]))
    union_cap = chain_caps[-1]
    reports.append(CheckReport(
        check="increasing_sets", p=ctx.p, grid=grid,
        passed=inc_ok, lhs=chain_caps[0], rhs=union_cap,
        tolerance=tol,
        details={"chain_values": chain_caps},
    ))

    # finite subadditivity of the full union
    tol_fin = max(1e-9 * scale, (len(sets) + 1.0) * base_tol)
    reports.append(CheckReport(
        check="finite_subadditivity", p=ctx.p, grid=grid,
        passed=union_cap <= sum(caps) + tol_fin, lhs=union_cap, rhs=sum(caps),
        tolerance=tol_fin,
        details={"individual": caps},
    ))

    # positivity: nonempty sets have positive capacity
    pos_tol = 1e-12 * scale
    min_cap = min(caps)
    reports.append(CheckReport(
        check="positivity", p=ctx.p, grid=grid,
        passed=min_cap > pos_tol, lhs=pos_tol, rhs=min_cap,
        tolerance=pos_tol, details={"individual": caps},
    ))
    return reports


def check_union_difference(e_sets: Sequence[np.ndarray], f_sets: Sequence[np.ndarray],
                           outer: np.ndarray, ctx: PFormContext,
                           opts: SolveOptions | None = None, *,
                           memo: dict | None = None) -> CheckReport:
    """Difference bound cap(U E_i) - cap(U F_i) <= sum_i (cap E_i - cap F_i).

    Requires F_i subset of E_i for every i; asserted with k * tol slack for
    k families at solver tolerance (the bound is what makes the capacity
    continuous along increasing set sequences).  `memo` as in `check_choquet`.
    """
    opts = opts or SolveOptions()
    memo = {} if memo is None else memo
    outer = np.asarray(outer, dtype=bool)
    if len(e_sets) != len(f_sets) or not e_sets:
        raise ValueError("need matching nonempty families")
    e_sets = [np.asarray(s, dtype=bool) & ~outer for s in e_sets]
    f_sets = [np.asarray(s, dtype=bool) & ~outer for s in f_sets]
    for i, (E, F) in enumerate(zip(e_sets, f_sets)):
        if not np.all(F <= E):
            raise ValueError(f"containment violated: F[{i}] is not a subset of E[{i}]")
    k = len(e_sets)
    cap_e = [_memo_cap(memo, E, outer, ctx, opts)[0] for E in e_sets]
    cap_f = [_memo_cap(memo, F, outer, ctx, opts)[0] for F in f_sets]
    cup_e = _memo_cap(memo, np.logical_or.reduce(e_sets), outer, ctx, opts)[0]
    cup_f = _memo_cap(memo, np.logical_or.reduce(f_sets), outer, ctx, opts)[0]
    lhs = cup_e - cup_f
    rhs = float(sum(ce - cf for ce, cf in zip(cap_e, cap_f)))
    scale = max(max(cap_e), 1e-300)
    tol = k * max(1e-9 * scale, 2.0 * _solver_value_tol(ctx, opts))
    if ctx.domain.dim > 1:
        tol += k * max(ctx.domain.spacing) * scale
    return CheckReport(
        check="union_difference", p=ctx.p, grid=ctx.describe(),
        passed=lhs <= rhs + tol, lhs=lhs, rhs=rhs, tolerance=tol,
        details={"cap_e": cap_e, "cap_f": cap_f, "cap_union_e": cup_e,
                 "cap_union_f": cup_f, "families": k},
    )
