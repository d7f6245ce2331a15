"""Intrinsic metric, cutoff/truncation functions, Caccioppoli checks.

The intrinsic distance induced by the structure is the largest increment
u(x) - u(y) over functions with per-cell carre du champ at most 1.  For a
cell field G that constraint reads 2 (G grad u, grad u) <= 1, so distance
is the path length in the Riemannian metric (2G)^-1.  It is computed as a
shortest path on an extended lattice stencil (axis, diagonal and knight
moves) with edge lengths sqrt(e^T (2G)^-1 e), each edge computed once for
both of its directions; graph distances satisfy the metric axioms to
rounding (a path's length is summed from the end it is walked from), and
overestimate the continuum length by at most the stencil's metrication
constant (about 2.75 percent for the default 16-neighborhood in 2-D, about
8.24 percent for the 8-neighborhood).  Fields from several sources on one
structure share a single graph (the caccioppoli command's balls do).

Cutoff profiles (r - rho)+ and the two-radius truncation functions built
from them inherit per-cell gradient bounds (see cutoff_gamma_bound; the
constant is slightly larger than the distance one because cells next to
the source mix cone directions), which is what the Caccioppoli verifiers
consume.  Cutoffs, truncations, balls and the intrinsic-ball check take a
MetricField, which carries its source, stencil and grid; the Euclidean
check reads its ellipticity bounds off the coefficient field.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Any, Callable, Sequence

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import dijkstra

from .grid import (
    GridDomain,
    GridFunction,
    GridStructure,
    _det,
    _length,
    _readonly,
    _values,
    boundary_mask,
    cell_mean,
    gamma,
    gradient,
    unit_structure,
)
from .pform import PFormContext, _safe_power, scaled_operator_field
from .report import CheckReport
from .solve import _interior_max

__all__ = [
    "MetricField",
    "stencil_offsets",
    "metrication_constant",
    "cutoff_gamma_bound",
    "intrinsic_distance",
    "distance_cutoff",
    "truncation_function",
    "certify_gradient_bound",
    "intrinsic_ball_nodes",
    "intrinsic_ball_cells",
    "check_caccioppoli",
    "check_caccioppoli_ball",
    "check_caccioppoli_euclidean",
]


def stencil_offsets(dim: int, neighborhood: int = 16) -> list[tuple[int, ...]]:
    """Primitive lattice moves of the stencil.

    neighborhood=8 keeps max-norm-1 moves (axis and diagonal); 16 adds the
    knight-type moves, i.e. all primitive vectors of max-norm 2.  The names
    match the 2-D neighbor counts (8 and 16).
    """
    if neighborhood not in (8, 16):
        raise ValueError("neighborhood must be 8 or 16")
    top = 1 if neighborhood == 8 else 2
    offsets = []
    for v in itertools.product(range(-top, top + 1), repeat=dim):
        if all(c == 0 for c in v):
            continue
        if math.gcd(*(abs(c) for c in v)) != 1:
            continue
        offsets.append(v)
    return offsets


def metrication_constant(dim: int, neighborhood: int = 16) -> float:
    """Worst-case relative overestimation of Euclidean length by the stencil.

    Exact closed forms in 1-D and 2-D; in 3-D a direction sweep with small
    linear programs over the stencil cone (cached, reporting only).
    """
    if dim == 1:
        return 0.0
    if dim == 2:
        if neighborhood == 8:
            return math.sqrt(4.0 - 2.0 * math.sqrt(2.0)) - 1.0
        return math.sqrt(1.0 + (math.sqrt(5.0) - 2.0) ** 2) - 1.0
    return _sampled_metrication(dim, neighborhood)


@functools.cache
def _sampled_metrication(dim: int, neighborhood: int) -> float:
    from scipy.optimize import linprog

    offsets = np.array(stencil_offsets(dim, neighborhood), dtype=float)
    costs = _length(offsets)
    rng = np.random.default_rng(12345)
    dirs = rng.standard_normal((600, dim))
    dirs /= _length(dirs)[:, None]
    worst = 1.0
    for u in dirs:
        res = linprog(costs, A_eq=offsets.T, b_eq=u, bounds=[(0, None)] * len(costs),
                      method="highs")
        if res.success:
            worst = max(worst, float(res.fun))
    return worst - 1.0


def cutoff_gamma_bound(dim: int, neighborhood: int = 16) -> float:
    """Per-cell supremum of gamma over distance profiles, for constant G.

    This is larger than (1 + metrication)^2 would suggest for the wide
    stencil: cells on the second ring around the source mix cone
    directions.  In 2-D the suprema are closed forms, attained at those
    apex cells:

        8-neighborhood : 4 - 2 sqrt(2)                           = 1.17157...
        16-neighborhood: ((s - 1)^2 + (3 - s)^2) / 2,
                         s = sqrt(5/2) + sqrt(1/2)               = 1.08309...

    (for the 8-stencil this coincides with (1 + metrication)^2; both
    constants shrink as the stencil widens).  In 3-D the constant is
    probed numerically on a reference field and cached.
    """
    if dim == 1:
        return 1.0
    if dim == 2:
        if neighborhood == 8:
            return 4.0 - 2.0 * math.sqrt(2.0)
        s = math.sqrt(2.5) + math.sqrt(0.5)
        return ((s - 1.0) ** 2 + (3.0 - s) ** 2) / 2.0
    return _probed_cutoff_bound(dim, neighborhood)


@functools.cache
def _probed_cutoff_bound(dim: int, neighborhood: int) -> float:
    """Largest cell gamma of the distance profile from the center of a 13^dim unit grid."""
    domain = GridDomain(((0.0, 1.0),) * dim, (13,) * dim)
    structure = unit_structure(domain)
    fld = intrinsic_distance((6,) * dim, structure, neighborhood)
    g = gamma(GridFunction(fld.distances), structure)
    return float(np.max(g)) * (1.0 + 1e-9)


@dataclass(eq=False)
class MetricField:
    """Distances from one source node of `domain` under the intrinsic metric.

    Every distance up to `reach` is exact, and so is every ball or cutoff
    of radius up to it; farther nodes may read inf.
    """

    source: tuple[int, ...]
    distances: np.ndarray
    domain: GridDomain
    neighborhood: int
    metrication: float
    reach: float = math.inf

    def at(self, node: tuple[int, ...]) -> float:
        return float(self.distances[tuple(node)])


def _metric_tensor(G: np.ndarray) -> np.ndarray:
    """Per-cell (2G)^-1: by adjugate for 2x2 blocks, LAPACK otherwise."""
    if G.shape[-1] != 2:
        return np.linalg.inv(2.0 * G)
    two_det = 2.0 * _det(G)
    M = np.empty(G.shape)
    np.divide(G[..., 1, 1], two_det, out=M[..., 0, 0])
    np.divide(-G[..., 0, 1], two_det, out=M[..., 0, 1])
    np.divide(-G[..., 1, 0], two_det, out=M[..., 1, 0])
    np.divide(G[..., 0, 0], two_det, out=M[..., 1, 1])
    return M


def _move_lengths(Minv: np.ndarray, off: tuple[int, ...], src_lo: list[int],
                  view: tuple[int, ...], h: np.ndarray) -> np.ndarray:
    """Lengths of the move `off` out of the source box `view` at `src_lo`.

    The metric tensor (2G)^-1 is sampled as the mean over the cells whose
    closed extent contains the segment midpoint, as the mean of the
    per-cell quadratic forms e^T (2G)^-1 e (which is the form of the mean
    tensor).  Only the first-axis cell rows that the box touches are
    evaluated; each is the same per-row product as over the whole grid.
    """
    cells = Minv.shape[:-1]
    # candidate cells containing the segment midpoint, relative to the
    # source node: odd components pin one cell, even ones sit on a face
    cand_axes = []
    for o in off:
        if o % 2 == 0:
            cand_axes.append([o // 2 - 1, o // 2])
        else:
            cand_axes.append([(o - 1) // 2])
    row0 = max(0, src_lo[0] + min(cand_axes[0]))
    row1 = min(cells[0], src_lo[0] + view[0] + max(cand_axes[0]))
    e = np.asarray(off, dtype=float) * h
    quad = Minv[row0:row1] @ np.outer(e, e).ravel()  # e^T M e per cell
    acc = np.zeros(view)
    count = np.zeros(view)
    for combo in itertools.product(*cand_axes):
        view_sl = []
        cell_sl = []
        ok = True
        for a, (c, lo) in enumerate(zip(combo, src_lo)):
            i0 = max(lo, -c)
            i1 = min(lo + view[a] - 1, cells[a] - 1 - c)
            if i0 > i1:
                ok = False
                break
            first = row0 if a == 0 else 0
            view_sl.append(slice(i0 - lo, i1 - lo + 1))
            cell_sl.append(slice(i0 + c - first, i1 + c + 1 - first))
        if not ok:
            continue
        acc[tuple(view_sl)] += quad[tuple(cell_sl)]
        count[tuple(view_sl)] += 1.0
    return np.sqrt(acc / count)


# Table entries (nodes x moves) filled per row block: the block and its
# per-move temporaries stay small next to the table.
_BLOCK_ENTRIES = 1 << 17


def _edge_weight_arrays(structure: GridStructure, offsets: list[tuple[int, ...]]):
    """Edge lengths and targets of every stencil move, one column per offset.

    Returns (weights, targets, longest).  weights and targets have shape
    (num_nodes, len(offsets)): row j holds the moves out of flat node j,
    with the lengths of `_move_lengths`.  Moves leaving the grid become
    self-loops of infinite length, so every row has the same number of
    entries.  longest is the largest finite edge length.

    A move o out of node j and the move -o out of node j + o share their
    midpoint, hence their candidate cells in the same summation order, and
    (-e)(-e)^T = e e^T exactly: each +-o pair is computed once per block,
    so every edge has the same length in both directions, bit for bit.

    The table is filled one block of first-axis node rows at a time: the
    block's moves are written as contiguous planes of a small (moves,
    rows, ...) array, which is then copied into the row-major table whole.
    """
    domain = structure.domain
    dim = domain.dim
    shape = domain.node_shape
    Minv = _metric_tensor(structure.field.matrices).reshape(domain.cells_shape + (dim * dim,))
    h = np.asarray(domain.spacing)
    n = domain.num_nodes
    k = len(offsets)
    column = {off: j for j, off in enumerate(offsets)}
    # (column, offset, reverse column), each +-o pair once: stencils are symmetric
    pairs = [(j, off, column[tuple(-o for o in off)]) for j, off in enumerate(offsets)]
    pairs = [(j, off, back) for j, off, back in pairs if back > j]
    strides = [int(np.prod(shape[a + 1:])) for a in range(dim)]
    step = np.array([np.dot(off, strides) for off in offsets], dtype=np.int32)
    row_nodes = strides[0]
    height = max(1, _BLOCK_ENTRIES // (row_nodes * k))
    weights = np.empty((n, k))
    weights_nd = weights.reshape(shape + (k,))
    block = np.empty((k, min(height, shape[0])) + shape[1:])
    longest = 0.0
    for b0 in range(0, shape[0], height):
        b1 = min(b0 + height, shape[0])
        planes = block[:, :b1 - b0]
        planes.fill(np.inf)
        for j, off, back in pairs:
            src_lo = [(-o if o < 0 else 0) for o in off]
            view = tuple(shape[a] - abs(off[a]) for a in range(dim))
            # source rows of the moves that start in the block or end there
            lo = max(src_lo[0], b0 - max(off[0], 0))
            hi = min(src_lo[0] + view[0], b1 - min(off[0], 0))
            if lo >= hi:
                continue
            w = _move_lengths(Minv, off, [lo] + src_lo[1:], (hi - lo,) + view[1:], h)
            longest = max(longest, float(np.max(w, initial=0.0)))
            rest = tuple(slice(s, s + v) for s, v in zip(src_lo[1:], view[1:]))
            f0, f1 = max(lo, b0), min(hi, b1)
            if f0 < f1:
                planes[(j, slice(f0 - b0, f1 - b0)) + rest] = w[f0 - lo:f1 - lo]
            # the same edges walked from their far ends: the box shifted by o
            g0, g1 = max(lo, b0 - off[0]), min(hi, b1 - off[0])
            if g0 < g1:
                shifted = tuple(slice(s + o, s + o + v)
                                for s, o, v in zip(src_lo[1:], off[1:], view[1:]))
                planes[(back, slice(g0 + off[0] - b0, g1 + off[0] - b0)) + shifted] = \
                    w[g0 - lo:g1 - lo]
        weights_nd[b0:b1] = np.moveaxis(planes, 0, -1)
    # allocated once the planes are freed, which keeps peak memory flat
    del block, planes
    targets = np.empty((n, k), dtype=np.int32)
    for start in range(0, n, height * row_nodes):
        rows = slice(start, min(start + height * row_nodes, n))
        targets[rows] = np.where(np.isfinite(weights[rows]), step, np.int32(0))
        targets[rows] += np.arange(rows.start, rows.stop, dtype=np.int32)[:, None]
    return weights, targets, longest


def _distance_fields(sources: Sequence[Sequence[int]], structure: GridStructure,
                     neighborhood: int = 16, radius: float = math.inf) -> list[MetricField]:
    """One MetricField per source, all from a single stencil graph.

    The graph is built once and scipy's Dijkstra runs from every source on
    it.  A finite radius stops each run past radius + 2 * (longest edge):
    scipy relaxes an edge only to a value within that limit, so every
    distance within it is the unlimited run's, bit for bit, and farther
    nodes read inf.  A cell whose corner mean is below the radius has every
    corner within radius + (longest edge), since stencil moves join its
    corners pairwise; so balls and cutoffs of radius up to `reach` are
    exact.  With the default radius each field equals the one
    `intrinsic_distance` gives for its source.
    """
    domain = structure.domain
    srcs = [tuple(int(i) for i in s) for s in sources]
    for src in srcs:
        if len(src) != domain.dim:
            raise ValueError("source index has wrong dimension")
        for i, s in zip(src, domain.node_shape):
            if not 0 <= i < s:
                raise ValueError(f"source node {src} outside the grid")
    weights, targets, longest = _edge_weight_arrays(
        structure, stencil_offsets(domain.dim, neighborhood))
    n, k = weights.shape
    indptr = np.arange(0, n * k + 1, k, dtype=np.int32)
    graph = sp.csr_matrix((weights.reshape(-1), targets.reshape(-1), indptr), shape=(n, n))
    starts = [int(np.ravel_multi_index(src, domain.node_shape)) for src in srcs]
    # scipy refuses a negative limit; a radius below 0 is the consumers' to refuse
    dist = dijkstra(graph, directed=True, indices=starts,
                    limit=max(radius, 0.0) + 2.0 * longest)
    metrication = metrication_constant(domain.dim, neighborhood)
    return [MetricField(source=src, distances=d.reshape(domain.node_shape), domain=domain,
                        neighborhood=neighborhood, metrication=metrication, reach=radius)
            for src, d in zip(srcs, dist)]


def intrinsic_distance(source: Sequence[int], structure: GridStructure,
                       neighborhood: int = 16) -> MetricField:
    """Shortest-path intrinsic distance from a source node.

    Dijkstra from scipy.sparse.csgraph on the stencil graph.  The grid
    must be connected (it is, being a full box).  Every edge has one
    length in both directions, bit for bit, and distances vanish only at
    the source.  Symmetry and the triangle inequality hold to rounding: a
    path's length is summed from the end it is walked from.  The whole
    field is computed (reach inf).
    """
    return _distance_fields([source], structure, neighborhood)[0]


def distance_cutoff(field: MetricField, r: float) -> GridFunction:
    """Cutoff profile (r - rho(field.source, .)) v 0.

    Per-cell gamma of the result stays below cutoff_gamma_bound(dim,
    field.neighborhood) for constant coefficient fields; use
    `certify_gradient_bound` to attach the verdict.
    """
    if r <= 0:
        raise ValueError("radius must be positive")
    _require_reach(field, r)
    return GridFunction(np.maximum(r - field.distances, 0.0))


def truncation_function(field: MetricField, r: float, R: float) -> GridFunction:
    """Two-radius profile: 1 on the r-ball, 0 off the R-ball, slope 1/(R-r).

    Built as min((R - rho)+, R - r) / (R - r).  Requires 0 < r < R and the
    closed R-ball inside the open box (no boundary node of field.domain
    within distance R).
    """
    if not 0 < r < R:
        raise ValueError("need 0 < r < R")
    _require_reach(field, R)
    rho = field.distances
    if np.any(rho[boundary_mask(field.domain)] < R):
        raise ValueError("the outer ball escapes the domain")
    psi = np.minimum(np.maximum(R - rho, 0.0), R - r)
    return GridFunction(psi / (R - r))


def certify_gradient_bound(u: GridFunction, structure: GridStructure,
                           bound: float, label: str = "gradient_bound") -> CheckReport:
    """Per-cell check gamma(u) <= bound, reported with the worst cell.

    The closed-form bounds are attained exactly, so a relative rounding
    tolerance covers floating-point attainment noise.
    """
    g = gamma(u, structure)
    worst = float(np.max(g)) if g.size else 0.0
    tol = 1e-12 * bound
    return CheckReport(
        check=label, p=None, grid=structure.describe(),
        passed=worst <= bound + tol, lhs=worst, rhs=bound,
        tolerance=tol, details={"max_cell_gamma": worst},
    )


def _require_reach(field: MetricField, radius: float) -> None:
    """Refuse a field whose distances are exact only short of `radius`."""
    if field.reach < radius:
        raise ValueError(f"the distance field reaches {field.reach:g}, short of "
                         f"the radius {radius:g}")


def intrinsic_ball_nodes(field: MetricField, radius: float) -> np.ndarray:
    """Node set {rho < radius}."""
    _require_reach(field, radius)
    return field.distances < radius


def intrinsic_ball_cells(field: MetricField, radius: float) -> np.ndarray:
    """Cells whose center (corner mean of rho) lies in the ball."""
    _require_reach(field, radius)
    return cell_mean(field.distances, field.domain) < radius


class HarmonicityError(ValueError):
    """The input function is not certified harmonic where required."""


class _Harmonic:
    """A function u with the fields that the Caccioppoli verifiers read off it.

    The residual density |p_operator(u)| / node mass and gamma(u) are each
    evaluated on first use and then kept, so the checks of one command (one
    u, one context, several balls) pay for them once.  The verifiers accept
    it in place of u.
    """

    def __init__(self, u, ctx: PFormContext):
        self.u = u
        self.ctx = ctx

    @functools.cached_property
    def density(self) -> np.ndarray:
        return _readonly(scaled_operator_field(self.u, self.ctx))

    @functools.cached_property
    def gamma(self) -> np.ndarray:
        return _readonly(gamma(self.u, self.ctx.structure))


def _as_harmonic(u, ctx: PFormContext) -> _Harmonic:
    """u itself when it already carries its fields under ctx, else u wrapped."""
    if not isinstance(u, _Harmonic):
        return _Harmonic(u, ctx)
    if u.ctx is not ctx:
        raise ValueError("the function's fields were evaluated under another context")
    return u


def _certify(h: _Harmonic, support: np.ndarray, ctx: PFormContext,
             residual_tol: float) -> float:
    from scipy import ndimage

    region = ndimage.binary_dilation(support, np.ones((3,) * ctx.domain.dim, dtype=bool))
    # the harmonicity residual of u on the region
    resid = _interior_max(h.density, region | support, ctx)
    if resid > residual_tol:
        raise HarmonicityError(
            f"harmonicity residual {resid:.3e} exceeds the certificate tolerance "
            f"{residual_tol:.3e} on the support region")
    return resid


def _caccioppoli_report(check: str, h: _Harmonic, phi_vals: np.ndarray, weight: np.ndarray,
                        c: float | None, ctx: PFormContext, residual_tol: float,
                        sides: Callable[[np.ndarray, float], tuple[float, float]],
                        details: dict[str, Any]) -> CheckReport:
    """The part every Caccioppoli verifier shares.

    phi_vals is the nodal cutoff: nonnegative, not identically zero, and u
    must certify harmonic on a neighborhood of its support.  The cell
    weight both defaults c (the weight-mean of u) and marks, by its
    positive cells, the support mass that enters the tolerance.
    sides(ubar, c) returns the two sides of the bound.
    """
    if np.any(phi_vals < 0):
        raise ValueError("the cutoff must be nonnegative")
    support = phi_vals > 0
    if not support.any():
        raise ValueError("the cutoff vanishes identically")
    resid = _certify(h, support, ctx, residual_tol)
    m = ctx.measure
    ubar = cell_mean(h.u, ctx.domain)
    if c is None:
        w = np.maximum(weight, 0.0) * m
        c = float(np.sum(ubar * w) / np.sum(w))
    lhs, rhs = sides(ubar, c)
    support_mass = float(np.sum(np.where(weight > 0, m, 0.0)))
    # residual term: the pairing <op(u), phi^p (u - c)> is bounded by the
    # certified residual density integrated over the support; Leibniz-rule
    # straddle terms contribute O(h) relative to the two sides
    tol = (resid * support_mass) ** (1.0 / ctx.p) + max(ctx.domain.spacing) * (lhs + rhs)
    return CheckReport(
        check=check, p=ctx.p, grid=ctx.describe(), passed=lhs <= rhs + tol,
        lhs=lhs, rhs=rhs, tolerance=tol,
        details={"c": c, "residual": resid, **details},
    )


def check_caccioppoli(u, phi: GridFunction, c: float | None, ctx: PFormContext,
                      residual_tol: float = 1e-3) -> CheckReport:
    """Weighted gradient bound for harmonic u and a nonnegative cutoff phi:

        ( int phi^p gamma(u)^(p/2) dm )^(1/p)
            <= p ( int gamma(phi)^(p/2) |u - c|^p dm )^(1/p) + tol

    u must certify harmonic on a neighborhood of supp(phi) (residual at
    most residual_tol); c defaults to the measure-weighted mean of u over
    the support, which minimizes the right side at p = 2.
    """
    h = _as_harmonic(u, ctx)
    phi_vals = _values(phi)
    phibar = cell_mean(phi_vals, ctx.domain)
    p = ctx.p
    m = ctx.measure

    def sides(ubar: np.ndarray, c: float) -> tuple[float, float]:
        gphi = gamma(phi_vals, ctx.structure)
        lhs = float(np.sum(np.abs(phibar) ** p * _safe_power(h.gamma, p / 2.0) * m)) ** (1.0 / p)
        rhs = p * float(
            np.sum(_safe_power(gphi, p / 2.0) * np.abs(ubar - c) ** p * m)) ** (1.0 / p)
        return lhs, rhs

    return _caccioppoli_report(
        "caccioppoli", h, phi_vals, phibar, c, ctx, residual_tol, sides,
        {"constant": p, "region": {"support_nodes": int(np.sum(phi_vals > 0))}})


def check_caccioppoli_ball(u, field: MetricField, r: float, R: float,
                           c: float | None, ctx: PFormContext,
                           residual_tol: float = 1e-3) -> CheckReport:
    """Intrinsic-ball form with constant p / (R - r):

        ( int_{B_r} gamma(u)^(p/2) dm )^(1/p)
            <= p/(R-r) ( int_{B_R} |u - c|^p dm )^(1/p) + tol

    The balls are those of `field` around its source.  The cutoff is the
    indicator of the R-ball's nodes; c defaults to the mean of u over the
    cells of the R-ball.
    """
    h = _as_harmonic(u, ctx)
    if not 0 < r < R:
        raise ValueError("need 0 < r < R")
    m = ctx.measure
    p = ctx.p
    cells_r = intrinsic_ball_cells(field, r)
    cells_R = intrinsic_ball_cells(field, R)

    def sides(ubar: np.ndarray, c: float) -> tuple[float, float]:
        lhs = float(np.sum(np.where(cells_r, _safe_power(h.gamma, p / 2.0) * m, 0.0))) ** (1.0 / p)
        rhs = (p / (R - r)) * float(
            np.sum(np.where(cells_R, np.abs(ubar - c) ** p * m, 0.0))) ** (1.0 / p)
        return lhs, rhs

    return _caccioppoli_report(
        "caccioppoli_ball", h, intrinsic_ball_nodes(field, R).astype(float),
        cells_R.astype(float), c, ctx, residual_tol, sides,
        {"constant": p / (R - r), "metrication": field.metrication,
         "region": {"r": r, "R": R, "source": list(field.source),
                    "ball_r_cells": int(cells_r.sum()), "ball_R_cells": int(cells_R.sum())}})


def check_caccioppoli_euclidean(u, phi: GridFunction, c: float | None, ctx: PFormContext,
                                residual_tol: float = 1e-3) -> CheckReport:
    """Euclidean-gradient form for a uniformly elliptic field:

        ( int phi^p |grad u|^p dm )^(1/p)
            <= p sqrt(beta/alpha) ( int |grad phi|^p |u - c|^p dm )^(1/p) + tol

    with the constant exactly p * sqrt(beta / alpha), where alpha and beta
    are the declared ellipticity bounds of ctx.structure.field.
    """
    alpha, beta = ctx.structure.field.alpha, ctx.structure.field.beta
    h = _as_harmonic(u, ctx)
    phi_vals = _values(phi)
    domain = ctx.domain
    phibar = cell_mean(phi_vals, domain)
    p = ctx.p
    m = ctx.measure
    constant = p * math.sqrt(beta / alpha)

    def sides(ubar: np.ndarray, c: float) -> tuple[float, float]:
        gu = _length(gradient(h.u, domain))
        gphi = _length(gradient(phi_vals, domain))
        lhs = float(np.sum(np.abs(phibar) ** p * gu ** p * m)) ** (1.0 / p)
        rhs = constant * float(np.sum(gphi ** p * np.abs(ubar - c) ** p * m)) ** (1.0 / p)
        return lhs, rhs

    return _caccioppoli_report(
        "caccioppoli_euclidean", h, phi_vals, phibar, c, ctx, residual_tol, sides,
        {"constant": constant, "alpha": alpha, "beta": beta,
         "region": {"support_nodes": int(np.sum(phi_vals > 0))}})
