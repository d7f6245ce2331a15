import math

import numpy as np
import pytest

from dirichlet_p import capacity as capacity_module
from dirichlet_p import pform as pform_module
from dirichlet_p.capacity import (
    Condenser,
    capacity,
    check_choquet,
    check_union_difference,
    nodes_in_ball,
    nodes_in_box,
    nodes_in_interval,
    nodes_outside_ball,
)
from dirichlet_p.grid import (
    CoefficientField,
    GridDomain,
    GridFunction,
    GridStructure,
    boundary_mask,
    gamma,
    unit_structure,
)
from dirichlet_p.pform import (
    PFormContext,
    PurePotentialError,
    check_dirichlet_axioms,
    p_form,
    p_operator,
)
from dirichlet_p.solve import SolveOptions
from conftest import lbfgs_reference, random_elliptic_field


def interval_capacity(a: float, b: float, p: float) -> float:
    """Closed form for the condenser ([a, b], {0, 1}) on the unit interval.

    The minimizer ramps linearly on both gaps, so the value is
    2^(p/2) (a^(1-p) + (1-b)^(1-p)); independent of the grid as long as a
    and b are node coordinates.
    """
    return 2.0 ** (p / 2.0) * (a ** (1.0 - p) + (1.0 - b) ** (1.0 - p))


def hull_capacity(nodesets_bounds, p: float) -> float:
    """1-D capacity of a union of intervals: only the extreme gaps matter."""
    a = min(lo for lo, _ in nodesets_bounds)
    b = max(hi for _, hi in nodesets_bounds)
    return interval_capacity(a, b, p)


@pytest.fixture
def line17():
    return GridDomain(((0.0, 1.0),), (17,))


class TestCondenser:
    def test_validation(self, line17):
        outer = boundary_mask(line17)
        with pytest.raises(ValueError, match="nonempty"):
            Condenser(np.zeros(line17.node_shape, dtype=bool), outer)
        with pytest.raises(ValueError, match="disjoint"):
            Condenser(outer.copy(), outer)

    @pytest.mark.parametrize("vi_samples", [2, -3])
    def test_rejects_too_few_vi_samples(self, line17, vi_samples):
        # the two fixed competitors and at least one random one
        cond = Condenser(nodes_in_interval(line17, 0.4, 0.6), boundary_mask(line17))
        with pytest.raises(ValueError, match="vi_samples"):
            capacity(cond, PFormContext(unit_structure(line17), 2.0), vi_samples=vi_samples)

    def test_connectivity_diagnostic(self, line17):
        outer = boundary_mask(line17)
        inner = nodes_in_interval(line17, 0.4, 0.6)
        r = capacity(Condenser(inner, outer), PFormContext(unit_structure(line17), 2.0))
        assert r.diagnostics["free_components"] == 2
        assert r.diagnostics["components_touching_inner"] == 2

    def test_connectivity_diagnostic_matches_label_loop(self):
        from scipy import ndimage

        from dirichlet_p.capacity import _free_components_touching_inner

        rng = np.random.default_rng(3)
        for _ in range(100):
            shape = tuple(rng.integers(3, 12, rng.integers(1, 4)))
            inner = rng.random(shape) < 0.3 * rng.random()
            outer = rng.random(shape) < 0.5 * rng.random()
            # reference: one full-grid comparison per label
            labels, n = ndimage.label(~(inner | outer))
            grown = ndimage.binary_dilation(inner)
            touching = sum(bool(np.any((labels == lab) & grown)) for lab in range(1, n + 1))
            assert _free_components_touching_inner(inner, outer) == {
                "free_components": n, "components_touching_inner": touching}


class TestCapacityValues:
    def test_three_node_hand_value(self):
        d = GridDomain(((0.0, 1.0),), (3,))
        ctx = PFormContext(unit_structure(d), 2.0)
        inner = np.array([False, True, False])
        outer = np.array([True, False, True])
        r = capacity(Condenser(inner, outer), ctx)
        assert np.isclose(r.value, 8.0, atol=1e-12)
        assert np.allclose(r.potential.values, [0.0, 1.0, 0.0])

    @pytest.mark.parametrize("p,rtol", [(2.0, 1e-10), (3.0, 1e-8)])
    def test_1d_closed_form(self, line17, p, rtol):
        ctx = PFormContext(unit_structure(line17), p)
        cond = Condenser(nodes_in_interval(line17, 0.25, 0.75), boundary_mask(line17))
        r = capacity(cond, ctx, SolveOptions(grad_tol=1e-10))
        assert np.isclose(r.value, interval_capacity(0.25, 0.75, p), rtol=rtol)

    def test_potential_properties(self, line17):
        for p in (2.0, 3.0):
            ctx = PFormContext(unit_structure(line17), p)
            cond = Condenser(nodes_in_interval(line17, 0.25, 0.75), boundary_mask(line17))
            r = capacity(cond, ctx, SolveOptions(grad_tol=1e-10))
            e = r.potential
            assert np.all(e.values >= -1e-10)
            assert np.all(e.values <= 1.0 + 1e-8)
            assert np.all(e.values[cond.inner] == 1.0)
            assert np.isclose(r.value, p_form(e, e, ctx), rtol=1e-8)
            assert r.vi_residual <= 1e-8

    def test_scaling_in_coefficient(self, line17):
        p = 3.0
        cond = Condenser(nodes_in_interval(line17, 0.25, 0.75), boundary_mask(line17))
        base = capacity(cond, PFormContext(unit_structure(line17), p),
                        SolveOptions(grad_tol=1e-11)).value
        t = 2.5
        scaled_structure = GridStructure(line17, CoefficientField.scalar(line17, t))
        scaled = capacity(cond, PFormContext(scaled_structure, p),
                          SolveOptions(grad_tol=1e-11)).value
        assert np.isclose(scaled, t ** (p / 2.0) * base, rtol=1e-8)

    def test_uniqueness_across_methods(self, line17):
        ctx = PFormContext(unit_structure(line17), 3.0)
        cond = Condenser(nodes_in_interval(line17, 0.25, 0.625), boundary_mask(line17))
        newton = capacity(cond, ctx, SolveOptions(grad_tol=1e-10))
        mask = cond.inner | cond.outer
        bc = GridFunction(np.where(cond.inner, 1.0, 0.0), mask)
        ref = lbfgs_reference(ctx, bc, grad_tol=1e-8, max_iter=2000)
        assert np.max(np.abs(newton.potential.values - ref)) <= 1e-6

    def test_one_operator_evaluation_after_the_solve(self, line17, monkeypatch):
        # the VI residual and the multiplier diagnostic share one evaluation
        calls = []

        def counting(*args, _p_operator=pform_module.p_operator, **kwargs):
            calls.append(None)
            return _p_operator(*args, **kwargs)

        def solve_then_reset(*args, _solve=capacity_module.solve_dirichlet, **kwargs):
            result = _solve(*args, **kwargs)
            calls.clear()
            return result

        # the solver evaluates its gradient from its own cell flux, not by name
        for module in (pform_module, capacity_module):
            monkeypatch.setattr(module, "p_operator", counting)
        monkeypatch.setattr(capacity_module, "solve_dirichlet", solve_then_reset)
        ctx = PFormContext(unit_structure(line17), 3.0)
        cond = Condenser(nodes_in_interval(line17, 0.25, 0.75), boundary_mask(line17))
        r = capacity(cond, ctx)
        assert len(calls) == 1
        worst = float(np.min(p_operator(r.potential, ctx, mask=cond.outer)))
        assert r.diagnostics["min_multiplier"] == worst

    @pytest.mark.parametrize("p", [2.0, 3.0, 4.0])
    def test_value_equals_the_operator_pairing_to_rounding(self, p):
        # int gamma(e)^(p/2) dm and <op(e), e> are the same sum when eps = 0,
        # formed in different orders: they agree to a few units in the last place
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (33, 33))
        st = GridStructure(d, random_elliptic_field(d, np.random.default_rng(3)))
        cond = Condenser(nodes_in_ball(d, (0.0, 0.0), 0.25),
                         nodes_outside_ball(d, (0.0, 0.0), 0.75))

        def pairings(eps):
            ctx = PFormContext(st, p, eps)
            r = capacity(cond, ctx)
            e = r.potential
            op = p_operator(e, ctx, mask=np.zeros(d.node_shape, dtype=bool))
            return r.value, [r.diagnostics["pairing"], float(np.sum(op * e.values))]

        value, pairs = pairings(0.0)
        assert all(abs(pair - value) <= 1e-13 * value for pair in pairs)
        # the claim needs eps = 0 (or p = 2, where the weight is 1): a
        # regularized potential's pairings differ
        if p != 2.0:
            value, pairs = pairings(1e-3)
            assert all(abs(pair - value) > 1e-6 * value for pair in pairs)

    def test_2d_annulus_converges_to_closed_form(self):
        # ring condenser r=0.25, R=0.75 with the half-spacing membership rule
        target = 4.0 * math.pi / math.log(3.0)
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (65, 65))
        h = d.spacing[0]
        ctx = PFormContext(unit_structure(d), 2.0)
        inner = nodes_in_ball(d, (0.0, 0.0), 0.25 + h / 2)
        outer = nodes_outside_ball(d, (0.0, 0.0), 0.75 - h / 2)
        r = capacity(Condenser(inner, outer), ctx, SolveOptions(grad_tol=1e-9))
        assert abs(r.value - target) / target <= 0.03


class TestOpenSets:
    def test_open_equals_compact(self, line17):
        # every node set is compact on a grid, so the supremum of the
        # capacities of the compacts inside an open set K is attained at K
        ctx = PFormContext(unit_structure(line17), 2.0)
        outer = boundary_mask(line17)
        K = nodes_in_interval(line17, 0.375, 0.625)
        idx = np.flatnonzero(K)
        caps = {}
        for i in range(len(idx)):
            for j in range(i, len(idx)):
                C = np.zeros_like(K)
                C[idx[i]:idx[j] + 1] = True
                caps[i, j] = capacity(Condenser(C, outer), ctx).value
        assert max(caps.values()) == caps[0, len(idx) - 1]

    def test_monotone_in_the_set(self, line17):
        ctx = PFormContext(unit_structure(line17), 2.0)
        outer = boundary_mask(line17)
        small = nodes_in_interval(line17, 0.4375, 0.5625)
        big = nodes_in_interval(line17, 0.25, 0.75)
        assert capacity(Condenser(small, outer), ctx).value <= \
            capacity(Condenser(big, outer), ctx).value + 1e-10

    def test_union_of_separated_squares_subadditive(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        ctx = PFormContext(unit_structure(d), 2.0)
        outer = boundary_mask(d)
        s1 = nodes_in_box(d, (0.1875, 0.1875), (0.375, 0.375))
        s2 = nodes_in_box(d, (0.625, 0.625), (0.8125, 0.8125))
        cu = capacity(Condenser(s1 | s2, outer), ctx).value
        c1 = capacity(Condenser(s1, outer), ctx).value
        c2 = capacity(Condenser(s2, outer), ctx).value
        assert cu <= c1 + c2 + 1e-9 * max(c1 + c2, 1.0)


class TestPurePotential:
    """The coefficientwise cone test <op(u), w> >= 0 for nonnegative nodal w,
    as `check_dirichlet_axioms` applies it to its inputs."""

    def test_zero_is_pure(self, line17):
        ctx = PFormContext(unit_structure(line17), 2.0)
        mask = boundary_mask(line17)
        zero = GridFunction(np.zeros(line17.node_shape), mask)
        assert check_dirichlet_axioms(zero, zero, 0.5, ctx, mask=mask).passed

    def test_equilibrium_potential_is_pure(self, line17):
        for p in (2.0, 3.0):
            ctx = PFormContext(unit_structure(line17), p)
            cond = Condenser(nodes_in_interval(line17, 0.25, 0.75), boundary_mask(line17))
            r = capacity(cond, ctx, SolveOptions(grad_tol=1e-10))
            assert r.diagnostics["min_multiplier"] >= -1e-10 * r.value
            e = r.potential
            assert check_dirichlet_axioms(e, e, 0.25, ctx, mask=cond.outer).passed

    def test_interior_dip_is_not_pure(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (9, 9))
        ctx = PFormContext(unit_structure(d), 2.0)
        mask = boundary_mask(d)
        vals = np.zeros(d.node_shape)
        vals[4, 4] = -1.0
        zero = GridFunction(np.zeros(d.node_shape), mask)
        with pytest.raises(PurePotentialError, match="u is not a pure potential"):
            check_dirichlet_axioms(GridFunction(vals, mask), zero, 0.5, ctx, mask=mask)


class TestChoquet1D:
    def test_suite_against_closed_forms(self, line17):
        p = 3.0
        ctx = PFormContext(unit_structure(line17), p)
        outer = boundary_mask(line17)
        opts = SolveOptions(grad_tol=1e-10)
        K = nodes_in_interval(line17, 0.25, 0.5)
        L = nodes_in_interval(line17, 0.375, 0.75)
        reports = check_choquet([K, L], outer, ctx, opts)
        by_name = {}
        for r in reports:
            by_name.setdefault(r.check, []).append(r)
        for rs in by_name.values():
            for r in rs:
                assert r.passed, (r.check, r.slack, r.tolerance)
        # strong subadditivity is an equality for overlapping intervals
        ssa = by_name["strong_subadditivity"][0]
        assert abs(ssa.slack) <= 1e-8
        want_K = interval_capacity(0.25, 0.5, p)
        want_L = interval_capacity(0.375, 0.75, p)
        assert np.isclose(ssa.rhs, want_K + want_L, rtol=1e-8)
        # slack at solver accuracy
        assert ssa.slack >= -1e-10

    def test_nested_and_chains(self, line17):
        ctx = PFormContext(unit_structure(line17), 2.0)
        outer = boundary_mask(line17)
        K = nodes_in_interval(line17, 0.375, 0.625)
        L = nodes_in_interval(line17, 0.25, 0.75)
        reports = {r.check: r for r in check_choquet([L, K], outer, ctx)}
        mono = [r for r in check_choquet([L, K], outer, ctx) if r.check == "monotonicity"]
        assert mono and all(r.passed for r in mono)
        assert reports["decreasing_compacts"].passed
        assert reports["increasing_sets"].passed
        assert reports["finite_subadditivity"].passed
        assert reports["positivity"].passed

    def test_disjoint_intervals_strictly_subadditive(self, line17):
        p = 2.0
        ctx = PFormContext(unit_structure(line17), p)
        outer = boundary_mask(line17)
        K = nodes_in_interval(line17, 0.125, 0.25)
        L = nodes_in_interval(line17, 0.625, 0.75)
        reports = [r for r in check_choquet([K, L], outer, ctx)
                   if r.check == "strong_subadditivity"]
        r = reports[0]
        assert r.passed
        # union capacity equals the hull capacity in 1-D; the intersection
        # is empty, so the slack is the sum of the two inner-gap ramps
        want_union = interval_capacity(0.125, 0.75, p)
        assert np.isclose(r.lhs, want_union, rtol=1e-8)
        assert r.slack > 1.0


    def test_chain_rows_detect_broken_monotonicity(self, line17, monkeypatch):
        import dirichlet_p.capacity as capacity_module

        # capacities that shrink as the set grows: both chains must fail
        monkeypatch.setattr(capacity_module, "_cap_of_nodes",
                            lambda inner, outer, ctx, opts: (1.0 / (1.0 + inner.sum()), None))
        ctx = PFormContext(unit_structure(line17), 2.0)
        K = nodes_in_interval(line17, 0.25, 0.5)
        L = nodes_in_interval(line17, 0.375, 0.75)
        reports = {r.check: r for r in check_choquet([K, L], boundary_mask(line17), ctx)}
        assert not reports["decreasing_compacts"].passed
        assert not reports["increasing_sets"].passed

    def test_monotonicity_row_detects_a_shrinking_capacity(self, line17, monkeypatch):
        import dirichlet_p.capacity as capacity_module

        ctx = PFormContext(unit_structure(line17), 2.0)
        K = nodes_in_interval(line17, 0.25, 0.5)
        L = nodes_in_interval(line17, 0.125, 0.75)
        assert np.all(K <= L) and L.sum() > K.sum()
        honest = [r for r in check_choquet([L, K], boundary_mask(line17), ctx)
                  if r.check == "monotonicity"]
        assert len(honest) == 1 and honest[0].passed
        # capacities that shrink as the set grows: K's exceeds that of L
        monkeypatch.setattr(capacity_module, "_cap_of_nodes",
                            lambda inner, outer, ctx, opts: (1.0 / (1.0 + float(inner.sum())),
                                                             None))
        rows = [r for r in check_choquet([L, K], boundary_mask(line17), ctx)
                if r.check == "monotonicity"]
        assert len(rows) == 1
        assert rows[0].passed is False
        assert rows[0].details == {"subset": 1, "superset": 0}

    # Every memo miss goes through `_cap_of_nodes`: a set function patched in
    # there must reach the rows that read the shared memo.
    def test_supermodular_capacity_fails_subadditivity_rows(self, line17, monkeypatch):
        import dirichlet_p.capacity as capacity_module

        monkeypatch.setattr(capacity_module, "_cap_of_nodes",
                            lambda inner, outer, ctx, opts: (float(inner.sum()) ** 2, None))
        ctx = PFormContext(unit_structure(line17), 2.0)
        K = nodes_in_interval(line17, 0.25, 0.5)
        L = nodes_in_interval(line17, 0.375, 0.75)
        reports = {r.check: r for r in check_choquet([K, L], boundary_mask(line17), ctx)}
        assert not reports["strong_subadditivity"].passed
        assert not reports["finite_subadditivity"].passed
        E = [nodes_in_interval(line17, 0.125, 0.25), nodes_in_interval(line17, 0.625, 0.75)]
        F = [nodes_in_interval(line17, 0.125, 0.125), nodes_in_interval(line17, 0.625, 0.625)]
        assert not check_union_difference(E, F, boundary_mask(line17), ctx).passed

    def test_zero_capacity_fails_positivity(self, line17, monkeypatch):
        import dirichlet_p.capacity as capacity_module

        monkeypatch.setattr(capacity_module, "_cap_of_nodes",
                            lambda inner, outer, ctx, opts: (0.0, None))
        ctx = PFormContext(unit_structure(line17), 2.0)
        K = nodes_in_interval(line17, 0.25, 0.5)
        reports = {r.check: r for r in check_choquet([K], boundary_mask(line17), ctx)}
        assert not reports["positivity"].passed


class TestChoquet2D:
    def test_suite_with_reported_tolerance(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        ctx = PFormContext(unit_structure(d), 2.0)
        outer = boundary_mask(d)
        A = nodes_in_box(d, (0.25, 0.25), (0.625, 0.625))
        B = nodes_in_box(d, (0.375, 0.375), (0.75, 0.75))
        reports = check_choquet([A, B], outer, ctx)
        for r in reports:
            assert r.passed, (r.check, r.slack, r.tolerance)
        ssa = [r for r in reports if r.check == "strong_subadditivity"][0]
        assert "exchange_defect" in ssa.details
        assert ssa.tolerance >= ssa.details["exchange_defect"]


def _defect_over_scale(u, v, ctx):
    """The exchange defect relative to sum(gamma(u)^q + gamma(v)^q) m, q = p/2."""
    q = ctx.p / 2.0
    s = ctx.structure
    scale = float(np.sum((pform_module._safe_power(gamma(u, s), q)
                          + pform_module._safe_power(gamma(v, s), q)) * ctx.measure))
    return capacity_module._exchange_defect(u, v, ctx) / scale


class TestExchangeDefect:
    """The 1-D exchange defect is <= 0 up to rounding: its positive part stays
    within 1e-15 of the integrand's scale, a bound a 2-D pair exceeds."""

    BOUND = 1e-15

    def test_one_dimension_is_rounding_only(self):
        rng = np.random.default_rng(2024)
        worst, positive = 0.0, 0
        for _ in range(300):
            n = int(rng.integers(3, 40))
            p = float(rng.choice([1.5, 2.0, 2.5, 3.0, 4.0]))
            d = GridDomain(((0.0, 1.0),), (n,))
            field = CoefficientField(rng.uniform(0.5, 2.0, (n - 1, 1, 1)), 0.5, 2.0)
            ctx = PFormContext(GridStructure(d, field), p, 1e-6 if p < 2.0 else 0.0)
            ratio = _defect_over_scale(GridFunction(rng.standard_normal(n)),
                                       GridFunction(rng.standard_normal(n)), ctx)
            worst = max(worst, ratio)
            positive += ratio > 0.0
        assert worst <= self.BOUND
        # rounding does leave a positive part: the defect is not exactly <= 0
        assert positive > 0

    def test_straddling_2d_pair_exceeds_the_bound(self):
        # hats on two axis-neighbour nodes share two cells
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (5, 5))
        ctx = PFormContext(unit_structure(d), 3.0)
        u, v = np.zeros((5, 5)), np.zeros((5, 5))
        u[2, 2] = v[2, 3] = 1.0
        assert _defect_over_scale(GridFunction(u), GridFunction(v), ctx) > self.BOUND


class TestUnionDifference:
    def test_equal_families_trivial(self, line17):
        ctx = PFormContext(unit_structure(line17), 2.0)
        outer = boundary_mask(line17)
        E = [nodes_in_interval(line17, 0.25, 0.5)]
        rep = check_union_difference(E, E, outer, ctx)
        assert rep.passed
        assert abs(rep.lhs) <= 1e-9 and abs(rep.rhs) <= 1e-9

    def test_single_family_is_monotone_difference(self, line17):
        ctx = PFormContext(unit_structure(line17), 2.0)
        outer = boundary_mask(line17)
        E = [nodes_in_interval(line17, 0.25, 0.75)]
        F = [nodes_in_interval(line17, 0.375, 0.625)]
        rep = check_union_difference(E, F, outer, ctx)
        assert rep.passed
        assert abs(rep.lhs - rep.rhs) <= 1e-8

    def test_two_interval_families_closed_form(self, line17):
        p = 2.0
        ctx = PFormContext(unit_structure(line17), p)
        outer = boundary_mask(line17)
        E = [nodes_in_interval(line17, 0.25, 0.5), nodes_in_interval(line17, 0.5, 0.75)]
        F = [nodes_in_interval(line17, 0.3125, 0.4375),
             nodes_in_interval(line17, 0.5625, 0.6875)]
        rep = check_union_difference(E, F, outer, ctx, SolveOptions(grad_tol=1e-10))
        assert rep.passed
        lhs_exact = interval_capacity(0.25, 0.75, p) - interval_capacity(0.3125, 0.6875, p)
        assert np.isclose(rep.lhs, lhs_exact, rtol=1e-7)

    def test_containment_enforced(self, line17):
        ctx = PFormContext(unit_structure(line17), 2.0)
        outer = boundary_mask(line17)
        E = [nodes_in_interval(line17, 0.25, 0.5)]
        F = [nodes_in_interval(line17, 0.375, 0.75)]
        with pytest.raises(ValueError, match="containment"):
            check_union_difference(E, F, outer, ctx)
