import heapq
import itertools
import json
import math

import numpy as np
import pytest

from dirichlet_p.grid import (
    CoefficientField,
    GridDomain,
    GridFunction,
    GridStructure,
    _det,
    cell_mean,
    gamma,
    unit_structure,
)
from dirichlet_p.metric import (
    HarmonicityError,
    _edge_weight_arrays,
    _metric_tensor,
    certify_gradient_bound,
    check_caccioppoli,
    check_caccioppoli_ball,
    check_caccioppoli_euclidean,
    cutoff_gamma_bound,
    distance_cutoff,
    intrinsic_ball_cells,
    intrinsic_ball_nodes,
    intrinsic_distance,
    metrication_constant,
    stencil_offsets,
    truncation_function,
)
from dirichlet_p import metric as metric_module
from dirichlet_p.pform import PFormContext
from conftest import random_elliptic_field


def _reference_edge_weight_arrays(structure, offsets):
    """Frozen oracle: every move computed on its own, one column per offset.

    The move-by-move form of `_edge_weight_arrays`, kept as the reference
    for the paired fill (which computes each +-o pair once).
    """
    domain = structure.domain
    dim = domain.dim
    shape = domain.node_shape
    cells = domain.cells_shape
    Minv = _metric_tensor(structure.field.matrices).reshape(cells + (dim * dim,))
    h = np.asarray(domain.spacing)
    n = domain.num_nodes
    weights = np.full((n, len(offsets)), np.inf)
    weights_nd = weights.reshape(shape + (len(offsets),))
    for k, off in enumerate(offsets):
        src_lo = [(-o if o < 0 else 0) for o in off]
        view = tuple(shape[a] - abs(off[a]) for a in range(dim))
        cand_axes = []
        for o in off:
            if o % 2 == 0:
                cand_axes.append([o // 2 - 1, o // 2])
            else:
                cand_axes.append([(o - 1) // 2])
        e = np.asarray(off, dtype=float) * h
        quad = Minv @ np.outer(e, e).ravel()
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
                view_sl.append(slice(i0 - lo, i1 - lo + 1))
                cell_sl.append(slice(i0 + c, i1 + c + 1))
            if not ok:
                continue
            acc[tuple(view_sl)] += quad[tuple(cell_sl)]
            count[tuple(view_sl)] += 1.0
        on_grid = tuple(slice(lo, lo + v) for lo, v in zip(src_lo, view)) + (k,)
        weights_nd[on_grid] = np.sqrt(acc / count)
    strides = [int(np.prod(shape[a + 1:])) for a in range(dim)]
    step = np.array([np.dot(off, strides) for off in offsets], dtype=np.int32)
    targets = np.where(np.isfinite(weights), step, np.int32(0))
    targets += np.arange(n, dtype=np.int32)[:, None]
    return weights, targets


def heapq_distance(source, structure, neighborhood=16):
    """Reference Dijkstra: a heapq loop over single nodes and stencil moves."""
    domain = structure.domain
    shape = domain.node_shape
    offsets = stencil_offsets(domain.dim, neighborhood)
    weights, _ = _reference_edge_weight_arrays(structure, offsets)
    strides = np.array([int(np.prod(shape[a + 1:])) for a in range(domain.dim)], dtype=int)
    flat_offsets = [int(np.dot(off, strides)) for off in offsets]
    n = domain.num_nodes
    dist = np.full(n, np.inf)
    start = int(np.ravel_multi_index(source, shape))
    dist[start] = 0.0
    done = np.zeros(n, dtype=bool)
    heap = [(0.0, start)]
    while heap:
        d, j = heapq.heappop(heap)
        if done[j]:
            continue
        done[j] = True
        for k, step in enumerate(flat_offsets):
            w = weights[j, k]
            if not np.isfinite(w):
                continue
            t = j + step
            nd = d + w
            if nd < dist[t]:
                dist[t] = nd
                heapq.heappush(heap, (nd, t))
    return dist.reshape(shape)


class TestMetricTensor:
    @pytest.mark.parametrize("field", ["identity", "anisotropic"])
    def test_adjugate_equals_the_stacked_form_bytewise(self, field, rng):
        d = GridDomain(((0.0, 1.0), (0.0, 2.0)), (33, 17))
        G = (unit_structure(d) if field == "identity" else
             GridStructure(d, random_elliptic_field(d, rng, 0.1, 10.0))).field.matrices
        # the former adjugate: stacked, then one broadcast division
        a, b, c, e = G[..., 0, 0], G[..., 0, 1], G[..., 1, 0], G[..., 1, 1]
        stacked = (np.stack([e, -b, -c, a], axis=-1) / (2.0 * _det(G))[..., None]).reshape(G.shape)
        assert _metric_tensor(G).tobytes() == stacked.tobytes()


class TestStencils:
    def test_counts_match_names(self):
        assert len(stencil_offsets(2, 8)) == 8
        assert len(stencil_offsets(2, 16)) == 16
        assert len(stencil_offsets(1, 8)) == 2

    def test_constants(self):
        c8 = metrication_constant(2, 8)
        c16 = metrication_constant(2, 16)
        assert np.isclose(c8, math.sqrt(4 - 2 * math.sqrt(2)) - 1)
        assert np.isclose(c16, math.sqrt(1 + (math.sqrt(5) - 2) ** 2) - 1)
        assert c16 < c8
        assert metrication_constant(1) == 0.0

    def test_cutoff_bounds_shrink_with_stencil(self):
        assert cutoff_gamma_bound(2, 16) < cutoff_gamma_bound(2, 8)
        assert np.isclose(cutoff_gamma_bound(2, 8), 4 - 2 * math.sqrt(2))
        assert cutoff_gamma_bound(1) == 1.0


class TestDistance:
    def test_1d_exact(self):
        d = GridDomain(((0.0, 1.0),), (33,))
        fld = intrinsic_distance((0,), unit_structure(d))
        x = d.node_coords()[..., 0]
        assert np.max(np.abs(fld.distances - x / math.sqrt(2))) <= 1e-13

    def test_euclidean_comparison_2d(self):
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (25, 25))
        s = unit_structure(d)
        eu = np.linalg.norm(d.node_coords() - d.node_coords()[12, 12],
                            axis=-1) / math.sqrt(2)
        sel = eu > 0
        for nb in (8, 16):
            fld = intrinsic_distance((12, 12), s, nb)
            ratio = fld.distances[sel] / eu[sel]
            assert np.max(ratio) <= 1.0 + metrication_constant(2, nb) + 1e-12
            assert np.min(ratio) >= 1.0 - 1e-12  # never underestimates

    def test_unit_separation_value(self):
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (25, 25))
        fld = intrinsic_distance((12, 12), unit_structure(d))
        # node (24, 12) is Euclidean distance 1 away along the axis
        assert abs(fld.distances[24, 12] - 1 / math.sqrt(2)) <= 0.03 / math.sqrt(2)

    def test_scalar_field_scaling(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        base = intrinsic_distance((8, 8), unit_structure(d))
        t = 4.0
        scaled = intrinsic_distance((8, 8),
                                    GridStructure(d, CoefficientField.scalar(d, t)))
        assert np.allclose(scaled.distances, base.distances / math.sqrt(t), atol=1e-12)

    def test_symmetry(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (13, 13))
        s = unit_structure(d)
        f1 = intrinsic_distance((2, 3), s)
        f2 = intrinsic_distance((9, 7), s)
        assert abs(f1.distances[9, 7] - f2.distances[2, 3]) <= 1e-12

    def test_triangle_inequality_sampled(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (13, 13))
        s = unit_structure(d)
        rng = np.random.default_rng(4)
        nodes = [tuple(rng.integers(0, 13, 2)) for _ in range(4)]
        fields = {n: intrinsic_distance(n, s) for n in nodes}
        for a in nodes:
            for b in nodes:
                for c in nodes:
                    lhs = fields[a].distances[b]
                    rhs = fields[a].distances[c] + fields[c].distances[b]
                    assert lhs <= rhs + 1e-12

    def test_symmetry_and_triangle_inequality_hold_to_rounding(self):
        # a path's length is summed from the end it is walked from, so
        # d(a, b) and d(b, a) may differ in the last bits
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        rng = np.random.default_rng(5)
        s = GridStructure(d, random_elliptic_field(d, rng))
        sources = [tuple(int(i) for i in rng.integers(0, 33, 2)) for _ in range(12)]
        fields = metric_module._distance_fields(sources, s)
        dist = np.array([[f.distances[b] for b in sources] for f in fields])
        eps = np.finfo(float).eps
        assert np.all(np.abs(dist - dist.T) <= 4 * eps * np.maximum(dist, dist.T))
        via = dist[:, :, None] + dist[None, :, :]  # d(a, c) + d(c, b) at [a, c, b]
        assert np.all(dist[:, None, :] <= via * (1 + 4 * eps))

    def test_anisotropic_field_stays_metric(self, rng):
        from conftest import random_elliptic_field

        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (9, 9))
        s = GridStructure(d, random_elliptic_field(d, rng))
        f1 = intrinsic_distance((1, 1), s)
        f2 = intrinsic_distance((7, 6), s)
        assert abs(f1.distances[7, 6] - f2.distances[1, 1]) <= 1e-12
        assert f1.distances[1, 1] == 0.0

    @pytest.mark.parametrize("shape, source, neighborhood", [
        ((33,), (5,), 16),
        ((17, 17), (4, 11), 8),
        ((17, 17), (4, 11), 16),
        ((7, 7, 7), (2, 3, 5), 16),
    ])
    def test_matches_heapq_reference_bitwise(self, shape, source, neighborhood, rng):
        d = GridDomain(tuple((0.0, 1.0) for _ in shape), shape)
        s = GridStructure(d, random_elliptic_field(d, rng))
        fld = intrinsic_distance(source, s, neighborhood)
        assert np.array_equal(fld.distances, heapq_distance(source, s, neighborhood))

    def test_source_validation(self):
        d = GridDomain(((0.0, 1.0),), (9,))
        with pytest.raises(ValueError):
            intrinsic_distance((9,), unit_structure(d))


_GRAPH_CASES = [
    (((0.0, 1.0),), (33,), 16, "identity"),
    (((0.0, 1.0),) * 2, (17, 17), 8, "identity"),
    (((0.0, 1.0),) * 2, (17, 17), 16, "identity"),
    (((0.0, 1.0), (0.0, 3.0)), (9, 13), 16, "identity"),
    (((0.0, 1.0), (0.0, 3.0)), (9, 13), 16, "random"),
    (((0.0, 1.0),) * 2, (17, 17), 16, "random"),
    (((0.0, 1.0),) * 3, (7, 7, 7), 8, "random"),
    (((0.0, 1.0),) * 3, (7, 7, 7), 16, "random"),
    # first axes shorter than a row block, or (at 500 entries) not a multiple of it
    (((0.0, 1.0), (0.0, 4.0)), (5, 40), 16, "random"),
    (((0.0, 3.0), (0.0, 1.0)), (37, 9), 16, "random"),
    (((0.0, 1.0),) * 3, (3, 3, 3), 16, "random"),
]
# the default row block, and one of 500 table entries: 1 to 3 node rows
_BLOCKS = [None, 500]


def _graph_structure(extent, shape, kind, rng):
    d = GridDomain(extent, shape)
    if kind == "identity":
        return unit_structure(d)
    return GridStructure(d, random_elliptic_field(d, rng))


class TestStencilGraph:
    @pytest.mark.parametrize("block", _BLOCKS)
    @pytest.mark.parametrize("extent, shape, neighborhood, kind", _GRAPH_CASES)
    def test_paired_fill_matches_the_move_by_move_oracle(self, extent, shape, neighborhood,
                                                          kind, block, rng, monkeypatch):
        if block is not None:
            monkeypatch.setattr(metric_module, "_BLOCK_ENTRIES", block)
        s = _graph_structure(extent, shape, kind, rng)
        offsets = stencil_offsets(len(shape), neighborhood)
        weights, targets, longest = _edge_weight_arrays(s, offsets)
        ref_weights, ref_targets = _reference_edge_weight_arrays(s, offsets)
        assert np.array_equal(weights.view(np.int64), ref_weights.view(np.int64))
        assert np.array_equal(targets, ref_targets) and targets.dtype == ref_targets.dtype
        assert longest == np.max(ref_weights[np.isfinite(ref_weights)])

    @pytest.mark.parametrize("block", _BLOCKS)
    @pytest.mark.parametrize("extent, shape, neighborhood, kind", _GRAPH_CASES)
    def test_every_move_equals_its_reverse_bitwise(self, extent, shape, neighborhood, kind,
                                                   block, rng, monkeypatch):
        if block is not None:
            monkeypatch.setattr(metric_module, "_BLOCK_ENTRIES", block)
        s = _graph_structure(extent, shape, kind, rng)
        offsets = stencil_offsets(len(shape), neighborhood)
        weights, targets, _ = _edge_weight_arrays(s, offsets)
        back = [offsets.index(tuple(-o for o in off)) for off in offsets]
        finite = np.isfinite(weights)
        assert finite.any(axis=1).all()
        rows, cols = np.nonzero(finite)
        reverse = weights[targets[rows, cols], np.asarray(back)[cols]]
        assert np.array_equal(reverse.view(np.int64), weights[rows, cols].view(np.int64))

    def test_fields_of_many_sources_share_one_graph(self, rng, monkeypatch):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (13, 13))
        s = GridStructure(d, random_elliptic_field(d, rng))
        builds = []

        def spy(structure, offsets, _build=_edge_weight_arrays):
            builds.append(len(offsets))
            return _build(structure, offsets)

        monkeypatch.setattr(metric_module, "_edge_weight_arrays", spy)
        sources = [(2, 3), (9, 7), (2, 3)]
        fields = metric_module._distance_fields(sources, s, 8)
        assert builds == [8]
        for src, fld in zip(sources, fields):
            assert fld.source == src and fld.neighborhood == 8
            assert np.array_equal(fld.distances, heapq_distance(src, s, 8))


_REACH_CASES = [
    ((33,), (5,), 16, "identity", 0.3),
    ((33, 33), (10, 21), 16, "identity", 0.3),
    ((33, 33), (10, 21), 8, "identity", 0.3),
    ((33, 33), (10, 21), 16, "random", 0.3),
    ((13, 13, 13), (1, 1, 1), 8, "random", 0.15),
    ((13, 13, 13), (1, 1, 1), 16, "random", 0.15),
]


class TestReach:
    """Distance fields computed only out to a radius."""

    @pytest.mark.parametrize("shape, source, neighborhood, kind, reach", _REACH_CASES)
    def test_below_reach_the_field_is_the_unlimited_one(self, shape, source, neighborhood,
                                                        kind, reach, rng):
        s = _graph_structure(((0.0, 1.0),) * len(shape), shape, kind, rng)
        full, = metric_module._distance_fields([source], s, neighborhood)
        near, = metric_module._distance_fields([source], s, neighborhood, radius=reach)
        assert (full.reach, near.reach) == (math.inf, reach)
        assert np.isfinite(full.distances).all()
        reached = np.isfinite(near.distances)
        # the limit does cut the run short, and everything within reach is reached
        assert not reached.all()
        assert reached[full.distances <= reach].all()
        assert np.array_equal(near.distances[reached].view(np.int64),
                              full.distances[reached].view(np.int64))
        for radius in (reach / 3, 2 * reach / 3, reach):
            assert np.array_equal(intrinsic_ball_nodes(near, radius),
                                  intrinsic_ball_nodes(full, radius))
            assert np.array_equal(intrinsic_ball_cells(near, radius),
                                  intrinsic_ball_cells(full, radius))

    def test_consumers_refuse_a_field_short_of_their_radius(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        ctx = PFormContext(unit_structure(d), 2.0)
        u = GridFunction.from_callable(d, lambda x, y: 2 * x - y + 0.3)
        fld, = metric_module._distance_fields([(16, 16)], ctx.structure, radius=0.3)
        with pytest.raises(ValueError, match="short of the radius 0.4"):
            check_caccioppoli_ball(u, fld, 0.2, 0.4, None, ctx)
        with pytest.raises(ValueError, match="short of the radius 0.4"):
            truncation_function(fld, 0.2, 0.4)
        with pytest.raises(ValueError, match="short of the radius 0.35"):
            distance_cutoff(fld, 0.35)
        with pytest.raises(ValueError, match="short of"):
            intrinsic_ball_nodes(fld, 0.31)
        with pytest.raises(ValueError, match="short of"):
            intrinsic_ball_cells(fld, 0.31)
        # at its reach the same field serves
        assert check_caccioppoli_ball(u, fld, 0.2, 0.3, None, ctx).passed
        full = intrinsic_distance((16, 16), ctx.structure)
        assert np.array_equal(truncation_function(fld, 0.2, 0.3).values,
                              truncation_function(full, 0.2, 0.3).values)

    def test_metric_and_intrinsic_distance_run_without_a_limit(self, tmp_path, monkeypatch):
        import dirichlet_p.cli as cli

        limits = []

        def spy(*args, _dijkstra=metric_module.dijkstra, **kwargs):
            limits.append(kwargs.get("limit", math.inf))
            return _dijkstra(*args, **kwargs)

        monkeypatch.setattr(metric_module, "dijkstra", spy)
        cfg = tmp_path / "metric.json"
        cfg.write_text(json.dumps({
            "domain": {"dim": 2, "extent": [[0.0, 1.0], [0.0, 1.0]], "shape": [17, 17]},
            "metric": {"source": [0.5, 0.5], "cutoff": {"r": 0.2},
                       "truncation": {"r": 0.1, "R": 0.2}}}))
        assert cli.main(["metric", "--config", str(cfg), "--out", str(tmp_path / "o.json")]) == 0
        intrinsic_distance((3, 3), unit_structure(GridDomain(((0.0, 1.0),) * 2, (9, 9))))
        assert limits == [math.inf, math.inf]

    @pytest.mark.parametrize("variant", ["ball", "cutoff"])
    def test_caccioppoli_reports_equal_those_without_the_reach(self, tmp_path, monkeypatch,
                                                               variant):
        import dirichlet_p.cli as cli

        n = 33
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (n, n))
        mats = random_elliptic_field(d, np.random.default_rng(7), 0.5, 2.5).matrices
        field = tmp_path / "field.json"
        field.write_text(json.dumps({"matrices": mats.reshape(-1).tolist(),
                                     "alpha": 0.5, "beta": 2.5}))
        cfg = tmp_path / "cfg.json"
        # re_z2 is not harmonic for this field: residual_tol admits its residual
        cfg.write_text(json.dumps({
            "domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]], "shape": [n, n]},
            "field": f"file:{field}", "p": 2.0,
            "caccioppoli": {"u": "re_z2", "variant": variant, "residual_tol": 1e3,
                            "balls": [{"center": [0.0, 0.1], "r": 0.2, "R": 0.4},
                                      {"center": [-0.3, 0.2], "r": 0.1, "R": 0.25}]}}))
        fields = []

        def run(name):
            out = tmp_path / f"{name}.json"
            assert cli.main(["caccioppoli", "--config", str(cfg), "--out", str(out)]) == 0
            return out.read_bytes()

        def spy(sources, structure, neighborhood=16, radius=math.inf,
                _fields=metric_module._distance_fields):
            fields.extend(_fields(sources, structure, neighborhood, radius))
            return fields[-len(sources):]

        monkeypatch.setattr(cli, "_distance_fields", spy)
        reached = run("reach")
        assert {f.reach for f in fields} == {0.4}
        assert all(not np.isfinite(f.distances).all() for f in fields)
        monkeypatch.setattr(cli, "_distance_fields",
                            lambda sources, structure, neighborhood=16, radius=math.inf:
                            spy(sources, structure, neighborhood))
        assert run("whole") == reached
        assert fields[-1].reach == math.inf and np.isfinite(fields[-1].distances).all()

    def test_balls_of_the_benchmark_job_reach_a_third_of_the_grid(self):
        # caccioppoli at 129^2 on the identity field with R = 0.4
        d = GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (129, 129))
        fields = metric_module._distance_fields([(64, 64), (45, 83)], unit_structure(d),
                                                radius=0.4)
        for f in fields:
            assert np.mean(np.isfinite(f.distances)) <= 0.35


def _ball_config(balls, variant):
    return {"domain": {"dim": 2, "extent": [[0.0, 1.0], [0.0, 1.0]], "shape": [33, 33]},
            "p": 2.0, "caccioppoli": {"u": "re_z2", "balls": balls, "variant": variant}}


class TestCaccioppoliBallField:
    @pytest.mark.parametrize("variant", ["ball", "cutoff"])
    def test_two_ball_run_builds_one_graph(self, tmp_path, monkeypatch, variant):
        import dirichlet_p.cli as cli

        balls = [{"center": [0.4, 0.5], "r": 0.1, "R": 0.2},
                 {"center": [0.55, 0.45], "r": 0.1, "R": 0.25}]

        def run(name, balls):
            cfg = tmp_path / f"{name}.json"
            cfg.write_text(json.dumps(_ball_config(balls, variant)))
            out = tmp_path / f"{name}-out.json"
            assert cli.main(["caccioppoli", "--config", str(cfg), "--out", str(out)]) == 0
            return json.loads(out.read_text())["results"]["checks"]

        per_ball = run("one", balls[:1]) + run("two", balls[1:])
        builds = []

        def spy(structure, offsets, _build=_edge_weight_arrays):
            builds.append(structure.domain.shape)
            return _build(structure, offsets)

        monkeypatch.setattr(metric_module, "_edge_weight_arrays", spy)
        both = run("both", balls)
        assert builds == [(33, 33)]
        assert both == per_ball

    @pytest.mark.parametrize("variant, fluxes", [("ball", 2), ("cutoff", 4), ("euclidean", 1)])
    def test_two_ball_run_evaluates_u_once(self, tmp_path, monkeypatch, variant, fluxes):
        # one operator field and one gamma(u) for the whole command (the
        # euclidean sides read grad u instead); the cutoff variant adds
        # gamma(phi) per ball
        import dirichlet_p.cli as cli
        from dirichlet_p import grid as grid_module
        from dirichlet_p import pform as pform_module

        points = []

        def spy(u, structure, _flux_gamma=grid_module._flux_gamma):
            points.append(None)
            return _flux_gamma(u, structure)

        for module in (grid_module, pform_module):
            monkeypatch.setattr(module, "_flux_gamma", spy)
        balls = [{"center": [0.4, 0.5], "r": 0.1, "R": 0.2},
                 {"center": [0.55, 0.45], "r": 0.1, "R": 0.25}]
        cfg = tmp_path / "both.json"
        cfg.write_text(json.dumps(_ball_config(balls, variant)))
        assert cli.main(["caccioppoli", "--config", str(cfg)]) == 0
        assert len(points) == fluxes

    def test_fields_of_another_context_are_rejected(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        ctx = PFormContext(unit_structure(d), 2.0)
        u = metric_module._Harmonic(GridFunction.from_callable(d, lambda x, y: x - y), ctx)
        fld = intrinsic_distance((16, 16), ctx.structure)
        with pytest.raises(ValueError, match="another context"):
            check_caccioppoli_ball(u, fld, 0.2, 0.4, None, PFormContext(ctx.structure, 3.0))

    @pytest.mark.parametrize("source, neighborhood", [((15, 16), 16), ((16, 16), 8)])
    def test_balls_are_those_of_the_given_field(self, source, neighborhood):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        ctx = PFormContext(unit_structure(d), 2.0)
        u = GridFunction.from_callable(d, lambda x, y: 2 * x - y + 0.3)
        fld = intrinsic_distance(source, ctx.structure, neighborhood)
        rep = check_caccioppoli_ball(u, fld, 0.2, 0.4, None, ctx)
        assert rep.passed
        assert rep.details["metrication"] == metrication_constant(2, neighborhood)
        region = rep.details["region"]
        assert region["source"] == list(source)
        assert region["ball_r_cells"] == int(intrinsic_ball_cells(fld, 0.2).sum())
        assert region["ball_R_cells"] == int(intrinsic_ball_cells(fld, 0.4).sum())

    def test_field_carries_the_grid_it_was_computed_on(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        s = unit_structure(d)
        fields = metric_module._distance_fields([(8, 8), (4, 12)], s)
        assert all(f.domain is d for f in fields)
        assert intrinsic_distance((8, 8), s).domain is d
        # the ball cells are the cells of that grid
        assert intrinsic_ball_cells(fields[0], 0.3).shape == d.cells_shape


class TestCutoffs:
    def test_value_at_source_and_tiny_radius(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        s = unit_structure(d)
        fld = intrinsic_distance((8, 8), s)
        cut = distance_cutoff(fld, 0.3)
        assert np.isclose(cut.values[8, 8], 0.3)
        h_intrinsic = d.spacing[0] / math.sqrt(2)
        tiny = distance_cutoff(fld, 0.5 * h_intrinsic)
        support = tiny.values > 0
        assert support.sum() == 1 and support[8, 8]

    def test_gamma_bound_certificate(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        s = unit_structure(d)
        for nb in (8, 16):
            cut = distance_cutoff(intrinsic_distance((16, 16), s, nb), 0.3)
            rep = certify_gradient_bound(cut, s, cutoff_gamma_bound(2, nb))
            assert rep.passed, rep.lhs
            assert abs(rep.lhs / rep.rhs - 1.0) <= 1e-12  # the bound is attained
            # so a bound only a little smaller fails
            tight = certify_gradient_bound(cut, s, cutoff_gamma_bound(2, nb) * (1.0 - 1e-9))
            assert tight.passed is False

    def test_duality_never_violated(self):
        # cutoff increments are dominated by the distance: exact on graphs
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        s = unit_structure(d)
        fld = intrinsic_distance((8, 8), s)
        cut = distance_cutoff(fld, 0.25)
        rng = np.random.default_rng(0)
        for _ in range(40):
            a = tuple(rng.integers(0, 17, 2))
            fa = intrinsic_distance(a, s)
            diffs = cut.values[a] - cut.values
            assert np.all(diffs <= fa.distances * (1 + 1e-12) + 1e-14)

    def test_rejects_nonpositive_radius(self):
        d = GridDomain(((0.0, 1.0),), (9,))
        with pytest.raises(ValueError):
            distance_cutoff(intrinsic_distance((4,), unit_structure(d)), 0.0)


class TestTruncationFunction:
    def test_profile_properties(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        s = unit_structure(d)
        fld = intrinsic_distance((16, 16), s)
        phi = truncation_function(fld, 0.15, 0.3)
        assert np.all((phi.values >= 0.0) & (phi.values <= 1.0))
        inside = fld.distances <= 0.15
        outside = fld.distances >= 0.3
        assert np.all(phi.values[inside] == 1.0)
        assert np.all(phi.values[outside] == 0.0)
        bound = cutoff_gamma_bound(2, 16) / (0.3 - 0.15) ** 2
        assert certify_gradient_bound(phi, s, bound).passed

    def test_steeper_truncation_fails_a_wider_bound(self):
        # the 0.15-wide ramp checked against the bound of a 0.2-wide one:
        # its slope exceeds that bound by (0.2 / 0.15)^2
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        s = unit_structure(d)
        phi = truncation_function(intrinsic_distance((16, 16), s), 0.15, 0.3)
        rep = certify_gradient_bound(phi, s, cutoff_gamma_bound(2, 16) / 0.2 ** 2)
        assert rep.passed is False
        assert rep.lhs / rep.rhs == pytest.approx((0.2 / 0.15) ** 2, rel=1e-12)

    def test_guards(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (17, 17))
        s = unit_structure(d)
        fld = intrinsic_distance((8, 8), s)
        with pytest.raises(ValueError, match="0 < r < R"):
            truncation_function(fld, 0.3, 0.3)
        with pytest.raises(ValueError, match="escapes"):
            truncation_function(fld, 0.3, 0.6)


class TestCaccioppoli:
    def _affine_setup(self, p):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        s = unit_structure(d)
        ctx = PFormContext(s, p)
        u = GridFunction.from_callable(d, lambda x, y: 2 * x - y + 0.3)
        phi = truncation_function(intrinsic_distance((16, 16), s), 0.1, 0.25)
        return ctx, u, phi

    @pytest.mark.parametrize("p", [2.0, 3.0])
    def test_affine_passes(self, p):
        ctx, u, phi = self._affine_setup(p)
        rep = check_caccioppoli(u, phi, None, ctx)
        assert rep.passed and rep.details["constant"] == p
        assert rep.details["residual"] <= 1e-10

    def test_constant_function_trivial(self):
        ctx, _, phi = self._affine_setup(2.0)
        u = GridFunction.constant(ctx.domain, 3.0)
        rep = check_caccioppoli(u, phi, 3.0, ctx)
        assert rep.passed and rep.lhs == 0.0 and rep.rhs == 0.0

    def test_quadratic_harmonic_passes(self):
        ctx, _, phi = self._affine_setup(2.0)
        u = GridFunction.from_callable(ctx.domain, lambda x, y: x * x - y * y)
        rep = check_caccioppoli(u, phi, 0.0, ctx)
        assert rep.passed and rep.slack > 0

    def test_uncertified_input_rejected(self, rng):
        ctx, _, phi = self._affine_setup(2.0)
        noise = GridFunction(rng.standard_normal(ctx.domain.node_shape))
        with pytest.raises(HarmonicityError):
            check_caccioppoli(noise, phi, 0.0, ctx)

    def test_1d_ball_closed_form_cross_check(self):
        d = GridDomain(((0.0, 1.0),), (65,))
        s = unit_structure(d)
        ctx = PFormContext(s, 2.0)
        u = GridFunction.from_callable(d, lambda x: x)
        r, R = 0.1, 0.2
        fld = intrinsic_distance((32,), s)
        rep = check_caccioppoli_ball(u, fld, r, R, None, ctx)
        assert rep.passed
        # independent direct summation of both sides
        cells_r = intrinsic_ball_cells(fld, r)
        cells_R = intrinsic_ball_cells(fld, R)
        m = d.measure
        gu = gamma(u, s)
        lhs = float(np.sum(np.where(cells_r, gu ** 1.0 * m, 0.0))) ** 0.5
        ubar = cell_mean(u, d)
        c = float(np.sum(np.where(cells_R, ubar * m, 0.0)) /
                  np.sum(np.where(cells_R, m, 0.0)))
        rhs = (2.0 / (R - r)) * float(
            np.sum(np.where(cells_R, np.abs(ubar - c) ** 2 * m, 0.0))) ** 0.5
        assert np.isclose(rep.lhs, lhs, rtol=1e-12)
        assert np.isclose(rep.rhs, rhs, rtol=1e-12)

    def test_2d_ball_quadratic(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        ctx = PFormContext(unit_structure(d), 2.0)
        u = GridFunction.from_callable(d, lambda x, y: x * x - y * y)
        rep = check_caccioppoli_ball(u, intrinsic_distance((16, 16), ctx.structure),
                                     0.1, 0.25, 0.0, ctx)
        assert rep.passed
        assert np.isclose(rep.details["constant"], 2.0 / 0.15)

    def test_euclidean_constant_reduces_to_p(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        s = GridStructure(d, CoefficientField.scalar(d, 2.0))  # alpha = beta
        ctx = PFormContext(s, 3.0)
        u = GridFunction.from_callable(d, lambda x, y: x - 2 * y)
        coords = d.node_coords()
        dist = np.linalg.norm(coords - np.array([0.5, 0.5]), axis=-1)
        phi = GridFunction(np.clip((0.3 - dist) / 0.15, 0.0, 1.0))
        rep = check_caccioppoli_euclidean(u, phi, None, ctx)
        assert rep.passed
        assert rep.details["constant"] == 3.0

    def test_euclidean_log_abs(self):
        d = GridDomain(((1.0, 2.0), (1.0, 2.0)), (33, 33))
        s = unit_structure(d)
        ctx = PFormContext(s, 2.0)
        u = GridFunction.from_callable(d, lambda x, y: 0.5 * np.log(x * x + y * y))
        coords = d.node_coords()
        dist = np.linalg.norm(coords - np.array([1.5, 1.5]), axis=-1)
        phi = GridFunction(np.clip((0.3 - dist) / 0.15, 0.0, 1.0))
        rep = check_caccioppoli_euclidean(u, phi, None, ctx)
        assert rep.passed
        assert rep.details["constant"] == 2.0

    def test_anisotropic_constant_exact_formula(self):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        mats = np.zeros(d.cells_shape + (2, 2))
        mats[..., 0, 0] = 1.0
        mats[..., 1, 1] = 4.0
        s = GridStructure(d, CoefficientField(mats, 1.0, 4.0))
        ctx = PFormContext(s, 2.0)
        # affine functions are harmonic for any constant field
        u = GridFunction.from_callable(d, lambda x, y: x + y)
        coords = d.node_coords()
        dist = np.linalg.norm(coords - np.array([0.5, 0.5]), axis=-1)
        phi = GridFunction(np.clip((0.3 - dist) / 0.15, 0.0, 1.0))
        rep = check_caccioppoli_euclidean(u, phi, None, ctx)
        assert rep.passed
        assert rep.details["constant"] == 2.0 * math.sqrt(4.0 / 1.0)

    def test_tolerance_shrinks_under_refinement(self):
        tols = {}
        for shape in (17, 33):
            d = GridDomain(((1.0, 2.0), (1.0, 2.0)), (shape, shape))
            ctx = PFormContext(unit_structure(d), 2.0)
            u = GridFunction.from_callable(d, lambda x, y: 0.5 * np.log(x * x + y * y))
            coords = d.node_coords()
            dist = np.linalg.norm(coords - np.array([1.5, 1.5]), axis=-1)
            phi = GridFunction(np.clip((0.3 - dist) / 0.15, 0.0, 1.0))
            rep = check_caccioppoli_euclidean(u, phi, 0.0, ctx, residual_tol=1e-2)
            assert rep.passed
            tols[shape] = rep.tolerance
        assert tols[33] < tols[17]


class TestCaccioppoliFalsifiable:
    """Each Caccioppoli row fails once its constant is below the proven one.

    The constant multiplies the right side, so scaling that side by 1/8
    runs the check with 1/8 of the proven constant (p, p/(R-r) or
    p sqrt(beta/alpha)).  On these inputs lhs/rhs is at most about 0.43,
    so the rows fail only once the constant drops below about 0.2-0.4 of
    the proven one; 1/8 is below that for every row and p.
    """

    @staticmethod
    def _run(row, p):
        d = GridDomain(((0.0, 1.0), (0.0, 1.0)), (33, 33))
        ctx = PFormContext(unit_structure(d), p)
        u = GridFunction.from_callable(d, lambda x, y: 2 * x - y + 0.3)
        dist = np.linalg.norm(d.node_coords() - np.array([0.5, 0.5]), axis=-1)
        phi = GridFunction(np.clip((0.3 - dist) / 0.3, 0.0, 1.0))
        if row == "caccioppoli":
            return check_caccioppoli(u, phi, None, ctx)
        if row == "caccioppoli_ball":
            return check_caccioppoli_ball(u, intrinsic_distance((16, 16), ctx.structure),
                                          0.2, 0.4, None, ctx)
        return check_caccioppoli_euclidean(u, phi, None, ctx)

    @pytest.mark.parametrize("p", [2.0, 3.0])
    @pytest.mark.parametrize("row", ["caccioppoli", "caccioppoli_ball", "caccioppoli_euclidean"])
    def test_constant_below_the_proven_one_fails(self, row, p, monkeypatch):
        honest = self._run(row, p)
        assert honest.check == row and honest.passed

        def smaller_constant(*args, _report=metric_module._caccioppoli_report):
            *head, sides, details = args

            def scaled(ubar, c):
                lhs, rhs = sides(ubar, c)
                return lhs, rhs / 8.0

            return _report(*head, scaled, details)

        monkeypatch.setattr(metric_module, "_caccioppoli_report", smaller_constant)
        rep = self._run(row, p)
        assert rep.passed is False
        assert rep.lhs == honest.lhs and rep.rhs == honest.rhs / 8.0
