"""The benchmark's per-layer tracer (perfbench/spans.py) against the package.

The tracer rebinds public functions and the `spla` names of `solve` and
`pform` from outside the package, so a refactor that renames or moves
what it wraps would break the traced benchmark without failing any other
test.  This runs it, unedited, on one small ring capacity.
"""

import importlib.util
import json
import pathlib

import pytest

import dirichlet_p.cli as cli
from dirichlet_p import solve

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


@pytest.fixture
def spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_traced_ring_capacity_counts_its_work_and_uninstalls(tmp_path, spans):
    config = tmp_path / "ring.json"
    config.write_text(json.dumps({
        "domain": {"dim": 2, "extent": [[-1.0, 1.0], [-1.0, 1.0]], "shape": [17, 17]},
        "p": 3.0,
        "capacity": {"condenser": {
            "inner": {"type": "disk", "center": [0.0, 0.0], "radius": 0.25},
            "outer": {"type": "outside_disk", "center": [0.0, 0.0], "radius": 0.75}}}}))
    originals = (solve.solve_dirichlet, solve.spla)
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert solve.solve_dirichlet is not originals[0] and solve.spla is not originals[1]
        code = cli.main(["capacity", "--config", str(config), "--out", str(tmp_path / "o.json")])
        metrics = tracer.metrics(report_bytes=0)
    finally:
        tracer.uninstall()
    assert code == cli.EXIT_OK
    assert metrics["capacity.equilibrium_solves"] == 1
    for name in ("solve.newton_iters", "solve.hessian_matrix.calls",
                 "assemble.assemble_form_matrix.calls"):
        assert metrics[name] > 0, name
    assert (solve.solve_dirichlet, solve.spla) == originals
