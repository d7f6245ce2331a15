"""The config schema: every bad value exits 1 naming its key, and the README lists each table.

The fuzz test takes the smoke configs of scripts/report_digest.py, puts
one value of the wrong type or out of range into one key, and runs the
CLI: it must exit 1 with the key named, never run a computation that
fails with exit 2 or 3, and never raise.
"""

import importlib.util
import json
import pathlib
import re

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import dirichlet_p.cli as cli
import dirichlet_p.config as config

ROOT = pathlib.Path(__file__).resolve().parent.parent

# invalid for every key of the smoke configs: none of them takes a bare string
# other than its own names, and none is a boolean
WRONG_TYPED = ["x", ["x"], True, float("nan"), float("inf")]
# per key name, values outside its documented range
OUT_OF_RANGE = {
    "p": [1.0, 0.5], "eps": [-1e-6], "seed": [-1], "grad_tol": [0.0, -1e-9],
    "max_iter": [0], "dim": [0, 4], "extent": [[[1.0, -1.0], [-1.0, 1.0]]],
    "radius": [-0.1], "r": [0.0, -0.2], "R": [0.0, -0.4], "residual_tol": [-1.0],
    "min_order": [0.0, -3.0], "trials": [0], "neighborhood": [12, 16.0],
    "puncture": [-0.1], "a": [0.0, -1.5], "k": [0], "suites": [[], ["bogus"]],
    "balls": [[]], "variant": ["bogus"], "u": ["bogus"], "center": [[0.0]],
    "source": [[0.0]], "targets": [[[0.0]]], "linear": [[1.0]], "shape": [[1, 1]],
}


@pytest.fixture(scope="module")
def smoke_configs(tmp_path_factory):
    """(command, config) of every smoke job, with the field files they name kept on disk."""
    spec = importlib.util.spec_from_file_location(
        "report_digest", ROOT / "scripts" / "report_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    workdir = str(tmp_path_factory.mktemp("smoke"))
    jobs = [*digest.workloads.build("solvers", 101, workdir, True),
            *digest.workloads.build("geometry", 101, workdir, True),
            *digest._extra_jobs(101, workdir, True)]
    configs = []
    for job in jobs:
        with open(job.argv[2]) as fh:
            configs.append((job.argv[0], json.load(fh)))
    return configs, pathlib.Path(workdir)


def _key_paths(obj, path=()):
    """Path to each key of each object in obj, lists of objects included."""
    if isinstance(obj, dict):
        for key, value in obj.items():
            yield path + (key,)
            yield from _key_paths(value, path + (key,))
    elif isinstance(obj, list):
        for i, value in enumerate(obj):
            yield from _key_paths(value, path + (i,))


def _replaced(obj, path, value):
    if not path:
        return value
    out = list(obj) if isinstance(obj, list) else dict(obj)
    out[path[0]] = _replaced(obj[path[0]], path[1:], value)
    return out


@settings(max_examples=120, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(data=st.data())
def test_a_bad_value_exits_one_naming_its_key(smoke_configs, capsys, data):
    configs, workdir = smoke_configs
    command, cfg = data.draw(st.sampled_from(configs))
    path = data.draw(st.sampled_from(sorted(_key_paths(cfg), key=str)))
    key = path[-1]
    value = data.draw(st.sampled_from(WRONG_TYPED + OUT_OF_RANGE.get(key, [])))
    config_path = workdir / "fuzz.json"
    config_path.write_text(json.dumps(_replaced(cfg, path, value)))
    capsys.readouterr()
    assert cli.main([command, "--config", str(config_path)]) == cli.EXIT_CONFIG, (path, value)
    err = capsys.readouterr().err
    assert err.startswith("config error") and f"'{key}'" in err, (path, value, err)


# each block of the README's config reference and the schema tables it lists
SCHEMA = {
    ("config",): [config._CONFIG, config._COMMAND_BLOCKS],
    ("domain",): [config._DOMAIN],
    ("solver",): [config._SOLVER],
    ("solve",): [config._SOLVE],
    ("boundary",): [config._BOUNDARY],
    ("obstacle",): [config._OBSTACLE],
    ("capacity",): [config._CAPACITY],
    ("condenser",): [config._CONDENSER],
    ("interval",): [config._NODE_SETS["interval"]],
    ("disk", "outside_disk"): [config._NODE_SETS["disk"], config._NODE_SETS["outside_disk"]],
    ("rect",): [config._NODE_SETS["rect"]],
    ("nodes",): [config._NODE_SETS["nodes"]],
    ("caccioppoli",): [config._CACCIOPPOLI],
    ("ball",): [config._BALL],
    ("qr",): [config._QR],
    ("power", "radial", "linear", "sampled"): list(config._MAPPINGS.values()),
    ("metric",): [config._METRIC],
    ("cutoff",): [config._CUTOFF],
    ("truncation",): [config._RADII],
    ("check",): [config._CHECK],
    ("affine",): [config._AFFINE],
    ("grid function",): [config._GRID_FUNCTION],
    ("field file",): [config._FIELD_FILE],
}


def _readme_tables() -> dict[tuple[str, ...], set[str]]:
    """Caption -> the keys in the first column of its table, in the README's config reference."""
    text = (ROOT / "README.md").read_text()
    section = text[text.index("### Config reference"):text.index("## Scripts")]
    tables: dict[tuple[str, ...], set[str]] = {}
    for line in section.splitlines():
        if line.startswith("**"):
            caption = tuple(re.findall(r"\*\*`([^`]+)`\*\*", line))
            tables[caption] = set()
        elif line.startswith("| `"):
            # a parenthesis names the kinds a key belongs to
            first = re.sub(r"\(.*?\)", "", line.split("|")[1])
            tables[caption] |= set(re.findall(r"`([^`]+)`", first))
    return tables


def test_readme_lists_the_keys_of_every_schema_table():
    tables = _readme_tables()
    assert set(tables) == set(SCHEMA)
    for caption, schema in SCHEMA.items():
        assert tables[caption] == set().union(*schema), caption


def test_library_range_checks_stay():
    from dirichlet_p.grid import GridDomain, GridFunction, unit_structure
    from dirichlet_p.metric import check_caccioppoli_ball, intrinsic_distance
    from dirichlet_p.pform import PFormContext

    structure = unit_structure(GridDomain(((-1.0, 1.0), (-1.0, 1.0)), (9, 9)))
    with pytest.raises(ValueError):
        PFormContext(structure, 1.0)
    ctx = PFormContext(structure, 2.0)
    field = intrinsic_distance((4, 4), structure, 8)
    u = GridFunction(structure.domain.node_coords()[..., 0])
    with pytest.raises(ValueError, match="0 < r < R"):
        check_caccioppoli_ball(u, field, 0.5, 0.3, None, ctx)


def test_tol_flag_replaces_only_grad_tol():
    from dirichlet_p.solve import SolveOptions

    assert config.parse_solve_options({"solver": {"max_iter": 7}}, 1e-5) \
        == SolveOptions(grad_tol=1e-5, max_iter=7)


def test_null_takes_the_default(tmp_path):
    cfg = {"domain": {"dim": 2, "extent": [[0.0, 1.0], [0.0, 1.0]], "shape": [9, 9]},
           "seed": None, "metric": {"source": [0.5, 0.5], "neighborhood": None}}
    (tmp_path / "c.json").write_text(json.dumps(cfg))
    out = tmp_path / "o.json"
    assert cli.main(["metric", "--config", str(tmp_path / "c.json"), "--out", str(out)]) == 0
    report = json.loads(out.read_text())
    assert (report["seed"], report["results"]["neighborhood"]) == (0, 16)
