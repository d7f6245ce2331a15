"""Per-layer spans and work counters, recorded from outside the package.

`Tracer.install` rebinds every public function of the layer modules (and
`cli.main`, and `scipy.sparse.linalg.splu` as `solve` and `pform` reach it)
to a timing wrapper, in every `dirichlet_p` module that holds the name;
`uninstall` puts the originals back.  No source file changes.

Each span records its calls, its inclusive time (outermost call of that
name only) and its self time (duration minus the time its child spans
cover).  Counter bookkeeping that costs real time (LU fill, set hashing)
runs after the span has closed and is charged to a `trace` span of its
own, so self times still partition the `cli.main` spans exactly.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import inspect
import types
from collections import defaultdict
from time import perf_counter
from typing import Any, Callable

# Layer modules whose public (`__all__`) functions get spans; config parsing
# is left inside `cli.main` on purpose: cli.main.self_s is parse, serialize
# and write.
LAYERS = ("grid", "assemble", "pform", "solve", "capacity", "metric", "mappings")
CAPACITY_SPANS = ("capacity.capacity", "capacity.check_choquet",
                  "capacity.check_union_difference")
CHECKERS = ("pform.check_sector", "pform.check_monotone",
            "pform.check_contraction_operates", "pform.check_dirichlet_axioms")

# (name, unit) of every per-layer metric, in report order.
METRICS = (
    ("splu.calls", "count"), ("splu.s", "s"), ("splu.lu_nnz", "count"),
    ("assemble.assemble_form_matrix.calls", "count"), ("assemble.assemble_form_matrix.s", "s"),
    ("assemble.solve_linear_dirichlet.calls", "count"),
    ("assemble.solve_linear_dirichlet.s", "s"),
    ("solve.solve_dirichlet.calls", "count"), ("solve.solve_dirichlet.self_s", "s"),
    ("solve.newton_iters", "count"), ("solve.newton_iters_per_solve", "ratio"),
    ("solve.hessian_matrix.calls", "count"), ("solve.hessian_matrix.self_s", "s"),
    ("solve.factorizations_per_iter", "ratio"),
    ("solve.solve_obstacle.self_s", "s"), ("solve.obstacle_rounds", "count"),
    ("capacity.capacity.s", "s"), ("capacity.check_choquet.s", "s"),
    ("capacity.check_union_difference.s", "s"), ("capacity.equilibrium_solves", "count"),
    ("capacity.distinct_set_ratio", "ratio"),
    ("pform.p_operator.calls", "count"), ("pform.p_operator.s", "s"),
    ("pform.p_operator.cells_per_s", "1/s"),
    ("pform.p_energy.calls", "count"), ("pform.p_energy.s", "s"), ("pform.checkers.s", "s"),
    ("metric.intrinsic_distance.calls", "count"), ("metric.intrinsic_distance.s", "s"),
    ("metric.intrinsic_distance.nodes_per_s", "1/s"),
    ("mappings.analyze.calls", "count"), ("mappings.analyze.s", "s"),
    ("mappings.verify_component_harmonicity.self_s", "s"),
    ("cli.main.self_s", "s"), ("cli.report_bytes", "bytes"),
    *((f"{layer}.self_s", "s") for layer in LAYERS),
    ("splu.self_s", "s"), ("trace.self_s", "s"),
    ("trace.overhead_frac", "ratio"),
)

# Counters that must repeat exactly for one seed.
DETERMINISTIC = ("splu.calls", "splu.lu_nnz", "solve.newton_iters",
                 "assemble.assemble_form_matrix.calls", "capacity.equilibrium_solves",
                 "metric.intrinsic_distance.calls")


def _arg(args: tuple, kwargs: dict, pos: int, name: str) -> Any:
    return args[pos] if len(args) > pos else kwargs[name]


class _ModuleProxy:
    """Stands in for a module, overriding some attributes."""

    def __init__(self, module: types.ModuleType, **overrides: Any):
        self._module = module
        self.__dict__.update(overrides)

    def __getattr__(self, name: str) -> Any:
        return getattr(self._module, name)


class Tracer:
    def __init__(self) -> None:
        self._undo: list[tuple[Any, str, Any]] = []
        self._stack: list[list] = []
        self.reset()

    def reset(self) -> None:
        """Start a fresh tally (one pass over a job list)."""
        self.calls: dict[str, int] = defaultdict(int)
        self.total: dict[str, float] = defaultdict(float)
        self.self_s: dict[str, float] = defaultdict(float)
        self.count: dict[str, float] = defaultdict(float)
        self.solve_keys: set[bytes] = set()
        self._depth: dict[str, int] = defaultdict(int)

    # -- spans -----------------------------------------------------------------

    def wrap(self, name: str, fn: Callable,
             hook: Callable[["Tracer", str | None, tuple, dict, Any], None] | None = None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            parent = stack[-1][0] if stack else None
            frame = [name, 0.0]
            stack.append(frame)
            tracer._depth[name] += 1
            t0 = perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                d = perf_counter() - t0
                stack.pop()
                tracer._depth[name] -= 1
                tracer.calls[name] += 1
                if tracer._depth[name] == 0:
                    tracer.total[name] += d
                tracer.self_s[name] += d - frame[1]
                if stack:
                    stack[-1][1] += d
            if hook is not None:
                t1 = perf_counter()
                hook(tracer, parent, args, kwargs, out)
                th = perf_counter() - t1
                tracer.self_s["trace"] += th
                if stack:
                    stack[-1][1] += th
            return out
        return traced

    def install(self) -> None:
        pkg = importlib.import_module("dirichlet_p")
        mods = {name: importlib.import_module(f"dirichlet_p.{name}")
                for name in (*LAYERS, "cli", "config", "report")}
        wrapped: dict[Any, Callable] = {mods["cli"].main: self.wrap("cli.main", mods["cli"].main)}
        for layer in LAYERS:
            mod = mods[layer]
            for attr in mod.__all__:
                fn = getattr(mod, attr)
                if inspect.isfunction(fn) and fn.__module__ == mod.__name__:
                    wrapped[fn] = self.wrap(f"{layer}.{attr}", fn, _HOOKS.get(f"{layer}.{attr}"))
        for mod in (pkg, *mods.values()):
            for attr, val in list(vars(mod).items()):
                if isinstance(val, types.FunctionType) and val in wrapped:
                    self._rebind(mod, attr, wrapped[val])
        for layer in ("solve", "pform"):
            spla = mods[layer].spla
            self._rebind(mods[layer], "spla",
                         _ModuleProxy(spla, splu=self.wrap("splu", spla.splu, _splu_hook)))

    def _rebind(self, mod: Any, attr: str, value: Any) -> None:
        self._undo.append((mod, attr, getattr(mod, attr)))
        setattr(mod, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            mod, attr, value = self._undo.pop()
            setattr(mod, attr, value)

    # -- metrics ---------------------------------------------------------------

    def metrics(self, report_bytes: int) -> dict[str, float]:
        """Per-layer metrics of the current tally, except trace.overhead_frac."""
        c, t, s, n = self.calls, self.total, self.self_s, self.count
        iters = n["solve.newton_iters"]
        solves = c["solve.solve_dirichlet"]
        eq = n["capacity.equilibrium_solves"]
        out = {
            "splu.calls": c["splu"], "splu.s": t["splu"], "splu.lu_nnz": n["splu.lu_nnz"],
            "solve.newton_iters": iters,
            "solve.newton_iters_per_solve": iters / solves if solves else 0.0,
            "solve.factorizations_per_iter": c["splu"] / iters if iters else 0.0,
            "solve.obstacle_rounds": n["solve.obstacle_rounds"],
            "capacity.equilibrium_solves": eq,
            "capacity.distinct_set_ratio": len(self.solve_keys) / eq if eq else 0.0,
            "pform.p_operator.cells_per_s": (n["pform.p_operator.cells"] / t["pform.p_operator"]
                                             if t["pform.p_operator"] else 0.0),
            "pform.checkers.s": sum(t[k] for k in CHECKERS),
            "metric.intrinsic_distance.nodes_per_s": (
                n["metric.intrinsic_distance.nodes"] / t["metric.intrinsic_distance"]
                if t["metric.intrinsic_distance"] else 0.0),
            "cli.report_bytes": report_bytes,
            "splu.self_s": s["splu"], "trace.self_s": s["trace"],
        }
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(v for k, v in s.items() if k.startswith(layer + "."))
        for name, _unit in METRICS:
            if name in out or name == "trace.overhead_frac":
                continue
            span, _, kind = name.rpartition(".")
            out[name] = {"calls": c, "s": t, "self_s": s}[kind][span]
        return {k: float(v) for k, v in out.items()}

    def accounted_s(self) -> float:
        """Sum of all self times: equals the summed cli.main spans."""
        return float(sum(self.self_s.values()))


# -- counter hooks (run after the span closes, charged to `trace`) ----------------

def _splu_hook(tr: Tracer, parent, args, kwargs, lu) -> None:
    tr.count["splu.lu_nnz"] += lu.L.nnz + lu.U.nnz


def _solve_dirichlet_hook(tr: Tracer, parent, args, kwargs, result) -> None:
    tr.count["solve.newton_iters"] += result.iterations
    if parent in CAPACITY_SPANS:
        bc = _arg(args, kwargs, 1, "boundary")
        tr.count["capacity.equilibrium_solves"] += 1
        key = hashlib.blake2b(bc.mask.tobytes())
        key.update(bc.values.tobytes())
        tr.solve_keys.add(key.digest())


def _solve_obstacle_hook(tr: Tracer, parent, args, kwargs, result) -> None:
    tr.count["solve.obstacle_rounds"] += len(result.diagnostics["rounds"])


def _p_operator_hook(tr: Tracer, parent, args, kwargs, out) -> None:
    tr.count["pform.p_operator.cells"] += _arg(args, kwargs, 1, "ctx").domain.num_cells


def _intrinsic_distance_hook(tr: Tracer, parent, args, kwargs, out) -> None:
    tr.count["metric.intrinsic_distance.nodes"] += \
        _arg(args, kwargs, 1, "structure").domain.num_nodes


_HOOKS = {
    "solve.solve_dirichlet": _solve_dirichlet_hook,
    "solve.solve_obstacle": _solve_obstacle_hook,
    "pform.p_operator": _p_operator_hook,
    "metric.intrinsic_distance": _intrinsic_distance_hook,
}
