"""Span tracing of cvlab's public entry points, installed from the benchmark.

``Tracer.install`` wraps module functions and class methods of cvlab in
place.  A function bound elsewhere by ``from ... import`` is rebound in every
loaded cvlab module that holds it, so calls through those names are traced
too.  Nothing is installed unless the traced mode asks for it.

A span holds its name, start, end, parent span, study id and a size (points
or nodes handled).  Spans stay in compact arrays in memory until the run
writes them out.  Self time is a span's duration minus its children's, which
never overlap in this single-threaded loop.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
from array import array
from time import perf_counter

import numpy as np


def _points(index: int):
    def size(args, kwargs, result):
        return int(np.size(args[index]))

    return size


def _table_nodes(args, kwargs, result):
    table = args[0]
    return (table.grid.size - 1) * table.order


def _grid_nodes(args, kwargs, result):
    return len(result.native)


# (module, attribute, span name, size); one span name may cover several entries
FUNCTIONS = [
    ("cvlab.expr", "evaluate", "expr.evaluate", _points(1)),
    ("cvlab.expr", "evaluate_derivative", "expr.derivative", _points(1)),
    ("cvlab.profiles", "eval_profile", "profiles.eval", _points(1)),
    ("cvlab.metric", "build_metric", "metric.build", _grid_nodes),
    ("cvlab.curvature", "ricci_eigenvalues", "curvature.ricci", _points(0)),
    ("cvlab.curvature", "scalar_curvature", "curvature.scalar", _points(0)),
    ("cvlab.curvature", "sigma_k", "curvature.sigma", _points(0)),
    ("cvlab.curvature", "chern_density_k", "curvature.chern", _points(0)),
    ("cvlab.curvature", "abc_at_r", "curvature.route", _points(1)),
    ("cvlab.curvature", "abc_at_x", "curvature.route", _points(1)),
    ("cvlab.integrals", "normalized_sigma_series", "integrals.series", None),
    ("cvlab.integrals", "normalized_chern_series", "integrals.series", None),
    ("cvlab.integrals", "lp_curvature_series", "integrals.series", None),
    ("cvlab.integrals", "average_scalar_series", "integrals.series", None),
    ("cvlab.integrals", "chern_number", "integrals.chern", None),
    ("cvlab.integrals", "mixed_curvature_ibp", "integrals.ibp", None),
    ("cvlab.integrals", "ball_integral", "integrals.ball", None),
    ("cvlab.growth", "fit_loglog", "growth.fit", None),
    ("cvlab.growth", "growth_fit", "growth.fit", None),
    ("cvlab.growth", "log_growth_fit", "growth.fit", None),
    ("cvlab.growth", "coordinate_growth", "growth.fit", None),
    ("cvlab.cli", "main", "cli.main", None),
]

# (module, class, method, span name, size)
METHODS = [
    ("cvlab.quadrature", "CumulativeIntegral", "__init__", "quadrature.table", _table_nodes),
    ("cvlab.quadrature", "CumulativeIntegral", "__call__", "quadrature.query", _points(1)),
    ("cvlab.profiles", "ClosedFormSource", "__call__", "profiles.source", _points(1)),
    ("cvlab.profiles", "ClosedFormSource", "derivative", "profiles.source", _points(1)),
    ("cvlab.profiles", "SampledSource", "__call__", "profiles.source", _points(1)),
    ("cvlab.profiles", "SampledSource", "derivative", "profiles.source", _points(1)),
    ("cvlab.families", "SmoothStepSource", "cumulative", "families.cumulative", _points(1)),
    ("cvlab.families", "SmoothStepSource", "__call__", "families.source", _points(1)),
    ("cvlab.families", "SmoothStepSource", "derivative", "families.source", _points(1)),
    ("cvlab.families", "RawStepSource", "cumulative", "families.cumulative", _points(1)),
    ("cvlab.families", "RawStepSource", "__call__", "families.source", _points(1)),
    ("cvlab.families", "SaturationRampSource", "__call__", "families.source", _points(1)),
    ("cvlab.families", "SaturationRampSource", "derivative", "families.source", _points(1)),
    ("cvlab.metric", "MetricModel", "radius_from_s", "metric.inverse", _points(1)),
]


class Tracer:
    """Records spans of wrapped calls; one instance per traced run."""

    def __init__(self):
        self.study = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name_id = array("H")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("q")
        self.study_id = array("q")
        self.size = array("q")
        self.outer = array("b")  # 1 when no enclosing span shares the layer
        self._stack: list[int] = []
        self._open: dict[str, int] = {}
        self._installed: list[tuple] = []

    def __len__(self) -> int:
        return len(self.start)

    def wrap(self, name: str, fn, size=None):
        """``fn`` with a span named ``name`` around every call."""
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self._open[name.split(".", 1)[0]] = 0
        nid = self._ids[name]
        layer = name.split(".", 1)[0]
        stack, opened = self._stack, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(self.start)
            self.name_id.append(nid)
            self.parent.append(stack[-1] if stack else -1)
            self.study_id.append(self.study)
            self.outer.append(opened[layer] == 0)
            self.size.append(0)
            self.end.append(0.0)
            stack.append(idx)
            opened[layer] += 1
            self.start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[idx] = perf_counter()
                opened[layer] -= 1
                stack.pop()
            if size is not None:
                self.size[idx] = size(args, kwargs, result)
            return result

        return traced

    # -- installation ------------------------------------------------------

    def _rebind(self, original, wrapped) -> None:
        found = False
        for modname, module in list(sys.modules.items()):
            if module is None or not (modname == "cvlab" or modname.startswith("cvlab.")):
                continue
            for attr, value in list(vars(module).items()):
                if value is original:
                    setattr(module, attr, wrapped)
                    self._installed.append((module, attr, original))
                    found = True
        if not found:
            raise RuntimeError(f"traced entry point {original!r} is bound nowhere")

    def install(self) -> None:
        """Wrap every entry point in FUNCTIONS and METHODS, plus QUADPACK counting."""
        importlib.import_module("cvlab.cli")
        for modname, attr, name, size in FUNCTIONS:
            original = getattr(importlib.import_module(modname), attr)
            self._rebind(original, self.wrap(name, original, size))
        for modname, clsname, attr, name, size in METHODS:
            cls = getattr(importlib.import_module(modname), clsname)
            original = cls.__dict__[attr]
            setattr(cls, attr, self.wrap(name, original, size))
            self._installed.append((cls, attr, original))

        # integrand evaluations of adaptive QUADPACK calls count into the span size
        quadrature = importlib.import_module("cvlab.quadrature")
        original = quadrature.adaptive_integral
        evals = [0]

        def counted_adaptive(f, *args, **kwargs):
            evals[0] = 0

            def counted(x):
                evals[0] += 1
                return f(x)

            return original(counted, *args, **kwargs)

        counted_adaptive.__wrapped__ = original
        self._rebind(original, self.wrap("quadrature.adaptive", counted_adaptive,
                                         lambda args, kwargs, result: evals[0]))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._installed):
            setattr(owner, attr, original)
        self._installed.clear()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        """Spans as numpy arrays, with each span's self time."""
        start = np.array(self.start, dtype=float)
        end = np.array(self.end, dtype=float)
        parent = np.array(self.parent, dtype=np.int64)
        duration = end - start
        children = np.zeros_like(duration)
        has = parent >= 0
        np.add.at(children, parent[has], duration[has])
        return {
            "name_id": np.array(self.name_id, dtype=np.int64),
            "start": start,
            "end": end,
            "parent": parent,
            "study": np.array(self.study_id, dtype=np.int64),
            "size": np.array(self.size, dtype=np.int64),
            "outer": np.array(self.outer, dtype=bool),
            "duration": duration,
            "self": duration - children,
        }

    def save(self, path) -> None:
        """Write every span to ``path`` (compressed npz; names as JSON)."""
        data = self.arrays()
        np.savez_compressed(path, names=np.array(json.dumps(self.names)), **data)

    def layer_metrics(self, cycle: int, studies: int) -> dict:
        """Per-layer metrics: counts over studies ``< cycle`` (one full cycle),
        times as means per study over all ``studies`` traced studies."""
        if studies < cycle:
            raise ValueError(f"traced {studies} studies, fewer than one cycle of {cycle}")
        a = self.arrays()
        ids = {name: i for i, name in enumerate(self.names)}
        in_cycle = (a["study"] >= 0) & (a["study"] < cycle)

        def pick(*names, outer=False, cycle_only=True):
            mask = np.isin(a["name_id"], [ids[n] for n in names if n in ids])
            if outer:
                mask &= a["outer"]
            if cycle_only:
                mask &= in_cycle
            return mask

        def count(*names, outer=False):
            return int(np.count_nonzero(pick(*names, outer=outer)))

        def points(*names, outer=False):
            return int(a["size"][pick(*names, outer=outer)].sum())

        def per_study(values, mask):
            return float(values[mask & (a["study"] >= 0)].sum()) / max(studies, 1)

        def self_s(layer):
            mask = np.isin(a["name_id"], [i for n, i in ids.items() if n.startswith(layer + ".")])
            return per_study(a["self"], mask)

        def incl_s(*names, outer=False):
            return per_study(a["duration"], pick(*names, outer=outer, cycle_only=False))

        def ratio(num, den):
            return num / den if den else 0.0

        query_points = points("quadrature.query")
        density_points = points("curvature.ricci", "curvature.scalar")
        table_nodes = points("quadrature.table")
        query_nodes = 8 * query_points  # Gauss order of every table cvlab builds
        per_cycle = 1.0 / cycle
        return {
            "expr.calls": count("expr.evaluate", "expr.derivative") * per_cycle,
            "expr.points": points("expr.evaluate", "expr.derivative") * per_cycle,
            "expr.self_s": self_s("expr"),
            "profiles.calls": count("profiles.eval", "profiles.source", outer=True) * per_cycle,
            "profiles.points": points("profiles.eval", "profiles.source", outer=True) * per_cycle,
            "profiles.self_s": self_s("profiles"),
            "families.cumulative_calls": count("families.cumulative") * per_cycle,
            "families.cumulative_points": points("families.cumulative") * per_cycle,
            "families.self_s": self_s("families"),
            "quadrature.tables": count("quadrature.table") * per_cycle,
            "quadrature.table_nodes": table_nodes * per_cycle,
            "quadrature.bytes_computed": 16 * (table_nodes + query_nodes) * per_cycle,
            "quadrature.queries": count("quadrature.query") * per_cycle,
            "quadrature.query_points": query_points * per_cycle,
            "quadrature.points_per_query": ratio(query_points, count("quadrature.query")),
            "quadrature.self_s": self_s("quadrature"),
            "quadrature.nested_ratio": ratio(query_points, density_points),
            "quadrature.adaptive_calls": count("quadrature.adaptive") * per_cycle,
            "quadrature.adaptive_evals": points("quadrature.adaptive") * per_cycle,
            "quadrature.adaptive_s": incl_s("quadrature.adaptive"),
            "metric.builds": count("metric.build", outer=True) * per_cycle,
            "metric.build_s": incl_s("metric.build", outer=True),
            "metric.grid_nodes": points("metric.build", outer=True) * per_cycle,
            "metric.inverse_calls": count("metric.inverse") * per_cycle,
            "metric.inverse_s": incl_s("metric.inverse"),
            "metric.self_s": self_s("metric"),
            "curvature.density_points": density_points * per_cycle,
            "curvature.algebra_s": per_study(a["self"], pick(
                "curvature.ricci", "curvature.scalar", "curvature.sigma", "curvature.chern",
                cycle_only=False)),
            "curvature.route_calls": count("curvature.route") * per_cycle,
            "curvature.route_s": incl_s("curvature.route"),
            "integrals.series_calls": count("integrals.series") * per_cycle,
            "integrals.series_s": incl_s("integrals.series"),
            "integrals.chern_s": incl_s("integrals.chern"),
            "integrals.ibp_s": incl_s("integrals.ibp"),
            "integrals.ball_calls": count("integrals.ball") * per_cycle,
            "integrals.ball_s": incl_s("integrals.ball"),
            "growth.fits": count("growth.fit", outer=True) * per_cycle,
            "growth.fit_s": incl_s("growth.fit", outer=True),
            "cli.commands": count("cli.main") * per_cycle,
            "cli.self_s": self_s("cli"),
        }
