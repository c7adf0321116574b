#!/usr/bin/env python3
"""Per-call cost of cvlab's point functions on scalar arguments.

    python3 scripts/point_costs.py [--json OUT.json]

Times ``engine.v_of``, ``engine.s_of``, ``radius_from_s``,
``native_from_x``, ``abc_at_r``, ``abc_at_x``, ``distance_s`` (at r) and
``volume_ball``, each called with one Python float at a time, on poly n=2
(xi = 0.5 t/(1 + t)) and s3 n=2 (r0 = 1).  The arguments are 16 points
in the middle of the matching table's cells (native radii for ``v_of`` and
``s_of``): the cells that hold 16 log-spaced points over the table's
positive range, so that every call sums a cell series.  One
round calls the function once at each point; a row is the median, over
``REPEAT`` rounds, of a round's time over its 16 calls, in microseconds.
Each function is called once at every point before it is timed, so the
inverses it builds on first use are not in the rows.

The script uses only public API and engine methods, so the same file times
an older checkout too:

    PYTHONPATH=<old checkout>/src python3 scripts/point_costs.py

Runs of two checkouts are best taken in turn, several each, on an otherwise
quiet machine: the rows are single-thread Python overheads of a few
microseconds, which a loaded host moves by tens of percent.
"""

import argparse
import json
import platform
import statistics
import sys
import time

import numpy as np

import cvlab
from cvlab import polynomial_xi, s3_metric
from cvlab.curvature import abc_at_r, abc_at_x
from cvlab.integrals import distance_s, volume_ball

POINTS = 16
REPEAT = 9  # timed rounds per function
MODELS = {
    "poly2": lambda: cvlab.build_metric(polynomial_xi(0.5), 2),
    "s3": lambda: s3_metric(2, r0=1.0),
}
FUNCTIONS = ("v_of", "s_of", "radius_from_s", "native_from_x", "abc_at_r", "abc_at_x",
             "distance_s", "volume_ball")


def _mid_cells(table):
    """POINTS Python floats: the midpoints of the cells of ``table`` that hold
    points log-spaced from its first positive entry to its last."""
    table = np.asarray(table, dtype=float)
    span = np.geomspace(table[table > 0][0], table[-1], POINTS)
    cell = np.minimum(table.searchsorted(span, side="right") - 1, table.size - 2)
    return [float(p) for p in 0.5 * (table[cell] + table[cell + 1])]


def calls(model):
    """{function name: (one-argument callable, its points)}."""
    eng = model.engine
    native, r, x, s = (_mid_cells(getattr(model, table)) for table in ("native", "r", "x", "s"))
    return {
        "v_of": (eng.v_of, native),
        "s_of": (eng.s_of, native),
        "radius_from_s": (model.radius_from_s, s),
        "native_from_x": (model.native_from_x, x),
        "abc_at_r": (lambda q: abc_at_r(model, q), r),
        "abc_at_x": (lambda q: abc_at_x(model, q), x),
        "distance_s": (lambda q: distance_s(model, r=q), r),
        "volume_ball": (lambda q: volume_ball(model, q), s),
    }


def per_call_us(fn, points) -> float:
    for p in points:  # warm: inverses build on first use
        fn(p)
    rounds = []
    for _ in range(REPEAT):
        start = time.perf_counter()
        for p in points:
            fn(p)
        rounds.append((time.perf_counter() - start) / len(points))
    return 1e6 * statistics.median(rounds)


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--json", metavar="OUT", help="also write the rows as JSON")
    args = p.parse_args(argv)
    rows = {}
    for name, make in MODELS.items():
        table = calls(make())
        rows[name] = {fn: round(per_call_us(*table[fn]), 2) for fn in FUNCTIONS}
    print(f"per-call median, us ({POINTS} scalar points, {REPEAT} rounds; "
          f"cvlab at {cvlab.__file__}, numpy {np.__version__}, python {platform.python_version()})")
    print(f"{'function':<16}" + "".join(f"{name:>10}" for name in MODELS))
    for fn in FUNCTIONS:
        print(f"{fn:<16}" + "".join(f"{rows[name][fn]:>10.2f}" for name in MODELS))
    if args.json:
        with open(args.json, "w") as fh:
            json.dump({"numpy": np.__version__, "python": platform.python_version(),
                       "repeat": REPEAT, "us_per_call": rows}, fh, indent=1)
            fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
