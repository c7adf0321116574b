"""Machine note and the ROADMAP baseline rows, read from traced spans.

Run from the repository root::

    python3 bench/baseline.py

Each row runs its operation five times in this process with the
benchmark's tracer installed, and reads the row's wall time from the span of
the public entry point it names (median and minimum over the repeats), with
the grid nodes and quadrature work counted inside that span.  The rows are
those of ROADMAP's "Baseline at this re-anchor": builds of poly n=2 and
yau n=3 (x_max 2e4), the sigma_2 series, chern_number, mixed_curvature_ibp,
and ``cvlab report --mode scalar`` per family.  ROADMAP's report rows were
timed end to end, interpreter start included, so the report is also timed as
a fresh ``python3 -m cvlab`` process per repeat.
"""

from __future__ import annotations

import contextlib
import io
import os
import statistics
import subprocess
import sys
import time

from run import THREAD_VARS, machine_note, worker_env
from worker import import_cvlab

os.environ.update({var: "1" for var in THREAD_VARS})  # before numpy loads BLAS
cvlab = import_cvlab(os.getcwd())

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from cvlab import cli, integrals  # noqa: E402
from tracing import Tracer  # noqa: E402

REPEATS = 5


def _report(family: str) -> None:
    with contextlib.redirect_stdout(io.StringIO()):
        cli.main(["report", "--family", family, "--mode", "scalar"])


def rows():
    """(label, span name, model maker or None, operation).

    With a model maker the model is built before the row's span opens, and
    the operation takes it; without one the operation is the whole row.
    """
    poly = lambda: cvlab.build_metric(cvlab.polynomial_xi(0.5), 2)  # noqa: E731
    yau = lambda: cvlab.yau_counterexample(3, 2, options=cvlab.BuildOptions(x_max=2.0e4))  # noqa: E731
    out = [
        ("build poly n=2", "metric.build", None, poly),
        ("build yau n=3 (x_max 2e4)", "metric.build", None, yau),
        ("sigma_2 series poly n=2", "integrals.series", poly,
         lambda m: integrals.normalized_sigma_series(m, 2)),
        ("sigma_2 series yau n=3", "integrals.series", yau,
         lambda m: integrals.normalized_sigma_series(m, 2)),
        ("chern_number poly n=2", "integrals.chern", poly, integrals.chern_number),
        ("chern_number yau n=3", "integrals.chern", yau, integrals.chern_number),
        ("mixed_curvature_ibp yau n=3 k=2", "integrals.ibp", yau,
         lambda m: integrals.mixed_curvature_ibp(m, 2)),
    ]
    for family in ("poly", "yau", "lp", "s3", "flat"):
        out.append((f"cvlab report --mode scalar --family {family}", "cli.main", None,
                    lambda family=family: _report(family)))
    return out


def main() -> int:
    print(machine_note({"python": sys.version.split()[0], "numpy": np.__version__,
                        "scipy": scipy.__version__}))
    tracer = Tracer()
    tracer.install()
    try:
        results = []
        for label, span, make, op in rows():
            marks = []
            for _ in range(REPEATS):
                if make is None:
                    marks.append(len(tracer))
                    op()
                else:
                    model = make()
                    marks.append(len(tracer))
                    op(model)
            results.append((label, span, marks))
    finally:
        tracer.uninstall()

    a = tracer.arrays()
    ids = {name: i for i, name in enumerate(tracer.names)}
    print(f"{'row':50s} {'median s':>9s} {'min s':>9s} {'nodes':>7s} "
          f"{'table nodes':>12s} {'query points':>13s} {'adaptive evals':>14s}")
    for label, span, marks in results:
        times = []
        for mark in marks:
            # the row's span is the first one it opened under the name
            root = mark + int(np.argmax(a["name_id"][mark:] == ids[span]))
            times.append(a["duration"][root])
        # spans opened after the root that closed before it lie inside it
        inside = np.arange(root, len(a["start"]))
        inside = inside[a["end"][inside] <= a["end"][root]]
        sizes = {name: int(a["size"][inside][a["name_id"][inside] == ids[name]].sum())
                 for name in ("metric.build", "quadrature.table", "quadrature.query",
                              "quadrature.adaptive")}
        print(f"{label:50s} {statistics.median(times):9.4f} {min(times):9.4f} "
              f"{sizes['metric.build']:7d} {sizes['quadrature.table']:12d} "
              f"{sizes['quadrature.query']:13d} {sizes['quadrature.adaptive']:14d}")

    env = worker_env(os.getcwd())
    for family in ("poly", "yau", "lp", "s3", "flat"):
        cmd = [sys.executable, "-m", "cvlab", "report", "--family", family, "--mode", "scalar"]
        times = []
        for _ in range(REPEATS):
            t0 = time.perf_counter()
            subprocess.run(cmd, env=env, check=True, capture_output=True, timeout=120)
            times.append(time.perf_counter() - t0)
        label = f"process: cvlab report --mode scalar --family {family}"
        print(f"{label:50s} {statistics.median(times):9.4f} {min(times):9.4f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
