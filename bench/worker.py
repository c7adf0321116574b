"""One workload in one fresh process: set up, run the closed study loop, report.

Run from the repository root (``run.py`` starts it with ``src`` on the path
and BLAS pools pinned to one thread)::

    python3 bench/worker.py --workload steps --seed 1 --seconds 25 --trace 0

The last line of stdout is a JSON document with the set-up timestamp, each
study's wall time and verdict, and, with ``--trace 1``, the per-layer metrics.
``--setup-only`` stops once the workload is ready to run its first study.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from dataclasses import dataclass

# a workload always sees at least this many studies, so that the tail
# percentile (the highest with ten studies beyond it) exists and rests on
# more than the single fastest study
MIN_STUDIES = 13
SPAN_DIR = ".bench_out"


def import_cvlab(root: str):
    """Import cvlab from ``root/src`` and nowhere else."""
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "cvlab", "__init__.py")):
        raise SystemExit(f"no cvlab sources under {src}; run from the repository root")
    sys.path.insert(0, src)
    import cvlab

    if not os.path.abspath(cvlab.__file__).startswith(os.path.abspath(src) + os.sep):
        raise SystemExit(f"cvlab was imported from {cvlab.__file__}, not from {src}")
    return cvlab


@dataclass
class Record:
    spec: dict
    seconds: float
    outcome: object  # studies.Outcome, or None when the study raised
    error: str | None

    @property
    def passed(self) -> bool:
        return self.outcome is not None and self.outcome.passed


def run_loop(workload: str, specs: list, seconds: float, min_studies: int, tracer=None) -> list:
    """Closed loop, one client: each study starts when the previous one ends.

    Studies cycle through ``specs``; the loop stops at the first study
    boundary past ``seconds`` once ``min_studies`` have run.  A study that
    raises or fails a check is recorded as failed and the loop goes on.
    """
    import studies

    study = studies.STUDIES[workload]
    if tracer is not None:
        study = tracer.wrap("bench.study", study)
    records = []
    began = time.perf_counter()
    while len(records) < min_studies or time.perf_counter() - began < seconds:
        spec = specs[len(records) % len(specs)]
        if tracer is not None:
            tracer.study = len(records)
        t0 = time.perf_counter()
        try:
            outcome, error = study(spec), None
        except Exception as exc:  # noqa: BLE001 - a failing study is data, not a crash
            outcome, error = None, f"{type(exc).__name__}: {exc}"
        records.append(Record(spec, time.perf_counter() - t0, outcome, error))
    if tracer is not None:
        tracer.study = -1
    return records


def outcome_metrics(records: list, cycle: int) -> dict:
    """Accuracy values the studies recorded, over the first full cycle."""
    first = [r.outcome for r in records[:cycle] if r.outcome is not None]

    def worst(name):
        return max((o.gaps[name] for o in first if name in o.gaps), default=0.0)

    def median(name):
        vals = [o.values[name] for o in first if name in o.values]
        return statistics.median(vals) if vals else 0.0

    return {
        "curvature.route_gap": worst("route_gap"),
        "integrals.chern_gap": worst("chern_gap"),
        "integrals.chern_identity_residual": worst("chern_identity_residual"),
        "integrals.ibp_gap": worst("ibp_gap"),
        "integrals.ball_vs_series_gap": worst("ball_vs_series_gap"),
        "integrals.tail_formula_gap": worst("tail_formula_gap"),
        "metric.inverse_gap": max((o.values.get("inversion_gap", 0.0) for o in first), default=0.0),
        "growth.station_slope": median("station_slope"),
        "growth.lp_window_gap": median("lp_window_gap"),
    }


def describe(record: Record) -> dict:
    doc = {"kind": record.spec["kind"], "seconds": record.seconds, "passed": record.passed}
    if record.outcome is not None:
        doc["digits"] = record.outcome.digits
        doc["failures"] = record.outcome.failures
    if record.error is not None:
        doc["error"] = record.error
    return doc


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    root = os.getcwd()
    import_cvlab(root)
    import studies

    specs = studies.make_inputs(args.workload, args.seed)
    ready = time.time()
    if args.setup_only:
        print(json.dumps({"ready": ready}))
        return 0

    import numpy
    import scipy

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
        tracer.install()
    min_studies = MIN_STUDIES if tracer is None else max(MIN_STUDIES, len(specs))
    records = run_loop(args.workload, specs, args.seconds, min_studies, tracer)

    doc = {
        "ready": ready,
        "versions": {"python": sys.version.split()[0], "numpy": numpy.__version__,
                     "scipy": scipy.__version__},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "studies": [describe(r) for r in records],
    }
    if tracer is not None:
        tracer.uninstall()
        layers = tracer.layer_metrics(len(specs), len(records))
        layers.update(outcome_metrics(records, len(specs)))
        doc["layers"] = layers
        doc["spans"] = len(tracer)
        os.makedirs(SPAN_DIR, exist_ok=True)
        path = os.path.join(SPAN_DIR, f"spans-{args.workload}-seed{args.seed}.npz")
        tracer.save(path)
        doc["span_file"] = path
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
