"""Tests of the benchmark itself: seeding, span tracing, failure accounting.

Run from the repository root: ``python3 -m pytest bench/tests -q``.
"""

import json
import os

import numpy as np
import pytest

import cvlab.integrals
import cvlab.quadrature
import run
import studies
import tracing
import worker

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def traced_run(workload, seed, count):
    specs = studies.make_inputs(workload, seed)[:count]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        records = worker.run_loop(workload, specs, 0.0, len(specs), tracer)
    finally:
        tracer.uninstall()
    return tracer, records


@pytest.fixture(scope="module")
def probes_traces():
    return [traced_run("probes", 3, 3) for _ in range(2)]


def test_inputs_depend_only_on_the_seed():
    for workload in studies.WORKLOADS:
        assert studies.make_inputs(workload, 5) == studies.make_inputs(workload, 5)
        assert studies.make_inputs(workload, 5) != studies.make_inputs(workload, 6)


def test_traced_counts_repeat_exactly(probes_traces):
    (first, rec1), (second, rec2) = probes_traces
    assert all(r.passed for r in rec1 + rec2)
    m1 = first.layer_metrics(3, 3)
    m2 = second.layer_metrics(3, 3)
    counts = [k for k in m1 if k.endswith(("calls", "points", "tables", "nodes", "queries",
                                            "_evals", "builds", "fits", "commands"))]
    assert "quadrature.adaptive_evals" in counts and "metric.grid_nodes" in counts
    assert {k: m1[k] for k in counts} == {k: m2[k] for k in counts}
    # the layers reached through names bound by `from ... import` do not read 0
    for key in ("quadrature.queries", "quadrature.tables", "quadrature.adaptive_evals",
                "curvature.density_points", "curvature.route_calls", "expr.calls",
                "integrals.ball_calls", "metric.inverse_calls"):
        assert m1[key] > 0, key


def test_spans_nest_and_self_times_are_nonnegative(probes_traces):
    tracer, _ = probes_traces[0]
    a = tracer.arrays()
    child = a["parent"] >= 0
    parent = a["parent"][child]
    assert np.all(a["start"][parent] <= a["start"][child])
    assert np.all(a["end"][child] <= a["end"][parent])
    assert np.all(a["duration"] >= 0.0)
    assert np.all(a["self"] >= -1e-9)
    assert np.all(a["study"] >= 0)


def test_untraced_run_installs_nothing():
    specs = studies.make_inputs("probes", 1)[:1]
    worker.run_loop("probes", specs, 0.0, 1)
    assert not hasattr(cvlab.integrals.chern_number, "__wrapped__")
    assert not hasattr(cvlab.quadrature.CumulativeIntegral.__call__, "__wrapped__")
    assert cvlab.integrals.adaptive_integral is cvlab.quadrature.adaptive_integral


def test_wrong_reference_fails_the_study_not_the_run(monkeypatch):
    specs = studies.make_inputs("smooth", 2)[:2]
    assert [s["kind"] for s in specs] == ["poly", "poly"]
    right = studies.closed_form_chern
    monkeypatch.setattr(studies, "closed_form_chern", lambda n, xi: 2.0 * right(n, xi))
    records = worker.run_loop("smooth", specs, 0.0, 3)
    assert len(records) == 3
    assert not any(r.passed for r in records)
    assert all(r.error is None for r in records)
    assert all(name == "C05 chern closed form" for r in records for name, _ in r.outcome.failures)

    def broken(n, xi):
        raise ZeroDivisionError("reference unavailable")

    monkeypatch.setattr(studies, "closed_form_chern", broken)
    records = worker.run_loop("smooth", specs, 0.0, 2)
    assert [r.error for r in records] == ["ZeroDivisionError: reference unavailable"] * 2


def test_tail_is_the_highest_percentile_with_ten_beyond():
    assert run.tail(list(range(11))) == (0, 100.0 / 11)
    assert run.tail(list(range(20, 0, -1))) == (10, 50.0)


def test_reported_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    names = set(tracing.Tracer().layer_metrics(1, 1))
    names |= set(worker.outcome_metrics([], 1)) | {"trace.overhead_s", "trace.overhead_frac"}
    assert names == {m["name"] for m in spec["per_layer"]}
    assert spec["command"][1:] == ["bench/run.py"] and spec["paths"] == ["bench"]
