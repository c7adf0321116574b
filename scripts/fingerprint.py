#!/usr/bin/env python3
"""Dump a fixed set of cvlab outputs, or compare two dumps bit for bit.

    python3 scripts/fingerprint.py OUT.npz
    python3 scripts/fingerprint.py --compare A.npz B.npz

The dump covers nine models (poly n=2 rational, poly n=3 exponential, s3,
flat, yau n=3 and lp n=2 with l_max 32, the h-kind (1 + t)^-0.5, and two
sampled generators: xi = 0.5 t/(1 + t) at 0 and 400 geometric points on
[1e-6, 1e8], and h = (1 + t)^-0.5 at 0, 1 200 geometric points on
[1e-9, 1e4] and two more 0.1% apart past 1e4): the
model tables; each engine method at 50 points, once as one array query and
once as 50 scalar queries; every sigma, Chern, L^p and scalar series;
``chern_number``; the IBP identity and, as a key of its own, its condition
number (an older checkout, whose ``IbpCheck`` has none, records the
exception); ``abc_at_r``/``abc_at_x``, ``distance_s``, ``radius_from_s`` and
``volume_ball`` as arrays and as scalars; ``average_scalar_curvature`` at
three radii; and ``curvature_table``.  A call that raises is recorded as its exception type.

``--compare`` lists every key that is missing from one dump or not
``np.array_equal`` between them, with two gaps for each differing float key
and the largest of each over all of them, then one line per model with
differing keys (their count, and the largest gaps outside the ``.table.``
keys, which move with the grid, and ``chern_number``'s identity residual,
a rounding-level number), and exits 1 if there is any.  The
relative gap is the largest entrywise |a - b| / max(|a|, |b|); the scale gap
is the largest |a - b| over the key's largest |value|, which tells a last-digit
change in a tiny entry from a real move.  The script
uses only long-standing public API and engine methods, so the same file
fingerprints an older checkout too:

    PYTHONPATH=<old checkout>/src python3 scripts/fingerprint.py old.npz
"""

import argparse
import sys

import numpy as np

from cvlab import (
    ClosedFormSource,
    GeneratorKind,
    GeneratorProfile,
    SampledSource,
    build_metric,
    flat_metric,
    lp_counterexample,
    polynomial_xi,
    s3_metric,
    yau_counterexample,
)
from cvlab.curvature import abc_at_r, abc_at_x, curvature_table
from cvlab.integrals import (
    average_scalar_curvature,
    average_scalar_series,
    chern_number,
    distance_s,
    lp_curvature_series,
    mixed_curvature_ibp,
    normalized_chern_series,
    normalized_sigma_series,
    volume_ball,
)

POINTS = 50
TABLES = ("native", "r", "x", "h", "f", "xi", "v", "s")
XI_METHODS = ("xi_of", "h_of", "v_of", "f_of", "s_of", "r_of", "x_of",
              "xi_prime_of", "abc_of", "curvature_of")
F_METHODS = ("fprime_of", "fpp_of", "xi_of", "v_of", "s_of", "r_of", "x_of",
             "h_of", "f_of", "abc_of", "curvature_of")
CHERN_FIELDS = ("value", "numeric", "tail", "identity_residual")
# left out of the per-model gaps: the tables move with the grid, and the
# identity residual is a rounding-level number whose every digit may move
UNSCORED = (".table.", f".chern_number[{CHERN_FIELDS.index('identity_residual')}]")


def models():
    h_kind = GeneratorProfile(GeneratorKind.H, ClosedFormSource("(1 + t) ^ -0.5"), name="h-kind")
    ts = np.concatenate(([0.0], np.geomspace(1e-6, 1e8, 400)))
    sampled = GeneratorProfile(GeneratorKind.XI, SampledSource(ts, 0.5 * ts / (1.0 + ts)),
                               name="sampled")
    last = 1e4 * (1.0 + np.array([1e-3, 2e-3]))
    ts = np.concatenate(([0.0], np.geomspace(1e-9, 1e4, 1200), last))
    sampled_h = GeneratorProfile(GeneratorKind.H, SampledSource(ts, (1.0 + ts) ** -0.5),
                                 name="sampled-h")
    return {
        "poly2": lambda: build_metric(polynomial_xi(0.5), 2),
        "poly3exp": lambda: build_metric(polynomial_xi(0.5, "exponential"), 3),
        "s3": lambda: s3_metric(2, r0=1.0),
        "flat": lambda: flat_metric(2),
        "yau3": lambda: yau_counterexample(3, 2, l_max=32),
        "lp2": lambda: lp_counterexample(2, l_max=32),
        "hkind": lambda: build_metric(h_kind, 2),
        "sampled": lambda: build_metric(sampled, 2),
        "sampledh": lambda: build_metric(sampled_h, 2),
    }


def _span(table):
    """50 log-spaced points from the first positive entry to the last."""
    table = np.asarray(table, dtype=float)
    return np.geomspace(table[table > 0][0], table[-1], POINTS)


def _record(out, key, fn, *args):
    try:
        value = fn(*args)
    except Exception as exc:  # the failure itself is part of the fingerprint
        out[key + "!error"] = np.array(type(exc).__name__)
        return
    parts = value if isinstance(value, tuple) else (value,)
    for i, part in enumerate(parts):
        out[key if len(parts) == 1 else f"{key}[{i}]"] = np.asarray(part, dtype=float)


def _array_and_scalars(out, key, fn, points):
    _record(out, key + ".array", fn, points)

    def one_by_one(pts):
        rows = [fn(float(p)) for p in pts]
        if isinstance(rows[0], tuple):
            return tuple(np.array(col) for col in zip(*rows))
        return np.array(rows)

    _record(out, key + ".scalar", one_by_one, points)


def fingerprint(name, model, out):
    for table in TABLES:
        out[f"{name}.table.{table}"] = np.asarray(getattr(model, table), dtype=float)
    eng = model.engine
    native_pts = _span(model.native)
    methods = XI_METHODS if model.representation.value == "from_xi" else F_METHODS
    for method in methods:
        _array_and_scalars(out, f"{name}.engine.{method}", getattr(eng, method), native_pts)

    n = model.n
    for k in range(1, n + 1):
        _record(out, f"{name}.sigma{k}", lambda: normalized_sigma_series(model, k).normalized)
        _record(out, f"{name}.chern{k}", lambda: normalized_chern_series(model, k).normalized)
    _record(out, f"{name}.lp", lambda: lp_curvature_series(model, 2.37).normalized)
    _record(out, f"{name}.scalar", lambda: average_scalar_series(model).normalized)
    _record(out, f"{name}.chern_number",
            lambda: tuple(getattr(chern_number(model), f) for f in CHERN_FIELDS))
    for k in range(1, n):
        _record(out, f"{name}.ibp{k}",
                lambda: (lambda c: (c.direct, c.by_parts))(mixed_curvature_ibp(model, k)))
        _record(out, f"{name}.ibp{k}.condition", lambda: mixed_curvature_ibp(model, k).condition)

    r_pts, x_pts, s_pts = _span(model.r), _span(model.x), _span(model.s)
    _array_and_scalars(out, f"{name}.abc_at_r", lambda r: abc_at_r(model, r), r_pts)
    _array_and_scalars(out, f"{name}.abc_at_x", lambda x: abc_at_x(model, x), x_pts)
    _array_and_scalars(out, f"{name}.distance_s.r", lambda r: distance_s(model, r=r), r_pts)
    _array_and_scalars(out, f"{name}.distance_s.x", lambda x: distance_s(model, x=x), x_pts)
    _array_and_scalars(out, f"{name}.radius_from_s", model.radius_from_s, s_pts)
    _array_and_scalars(out, f"{name}.volume_ball", lambda s: volume_ball(model, s), s_pts)
    for i, s in enumerate(np.geomspace(s_pts[0], s_pts[-1], 5)[1:4]):
        _record(out, f"{name}.avg_scalar{i}", average_scalar_curvature, model, float(s))
    table = curvature_table(model, rows=64)
    for col, values in table.items():
        out[f"{name}.curvature_table.{col}"] = np.asarray(values, dtype=float)


def dump(path):
    out = {}
    for name, make in models().items():
        fingerprint(name, make(), out)
        print(f"{name}: done", file=sys.stderr)
    np.savez(path, **out)
    print(f"{len(out)} arrays -> {path}")


def _same(u, v):
    """Bit-for-bit agreement up to the sign of zero; NaN matches NaN."""
    floats = u.dtype.kind == "f" and v.dtype.kind == "f"
    return np.array_equal(u, v, equal_nan=floats)


def _gaps(u, v):
    """(relative gap, scale gap), or None for keys that are not float arrays of
    one shape.  The relative gap is the largest |u - v| / max(|u|, |v|) over the
    entries (inf where one side is NaN or infinite alone); the scale gap is the
    largest |u - v| over the largest |value| of the key, on the entries finite
    on both sides, so a tiny entry that changes in its last digits reads small."""
    if u.dtype.kind != "f" or v.dtype.kind != "f" or u.shape != v.shape:
        return None
    with np.errstate(invalid="ignore", divide="ignore"):
        gap = np.abs(u - v) / np.maximum(np.abs(u), np.abs(v))
    same = (u == v) | (np.isnan(u) & np.isnan(v))
    rel = float(np.max(np.where(same, 0.0, np.nan_to_num(gap, nan=np.inf)), initial=0.0))
    both = np.isfinite(u) & np.isfinite(v)
    scale = max(np.max(np.abs(u[both]), initial=0.0), np.max(np.abs(v[both]), initial=0.0))
    diff = float(np.max(np.abs(u[both] - v[both]), initial=0.0))
    return rel, diff / scale if scale > 0 else 0.0


def compare(path_a, path_b):
    a, b = np.load(path_a), np.load(path_b)
    differ = sorted(set(a.files) ^ set(b.files))
    differ += [k for k in sorted(set(a.files) & set(b.files)) if not _same(a[k], b[k])]
    worst = worst_scale = 0.0
    models = {}  # model name: [differing keys, worst rel gap, worst scale gap of scored keys]
    for key in differ:
        gaps = _gaps(a[key], b[key]) if key in a.files and key in b.files else None
        model = models.setdefault(key.split(".", 1)[0], [0, 0.0, 0.0])
        model[0] += 1
        if gaps is None:
            print(f"differs: {key}")
        else:
            worst, worst_scale = max(worst, gaps[0]), max(worst_scale, gaps[1])
            print(f"differs: {key}  max rel gap {gaps[0]:.3g}  scale gap {gaps[1]:.3g}")
            if not any(part in key for part in UNSCORED):
                model[1], model[2] = max(model[1], gaps[0]), max(model[2], gaps[1])
    for name, (count, rel, scale) in models.items():
        print(f"model {name}: {count} differ; outside tables and identity residual: "
              f"max rel gap {rel:.3g}, max scale gap {scale:.3g}")
    print(f"{len(set(a.files) | set(b.files))} keys, {len(differ)} differ, "
          f"max rel gap {worst:.3g}, max scale gap {worst_scale:.3g}")
    return 1 if differ else 0


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("out", nargs="?", help="write the dump here (.npz)")
    p.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two dumps")
    args = p.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if not args.out:
        p.error("give OUT.npz or --compare A B")
    dump(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
