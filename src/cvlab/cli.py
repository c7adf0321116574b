"""Command line interface.

Subcommands mirror the library layers: ``validate`` checks a generator
profile, ``classify`` builds a model and reports its class, ``curvature-table``
and ``series`` export tables, ``chern`` prints the total Chern-power integral,
``report`` bundles a growth verdict with the volume-constant measurement.

Exit codes: 0 success, 1 validation failure, 2 parse/usage error.
``--grid`` sets the base geometric node count of the grid, before bisection
(default: 16 per decade of the grid's span, on either gauge).
"""

from __future__ import annotations

import argparse
import functools
import json
import logging
import os
import sys
from dataclasses import asdict

import numpy as np

from .expr import ExpressionError
from .families import ParameterGateError, family_from_spec
from .growth import coordinate_growth, growth_fit
from .integrals import (
    average_scalar_series,
    chern_number,
    lp_curvature_series,
    normalized_chern_series,
    normalized_sigma_series,
    volume_growth_report,
)
from .curvature import curvature_table
from .metric import BuildOptions, build_metric, completeness_check, save_metric
from .profiles import (
    ClosedFormSource,
    FamilySpec,
    GeneratorKind,
    GeneratorProfile,
    ProfileError,
    ProfileFileError,
    load_profile,
    parse_scalar,
    validate,
)

log = logging.getLogger("cvlab")


class ValidationFailure(Exception):
    """Profile failed structural validation (exit code 1)."""


def _add_selection(p: argparse.ArgumentParser):
    p.add_argument("--profile", help="profile file (key = value format)")
    p.add_argument("--kind", choices=["xi", "fpp", "h"], help="generator kind for --expr")
    p.add_argument("--expr", help="closed-form generator expression in t")
    p.add_argument("--family", help="built-in family: yau, lp, s3, poly, flat")
    p.add_argument(
        "--param",
        action="append",
        default=[],
        metavar="KEY=VALUE",
        help="family parameter override (repeatable)",
    )
    p.add_argument("--n", type=int, default=None, help="complex dimension (default per family)")
    p.add_argument("--rmax", type=float, default=None, help="radial grid span")
    p.add_argument("--xmax", type=float, default=None, help="transverse grid span")
    p.add_argument("--grid", type=int, default=None,
                   help="base geometric grid nodes before bisection (default: 16 per decade "
                   "of the span)")


def _parse_params(pairs) -> dict:
    out = {}
    for pair in pairs:
        if "=" not in pair:
            raise ProfileError(f"--param needs KEY=VALUE, got {pair!r}")
        key, _, value = pair.partition("=")
        out[key.strip()] = parse_scalar(value.strip())
    return out


def _build_options(args) -> BuildOptions:
    given = {"grid_size": args.grid, "r_max": args.rmax, "x_max": args.xmax}
    return BuildOptions(**{name: value for name, value in given.items() if value is not None})


def _selection(args):
    """Resolve CLI selection flags into a GeneratorProfile or FamilySpec."""
    chosen = [bool(args.profile), bool(args.expr), bool(args.family)]
    if sum(chosen) != 1:
        raise ProfileError("select a metric with exactly one of --profile, --expr, --family")
    if args.profile:
        return load_profile(args.profile)
    if args.expr:
        if not args.kind:
            raise ProfileError("--expr needs --kind (xi, fpp or h)")
        return GeneratorProfile(
            GeneratorKind(args.kind), ClosedFormSource(args.expr), name="cli-expr"
        )
    return FamilySpec(args.family.lower(), _parse_params(args.param))


def _model(args):
    opts = _build_options(args)
    sel = _selection(args)
    if isinstance(sel, FamilySpec):
        if args.n is not None:
            sel = FamilySpec(sel.family, {**sel.params, "n": args.n})
        return family_from_spec(sel, opts)
    # built-in families are constructed within their gates; explicit profiles
    # come from the user and must pass the structural checks before building
    report = validate(sel)
    if not report.ok:
        raise ValidationFailure(report.summary())
    return build_metric(sel, args.n if args.n is not None else 2, opts)


def _atomic_write(path: str, text: str):
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _write_table(path: str, fmt: str, columns: dict):
    keys = list(columns.keys())
    if fmt == "json":
        doc = {k: [float(u) for u in columns[k]] for k in keys}
        _atomic_write(path, json.dumps(doc, indent=2, sort_keys=True) + "\n")
        return
    rows = [",".join(keys)]
    arrays = [np.asarray(columns[k], dtype=float) for k in keys]
    for i in range(len(arrays[0])):
        rows.append(",".join(repr(float(col[i])) for col in arrays))
    _atomic_write(path, "\n".join(rows) + "\n")


# ---------------------------------------------------------------------------
# subcommands


def _json_ready(value):
    if isinstance(value, (np.floating, float)):
        return float(value)
    if isinstance(value, (np.bool_, bool)):
        return bool(value)
    if isinstance(value, (np.integer, int)):
        return int(value)
    return value


def cmd_validate(args) -> int:
    sel = _selection(args)
    if isinstance(sel, FamilySpec):
        model = family_from_spec(sel, _build_options(args))
        profile = model.profile
    else:
        profile = sel
    report = validate(profile)
    doc = {
        "profile": profile.name,
        "kind": profile.kind.value,
        "ok": report.ok,
        "violations": [
            {"check": v.check, "t": float(v.t), "value": float(v.value)}
            for v in report.violations
        ],
        "details": {k: _json_ready(u) for k, u in sorted(report.details.items())},
    }
    print(json.dumps(doc, indent=2, sort_keys=True))
    return 0 if report.ok else 1


def cmd_classify(args) -> int:
    model = _model(args)
    doc = model.describe()
    doc["complete"] = completeness_check(model)
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        if args.save_model:
            save_metric(model, args.out)
        else:
            _atomic_write(args.out, text + "\n")
    return 0


def cmd_curvature_table(args) -> int:
    model = _model(args)
    table = curvature_table(model, rows=args.rows)
    if args.out:
        _write_table(args.out, args.format, table)
        print(f"wrote {len(table['r'])} rows to {args.out}")
    else:
        keys = list(table.keys())
        print(",".join(keys))
        for i in range(len(table["r"])):
            print(",".join(repr(float(table[k][i])) for k in keys))
    return 0


def _series_for(args, model):
    if args.mode == "sigma":
        if args.k is None:
            raise ProfileError("--mode sigma needs --k")
        return normalized_sigma_series(model, args.k)
    if args.mode == "chern":
        if args.k is None:
            raise ProfileError("--mode chern needs --k")
        return normalized_chern_series(model, args.k)
    if args.mode == "lp":
        if args.p is None:
            raise ProfileError("--mode lp needs --p")
        return lp_curvature_series(model, args.p)
    return average_scalar_series(model)


def cmd_series(args) -> int:
    model = _model(args)
    series = _series_for(args, model)
    fit = growth_fit(series)
    print(f"series: {series.label}")
    print(f"points: {len(series.s)}, s in [{series.s[0]:.6g}, {series.s[-1]:.6g}]")
    print(
        f"fit: slope={fit.slope:.4f} residual={fit.residual:.4f} "
        f"window=[{fit.window[0]:.6g}, {fit.window[1]:.6g}] verdict={fit.verdict.value}"
    )
    if args.out:
        _write_table(
            args.out,
            args.format,
            {
                "s": series.s,
                "volume": series.volume,
                "integral": series.integral,
                "normalized": series.normalized,
            },
        )
        print(f"wrote {len(series.s)} rows to {args.out}")
    return 0


def cmd_chern(args) -> int:
    model = _model(args)
    result = chern_number(model)
    print(f"chern total: {result.value!r}")
    print(f"  numeric part: {result.numeric!r}")
    print(f"  analytic tail: {result.tail!r} (share {result.tail_share:.3g})")
    print(f"  primitive identity residual: {result.identity_residual:.3e}")
    print(f"  saturation bound: {result.upper_bound!r}")
    return 0


def cmd_report(args) -> int:
    model = _model(args)
    series = _series_for(args, model)
    fit = growth_fit(series)
    doc = {
        "metric": model.describe(),
        "mode": args.mode,
        "k": args.k,
        "p": args.p,
        "series_label": series.label,
        "fit": fit.as_dict(),
        "volume_growth": asdict(volume_growth_report(model)),
        "coordinate_growth": coordinate_growth(model).as_dict(),
        "complete": completeness_check(model),
    }
    text = json.dumps(doc, indent=2, sort_keys=True)
    print(text)
    if args.out:
        _atomic_write(args.out, text + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process: ``main`` only reads it."""
    parser = argparse.ArgumentParser(
        prog="cvlab",
        description="curvature integrals of rotation-invariant metrics over geodesic balls",
    )
    parser.add_argument("--verbose", action="store_true", help="log progress details")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a generator profile's structural constraints")
    _add_selection(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("classify", help="build a metric and print its classification")
    _add_selection(p)
    p.add_argument("--out", help="write the classification (or the saved model) as JSON")
    p.add_argument("--save-model", action="store_true",
                   help="write what builds the model (generator, n, options) to --out")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("curvature-table", help="export pointwise curvature components")
    _add_selection(p)
    p.add_argument("--rows", type=int, default=256)
    p.add_argument("--out")
    p.add_argument("--format", choices=["csv", "json"], default="csv")
    p.set_defaults(func=cmd_curvature_table)

    for name, helptext in [
        ("series", "ball-integral series with a growth fit"),
        ("report", "JSON report: classification, growth fit, volume constants"),
    ]:
        p = sub.add_parser(name, help=helptext)
        _add_selection(p)
        p.add_argument(
            "--mode", choices=["sigma", "chern", "lp", "scalar"], default="sigma"
        )
        p.add_argument("--k", type=int, default=None, help="curvature degree for sigma/chern")
        p.add_argument("--p", type=float, default=None, help="exponent for lp mode")
        p.add_argument("--out")
        p.add_argument("--format", choices=["csv", "json"], default="csv")
        p.set_defaults(func=cmd_series if name == "series" else cmd_report)

    p = sub.add_parser("chern", help="total Chern-power integral with analytic tail")
    _add_selection(p)
    p.set_defaults(func=cmd_chern)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    logging.basicConfig(level=logging.INFO if args.verbose else logging.WARNING)
    try:
        return args.func(args)
    except ValidationFailure as exc:
        print(f"validation failed: {exc}", file=sys.stderr)
        return 1
    except (ExpressionError, ProfileFileError, ProfileError, ParameterGateError,
            ValueError, OverflowError) as exc:  # OverflowError: int(inf), say l_max=inf
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
