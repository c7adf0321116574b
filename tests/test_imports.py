"""The runtime imports numpy only, and not numpy.ma: closed-form, step-train
and sampled generators, their series, totals, inverses and single-ball
integrals, and the command line on a sampled profile file, load no scipy."""

import os
import subprocess
import sys
from pathlib import Path

import cvlab

SCRIPT = r"""
import contextlib
import io
import sys

import numpy as np


def scipy_loaded():
    return sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))


def assert_scipy_free(step):
    assert not scipy_loaded(), f"{step} imported {scipy_loaded()[:5]}"
    # numpy 2's np.unique and np.isin load it, 1.3 MB of RSS
    assert "numpy.ma" not in sys.modules, f"{step} imported numpy.ma"


import cvlab
import cvlab.cli
from cvlab import curvature, growth, integrals

assert_scipy_free("import cvlab, cvlab.cli")

poly = cvlab.build_metric(cvlab.polynomial_xi(0.5), 2)
integrals.normalized_sigma_series(poly, 2)
integrals.chern_number(poly)
growth.coordinate_growth(poly)
with contextlib.redirect_stdout(io.StringIO()):
    assert cvlab.cli.main(["chern", "--family", "poly", "--param", "a=0.5", "--n", "2"]) == 0
assert_scipy_free("the poly model path")

yau = cvlab.yau_counterexample(3, 2, l_max=32)
integrals.distance_s(yau, x=8.0)
integrals.mixed_curvature_ibp(yau, 2)
assert_scipy_free("the yau n=3 model path")

assert integrals.ball_integral(poly, integrals.scalar_density(poly), 1.0) > 0.0
assert integrals.average_scalar_curvature(yau, 20.0) > 0.0
assert_scipy_free("single-ball integrals")

# both coordinates on both gauges: the r and x inverses, then the native route
for model in (poly, yau):
    for route, q in ((curvature.abc_at_r, 2.0), (curvature.abc_at_x, 1.0)):
        assert all(np.isfinite(route(model, q)))
assert_scipy_free("abc_at_r and abc_at_x")

# sampled generators: a monotone cubic in numpy
ts = np.concatenate(([0.0], np.geomspace(1e-6, 1e4, 199)))
sampled_xi = cvlab.GeneratorProfile(
    cvlab.GeneratorKind.XI, cvlab.SampledSource(ts, 0.5 * ts / (1.0 + ts)), name="sampled-xi"
)
sampled = cvlab.build_metric(sampled_xi, 2)
assert np.all(np.isfinite(integrals.normalized_sigma_series(sampled, 2).normalized))
assert np.isfinite(integrals.chern_number(sampled).value)
assert_scipy_free("a sampled xi model, its sigma_2 series and chern_number")

sampled_h = cvlab.GeneratorProfile(
    cvlab.GeneratorKind.H, cvlab.SampledSource(ts, (1.0 + ts) ** -0.5), name="sampled-h"
)
assert np.isfinite(cvlab.build_metric(sampled_h, 2).s[-1])
assert_scipy_free("a sampled h model")

with open("xi.csv", "w") as fh:
    fh.write("t,value\n" + "".join(f"{t!r},{0.5 * t / (1.0 + t)!r}\n" for t in ts.tolist()))
with open("sampled.cvp", "w") as fh:
    fh.write("kind = xi\nsamples = xi.csv\n")
with contextlib.redirect_stdout(io.StringIO()):
    assert cvlab.cli.main(["classify", "--profile", "sampled.cvp", "--n", "2"]) == 0
assert_scipy_free("cvlab classify --profile on a samples file")
print("ok")
"""


def test_runtime_is_scipy_free(tmp_path):
    env = dict(os.environ)
    root = str(Path(cvlab.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (root, env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], capture_output=True, text=True, cwd=tmp_path, env=env
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"
