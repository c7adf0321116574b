"""Pointwise curvature of rotation-invariant metrics.

In a unitary frame adapted to the radial direction the bisectional curvature
has three distinct components at each point:

    A  radial-radial        (= xi'(r)/h)
    B  radial-transverse    (= (xi*v - w)/v^2,  w = r(f - h))
    C  transverse pairs     (= 2*w/v^2)

Everything else is assembled algebraically from these: the two Ricci
eigenvalues lambda = A + (n-1)B (multiplicity 2) and mu = B + (n/2)C
(multiplicity 2n-2), elementary symmetric polynomials sigma_k of that
eigenvalue multiset, and the degree-k Chern-form densities against the
volume form.

The points can be given in any coordinate: ``abc_native`` takes the
generator's own radius, ``abc_at_r`` and ``abc_at_x`` invert the r or x table
to it first.  All three are the same exact route; the independent stencil
route that the C04 cross-check compares against lives with the test oracles.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .metric import MetricModel
from .quadrature import scalar_like, unique_sorted


def ricci_eigenvalues(A, B, C, n: int):
    """(lambda, mu): Ricci eigenvalues with multiplicities (2, 2n-2)."""
    lam = np.asarray(A) + (n - 1) * np.asarray(B)
    mu = np.asarray(B) + 0.5 * n * np.asarray(C)
    return lam, mu


def scalar_curvature(A, B, C, n: int):
    return np.asarray(A) + 2 * (n - 1) * np.asarray(B) + 0.5 * n * (n - 1) * np.asarray(C)


def sigma_k(lam, mu, n: int, k: int):
    """Elementary symmetric polynomial of {lambda x2, mu x(2n-2)}."""
    if not 1 <= k <= 2 * n:
        raise ValueError(f"sigma_k needs 1 <= k <= 2n, got k={k}, n={n}")
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    out = np.zeros(np.broadcast(lam, mu).shape)
    for j in range(max(0, k - (2 * n - 2)), min(2, k) + 1):
        out += comb(2, j) * comb(2 * n - 2, k - j) * lam**j * mu ** (k - j)
    return float(out) if out.ndim == 0 else out


def chern_density_k(lam, mu, n: int, k: int):
    """Density of the k-th power of the Ricci form against the volume form.

    Averaging the k-fold wedge of the Ricci eigenform over frames gives

        [ C(n-1, k-1) lambda mu^(k-1) + C(n-1, k) mu^k ] / C(n, k)

    (second term absent at k = n).  k = 1 reduces to scalar/n.
    """
    if not 1 <= k <= n:
        raise ValueError(f"chern_density_k needs 1 <= k <= n, got k={k}, n={n}")
    lam = np.asarray(lam, dtype=float)
    mu = np.asarray(mu, dtype=float)
    out = (comb(n - 1, k - 1) * lam * mu ** (k - 1) + comb(n - 1, k) * mu**k) / comb(n, k)
    return float(out) if out.ndim == 0 else out


# ---------------------------------------------------------------------------
# evaluation routes


def abc_native(model: MetricModel, t):
    """(A, B, C) at native radii t, through the generator's exact representation."""
    return scalar_like(t, model.engine.abc_of(t))


def abc_at_r(model: MetricModel, r):
    """(A, B, C) at radii r = |z|^2: the native radius at r, then the native route."""
    return scalar_like(r, model.engine.abc_of(model.native_from_r(r)))


def abc_at_x(model: MetricModel, x):
    """(A, B, C) at transverse radii x (x^2 = r*h): the native radius at x, then
    the native route.  Past saturation no radius has a given x, and the x
    inverse raises ValueError beyond its table."""
    return scalar_like(x, model.engine.abc_of(model.native_from_x(x)))


# ---------------------------------------------------------------------------
# tables


def curvature_table(model: MetricModel, rows: int = 256) -> dict[str, np.ndarray]:
    """Curvature summary on a log-spaced subset of the native grid.

    Columns: r, x, A, B, C, lambda, mu, scalar.
    """
    native = model.native
    pos = native[native > 0]
    t = unique_sorted(np.geomspace(pos[0], pos[-1], rows))
    A, B, C = model.engine.abc_of(t)
    lam, mu = ricci_eigenvalues(A, B, C, model.n)
    return {
        "r": model.engine.r_of(t),
        "x": model.engine.x_of(t),
        "A": A,
        "B": B,
        "C": C,
        "lambda": lam,
        "mu": mu,
        "scalar": scalar_curvature(A, B, C, model.n),
    }
