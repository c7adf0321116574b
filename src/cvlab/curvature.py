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

Two evaluation routes are exposed for cross-checking: the native route uses
the generator's own representation exactly, while ``abc_at_r`` on transverse
models (and ``abc_at_x`` on radial ones) re-derives the radial component from
``dxi_dr`` (``fprime_over_x``): stencil derivatives of the tabulated profile in
the other coordinate that never cross a breakpoint, kept in the model's cache.
"""

from __future__ import annotations

from math import comb

import numpy as np

from .metric import MetricModel, Representation, fprime_from_xi
from .quadrature import scalar_like, stencil_derivative


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
    """(A, B, C) at radii r = |z|^2.

    On transverse-generated models the radial component is re-derived from
    the tabulated xi(r) by seam-aware polynomial stencils, which makes this
    route numerically independent of the native one.
    """
    if model.representation is Representation.FROM_XI:
        return scalar_like(r, model.engine.abc_of(r))
    t = model.native_from_r(r)
    _, B, C = model.engine.abc_of(t)
    A = dxi_dr(model)(np.clip(t, model.native[0], model.native[-1])) / model.engine.h_of(t)
    return scalar_like(r, (A, B, C))


def abc_at_x(model: MetricModel, x):
    """(A, B, C) at transverse radii x (x^2 = r*h).

    On radially-generated models A is re-derived by differentiating the
    tabulated F' over the x table: A = F' F'' / (2x (1 + F'^2)^2).
    Needs xi < 1 (F' diverges at saturation).
    """
    if model.representation is Representation.FROM_F:
        return scalar_like(x, model.engine.abc_of(x))
    if float(np.max(model.xi)) >= 1.0 - 1e-9:
        raise ValueError("transverse route needs xi < 1 everywhere (no saturation)")
    fp_of_x, fpp_of_x = fprime_over_x(model)
    t = model.native_from_x(x)
    _, B, C = model.engine.abc_of(t)
    x_t = np.clip(model.engine.x_of(t), model.x[0], model.x[-1])
    fp, fpp = fp_of_x(x_t), fpp_of_x(x_t)
    sq2 = 1.0 + fp * fp
    with np.errstate(divide="ignore", invalid="ignore"):
        A = np.where(x_t > 0, fp * fpp / (2.0 * x_t * sq2 * sq2), 0.5 * fpp**2)
    return scalar_like(x, (A, B, C))


def _seam_indices(model: MetricModel):
    """Nodes bounding the smooth segments of the native table."""
    bp = np.asarray(model.engine.breakpoints_native, dtype=float)
    idx = np.clip(np.searchsorted(model.native, bp), 0, model.native.size - 1)
    return np.unique(idx)


def dxi_dr(model: MetricModel):
    """d xi/dr over the native grid, from the xi(r) table by seam-aware stencils.

    A scipy PCHIP through the stencil values: the cross-check route keeps an
    interpolant of its own, and scipy loads on its first use.
    """
    if "dxi_dr" not in model._cache:
        from scipy.interpolate import PchipInterpolator

        table = stencil_derivative(model.xi, model.r, segments=_seam_indices(model))
        model._cache["dxi_dr"] = PchipInterpolator(model.native, table, extrapolate=False)
    return model._cache["dxi_dr"]


def fprime_over_x(model: MetricModel) -> tuple:
    """F' and F'' over the x table, from xi by seam-aware stencils; needs xi < 1.

    Two scipy PCHIPs, as in ``dxi_dr``.
    """
    if "fprime_over_x" not in model._cache:
        from scipy.interpolate import PchipInterpolator

        fp_table = fprime_from_xi(np.clip(model.xi, 0.0, 1.0 - 1e-15))
        fpp_table = stencil_derivative(fp_table, model.x, segments=_seam_indices(model))
        model._cache["fprime_over_x"] = tuple(
            PchipInterpolator(model.x, y, extrapolate=False) for y in (fp_table, fpp_table)
        )
    return model._cache["fprime_over_x"]


# ---------------------------------------------------------------------------
# tables


def curvature_table(model: MetricModel, rows: int = 256) -> dict[str, np.ndarray]:
    """Curvature summary on a log-spaced subset of the native grid.

    Columns: r, x, A, B, C, lambda, mu, scalar.
    """
    native = model.native
    pos = native[native > 0]
    t = np.unique(np.geomspace(pos[0], pos[-1], rows))
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
