"""Drift/diffusion reconstruction from coefficient windows.

Both the drift F and the (diagonal) noise amplitude G of
dY = F(Y) dt + G(Y) dW are expanded over products of probabilists' Hermite
polynomials in per-window standardized coordinates, and the expansion
coefficients are recovered by two linear least-squares problems: conditional
first moments of the increments give F, conditional second moments of the
increment residuals give G^2. Standardizing each dimension keeps the design
matrix well conditioned on the short (32-64 bar) calibration windows the
model is meant for, so both systems are solved through a Householder QR of
the design; a window whose QR carries no certificate of a good condition
number (rank-deficient or nearly so) is not fitted but ``ill_conditioned``.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (ILL_CONDITIONED, MESSAGES, NON_FINITE, NON_FINITE_FIT, ZERO_VARIANCE, DegenerateWindow,
                     InvalidStep, WindowTooShort)

# a window is fitted only when its condition bound ||R||_F ||R^-1||_F is below
# this; past it the least-squares coefficients are not identified
_QR_COND_LIMIT = 1e7


@lru_cache(maxsize=64)
def _term_list(dims, degree):
    terms = [t for t in itertools.product(range(degree + 1), repeat=dims) if sum(t) <= degree]
    terms.sort(key=lambda t: (sum(t), t))
    return tuple(terms)


@lru_cache(maxsize=64)
def _term_index(terms):
    """(degree, per-dimension columns) of a term list: entry i of column d is
    where ``_design`` reads He_{terms[i][d]} of dimension d in a flattened
    (dims * (degree + 1)) Hermite table."""
    degree = max(map(sum, terms))
    columns = tuple(d * (degree + 1) + np.array(orders) for d, orders in enumerate(zip(*terms)))
    for col in columns:
        col.setflags(write=False)
    return degree, columns


def _hermite_table(x, degree):
    """He_0..He_degree at every point of ``x`` (last axis indexes the order)."""
    x = np.asarray(x, dtype=np.float64)
    table = np.empty(x.shape + (degree + 1,))
    table[..., 0] = 1.0
    if degree >= 1:
        table[..., 1] = x
    for k in range(2, degree + 1):
        table[..., k] = x * table[..., k - 1] - (k - 1) * table[..., k - 2]
    return table


def _design(z, terms) -> np.ndarray:
    """Every basis term at standardized points ``z`` (..., dims) -> (..., n_terms)."""
    degree, columns = _term_index(terms)
    table = _hermite_table(z, degree)  # (..., dims, degree+1)
    flat = table.reshape(*table.shape[:-2], -1)
    # term i's factors: He_{terms[i][d]} of dimension d, multiplied in order of d
    out = flat[..., columns[0]]
    for col in columns[1:]:
        out *= flat[..., col]
    return out


@dataclass(frozen=True, eq=False)
class FitStack:
    """Fits of B windows of one shape; index i of each array belongs to window i.

    ``drift``/``diff`` are (B, dims, n_terms): row i holds window i's
    per-dimension coefficient vectors over ``terms`` for F and G^2, in
    coordinates standardized by ``mean[i]``/``std[i]``; G^2 is floored at
    ``floor[i]**2`` wherever it is evaluated. ``status[i]`` is 0 for a fitted
    window and otherwise why it was not fitted, a fit code (1-4) of
    ``nsw.errors.REASONS``, with zero coefficients (a ``non_finite_fit``
    window keeps the solve's). A single window's fit is a one-row stack.
    """

    terms: tuple
    degree: int
    mean: np.ndarray  # (B, dims)
    std: np.ndarray  # (B, dims)
    drift: np.ndarray
    diff: np.ndarray
    floor: np.ndarray  # (B,) diffusion floors
    status: np.ndarray  # (B,)


def fit_windows(windows, degree=3, dt=1.0) -> FitStack:
    """Fit every window of a (B, T, dims) stack of coefficient vectors.

    Drift system: regress (Y(t+1) - Y(t))/dt on the basis evaluated at Y(t).
    Diffusion system: regress (increment residual)^2 / dt on the same basis;
    G is the square root of the fitted value floored at the square of
    max(1e-6 std(increments), 1e-12), the window's own floor.
    Both systems of all B windows are solved through one stacked Householder
    QR, as R^-1 (Q^T rhs). A window is held for the first of: a non-finite
    value, a zero-variance dimension, a condition bound ||R||_F ||R^-1||_F
    not below _QR_COND_LIMIT (``ill_conditioned``), non-finite coefficients.
    Each window's result is the same whatever stack it is fitted in. Raises
    InvalidStep unless dt is positive and finite, ValueError if degree < 1.
    """
    if not 0.0 < dt < math.inf:
        raise InvalidStep(f"dt must be positive and finite, got {dt}")
    if degree < 1:
        raise ValueError(f"degree must be >= 1, got {degree}")
    w = np.ascontiguousarray(windows, dtype=np.float64)
    b, n, dims = w.shape
    terms = _term_list(dims, degree)
    if n < 2 * len(terms):
        raise WindowTooShort(f"window of {n} rows cannot identify {len(terms)} terms (need >= {2 * len(terms)})")
    finite = np.isfinite(w).reshape(b, -1).all(axis=1)
    if not finite.all():
        w = np.where(finite[:, None, None], w, 0.0)
    mean = w.sum(axis=1) / n
    dev = w - mean[:, None]
    std = np.sqrt((dev * dev).sum(axis=1) / n)
    status = np.where(finite, ZERO_VARIANCE * (std <= 0).any(axis=1), NON_FINITE)

    # a constant dimension is scaled by 1.0 and the others by their own std, so
    # a zero-variance window's design stays finite next to a huge dimension
    design = _design(dev[:, :-1] / np.where(std > 0, std, 1.0)[:, None], terms)  # (B, M, N)
    dy = w[:, 1:] - w[:, :-1]
    q_mat, r = np.linalg.qr(design)
    # the bound is at least |R_00| / |R_kk|: a window with a pivot that small
    # is past the limit, and gets an identity R so that inv meets no zero pivot
    pivots = np.abs(r.diagonal(0, 1, 2))
    tiny = pivots * _QR_COND_LIMIT <= pivots[:, :1]
    screened = True
    if tiny.any():
        screened = ~tiny.any(axis=1)
        r[~screened] = np.eye(len(terms))
    r_inv = np.linalg.inv(r)
    r_flat, r_inv_flat = r.reshape(b, -1), r_inv.reshape(b, -1)
    with np.errstate(over="ignore"):  # the squares of a large R^-1
        bound_sq = np.vecdot(r_flat, r_flat) * np.vecdot(r_inv_flat, r_inv_flat)
    certified = screened & (bound_sq < _QR_COND_LIMIT**2)
    if not certified.all():
        r_inv[~certified] = 0.0
        status[(status == 0) & ~certified] = ILL_CONDITIONED
    lam = r_inv @ (q_mat.mT @ (dy / dt))  # (B, N, dims)
    q = r_inv @ (q_mat.mT @ ((dy - (design @ lam) * dt) ** 2 / dt))

    if not (np.isfinite(lam).all() and np.isfinite(q).all()):
        lam[~certified], q[~certified] = 0.0, 0.0  # zero R^-1 rows times an overflowed rhs
        solved = np.isfinite(lam).reshape(b, -1).all(axis=1) & np.isfinite(q).reshape(b, -1).all(axis=1)
        status[(status == 0) & ~solved] = NON_FINITE_FIT
    # np.std's arithmetic without its call overhead
    flat = dy.reshape(b, -1)
    centred = flat - flat.sum(axis=1, keepdims=True) / flat.shape[1]
    floor = np.maximum(1e-6 * np.sqrt((centred * centred).sum(axis=1) / flat.shape[1]), 1e-12)
    return FitStack(terms, degree, mean, std, lam.transpose(0, 2, 1), q.transpose(0, 2, 1), floor, status)


def fit_model(window, degree=3, dt=1.0) -> FitStack:
    """Fit one (T, dims) window of coefficient vectors: the one-row stack of
    ``fit_windows``. Raises DegenerateWindow when the window was not fitted."""
    w = np.asarray(window, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    fit = fit_windows(w[None], degree=degree, dt=dt)
    if fit.status[0]:
        raise DegenerateWindow(MESSAGES[fit.status[0]])
    return fit


def eval_drift(fit: FitStack, y) -> np.ndarray:
    """F(y) of a one-row stack; one point (dims,) in, (dims,) out; a batch
    (n, dims) in, (n, dims) out."""
    z = (np.asarray(y, dtype=np.float64) - fit.mean[0]) / fit.std[0]
    return _design(z, fit.terms) @ fit.drift[0].T


def eval_diffusion(fit: FitStack, y) -> np.ndarray:
    """Diagonal G(y) >= the row's floor, same shape conventions as eval_drift."""
    z = (np.asarray(y, dtype=np.float64) - fit.mean[0]) / fit.std[0]
    g2 = _design(z, fit.terms) @ fit.diff[0].T
    return np.sqrt(np.maximum(g2, fit.floor[0] ** 2))


@lru_cache(maxsize=64)
def _collapse(terms):
    """(n_terms, degree + 1) map from per-term coefficients to a 1-D Hermite
    series in mode 1, the other modes held at hat-y = 0."""
    degree = max(map(sum, terms))
    he_at_0 = _hermite_table(np.float64(0.0), degree)
    out = np.zeros((len(terms), degree + 1))
    for i, term in enumerate(terms):
        out[i, term[0]] = math.prod(he_at_0[k] for k in term[1:])
    out.setflags(write=False)
    return out


def drift_polynomial(fit: FitStack) -> np.ndarray:
    """Power-series coefficients (ascending) of a one-row stack's mode-1 drift
    in raw coordinates, other modes at their means. Diagnostic helper."""
    # imported on call: numpy.polynomial adds 0.7 MiB to every process that imports nsw
    from numpy.polynomial import Polynomial, hermite_e

    he = (fit.drift[0, 0, :, None] * _collapse(fit.terms)).sum(axis=0)
    poly_hat = Polynomial(hermite_e.herme2poly(he))
    mu = fit.mean[0, 0]
    sigma = fit.std[0, 0]
    composed = poly_hat(Polynomial([-mu / sigma, 1.0 / sigma]))
    return composed.coef

