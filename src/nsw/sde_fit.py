"""Drift/diffusion reconstruction from coefficient windows.

Both the drift F and the (diagonal) noise amplitude G of
dY = F(Y) dt + G(Y) dW are expanded over products of probabilists' Hermite
polynomials in per-window standardized coordinates, and the expansion
coefficients are recovered by two linear least-squares problems: conditional
first moments of the increments give F, conditional second moments of the
increment residuals give G^2. Standardizing each dimension keeps the design
matrix well conditioned on the short (32-64 bar) calibration windows the
model is meant for.
"""

from __future__ import annotations

import itertools
import logging
import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial import hermite_e

from .errors import MESSAGES, NON_FINITE, NON_FINITE_FIT, ZERO_VARIANCE, DegenerateWindow, WindowTooShort

log = logging.getLogger(__name__)

COND_WARN_THRESHOLD = 1e8
_EPS = np.finfo(np.float64).eps


@lru_cache(maxsize=64)
def _term_list(dims, degree):
    terms = [t for t in itertools.product(range(degree + 1), repeat=dims) if sum(t) <= degree]
    terms.sort(key=lambda t: (sum(t), t))
    return tuple(terms)


@lru_cache(maxsize=64)
def _term_index(terms):
    """(degree, dimension indices, term orders) of a term list, the index
    arrays ``_design`` reads its Hermite factors with."""
    dims, orders = np.arange(len(terms[0])), np.array(terms)
    dims.setflags(write=False)
    orders.setflags(write=False)
    return max(map(sum, terms)), dims, orders


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
    degree, dims, orders = _term_index(terms)
    table = _hermite_table(z, degree)  # (..., dims, degree+1)
    # term i's factors: He_{terms[i][d]} of dimension d, multiplied in order of d
    return table[..., dims, orders].prod(axis=-1)


@dataclass(frozen=True)
class FitStack:
    """Fits of B windows of one shape; index i of each array belongs to window i.

    ``drift``/``diff`` are (B, dims, n_terms): row i holds window i's
    per-dimension coefficient vectors over ``terms`` for F and G^2, in
    coordinates standardized by ``mean[i]``/``std[i]``; G^2 is floored at
    ``floor[i]**2`` wherever it is evaluated. ``status[i]`` is 0 for a fitted
    window and otherwise why it was not fitted, a fit code (1-3) of
    ``nsw.errors.REASONS``; its arrays then hold finite placeholders. A
    single window's fit is a one-row stack.
    """

    terms: tuple
    degree: int
    mean: np.ndarray  # (B, dims)
    std: np.ndarray  # (B, dims)
    drift: np.ndarray
    diff: np.ndarray
    floor: np.ndarray  # (B,) diffusion floors
    status: np.ndarray  # (B,)


def fit_windows(windows, degree=3, dt=1.0, diffusion_floor=None) -> FitStack:
    """Fit every window of a (B, T, dims) stack of coefficient vectors.

    Drift system: regress (Y(t+1) - Y(t))/dt on the basis evaluated at Y(t).
    Diffusion system: regress (increment residual)^2 / dt on the same basis;
    G is the square root of the fitted value floored at diffusion_floor^2.
    Both systems of all B windows are solved through one stacked SVD with
    lstsq's cutoff (singular values up to eps*max(M, N)*s_max count as zero),
    so rank-deficient windows get the minimum-norm solution; a warning is
    logged for every window of rank < n_terms or condition number past 1e8.
    Each window's result is the same whatever stack it is fitted in.
    """
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

    design = _design(dev[:, :-1] / np.where(status[:, None] == 0, std, 1.0)[:, None], terms)  # (B, M, N)
    dy = w[:, 1:] - w[:, :-1]
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > _EPS * max(n - 1, len(terms)) * sv[:, :1]
    inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)

    def solve(rhs):
        return vt.mT @ (inv_sv[..., None] * (u.mT @ rhs))  # (B, N, dims)

    lam = solve(dy / dt)
    resid = dy - (design @ lam) * dt
    q = solve(resid**2 / dt)

    # singular values run in descending order: rank < n_terms when the last one is cut
    ill = ~keep[:, -1] | (sv[:, 0] > COND_WARN_THRESHOLD * sv[:, -1])
    if ill.any():
        rank = keep.sum(axis=1)
        for i in np.flatnonzero(ill & (status == 0)):
            cond = sv[i, 0] / sv[i, -1] if sv[i, -1] > 0 else math.inf
            log.warning("ill-conditioned drift system: rank %d/%d, cond %.3g", rank[i], len(terms), cond)

    if not (np.isfinite(lam).all() and np.isfinite(q).all()):
        solved = np.isfinite(lam).reshape(b, -1).all(axis=1) & np.isfinite(q).reshape(b, -1).all(axis=1)
        status[(status == 0) & ~solved] = NON_FINITE_FIT
    if diffusion_floor is None:
        # np.std's arithmetic without its call overhead
        flat = dy.reshape(b, -1)
        centred = flat - flat.sum(axis=1, keepdims=True) / flat.shape[1]
        floor = np.maximum(1e-6 * np.sqrt((centred * centred).sum(axis=1) / flat.shape[1]), 1e-12)
    else:
        floor = np.full(b, float(diffusion_floor))
    return FitStack(terms, degree, mean, std, lam.transpose(0, 2, 1), q.transpose(0, 2, 1), floor, status)


def fit_model(window, degree=3, dt=1.0, diffusion_floor=None) -> FitStack:
    """Fit one (T, dims) window of coefficient vectors: the one-row stack of
    ``fit_windows``. Raises DegenerateWindow when the window was not fitted."""
    w = np.asarray(window, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    fit = fit_windows(w[None], degree=degree, dt=dt, diffusion_floor=diffusion_floor)
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
def _collapse(terms, mode):
    """(n_terms, degree + 1) map from per-term coefficients to a 1-D Hermite
    series in ``mode``, the other modes held at hat-y = 0."""
    degree = max(map(sum, terms))
    he_at_0 = _hermite_table(np.float64(0.0), degree)
    out = np.zeros((len(terms), degree + 1))
    for i, term in enumerate(terms):
        out[i, term[mode - 1]] = math.prod(he_at_0[k] for d, k in enumerate(term) if d != mode - 1)
    out.setflags(write=False)
    return out


def drift_polynomial(fit: FitStack, mode=1) -> np.ndarray:
    """Power-series coefficients (ascending) of a one-row stack's drift along
    one mode in raw coordinates, other modes at their means. Diagnostic helper."""
    he = (fit.drift[0, mode - 1, :, None] * _collapse(fit.terms, mode)).sum(axis=0)
    poly_hat = np.polynomial.Polynomial(hermite_e.herme2poly(he))
    mu = fit.mean[0, mode - 1]
    sigma = fit.std[0, mode - 1]
    composed = poly_hat(np.polynomial.Polynomial([-mu / sigma, 1.0 / sigma]))
    return composed.coef

