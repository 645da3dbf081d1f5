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

import numpy as np
from numpy.polynomial import hermite_e

from .errors import DegenerateWindow, WindowTooShort

log = logging.getLogger(__name__)

COND_WARN_THRESHOLD = 1e8


def _term_list(dims, degree):
    terms = [t for t in itertools.product(range(degree + 1), repeat=dims) if sum(t) <= degree]
    terms.sort(key=lambda t: (sum(t), t))
    return tuple(terms)


@dataclass(frozen=True)
class HermiteBasis:
    """Products of He_k over all multi-indices with total degree <= degree."""

    dims: int
    degree: int
    terms: tuple
    mean: np.ndarray
    std: np.ndarray

    def __post_init__(self):
        mean = np.asarray(self.mean, dtype=np.float64)
        std = np.asarray(self.std, dtype=np.float64)
        mean.setflags(write=False)
        std.setflags(write=False)
        object.__setattr__(self, "mean", mean)
        object.__setattr__(self, "std", std)

    @property
    def n_terms(self) -> int:
        return len(self.terms)


def make_basis(dims, degree, mean=None, std=None) -> HermiteBasis:
    mean = np.zeros(dims) if mean is None else np.asarray(mean, dtype=np.float64)
    std = np.ones(dims) if std is None else np.asarray(std, dtype=np.float64)
    terms = _term_list(dims, degree)
    assert len(terms) == math.comb(dims + degree, degree)
    return HermiteBasis(dims=dims, degree=degree, terms=terms, mean=mean, std=std)


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


def hermite_eval(basis: HermiteBasis, y) -> np.ndarray:
    """Evaluate every basis term at ``y`` (one point (dims,) or a batch (n, dims)).

    Points are standardized with the basis mean/std before the polynomial
    products are formed.
    """
    y = np.asarray(y, dtype=np.float64)
    single = y.ndim == 1
    pts = np.atleast_2d(y)
    z = (pts - basis.mean) / basis.std
    table = _hermite_table(z, basis.degree)  # (n, dims, degree+1)
    out = np.empty((len(pts), basis.n_terms))
    for i, term in enumerate(basis.terms):
        col = np.ones(len(pts))
        for d, k in enumerate(term):
            if k:
                col = col * table[:, d, k]
        out[:, i] = col
    return out[0] if single else out


@dataclass(frozen=True)
class SdeModel:
    """Fitted expansion: rows of ``drift_coeffs``/``diff_coeffs`` are the
    per-dimension coefficient vectors over ``basis.terms``; ``diff_coeffs``
    expands G^2, and evaluation floors it at ``diffusion_floor**2``."""

    basis: HermiteBasis
    drift_coeffs: np.ndarray
    diff_coeffs: np.ndarray
    dt: float
    calib_len: int
    diffusion_floor: float

    def __post_init__(self):
        for name in ("drift_coeffs", "diff_coeffs"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if not np.all(np.isfinite(arr)):
                raise DegenerateWindow(f"non-finite {name}")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def dims(self) -> int:
        return self.basis.dims


def fit_model(window, degree=3, dt=1.0, diffusion_floor=None) -> SdeModel:
    """Fit an SdeModel to a (T, dims) window of coefficient vectors.

    Drift system: regress (Y(t+1) - Y(t))/dt on the basis evaluated at Y(t).
    Diffusion system: regress (increment residual)^2 / dt on the same basis;
    G is the square root of the fitted value floored at diffusion_floor^2.
    Both solves use SVD least squares, so rank-deficient windows get the
    minimum-norm solution (a condition-number warning is logged past 1e8).
    """
    w = np.asarray(window, dtype=np.float64)
    if w.ndim == 1:
        w = w[:, None]
    n, dims = w.shape
    if not np.all(np.isfinite(w)):
        raise DegenerateWindow("window contains non-finite values")
    mean = w.mean(axis=0)
    std = w.std(axis=0)
    if np.any(std <= 0):
        j = int(np.nonzero(std <= 0)[0][0])
        raise DegenerateWindow(f"dimension {j} has zero variance over the window")
    basis = make_basis(dims, degree, mean, std)
    if n < 2 * basis.n_terms:
        raise WindowTooShort(f"window of {n} rows cannot identify {basis.n_terms} terms (need >= {2 * basis.n_terms})")

    design = hermite_eval(basis, w[:-1])
    dy = np.diff(w, axis=0)

    lam, _, rank, sv = np.linalg.lstsq(design, dy / dt, rcond=None)
    cond = float(sv[0] / sv[-1]) if sv[-1] > 0 else math.inf
    if rank < basis.n_terms or cond > COND_WARN_THRESHOLD:
        log.warning("ill-conditioned drift system: rank %d/%d, cond %.3g", rank, basis.n_terms, cond)

    resid = dy - (design @ lam) * dt
    q, _, _, _ = np.linalg.lstsq(design, resid**2 / dt, rcond=None)

    if diffusion_floor is None:
        diffusion_floor = max(1e-6 * float(dy.std()), 1e-12)
    return SdeModel(
        basis=basis,
        drift_coeffs=lam.T,
        diff_coeffs=q.T,
        dt=float(dt),
        calib_len=n,
        diffusion_floor=float(diffusion_floor),
    )


def eval_drift(model: SdeModel, y) -> np.ndarray:
    """F(y); one point in, (dims,) out; a batch (n, dims) in, (n, dims) out."""
    h = hermite_eval(model.basis, y)
    return h @ model.drift_coeffs.T


def eval_diffusion(model: SdeModel, y) -> np.ndarray:
    """Diagonal G(y) >= diffusion_floor, same shape conventions as eval_drift."""
    h = hermite_eval(model.basis, y)
    g2 = h @ model.diff_coeffs.T
    return np.sqrt(np.maximum(g2, model.diffusion_floor**2))


def mode_series(model: SdeModel, coeffs, mode: int) -> np.ndarray:
    """Collapse a per-dimension coefficient row to a 1-D Hermite series in one
    mode, the other modes held at their standardization means (hat-y = 0)."""
    basis = model.basis
    he_at_0 = _hermite_table(np.float64(0.0), basis.degree)
    out = np.zeros(basis.degree + 1)
    for term, c in zip(basis.terms, coeffs):
        factor = 1.0
        for d, k in enumerate(term):
            if d != mode - 1:
                factor *= he_at_0[k]
        out[term[mode - 1]] += factor * c
    return out


def drift_polynomial(model: SdeModel, mode=1) -> np.ndarray:
    """Power-series coefficients (ascending) of the drift along one mode in
    raw coordinates, other modes at their means. Diagnostic helper."""
    he = mode_series(model, model.drift_coeffs[mode - 1], mode)
    poly_hat = np.polynomial.Polynomial(hermite_e.herme2poly(he))
    mu = model.basis.mean[mode - 1]
    sigma = model.basis.std[mode - 1]
    composed = poly_hat(np.polynomial.Polynomial([-mu / sigma, 1.0 / sigma]))
    return composed.coef

