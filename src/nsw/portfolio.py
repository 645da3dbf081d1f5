"""Parcel weight optimization from per-instrument equity curves.

Return moments are estimated over a trailing window of log returns; the
parcel objective is the Gaussian-approximation probability that the parcel
return exceeds theta times its mean, P(theta) = Phi((1 - theta) Z / sigma),
maximized over nonnegative weights summing to at most one by projected
gradient ascent from the equal-weight start.
"""

from __future__ import annotations

import logging
import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateWindow, NegativeVariance, NonPositiveEquity, NotPSD, TooShort, WindowTooShort

log = logging.getLogger(__name__)

# scipy.special.ndtr, bound by the first parcel objective that evaluates Phi.
# Importing scipy.special costs a process about 24 MiB and 0.25 s, and only
# parcel optimization needs it, so engine and backtest runs never load it.
_ndtr = None


@dataclass(frozen=True)
class MomentEstimate:
    """Windowed mean log returns (..., M) and their covariances (..., M, M),
    1/window normalization; leading axes index windows, and a single window
    has none."""

    mean_returns: np.ndarray
    covariance: np.ndarray
    window: int
    horizon: int

    def __post_init__(self):
        x = np.array(self.mean_returns, dtype=np.float64)  # copies: the caller's arrays stay writable
        lam = np.array(self.covariance, dtype=np.float64)
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(lam)):
            raise DegenerateWindow("non-finite moment estimates")
        if np.any(np.abs(lam - lam.mT) > 1e-12):
            raise NotPSD("covariance not symmetric within 1e-12")
        if np.any(np.diagonal(lam, axis1=-2, axis2=-1) < -1e-15):
            raise NotPSD("negative variance on the diagonal")
        x.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mean_returns", x)
        object.__setattr__(self, "covariance", lam)

    @property
    def n_instruments(self) -> int:
        return self.mean_returns.shape[-1]

    def row(self, k: int) -> "MomentEstimate":
        """Window k of a stack as a single-window estimate of read-only views,
        not checked again: the stack's checks covered it."""
        one = object.__new__(MomentEstimate)
        one.__dict__.update(mean_returns=self.mean_returns[k], covariance=self.covariance[k],
                            window=self.window, horizon=self.horizon)
        return one


@dataclass(frozen=True)
class ParcelWeights:
    """Nonnegative instrument fractions with sum <= 1; the rest sits in cash."""

    n: np.ndarray

    def __post_init__(self):
        n = np.asarray(self.n, dtype=np.float64)
        if np.any(n < -1e-12):
            raise ValueError(f"negative weight in {n}")
        if n.sum() > 1.0 + 1e-12:
            raise ValueError(f"weights sum to {n.sum()} > 1")
        n = np.clip(n, 0.0, None)
        if n.sum() > 1.0:
            n = n / n.sum()
        n.setflags(write=False)
        object.__setattr__(self, "n", n)

    @property
    def slack(self) -> float:
        return float(1.0 - self.n.sum())


def log_returns(equity, horizon: int) -> np.ndarray:
    """x(t) = ln(equity[t + horizon] / equity[t]) along the last axis, so an
    (M, n) stack of curves gives M streams; output is horizon shorter."""
    e = np.asarray(equity, dtype=np.float64)
    if np.any(e <= 0):
        raise NonPositiveEquity(f"equity must stay positive, min {e.min()}")
    if horizon < 1 or e.shape[-1] <= horizon:
        raise TooShort(f"need more than {horizon} points, got {e.shape[-1]}")
    return np.log(e[..., horizon:] / e[..., :-horizon])


def estimate_moments(returns, window: int, horizon: int) -> MomentEstimate:
    """Trailing-window means and covariances of (..., M, T) return streams.

    The last ``window`` values of every stream are used, so T must be at
    least ``window``; leading axes index windows, and each window's estimate
    is the same whatever stack it is computed in. The covariance uses the
    1/window normalization of a windowed time average.
    """
    r = np.asarray(returns, dtype=np.float64)
    if r.shape[-1] < window:
        raise WindowTooShort(f"streams have {r.shape[-1]} < {window} returns")
    # means summed along the contiguous last axis, as for one window alone
    tail = np.ascontiguousarray(r[..., -window:])
    x = tail.mean(axis=-1)
    centered = tail - x[..., None]
    lam = (centered @ centered.mT) / window
    lam = 0.5 * (lam + lam.mT)
    return MomentEstimate(mean_returns=x, covariance=lam, window=window, horizon=horizon)


def _total(v) -> float:
    """sum(v) over Python floats, added left to right."""
    s = 0.0
    for a in v:
        s += a
    return s


def _moments(w, x, lam):
    """(Z, sigma, Lambda w) of the weight list ``w``, for mean returns ``x``
    and covariance rows ``lam`` given as lists of Python floats; every sum
    is added left to right."""
    z = var = 0.0
    lam_w = []
    for wi, xi, row in zip(w, x, lam):
        s = 0.0
        for a, b in zip(row, w):
            s += a * b
        lam_w.append(s)
        z += wi * xi
        var += wi * s
    if var < -1e-12:
        raise NegativeVariance(f"n'Lambda n = {var}")
    return z, math.sqrt(max(var, 0.0)), lam_w


def _probability(z: float, sigma: float, theta: float) -> float:
    global _ndtr
    margin = (1.0 - theta) * z
    if sigma == 0.0:
        return 1.0 if margin > 0 else (0.5 if margin == 0 else 0.0)
    if _ndtr is None:
        from scipy.special import ndtr as _ndtr
    return float(_ndtr(margin / sigma))


def objective_P(n, m: MomentEstimate, theta: float) -> float:
    """P(theta) = Phi((1 - theta) Z / sigma) for parcel mean Z and std sigma.

    With sigma = 0 the parcel return is deterministic: 1 if it clears the
    theta Z threshold, 0.5 exactly at it, else 0.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    w = (n.n if isinstance(n, ParcelWeights) else np.asarray(n, dtype=np.float64)).tolist()
    if len(w) != m.n_instruments:
        raise ValueError(f"{len(w)} weights for {m.n_instruments} instruments")
    z, sigma, _ = _moments(w, m.mean_returns.tolist(), m.covariance.tolist())
    return _probability(z, sigma, theta)


def _gradient(z: float, sigma: float, lam_w, x, theta: float) -> list:
    """dP/dn at the point whose ``_moments`` are (z, sigma, lam_w)."""
    if sigma == 0.0:
        return [0.0] * len(x)
    sigma3 = sigma**3
    if sigma3 == 0.0:
        raise DegenerateWindow(f"parcel sigma {sigma:.3g} is too small for the gradient: sigma**3 underflows")
    u = (1.0 - theta) * z / sigma
    scale = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi) * (1.0 - theta)
    return [scale * (xi / sigma - z * li / sigma3) for xi, li in zip(x, lam_w)]


def _project(v) -> list:
    """Euclidean projection of a float list onto {n >= 0, sum(n) <= 1}; NaN
    or +inf entries raise DegenerateWindow, -inf ones project to 0."""
    w = [0.0 if a < 0.0 else a for a in v]  # a NaN stays and fails the sum test
    total = _total(w)
    if total <= 1.0:
        return w
    # sum constraint active: project onto the probability simplex (sort method)
    css, rho, tau = 0.0, 0, 0.0
    for k, a in enumerate(sorted(v, reverse=True), 1):
        css += a
        t = (css - 1.0) / k
        if a - t > 0:
            rho, tau = k, t
    if not (rho and total < math.inf):
        raise DegenerateWindow(f"cannot project {v} onto the parcel weights")
    return [a - tau if a > tau else 0.0 for a in v]


def _residual(w, g) -> float:
    """Unit-step gradient-mapping residual ||project(w + g) - w||."""
    s = 0.0
    for a, b in zip(_project([a + b for a, b in zip(w, g)]), w):
        s += (a - b) * (a - b)
    return math.sqrt(s)


@dataclass(frozen=True)
class ParcelResult:
    weights: ParcelWeights
    p_theta: float
    kkt_residual: float
    iterations: int
    converged: bool


def optimize_parcel(m: MomentEstimate, theta: float, tol=1e-6, max_iters=20000) -> ParcelResult:
    """Projected gradient ascent of P(theta) from the equal-weight start.

    Backtracking keeps every accepted step non-decreasing in the objective;
    termination is on the unit-step gradient-mapping residual
    ||project(n + grad) - n|| < tol. If the iteration cap is hit the best
    iterate comes back flagged.

    P is scale-free along rays (Z and sigma are both homogeneous of degree
    one), so only the weight *direction* is determined by the objective. The
    returned point is canonicalized: scaled to full investment when the
    expected margin (1 - theta) Z is positive (same P, maximal growth), and
    replaced by the all-cash vector (P = 0.5 by the zero-sigma rule) when
    the best parcel found still has negative margin.

    The arithmetic is plain Python floats, sums added left to right, so the
    weights do not depend on the BLAS build. A sigma whose cube underflows
    (variance below about 1e-215) leaves no usable gradient and raises
    DegenerateWindow, as does a non-finite step.
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    if m.mean_returns.ndim != 1:
        raise ValueError(f"optimize_parcel takes one window, got a stack of {m.mean_returns.shape[:-1]}; pass row(k)")
    eig_min = float(np.linalg.eigvalsh(m.covariance).min())
    scale = 1.0 + float(np.abs(np.diag(m.covariance)).max())
    if eig_min < -1e-10 * scale:
        raise NotPSD(f"covariance has eigenvalue {eig_min}")

    x, lam = m.mean_returns.tolist(), m.covariance.tolist()
    mm = len(x)
    w = [1.0 / mm] * mm
    z, sigma, lam_w = _moments(w, x, lam)
    if sigma == 0.0:
        # zero-variance start: the objective is a step function of the mean,
        # so pick directly instead of following gradients
        if any(x):  # all cash, or all in the best positive mean
            w = [0.0] * mm
            if max(x) > 0:
                w[x.index(max(x))] = 1.0
        z, sigma, _ = _moments(w, x, lam)
        p = _probability(z, sigma, theta)
        return ParcelResult(ParcelWeights(w), p, kkt_residual=0.0, iterations=0, converged=True)

    p = _probability(z, sigma, theta)
    step = 1.0
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        g = _gradient(z, sigma, lam_w, x, theta)
        residual = _residual(w, g)
        if residual < tol:
            converged = True
            break
        s = step
        for _ in range(60):
            cand = _project([a + s * b for a, b in zip(w, g)])
            cz, csigma, clam_w = _moments(cand, x, lam)
            p_cand = _probability(cz, csigma, theta)
            if p_cand >= p and cand != w:
                w, p, z, sigma, lam_w = cand, p_cand, cz, csigma, clam_w
                step = min(s * 2.0, 1e6)
                break
            s *= 0.5
        else:
            # no ascent step exists at float precision; report the mapping residual
            break
    if p < 0.5 - 1e-12:
        w = [0.0] * mm
        p, converged = 0.5, True
        residual = 0.0
    else:
        total = _total(w)
        if p > 0.5 + 1e-12 and total > 0:
            w = [a / total for a in w]
            z, sigma, lam_w = _moments(w, x, lam)
            p = _probability(z, sigma, theta)
        residual = _residual(w, _gradient(z, sigma, lam_w, x, theta))
    if not converged:
        log.warning("parcel optimizer stopped after %d iterations, residual %.3g", iters, residual)
    return ParcelResult(
        weights=ParcelWeights(w), p_theta=p, kkt_residual=residual, iterations=iters, converged=converged
    )

