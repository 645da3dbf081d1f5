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

# scipy.special.ndtr, bound by the first objective_P that evaluates Phi.
# Importing scipy.special costs a process about 24 MiB and 0.25 s, and only
# parcel optimization needs it, so engine and backtest runs never load it.
_ndtr = None


@dataclass(frozen=True)
class MomentEstimate:
    """Windowed mean log returns and their covariance (1/window normalization)."""

    mean_returns: np.ndarray
    covariance: np.ndarray
    window: int
    horizon: int

    def __post_init__(self):
        x = np.asarray(self.mean_returns, dtype=np.float64)
        lam = np.asarray(self.covariance, dtype=np.float64)
        if not np.all(np.isfinite(x)) or not np.all(np.isfinite(lam)):
            raise DegenerateWindow("non-finite moment estimates")
        if np.max(np.abs(lam - lam.T)) > 1e-12:
            raise NotPSD("covariance not symmetric within 1e-12")
        if np.any(np.diag(lam) < -1e-15):
            raise NotPSD("negative variance on the diagonal")
        x.setflags(write=False)
        lam.setflags(write=False)
        object.__setattr__(self, "mean_returns", x)
        object.__setattr__(self, "covariance", lam)

    @property
    def n_instruments(self) -> int:
        return len(self.mean_returns)


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
    """x(t) = ln(equity[t + horizon] / equity[t]); output is horizon shorter."""
    e = np.asarray(equity, dtype=np.float64)
    if np.any(e <= 0):
        raise NonPositiveEquity(f"equity must stay positive, min {e.min()}")
    if horizon < 1 or len(e) <= horizon:
        raise TooShort(f"need more than {horizon} points, got {len(e)}")
    return np.log(e[horizon:] / e[:-horizon])


def estimate_moments(returns, window: int, horizon: int) -> MomentEstimate:
    """Trailing-window means and covariance of per-instrument return streams.

    Each stream must provide at least ``window`` values; the covariance uses
    the 1/window normalization of a windowed time average.
    """
    streams = [np.asarray(r, dtype=np.float64) for r in returns]
    for i, r in enumerate(streams):
        if len(r) < window:
            raise WindowTooShort(f"stream {i} has {len(r)} < {window} returns")
    tail = np.stack([r[-window:] for r in streams])  # (M, window)
    x = tail.mean(axis=1)
    centered = tail - x[:, None]
    lam = (centered @ centered.T) / window
    lam = 0.5 * (lam + lam.T)
    return MomentEstimate(mean_returns=x, covariance=lam, window=window, horizon=horizon)


def _weights_array(n):
    return n.n if isinstance(n, ParcelWeights) else np.asarray(n, dtype=np.float64)


def _mean_and_sigma(w, m: MomentEstimate):
    z = float(w @ m.mean_returns)
    var = float(w @ m.covariance @ w)
    if var < -1e-12:
        raise NegativeVariance(f"n'Lambda n = {var}")
    return z, math.sqrt(max(var, 0.0))


def objective_P(n, m: MomentEstimate, theta: float) -> float:
    """P(theta) = Phi((1 - theta) Z / sigma) for parcel mean Z and std sigma.

    With sigma = 0 the parcel return is deterministic: 1 if it clears the
    theta Z threshold, 0.5 exactly at it, else 0.
    """
    global _ndtr
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    w = _weights_array(n)
    z, sigma = _mean_and_sigma(w, m)
    margin = (1.0 - theta) * z
    if sigma == 0.0:
        return 1.0 if margin > 0 else (0.5 if margin == 0 else 0.0)
    if _ndtr is None:
        from scipy.special import ndtr as _ndtr
    return float(_ndtr(margin / sigma))


def _objective_grad(w, m: MomentEstimate, theta: float) -> np.ndarray:
    z, sigma = _mean_and_sigma(w, m)
    if sigma == 0.0:
        return np.zeros_like(w)
    u = (1.0 - theta) * z / sigma
    phi = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    lam_w = m.covariance @ w
    return phi * (1.0 - theta) * (m.mean_returns / sigma - z * lam_w / sigma**3)


def project_weights(v) -> np.ndarray:
    """Euclidean projection onto {n >= 0, sum(n) <= 1}."""
    v = np.asarray(v, dtype=np.float64)
    w = np.clip(v, 0.0, None)
    if w.sum() <= 1.0:
        return w
    # sum constraint active: project onto the probability simplex (sort method)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.clip(v - tau, 0.0, None)


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
    """
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    mm = m.n_instruments
    eig_min = float(np.linalg.eigvalsh(m.covariance).min())
    scale = 1.0 + float(np.abs(np.diag(m.covariance)).max())
    if eig_min < -1e-10 * scale:
        raise NotPSD(f"covariance has eigenvalue {eig_min}")

    w = np.full(mm, 1.0 / mm)
    if float(w @ m.covariance @ w) <= 0.0:
        return _degenerate_parcel(m, theta)

    p = objective_P(w, m, theta)
    step = 1.0
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        g = _objective_grad(w, m, theta)
        residual = float(np.linalg.norm(project_weights(w + g) - w))
        if residual < tol:
            converged = True
            break
        moved = False
        s = step
        for _ in range(60):
            cand = project_weights(w + s * g)
            p_cand = objective_P(cand, m, theta)
            if p_cand >= p and np.any(cand != w):
                w, p = cand, p_cand
                step = min(s * 2.0, 1e6)
                moved = True
                break
            s *= 0.5
        if not moved:
            # no ascent step exists at float precision; report the mapping residual
            break
    if p < 0.5 - 1e-12:
        w = np.zeros(mm)
        p, converged = 0.5, True
        residual = 0.0
    else:
        if p > 0.5 + 1e-12 and w.sum() > 0:
            w = w / w.sum()
            p = objective_P(w, m, theta)
        residual = float(np.linalg.norm(project_weights(w + _objective_grad(w, m, theta)) - w))
    if not converged:
        log.warning("parcel optimizer stopped after %d iterations, residual %.3g", iters, residual)
    return ParcelResult(
        weights=ParcelWeights(w), p_theta=p, kkt_residual=residual, iterations=iters, converged=converged
    )


def _degenerate_parcel(m: MomentEstimate, theta: float) -> ParcelResult:
    # zero-variance start: the objective is a step function of the mean, so
    # pick directly instead of following gradients
    x = m.mean_returns
    mm = m.n_instruments
    if np.all(x == 0.0):
        w = np.full(mm, 1.0 / mm)
    elif x.max() > 0:
        w = np.zeros(mm)
        w[int(np.argmax(x))] = 1.0
    else:
        w = np.zeros(mm)
    return ParcelResult(
        weights=ParcelWeights(w),
        p_theta=objective_P(w, m, theta),
        kkt_residual=0.0,
        iterations=0,
        converged=True,
    )

