"""Stationary density synthesis and the quasi-stationarity gate.

For a single mode the stationary density of dY = F dt + G dW is
exp(W(y)) up to normalization with W(y) the cumulative quadrature of
2 F / G^2; multi-mode models are reduced to the chosen mode by holding the
other modes at their calibration means. Two synthesized densities are
compared with a Kolmogorov-type statistic on a set of sample points; trading
logic only runs while the two are statistically indistinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.polynomial import hermite_e

from .errors import GridMismatch, NonIntegrable, TooFewPoints
from .sde_fit import SdeModel, mode_series

DEFAULT_SPAN = 5.0
DEFAULT_GRID = 1024

# fraction of the grid span treated as "boundary" when checking that the
# density actually decays inside the grid
_EDGE_FRACTION = 0.05
_EDGE_MASS_LIMIT = 0.01


@dataclass(frozen=True)
class StationaryDensity:
    """Gridded density with its CDF and the mass below zero (``p_s``)."""

    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    p_s: float

    def __post_init__(self):
        for name in ("grid", "pdf", "cdf"):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def spacing(self) -> float:
        return float(self.grid[1] - self.grid[0])

    def cdf_at(self, points) -> np.ndarray:
        """CDF interpolated at arbitrary points, clamped to [0, 1] outside."""
        return np.interp(points, self.grid, self.cdf)


def _finalize(grid, raw_pdf) -> StationaryDensity:
    total = np.trapezoid(raw_pdf, grid)
    if not np.isfinite(total) or total <= 0:
        raise NonIntegrable("density has no positive finite mass on the grid")
    pdf = raw_pdf / total
    inc = 0.5 * (pdf[1:] + pdf[:-1]) * np.diff(grid)
    cdf = np.concatenate([[0.0], np.cumsum(inc)])
    cdf /= cdf[-1]
    p_s = float(np.interp(0.0, grid, cdf))
    return StationaryDensity(grid=grid, pdf=pdf, cdf=cdf, p_s=p_s)


def stationary_density(model: SdeModel, mode=1, span=DEFAULT_SPAN, n_grid=DEFAULT_GRID) -> StationaryDensity:
    """Quadrature density for one mode of a fitted model.

    The grid covers mean +/- span*std of the mode's calibration sample. If
    more than 1% of the mass lands in the outer 5% of the span on either side
    the drift is not confining at this scale and NonIntegrable is raised;
    widening the grid only helps when the underlying density really decays.
    """
    mu = float(model.basis.mean[mode - 1])
    sigma = float(model.basis.std[mode - 1])
    grid = np.linspace(mu - span * sigma, mu + span * sigma, n_grid)
    z = (grid - mu) / sigma
    drift = hermite_e.hermeval(z, mode_series(model, model.drift_coeffs[mode - 1], mode))
    g2 = hermite_e.hermeval(z, mode_series(model, model.diff_coeffs[mode - 1], mode))
    g2 = np.maximum(g2, model.diffusion_floor**2)
    integrand = 2.0 * drift / g2
    steps = 0.5 * (integrand[1:] + integrand[:-1]) * np.diff(grid)
    w = np.concatenate([[0.0], np.cumsum(steps)])
    pdf = np.exp(w - w.max())
    dens = _finalize(grid, pdf)
    edge = max(2, int(round(_EDGE_FRACTION * n_grid)))
    lo_mass = float(np.trapezoid(dens.pdf[:edge], grid[:edge]))
    hi_mass = float(np.trapezoid(dens.pdf[-edge:], grid[-edge:]))
    if lo_mass > _EDGE_MASS_LIMIT or hi_mass > _EDGE_MASS_LIMIT:
        raise NonIntegrable(
            f"boundary mass {max(lo_mass, hi_mass):.3g} exceeds {_EDGE_MASS_LIMIT}; drift not confining on this grid"
        )
    return dens


def density_convolution(d_now: StationaryDensity, d_shifted: StationaryDensity) -> StationaryDensity:
    """Cross-correlation density f(z) = integral f_now(y) f_shifted(y + z) dy.

    Both inputs are resampled onto the finer of the two spacings; their grids
    must overlap (they describe the same coefficient variable).
    """
    if d_now.grid[-1] < d_shifted.grid[0] or d_shifted.grid[-1] < d_now.grid[0]:
        raise GridMismatch("density supports do not overlap")
    h = min(d_now.spacing, d_shifted.spacing)

    def resample(d):
        n = int(math.floor((d.grid[-1] - d.grid[0]) / h)) + 1
        g = d.grid[0] + h * np.arange(n)
        return g, np.interp(g, d.grid, d.pdf, left=0.0, right=0.0)

    g1, f1 = resample(d_now)
    g2, f2 = resample(d_shifted)
    corr = h * np.correlate(f2, f1, mode="full")
    lags = np.arange(-(len(f1) - 1), len(f2))
    z = (g2[0] - g1[0]) + h * lags
    return _finalize(z, np.maximum(corr, 0.0))


def ks_threshold_constant(alpha: float) -> float:
    """Asymptotic two-sided Kolmogorov quantile k(alpha) = sqrt(-ln(alpha/2)/2)."""
    return math.sqrt(-math.log(alpha / 2.0) / 2.0)


def ks_quasistationarity(
    d_now: StationaryDensity,
    d_shifted: StationaryDensity,
    sample_points,
    alpha2=0.05,
    k_override=None,
):
    """Compare two synthesized CDFs at the given sample points.

    Returns ``(statistic, passed)``: the max absolute CDF difference and
    whether it stays below k(alpha2)/sqrt(N). ``k_override`` replaces the
    asymptotic constant (1.358 at alpha2=0.05) for reproducing setups that
    used k of about 1.
    """
    pts = np.asarray(sample_points, dtype=np.float64)
    n = len(pts)
    if n < 8:
        raise TooFewPoints(f"need at least 8 sample points, got {n}")
    stat = float(np.max(np.abs(d_now.cdf_at(pts) - d_shifted.cdf_at(pts))))
    k = ks_threshold_constant(alpha2) if k_override is None else float(k_override)
    return stat, bool(stat < k / math.sqrt(n))

