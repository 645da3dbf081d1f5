"""Stationary density synthesis and the quasi-stationarity gate.

For a single mode the stationary density of dY = F dt + G dW is
exp(W(y)) up to normalization with W(y) the cumulative quadrature of
2 F / G^2; multi-mode models are reduced to mode 1 by holding the other
modes at their calibration means. Two synthesized densities are
compared with a Kolmogorov-type statistic on a set of sample points; trading
logic only runs while the two are statistically indistinguishable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import (CONV_NON_INTEGRABLE, EDGE_MASS, GRID_MISMATCH, MESSAGES, NO_MASS, GridMismatch, NonIntegrable,
                     TooFewPoints)
from .sde_fit import FitStack, _collapse, _hermite_table

DEFAULT_SPAN = 5.0
DEFAULT_GRID = 1024

# fraction of the grid span treated as "boundary" when checking that the
# density actually decays inside the grid
_EDGE_FRACTION = 0.05
_EDGE_MASS_LIMIT = 0.01


@dataclass(frozen=True, eq=False)
class DensityStack:
    """B gridded densities: row i of ``grid``/``pdf``/``cdf`` and ``p_s[i]``
    belong to window i; ``status[i]`` (uint8) is 0, or why it has no density:
    its fit code, ``no_mass`` or ``edge_mass`` (``nsw.errors.REASONS``)."""

    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    p_s: np.ndarray
    status: np.ndarray


def _trapezoids(y, dx):
    """Trapezoid areas 0.5 * (y[j] + y[j + 1]) * dx[j] along every row."""
    out = np.add(y[:, 1:], y[:, :-1])
    out *= 0.5
    out *= dx
    return out


def _finalize_rows(grid, dx, raw_pdf, status) -> DensityStack:
    """Normalize each row of ``raw_pdf`` (B, n) on its row of ``grid``
    (spacings ``dx``) and integrate its CDF and ``p_s`` by the trapezoid rule.
    A row without positive finite mass or positive spacings is made flat (on
    unit spacings, if its own are not positive) and, unless ``status`` holds
    a failure already, marked ``no_mass``; all three are updated in place."""
    inc = _trapezoids(raw_pdf, dx)
    total = inc.sum(axis=1)
    spaced = (dx > 0.0).all(axis=1)
    bad = ~((total > 0.0) & (total < math.inf) & spaced)
    if bad.any():
        status[bad & (status == 0)] = NO_MASS
        raw_pdf[bad] = 1.0
        dx[~spaced] = 1.0  # no division below meets a zero width
        inc = _trapezoids(raw_pdf, dx)
        total = inc.sum(axis=1)
    cdf = np.empty_like(raw_pdf)
    cdf[:, 0] = 0.0
    np.cumsum(inc, axis=1, out=cdf[:, 1:])
    cdf /= cdf[:, -1:]
    # np.interp(0.0, grid[i], cdf[i]) for every row, clamped to [0, 1] off the grid
    j = (grid[:, 1:-1] <= 0.0).sum(axis=1)
    rows = np.arange(len(grid))
    x0, f0 = grid[rows, j], cdf[rows, j]
    p_s = np.minimum(np.maximum((cdf[rows, j + 1] - f0) / dx[rows, j] * -x0 + f0, 0.0), 1.0)
    raw_pdf /= total[:, None]
    return DensityStack(grid=grid, pdf=raw_pdf, cdf=cdf, p_s=p_s, status=status)


def _linspace_rows(lo, hi, n):
    """Row i is ``np.linspace(lo[i], hi[i], n)`` bit for bit, in C order (the
    transposed view of ``linspace(axis=1)`` makes row sums depend on B); a
    row whose step underflows to 0 is lo[i] up to a last hi[i]."""
    # linspace's arithmetic (index * step + lo, then the exact end point), row by row
    grid = ((hi - lo) / (n - 1))[:, None] * np.arange(n, dtype=np.float64)
    grid += lo[:, None]
    grid[:, -1] = hi
    return grid


@lru_cache(maxsize=16)
def _grid_table(span, n_grid, degree):
    """He_0..He_degree on linspace(-span, span, n_grid) as (degree + 1, n_grid),
    shared by every row."""
    table = np.ascontiguousarray(_hermite_table(np.linspace(-span, span, n_grid), degree).T)
    table.setflags(write=False)
    return table


def stationary_densities(fits: FitStack, span=DEFAULT_SPAN, n_grid=DEFAULT_GRID) -> DensityStack:
    """Quadrature densities for mode 1 of every fit in a stack.

    Each grid covers mean +/- span*std of mode 1's calibration sample. If
    more than 1% of the mass lands in the outer 5% of the span on either side
    the drift is not confining at this scale and the row fails; widening the
    grid only helps when the underlying density really decays. Drift and G^2
    are evaluated from one He_k table on linspace(-span, span), shared by all
    rows; the grids themselves are linspace between each row's own end points
    (mu + sigma * linspace(-span, span) rounds differently, and the
    convolution density resamples on the grid's width). Each row's result is
    the same whatever stack it is computed in.
    """
    status = fits.status.astype(np.uint8)
    mu = np.where(status == 0, fits.mean[:, 0], 0.0)
    sigma = np.where(status == 0, fits.std[:, 0], 1.0)
    grid = _linspace_rows(mu - span * sigma, mu + span * sigma, n_grid)
    dx = grid[:, 1:] - grid[:, :-1]
    # (B, 2, n_grid): drift and G^2 of every row along mode 1, from their
    # Hermite series in mode 1 (the other modes at hat-y = 0)
    coeffs = np.stack([fits.drift[:, 0], fits.diff[:, 0]], axis=1)
    on_grid = (coeffs[..., None] * _collapse(fits.terms)).sum(axis=-2) @ _grid_table(span, n_grid, fits.degree)
    ratio = on_grid[:, 0]
    ratio /= np.maximum(on_grid[:, 1], (fits.floor**2)[:, None], out=on_grid[:, 1])
    # with a = F/G^2 the trapezoid of 2a is (a[j] + a[j + 1]) * dx[j]: x2 and x0.5 are exact
    steps = np.add(ratio[:, 1:], ratio[:, :-1])
    steps *= dx
    w = np.empty_like(grid)
    w[:, 0] = 0.0
    np.cumsum(steps, axis=1, out=w[:, 1:])
    del on_grid, ratio, steps  # freed before _finalize_rows allocates: peak memory per stack
    w -= w.max(axis=1, keepdims=True)
    dens = _finalize_rows(grid, dx, np.exp(w, out=w), status)
    # mass over the outer edge nodes on either side, from the CDF
    edge = max(2, int(round(_EDGE_FRACTION * n_grid)))
    edge_mass = np.maximum(dens.cdf[:, edge - 1], 1.0 - dens.cdf[:, -edge])
    status[(edge_mass > _EDGE_MASS_LIMIT) & (status == 0)] = EDGE_MASS
    return dens


def stationary_density(fit: FitStack, span=DEFAULT_SPAN, n_grid=DEFAULT_GRID) -> DensityStack:
    """Quadrature density for mode 1 of a one-row stack: the one-row case
    of ``stationary_densities``. Raises NonIntegrable when the row failed, for
    instance when the drift is not confining on the grid."""
    dens = stationary_densities(fit, span=span, n_grid=n_grid)
    if dens.status[0]:
        raise NonIntegrable(MESSAGES[dens.status[0]])
    return dens


def _resampled(g_now, pdf_now, g_shifted, pdf_shifted):
    """``(offset, h, f_now, f_shifted)``: both pdf rows resampled from their first
    nodes, ``offset`` apart, onto the finer spacing h of two overlapping grid rows."""
    if g_now[-1] < g_shifted[0] or g_shifted[-1] < g_now[0]:
        raise GridMismatch(MESSAGES[GRID_MISMATCH])
    h = min(g_now[1] - g_now[0], g_shifted[1] - g_shifted[0])

    def resample(grid, pdf):
        n = int(math.floor((grid[-1] - grid[0]) / h)) + 1
        return np.interp(grid[0] + h * np.arange(n), grid, pdf, left=0.0, right=0.0)

    return g_shifted[0] - g_now[0], h, resample(g_now, pdf_now), resample(g_shifted, pdf_shifted)


def density_convolution(d_now: DensityStack, d_shifted: DensityStack) -> DensityStack:
    """Cross-correlation density f(z) = integral f_now(y) f_shifted(y + z) dy
    of two one-row stacks, as a one-row stack.

    Both inputs are resampled onto the finer of the two spacings; their grids
    must overlap (they describe the same coefficient variable).
    """
    offset, h, f1, f2 = _resampled(d_now.grid[0], d_now.pdf[0], d_shifted.grid[0], d_shifted.pdf[0])
    corr = h * np.correlate(f2, f1, mode="full")
    z = (offset + h * np.arange(-(len(f1) - 1), len(f2)))[None]
    dens = _finalize_rows(z, np.diff(z, axis=1), np.maximum(corr, 0.0)[None], np.zeros(1, np.uint8))
    if dens.status[0]:
        raise NonIntegrable(MESSAGES[CONV_NON_INTEGRABLE])
    return dens


def convolution_p_s(grid_now, pdf_now, grid_shifted, pdf_shifted) -> float:
    """``density_convolution(d_now, d_shifted).p_s[0]`` in O(n), where the two
    densities are given as their grid and pdf rows: same resampling, z grid
    and failures, without the correlation itself.

    With c[L] = sum_i f1[i] f2[i + L] and C2 = cumsum(f2) (0 below its grid,
    sum(f2) above), the c up to lag L sum to S(L) = sum_i f1[i] C2[i + L], so
    the trapezoid CDF at lag L is (S(L) - c_first/2 - c[L]/2) divided by
    sum(f1) sum(f2) - (c_first + c_last)/2, interpolated at z = 0."""
    offset, h, f1, f2 = _resampled(grid_now, pdf_now, grid_shifted, pdf_shifted)
    n1, n2 = len(f1), len(f2)
    sum2 = f2.sum()
    c_first = f1[-1] * f2[0]
    total = f1.sum() * sum2 - 0.5 * (c_first + f1[0] * f2[-1])
    if not 0.0 < total < math.inf:
        raise NonIntegrable(MESSAGES[CONV_NON_INTEGRABLE])
    cum2 = np.cumsum(f2)

    def cdf(lag):
        lo, hi = max(0, -lag), min(n1, n2 - lag)  # the f1 indices whose i + lag is on f2's grid
        c = f1[lo:hi] @ f2[lo + lag : hi + lag]
        below = f1[lo:hi] @ cum2[lo + lag : hi + lag] + sum2 * f1[hi:].sum()
        return (below - 0.5 * c_first - 0.5 * c) / total

    z = offset + h * np.arange(1 - n1, n2)  # node k sits at lag k - (n1 - 1)
    j = np.count_nonzero(z[1:-1] <= 0.0)  # the node _finalize_rows interpolates from
    x0, f0 = z[j], cdf(j + 1 - n1)
    return float(min(max((cdf(j + 2 - n1) - f0) / (z[j + 1] - x0) * -x0 + f0, 0.0), 1.0))


def ks_threshold(n: int, alpha2=0.05, k_override=None) -> float:
    """The gate's bound k/sqrt(n) on the statistic of ``n`` sample points: k is
    ``k_override``, else the asymptotic two-sided Kolmogorov quantile
    sqrt(-ln(alpha2/2)/2). Raises TooFewPoints below 8 points."""
    if n < 8:
        raise TooFewPoints(f"need at least 8 sample points, got {n}")
    k = math.sqrt(-math.log(alpha2 / 2.0) / 2.0) if k_override is None else float(k_override)
    return k / math.sqrt(n)


def ks_statistic(pts, grid_now, cdf_now, grid_shifted, cdf_shifted) -> float:
    """Max absolute difference of two gridded CDFs at the points ``pts``, each
    CDF interpolated on its own grid and clamped to [0, 1] off it."""
    return float(np.abs(np.interp(pts, grid_now, cdf_now) - np.interp(pts, grid_shifted, cdf_shifted)).max())


def ks_quasistationarity(d_now: DensityStack, d_shifted: DensityStack, sample_points, alpha2=0.05, k_override=None):
    """Compare the CDFs of two one-row stacks at the given sample points.

    Returns ``(statistic, passed)``: the max absolute CDF difference and
    whether it stays below k(alpha2)/sqrt(N). ``k_override`` replaces the
    asymptotic constant (1.358 at alpha2=0.05) for reproducing setups that
    used k of about 1.
    """
    pts = np.asarray(sample_points, dtype=np.float64)
    threshold = ks_threshold(len(pts), alpha2, k_override)
    stat = ks_statistic(pts, d_now.grid[0], d_now.cdf[0], d_shifted.grid[0], d_shifted.cdf[0])
    return stat, bool(stat < threshold)
