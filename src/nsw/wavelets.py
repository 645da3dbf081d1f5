"""Analyzing wavelet filters and the sliding (undecimated) price transform.

Every filter is a finite, zero-mean, unit-norm tap sequence. The transform
slides dyadically dilated copies of the taps over the most recent prices, so
a coefficient vector exists at every bar once the coarsest support is covered
(no decimation gaps). Taps are ordered oldest-sample-first; for Haar the
positive half hits the older samples, so a positive level-1 coefficient means
prices have just declined.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import SeriesTooShort, UnsupportedFamily
from .timeseries import PriceSeries

# the name of each supported filter, as configs spell it: family and order
_ALIASES = {
    "haar": ("haar", 0),
    "db2": ("daubechies", 2),
    "db3": ("daubechies", 3),
    "bl1": ("battle_lemarie", 1),
    "bl2": ("battle_lemarie", 2),
    "bl3": ("battle_lemarie", 3),
}


@dataclass(frozen=True)
class WaveletFilter:
    family: str
    order: int
    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    @property
    def effective_support(self) -> int:
        return len(self.taps)

    def dilated(self, level: int) -> np.ndarray:
        """Taps at dyadic dilation ``level``: each tap repeated 2**level times,
        scaled by 2**(-level/2) so the norm stays 1."""
        return np.repeat(self.taps, 2**level) * 2.0 ** (-level / 2.0)

    def support_at(self, level: int) -> int:
        return 2**level * len(self.taps)


@dataclass(frozen=True)
class WaveletCoeffSeries:
    """Per-bar coefficient vectors Y(t); column 0 is mode 1 (coarsest scale).

    Rows before ``valid_from`` are NaN: the coarsest dilated filter does not
    yet fit inside the observed history there.
    """

    levels: int
    coeffs: np.ndarray
    valid_from: int

    def __post_init__(self):
        c = np.asarray(self.coeffs, dtype=np.float64)
        c.setflags(write=False)
        object.__setattr__(self, "coeffs", c)

    def __len__(self):
        return len(self.coeffs)


def _haar_taps():
    r = 1.0 / math.sqrt(2.0)
    return np.array([r, -r])


def _daubechies_taps(order):
    # closed-form D4/D6 scaling coefficients; wavelet taps by the usual
    # alternating-flip quadrature-mirror construction
    if order == 2:
        s3 = math.sqrt(3.0)
        h = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
    elif order == 3:
        a = math.sqrt(10.0)
        b = math.sqrt(5.0 + 2.0 * a)
        h = np.array(
            [1 + a + b, 5 + a + 3 * b, 10 - 2 * a + 2 * b, 10 - 2 * a - 2 * b, 5 + a - 3 * b, 1 + a - b]
        ) / (16.0 * math.sqrt(2.0))
    else:
        raise UnsupportedFamily(f"daubechies order {order} not supported (use 2 or 3)")
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


@lru_cache(maxsize=None)
def _battle_lemarie_taps(degree, n_fft=2**15, trunc=1e-6):
    """Spline-wavelet filter of the given spline degree.

    Built in the Fourier domain: orthonormalize the B-spline of that degree,
    form the conjugate mirror filter, flip to the high-pass, and cut the
    exponentially decaying tails once they drop below ``trunc``. One
    sub-threshold tap is kept on each side so the retained tails are < trunc,
    then zero mean and unit norm are re-imposed exactly.
    """
    if degree not in (1, 2, 3):
        raise UnsupportedFamily(f"battle_lemarie order {degree} not supported (use 1, 2 or 3)")
    from scipy.interpolate import BSpline

    def bspline_hat(om):
        x = om / 2.0
        s = np.ones_like(x)
        nz = np.abs(x) > 1e-12
        s[nz] = np.sin(x[nz]) / x[nz]
        return s ** (degree + 1)

    # integer samples of the degree 2d+1 B-spline give the autocorrelation
    # sum A(w) = sum_k |Bhat(w + 2 pi k)|^2 in closed form
    d2 = 2 * degree + 1
    bs = BSpline.basis_element(np.arange(d2 + 2, dtype=float))
    offs = np.arange(-(d2 // 2 + 1), d2 // 2 + 2)
    b_int = bs(offs + (d2 + 1) / 2.0)

    def acorr(om):
        out = np.zeros_like(om)
        for m, bm in zip(offs, b_int):
            out += bm * np.cos(m * om)
        return out

    def phi_hat(om):
        return np.abs(bspline_hat(om)) / np.sqrt(acorr(om))

    w = 2.0 * np.pi * np.arange(n_fft) / n_fft
    w = np.where(w > np.pi, w - 2.0 * np.pi, w)
    h_hat = math.sqrt(2.0) * phi_hat(2.0 * w) / phi_hat(w)
    h = np.real(np.fft.ifft(h_hat))

    half = n_fft // 4
    n_idx = np.arange(-half, half + 1)
    g = np.where(n_idx % 2 == 0, 1.0, -1.0) * h[(1 - n_idx) % n_fft]
    keep = np.nonzero(np.abs(g) >= trunc)[0]
    lo = max(keep[0] - 1, 0)
    hi = min(keep[-1] + 1, len(g) - 1)
    g = g[lo : hi + 1]
    g = g - g.mean()
    g = g / np.linalg.norm(g)
    g.setflags(write=False)
    return g


def make_wavelet(family, order=None) -> WaveletFilter:
    """Build a named analyzing filter.

    ``family`` is one of the filter names ``haar``, ``db2``, ``db3``,
    ``bl1``, ``bl2``, ``bl3``, which imply their order, or ``daubechies``
    (order 2 or 3) or ``battle_lemarie`` (order 1-3) with an explicit
    order. An order given with a filter name must be the one it implies.
    """
    name = str(family).lower().replace("-", "_")
    if name in _ALIASES:
        name, implied = _ALIASES[name]
        if order is not None and order != implied:
            raise UnsupportedFamily(f"wavelet {family!r} has order {implied}, not {order}")
        order = implied
    if name == "haar":
        return WaveletFilter("haar", 0, _haar_taps())
    if name == "daubechies":
        if order is None:
            raise UnsupportedFamily("daubechies needs an order (2 or 3): name it db2 or db3")
        return WaveletFilter("daubechies", int(order), _daubechies_taps(int(order)))
    if name == "battle_lemarie":
        if order is None:
            raise UnsupportedFamily("battle_lemarie needs an order (1, 2 or 3): name it bl1, bl2 or bl3")
        return WaveletFilter("battle_lemarie", int(order), np.array(_battle_lemarie_taps(int(order))))
    raise UnsupportedFamily(f"unknown wavelet family {family!r}")


def mode_taps(filt: WaveletFilter, levels: int) -> list:
    """Dilated taps per mode: mode m (index m-1) uses dilation level
    ``levels - m + 1``, so mode 1 is the coarsest retained scale."""
    return [filt.dilated(levels - j) for j in range(levels)]


def coeff_row(prices, taps_by_mode, sign=1.0) -> np.ndarray:
    """Coefficient vector Y(t) of the newest bar in ``prices``.

    Each mode is the inner product of its dilated taps with the most recent
    samples, so the row is strictly causal; a mode whose support is longer
    than the history is NaN.
    """
    n = len(prices)
    row = np.full(len(taps_by_mode), np.nan)
    for j, taps in enumerate(taps_by_mode):
        s = len(taps)
        if n >= s:
            row[j] = sign * float(taps @ prices[n - s :])  # taps[0] hits the oldest sample
    return row


def transform(series, filt: WaveletFilter, levels: int, invert_sign=False) -> WaveletCoeffSeries:
    """Sliding coefficient vectors for ``levels`` dyadic scales: ``coeff_row``
    at every bar from the first one the coarsest support covers."""
    x = series.prices if isinstance(series, PriceSeries) else np.asarray(series, dtype=np.float64)
    n = len(x)
    support = filt.support_at(levels)
    if n < support:
        raise SeriesTooShort(f"need at least {support} bars for {levels} levels, got {n}")
    taps = mode_taps(filt, levels)
    sign = -1.0 if invert_sign else 1.0
    coeffs = np.full((n, levels), np.nan)
    for t in range(support - 1, n):
        coeffs[t] = coeff_row(x[: t + 1], taps, sign)
    return WaveletCoeffSeries(levels=levels, coeffs=coeffs, valid_from=support - 1)
