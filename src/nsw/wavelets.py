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

_N_FFT = 2**15  # frequency samples of the Battle-Lemarie construction
_TRUNC = 1e-6  # Battle-Lemarie taps below this are cut from the tails


@dataclass(frozen=True)
class WaveletFilter:
    name: str
    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=np.float64)
        taps.setflags(write=False)
        object.__setattr__(self, "taps", taps)

    def dilated(self, level: int) -> np.ndarray:
        """Taps at dyadic dilation ``level``: each tap repeated 2**level times,
        scaled by 2**(-level/2) so the norm stays 1."""
        return np.repeat(self.taps, 2**level) * 2.0 ** (-level / 2.0)

    def support_at(self, level: int) -> int:
        return 2**level * len(self.taps)


def _daubechies_taps(order):
    # closed-form D4/D6 scaling coefficients; wavelet taps by the usual
    # alternating-flip quadrature-mirror construction
    if order == 2:
        s3 = math.sqrt(3.0)
        h = np.array([1 + s3, 3 + s3, 3 - s3, 1 - s3]) / (4 * math.sqrt(2.0))
    else:
        a = math.sqrt(10.0)
        b = math.sqrt(5.0 + 2.0 * a)
        h = np.array(
            [1 + a + b, 5 + a + 3 * b, 10 - 2 * a + 2 * b, 10 - 2 * a - 2 * b, 5 + a - 3 * b, 1 + a - b]
        ) / (16.0 * math.sqrt(2.0))
    g = h[::-1].copy()
    g[1::2] *= -1.0
    return g


@lru_cache(maxsize=None)
def _battle_lemarie_taps(degree):
    """Spline-wavelet filter of the given spline degree.

    Built in the Fourier domain on ``_N_FFT`` samples: orthonormalize the
    B-spline of that degree, form the conjugate mirror filter, flip to the
    high-pass, and cut the exponentially decaying tails once they drop below
    ``_TRUNC``. One sub-threshold tap is kept on each side so the retained
    tails are < _TRUNC, then zero mean and unit norm are re-imposed exactly.
    """
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

    w = 2.0 * np.pi * np.arange(_N_FFT) / _N_FFT
    w = np.where(w > np.pi, w - 2.0 * np.pi, w)
    h_hat = math.sqrt(2.0) * phi_hat(2.0 * w) / phi_hat(w)
    h = np.real(np.fft.ifft(h_hat))

    half = _N_FFT // 4
    n_idx = np.arange(-half, half + 1)
    g = np.where(n_idx % 2 == 0, 1.0, -1.0) * h[(1 - n_idx) % _N_FFT]
    keep = np.nonzero(np.abs(g) >= _TRUNC)[0]
    lo = max(keep[0] - 1, 0)
    hi = min(keep[-1] + 1, len(g) - 1)
    g = g[lo : hi + 1]
    g = g - g.mean()
    g = g / np.linalg.norm(g)
    g.setflags(write=False)
    return g


# the six analyzing filters, by the name configs give them
_FILTERS = {
    "haar": lambda: np.array([1.0, -1.0]) / math.sqrt(2.0),
    "db2": lambda: _daubechies_taps(2),
    "db3": lambda: _daubechies_taps(3),
    "bl1": lambda: _battle_lemarie_taps(1),
    "bl2": lambda: _battle_lemarie_taps(2),
    "bl3": lambda: _battle_lemarie_taps(3),
}


def make_wavelet(name) -> WaveletFilter:
    """The analyzing filter ``name``: one of ``haar``, ``db2``, ``db3``,
    ``bl1``, ``bl2``, ``bl3``."""
    if name not in _FILTERS:
        raise UnsupportedFamily(f"unknown wavelet {name!r}: use one of {', '.join(_FILTERS)}")
    return WaveletFilter(name, _FILTERS[name]())


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


def transform(series, filt: WaveletFilter, levels: int, invert_sign=False) -> np.ndarray:
    """Read-only (n, levels) array of the coefficient vectors Y(t) for
    ``levels`` dyadic scales, column 0 mode 1 (the coarsest): ``coeff_row`` at
    every bar from ``filt.support_at(levels) - 1``, the first one the coarsest
    support covers, and NaN before it."""
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
    coeffs.setflags(write=False)
    return coeffs
