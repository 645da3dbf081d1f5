import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsw.errors import SeriesTooShort, UnsupportedFamily
from nsw.signals import SignalConfig, SignalEngine
from nsw.wavelets import _N_FFT, _TRUNC, _battle_lemarie_taps, make_wavelet, transform

from conftest import series_from_prices

NAMES = ["haar", "db2", "db3", "bl1", "bl2", "bl3"]


def scipy_battle_lemarie_taps(degree):
    """The Battle-Lemarie construction with the B-spline samples taken from
    scipy.interpolate, kept as the oracle of the package's own samples."""
    from scipy.interpolate import BSpline

    def bspline_hat(om):
        x = om / 2.0
        s = np.ones_like(x)
        nz = np.abs(x) > 1e-12
        s[nz] = np.sin(x[nz]) / x[nz]
        return s ** (degree + 1)

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
    g = g[max(keep[0] - 1, 0) : min(keep[-1] + 1, len(g) - 1) + 1]
    g = g - g.mean()
    return g / np.linalg.norm(g)


class TestFilters:
    def test_haar_taps(self):
        f = make_wavelet("haar")
        r = 1 / math.sqrt(2)
        assert np.allclose(f.taps, [r, -r], atol=0)

    @pytest.mark.parametrize("name", NAMES)
    def test_zero_mean_unit_norm(self, name):
        f = make_wavelet(name)
        assert abs(f.taps.sum()) < 1e-10
        assert abs((f.taps**2).sum() - 1.0) < 1e-10

    @pytest.mark.parametrize("name", ["haar", "db2", "db3"])
    def test_alternating_tap_sum_is_sqrt2(self, name):
        # taps g[k] = (-1)**k h[N - 1 - k] of a scaling filter h summing to sqrt(2),
        # the sign convention that gives Haar's [1, -1] / sqrt(2)
        taps = make_wavelet(name).taps
        assert math.isclose(taps @ (-1.0) ** np.arange(len(taps)), math.sqrt(2.0), rel_tol=1e-12)

    def test_db2_has_four_taps(self):
        assert len(make_wavelet("db2").taps) == 4

    def test_battle_lemarie_tail_below_threshold(self):
        for name in ("bl1", "bl2", "bl3"):
            f = make_wavelet(name)
            assert len(f.taps) < 200
            assert abs(f.taps[0]) < 1e-6
            assert abs(f.taps[-1]) < 1e-6

    @pytest.mark.parametrize("degree", [1, 2, 3])
    def test_battle_lemarie_equal_scipy_construction(self, degree):
        assert np.array_equal(_battle_lemarie_taps(degree), scipy_battle_lemarie_taps(degree))

    def test_aliases(self):
        # a filter is its name: no family/order pair behind it
        for name in NAMES:
            f = make_wavelet(name)
            assert f.name == name
            with pytest.raises(ValueError):
                f.taps[0] = 0.0

    def test_unsupported(self):
        # the family spellings and any other name: the message lists the six
        for name in ("morlet", "daubechies", "battle_lemarie", "db4", "Haar"):
            with pytest.raises(UnsupportedFamily, match=repr(name)) as exc:
                make_wavelet(name)
            assert all(n in str(exc.value) for n in NAMES), name

    @pytest.mark.parametrize("name", ["haar", "db2", "db3"])
    def test_decimated_rows_orthonormal(self, name):
        # circular shifts by 2 on a dyadic block must form orthonormal rows
        f = make_wavelet(name)
        taps = f.taps
        block = 1
        while block < 2 * len(taps):
            block *= 2
        rows = []
        for shift in range(0, block, 2):
            r = np.zeros(block)
            for i, v in enumerate(taps):
                r[(shift + i) % block] = v
            rows.append(r)
        gram = np.array(rows) @ np.array(rows).T
        assert np.abs(gram - np.eye(len(rows))).max() < 1e-8

    def test_dilation_preserves_norm(self):
        f = make_wavelet("db2")
        for level in (1, 2, 3):
            d = f.dilated(level)
            assert len(d) == 2**level * 4
            assert abs((d**2).sum() - 1.0) < 1e-10
            assert abs(d.sum()) < 1e-10


class TestTransform:
    def test_haar_hand_example(self):
        # dilated level-1 Haar (support 4) against (2, 2, 4, 4): older half
        # minus newer half, giving (2+2)/2 - (4+4)/2 = -2
        co = transform(np.array([9.0, 3.0, 2.0, 2.0, 4.0, 4.0]), make_wavelet("haar"), 1)
        assert co[-1, 0] == pytest.approx(-2.0, abs=1e-12)

    def test_valid_from_is_coarsest_support(self):
        # rows before support_at(levels) - 1 are NaN, every later one finite
        for name in NAMES:
            f = make_wavelet(name)
            first = f.support_at(2) - 1
            co = transform(100.0 + np.sin(np.arange(first + 20.0)), f, 2)
            assert co.shape == (first + 20, 2)
            assert np.all(np.isnan(co[:first]))
            assert np.all(np.isfinite(co[first:]))

    @pytest.mark.parametrize("name", NAMES)
    def test_result_is_read_only_array(self, name):
        f = make_wavelet(name)
        co = transform(np.arange(1.0, f.support_at(2) + 5.0), f, 2)
        assert type(co) is np.ndarray and co.dtype == np.float64
        with pytest.raises(ValueError):
            co[-1, 0] = 0.0

    @given(level=st.floats(min_value=0.5, max_value=500.0))
    @settings(max_examples=30, deadline=None)
    def test_constant_series_zero_coefficients(self, level):
        for name in ("haar", "db3", "bl1"):
            f = make_wavelet(name)
            n = f.support_at(2) + 5
            co = transform(np.full(n, level), f, 2)
            assert np.nanmax(np.abs(co)) < 1e-10 * max(1.0, level)

    def test_linear_ramp_constant_detail(self):
        slope = 0.5
        co = transform(3.0 + slope * np.arange(30.0), make_wavelet("haar"), 1)
        assert np.allclose(co[3:, 0], -2 * slope, atol=1e-12)

    def test_shift_covariance(self):
        for name in NAMES:
            f = make_wavelet(name)
            x = np.cumsum(np.random.default_rng(4).normal(size=f.support_at(2) + 20)) + 30
            co_full = transform(x, f, 2)
            co_prefix = transform(x[:-1], f, 2)
            assert np.array_equal(co_full[:-1], co_prefix, equal_nan=True), name

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            transform(np.ones(7), make_wavelet("haar"), 2)

    def test_invert_sign(self):
        x = np.cumsum(np.random.default_rng(5).normal(size=40)) + 50
        f = make_wavelet("haar")
        a = transform(x, f, 2)
        b = transform(x, f, 2, invert_sign=True)
        assert np.array_equal(a, -b, equal_nan=True)

    def test_mode_one_is_coarsest(self):
        # a slow square wave excites the coarse mode far more than the fine one
        x = 100 + 5.0 * np.sign(np.sin(np.arange(256) * 2 * np.pi / 64))
        v = transform(x, make_wavelet("haar"), 2)[7:]
        assert np.abs(v[:, 0]).max() > np.abs(v[:, 1]).max()


class TestIncrements:
    """dY_1(t) = Y_1(t) - Y_1(t-1), the increment the trade rule reads, as the
    engine reports it on each decided bar."""

    def _decided(self, x):
        engine = SignalEngine(SignalConfig(calib_len=32, shift_len=8, n_grid=256))
        return engine.run(series_from_prices(x))

    def test_constant_increment_zero(self):
        trace = self._decided(np.full(60, 5.0))
        assert trace.signals and all(s.dy1 == 0.0 for s in trace.signals)

    def test_simple_difference(self):
        x = np.cumsum(np.random.default_rng(6).normal(size=80)) + 40
        co = transform(x, make_wavelet("haar"), 2)
        trace = self._decided(x)
        for i, s in enumerate(trace.signals):
            t = trace.start + i
            assert s.dy1 == co[t, 0] - co[t - 1, 0]

    def test_telescoping_sum(self):
        x = np.cumsum(np.random.default_rng(6).normal(size=80)) + 40
        co = transform(x, make_wavelet("haar"), 2)
        trace = self._decided(x)
        total = sum(s.dy1 for s in trace.signals)
        assert total == pytest.approx(co[-1, 0] - co[trace.start - 1, 0], abs=1e-10)
