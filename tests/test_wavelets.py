import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsw.errors import SeriesTooShort, UnsupportedFamily
from nsw.signals import SignalConfig, SignalEngine
from nsw.wavelets import make_wavelet, transform

from conftest import series_from_prices

ALL_SPECS = [("haar", None), ("daubechies", 2), ("daubechies", 3),
             ("battle_lemarie", 1), ("battle_lemarie", 2), ("battle_lemarie", 3)]


class TestFilters:
    def test_haar_taps(self):
        f = make_wavelet("haar")
        r = 1 / math.sqrt(2)
        assert np.allclose(f.taps, [r, -r], atol=0)

    @pytest.mark.parametrize("family,order", ALL_SPECS)
    def test_zero_mean_unit_norm(self, family, order):
        f = make_wavelet(family, order)
        assert abs(f.taps.sum()) < 1e-10
        assert abs((f.taps**2).sum() - 1.0) < 1e-10

    def test_db2_has_four_taps(self):
        assert make_wavelet("daubechies", 2).effective_support == 4

    def test_battle_lemarie_tail_below_threshold(self):
        for order in (1, 2, 3):
            f = make_wavelet("battle_lemarie", order)
            assert f.effective_support < 200
            assert abs(f.taps[0]) < 1e-6
            assert abs(f.taps[-1]) < 1e-6

    def test_aliases(self):
        assert make_wavelet("db3").order == 3
        assert make_wavelet("bl2").family == "battle_lemarie"

    def test_unsupported(self):
        with pytest.raises(UnsupportedFamily):
            make_wavelet("morlet")
        with pytest.raises(UnsupportedFamily):
            make_wavelet("daubechies", 9)

    @pytest.mark.parametrize("name,order", [("db2", 3), ("haar", 5), ("bl1", 2)])
    def test_order_must_match_the_name(self, name, order):
        with pytest.raises(UnsupportedFamily, match=f"{name}.*order"):
            make_wavelet(name, order)
        implied = make_wavelet(name)
        assert np.array_equal(make_wavelet(name, implied.order).taps, implied.taps)

    @pytest.mark.parametrize("family,names", [("daubechies", "db2 or db3"), ("battle_lemarie", "bl1, bl2 or bl3")])
    def test_bare_family_names_the_filters(self, family, names):
        with pytest.raises(UnsupportedFamily, match=names):
            make_wavelet(family)

    @pytest.mark.parametrize("family,order", [("haar", None), ("daubechies", 2), ("daubechies", 3)])
    def test_decimated_rows_orthonormal(self, family, order):
        # circular shifts by 2 on a dyadic block must form orthonormal rows
        f = make_wavelet(family, order)
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
        f = make_wavelet("daubechies", 2)
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
        assert co.coeffs[-1, 0] == pytest.approx(-2.0, abs=1e-12)

    def test_valid_from_is_coarsest_support(self):
        f = make_wavelet("haar")
        co = transform(np.arange(1.0, 40.0), f, 2)
        assert co.valid_from == f.support_at(2) - 1 == 7
        assert np.all(np.isnan(co.coeffs[: co.valid_from]))
        assert np.all(np.isfinite(co.coeffs[co.valid_from :]))

    @given(level=st.floats(min_value=0.5, max_value=500.0))
    @settings(max_examples=30, deadline=None)
    def test_constant_series_zero_coefficients(self, level):
        for family, order in [("haar", None), ("daubechies", 3), ("battle_lemarie", 1)]:
            f = make_wavelet(family, order)
            n = f.support_at(2) + 5
            co = transform(np.full(n, level), f, 2)
            assert np.nanmax(np.abs(co.coeffs)) < 1e-10 * max(1.0, level)

    def test_linear_ramp_constant_detail(self):
        slope = 0.5
        co = transform(3.0 + slope * np.arange(30.0), make_wavelet("haar"), 1)
        vals = co.coeffs[co.valid_from :, 0]
        assert np.allclose(vals, -2 * slope, atol=1e-12)

    def test_shift_covariance(self):
        x = np.cumsum(np.random.default_rng(4).normal(size=50)) + 30
        f = make_wavelet("daubechies", 2)
        co_full = transform(x, f, 2)
        co_prefix = transform(x[:-1], f, 2)
        assert np.array_equal(co_full.coeffs[:-1], co_prefix.coeffs, equal_nan=True)

    def test_too_short(self):
        with pytest.raises(SeriesTooShort):
            transform(np.ones(7), make_wavelet("haar"), 2)

    def test_invert_sign(self):
        x = np.cumsum(np.random.default_rng(5).normal(size=40)) + 50
        f = make_wavelet("haar")
        a = transform(x, f, 2)
        b = transform(x, f, 2, invert_sign=True)
        assert np.allclose(a.coeffs[a.valid_from :], -b.coeffs[b.valid_from :])

    def test_mode_one_is_coarsest(self):
        # a slow square wave excites the coarse mode far more than the fine one
        x = 100 + 5.0 * np.sign(np.sin(np.arange(256) * 2 * np.pi / 64))
        co = transform(x, make_wavelet("haar"), 2)
        v = co.coeffs[co.valid_from :]
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
        co = transform(x, make_wavelet("haar"), 2).coeffs
        trace = self._decided(x)
        for i, s in enumerate(trace.signals):
            t = trace.start + i
            assert s.dy1 == co[t, 0] - co[t - 1, 0]

    def test_telescoping_sum(self):
        x = np.cumsum(np.random.default_rng(6).normal(size=80)) + 40
        co = transform(x, make_wavelet("haar"), 2).coeffs
        trace = self._decided(x)
        total = sum(s.dy1 for s in trace.signals)
        assert total == pytest.approx(co[-1, 0] - co[trace.start - 1, 0], abs=1e-10)
