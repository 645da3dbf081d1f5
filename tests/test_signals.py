import gc
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsw import signals
from nsw.errors import DegenerateWindow, NonIntegrable, NotWarmedUp
from nsw.sde_fit import fit_model
from nsw.signals import Action, Signal, SignalConfig, SignalEngine, decide, write_signals
from nsw.stationary import ks_quasistationarity, stationary_density
from nsw.timeseries import make_ou_price_series
from nsw.wavelets import make_wavelet, transform

from conftest import series_from_prices

CFG = SignalConfig()

# the documented mean-reverting reference setup: slow reversion so excursions
# persist past the fit window, short displacement so the gate can stay open
REFERENCE_SYNTH = dict(rate=0.003, vol=0.01)
REFERENCE_ENGINE = dict(cfg=SignalConfig(shift_len=16))


class TestDecide:
    def test_buy_rule(self):
        s = decide(-0.3, 0.97, True, CFG)
        assert s.kind is Action.BUY and not s.gated

    def test_sell_rule(self):
        assert decide(+0.3, 0.02, True, CFG).kind is Action.SELL

    def test_hold_when_ps_mid(self):
        assert decide(-0.3, 0.5, True, CFG).kind is Action.HOLD

    @pytest.mark.parametrize("dy1", [-0.3, 0.0, 0.3])
    @pytest.mark.parametrize("p_s", [0.97, 0.5, 0.02])
    def test_rule_table(self, dy1, p_s):
        s = decide(dy1, p_s, True, CFG)
        if dy1 < 0 and p_s > 1 - CFG.alpha1:
            expected = Action.BUY
        elif dy1 > 0 and p_s < CFG.alpha1:
            expected = Action.SELL
        else:
            expected = Action.HOLD
        assert s.kind is expected

    @given(dy1=st.floats(-1, 1), p_s=st.floats(0, 1), ks=st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_exactly_one_action_and_gate_dominance(self, dy1, p_s, ks):
        s = decide(dy1, p_s, ks, CFG)
        assert s.kind in (Action.BUY, Action.SELL, Action.HOLD)
        if not ks:
            assert s.kind is Action.HOLD and s.gated
        if s.kind is not Action.HOLD:
            assert not s.gated

    def test_zero_increment_never_trades(self):
        assert decide(0.0, 0.999, True, CFG).kind is Action.HOLD
        assert decide(0.0, 0.001, True, CFG).kind is Action.HOLD

    def test_buy_requires_falling_coefficient(self):
        # dy1 > 0 (coefficient rising = recent decline) must never buy
        for p_s in (0.96, 0.99, 1.0):
            assert decide(0.3, p_s, True, CFG).kind is not Action.BUY

    def test_ps_validated(self):
        with pytest.raises(ValueError):
            decide(0.1, 1.5, True, CFG)


class TestSignalTypes:
    def test_gated_trade_rejected(self):
        with pytest.raises(ValueError):
            Signal(Action.BUY, 0.99, -0.1, gated=True)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SignalConfig(alpha1=0.7)
        with pytest.raises(ValueError):
            SignalConfig(calib_len=16)
        with pytest.raises(ValueError):
            SignalConfig(density_mode="fancy")

    def test_shift_len_defaults_to_64(self):
        assert SignalConfig().shift_len == SignalConfig(calib_len=32).shift_len == 64
        assert SignalEngine(SignalConfig(shift_len=16)).min_history == 8 + 64 + 16 - 1


def small_engine(**kw):
    return SignalEngine(SignalConfig(**{"calib_len": 32, "shift_len": 8, "n_grid": 256, **kw}))


class TestEngine:
    def test_not_warmed_up(self):
        eng = small_engine()
        with pytest.raises(NotWarmedUp):
            eng.step(100.0)

    def test_min_history(self):
        eng = small_engine()
        # haar levels=2 support 8, calib 32, shift 8
        assert eng.min_history == 8 + 32 + 8 - 1

    def test_constant_series_all_hold(self):
        eng = small_engine()
        series = series_from_prices(np.full(80, 42.0))
        trace = eng.run(series)
        assert len(trace.signals) == 80 - eng.min_history + 1
        assert all(s.kind is Action.HOLD for s in trace.signals)

    def test_reference_synthetic_trades_both_sides(self):
        series = make_ou_price_series(5000, seed=1, **REFERENCE_SYNTH)
        trace = SignalEngine(**REFERENCE_ENGINE).run(series)
        kinds = [s.kind for s in trace.signals]
        assert kinds.count(Action.BUY) >= 1
        assert kinds.count(Action.SELL) >= 1
        fraction = (kinds.count(Action.BUY) + kinds.count(Action.SELL)) / len(kinds)
        assert 0 < fraction < 0.2

    def test_causality_prefix_replay(self):
        series = make_ou_price_series(400, seed=9, rate=0.05, vol=0.02)
        full = small_engine().run(series)
        prefix = small_engine().run(series.prefix(300))
        overlap = 300 - full.start
        assert full.signals[:overlap] == prefix.signals

    def test_price_scale_invariance_dyadic(self):
        series = make_ou_price_series(360, seed=14, rate=0.05, vol=0.02)
        a = small_engine().run(series)
        b = small_engine().run(series.scaled(4.0))
        assert [s.kind for s in a.signals] == [s.kind for s in b.signals]
        # p_s and the gate are scale-free; dy1 itself scales with price
        assert [s.p_s for s in a.signals] == [s.p_s for s in b.signals]
        assert [s.gated for s in a.signals] == [s.gated for s in b.signals]
        assert [s.dy1 * 4.0 for s in a.signals] == [s.dy1 for s in b.signals]

    def test_price_scale_invariance_general(self):
        series = make_ou_price_series(360, seed=15, rate=0.05, vol=0.02)
        a = small_engine().run(series)
        b = small_engine().run(series.scaled(3.0))
        assert [s.kind for s in a.signals] == [s.kind for s in b.signals]

    def test_convolution_mode_runs(self):
        series = make_ou_price_series(300, seed=2, rate=0.05, vol=0.02)
        trace = small_engine(density_mode="convolution").run(series)
        assert len(trace.signals) > 0
        for s in trace.signals:
            assert 0.0 <= s.p_s <= 1.0

    def test_each_window_fitted_once(self, monkeypatch):
        # one fit per decided bar plus the first shift_len displaced windows,
        # and every displaced density is the exact fit of its own window
        series = make_ou_price_series(600, seed=2, rate=0.05, vol=0.02)
        eng = small_engine()
        fits, compared = [0], {}

        def counting_fit(*args, **kw):
            fits[0] += 1
            return fit_model(*args, **kw)

        def recording_ks(d_now, d_shift, *args, **kw):
            compared[eng.n_bars - 1] = d_shift
            return ks_quasistationarity(d_now, d_shift, *args, **kw)

        monkeypatch.setattr(signals, "fit_model", counting_fit)
        monkeypatch.setattr(signals, "ks_quasistationarity", recording_ks)
        trace = eng.run(series)
        assert fits[0] == len(trace.signals) + 8

        coeffs = transform(series, make_wavelet("haar"), 2).coeffs

        def fresh(t):
            try:
                return stationary_density(fit_model(coeffs[t - 31 : t + 1], degree=3), mode=1, n_grid=256)
            except (DegenerateWindow, NonIntegrable):
                return None

        decided = range(trace.start, trace.start + len(trace.signals))
        densities = {t: fresh(t) for t in range(trace.start - 8, decided[-1] + 1)}
        assert sorted(compared) == [t for t in decided if densities[t] is not None and densities[t - 8] is not None]
        for t, dens in compared.items():
            assert dens.p_s == densities[t - 8].p_s and np.array_equal(dens.pdf, densities[t - 8].pdf), t

    def test_alternating_feed_memory_bounded(self):
        # deciding every other bar with an odd shift_len leaves each decided
        # bar's density without a displaced lookup; none of them may pile up
        # (a degree-1 fit keeps nearly every window's density normalizable)
        prices = make_ou_price_series(6_000, seed=4, rate=0.05, vol=0.02).prices
        eng = small_engine(shift_len=17, degree=1, n_grid=64)

        def feed(first, last):
            for n in range(first, last + 1):
                if eng.ready and n % 2:
                    eng.step(prices[n - 1])
                else:
                    eng.extend(prices[n - 1])

        feed(1, 2_000)
        gc.collect()
        tracemalloc.start()
        try:
            feed(2_001, 6_000)
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        assert retained < 256 * 1024, retained  # 18 densities: ~50 kB; every unclaimed fit: ~4.4 MB

    @pytest.mark.parametrize("invert_sign", [False, True])
    @pytest.mark.parametrize("wavelet", ["haar", "db2", "db3", "bl1", "bl2", "bl3"])
    def test_rows_equal_transform(self, wavelet, invert_sign):
        series = make_ou_price_series(1200, seed=3, rate=0.05, vol=0.02)
        eng = SignalEngine(SignalConfig(wavelet=wavelet, invert_sign=invert_sign))
        rows = []
        for price in series.prices:
            eng.extend(price)
            rows.append(eng._coeffs.window(1)[0].copy())
        co = transform(series, make_wavelet(wavelet), 2, invert_sign=invert_sign)
        assert np.array_equal(np.array(rows)[co.valid_from :], co.coeffs[co.valid_from :])

    def test_history_memory_bounded(self):
        # retained heap after 2 000 and 20 000 fed bars must match
        prices = 100.0 + np.sin(np.arange(20_000) / 7.0)

        def retained(n):
            gc.collect()
            tracemalloc.start()
            try:
                eng = SignalEngine(SignalConfig())
                for price in prices[:n]:
                    eng.extend(price)
                gc.collect()
                return tracemalloc.get_traced_memory()[0]
            finally:
                tracemalloc.stop()

        short, long = retained(2_000), retained(20_000)
        assert long - short < 4096, (short, long)

    def test_write_signals(self, tmp_path):
        series = series_from_prices(np.full(60, 12.0))
        trace = small_engine().run(series)
        path = tmp_path / "sig.csv"
        write_signals(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,kind,p_s,dy1,gated"
        assert len(lines) == len(trace.signals) + 1
