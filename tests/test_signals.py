import csv
import errno
import gc
import io
import os
import signal
import sys
import threading
import time
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsw import signals
from nsw.errors import KS_REJECT, MESSAGES, PASS, REASONS, DegenerateWindow, GridMismatch, NonIntegrable, NotWarmedUp
from nsw.sde_fit import fit_model, fit_windows
from nsw.signals import Action, Signal, SignalConfig, SignalEngine, SignalTrace, decide, write_signals
from nsw.stationary import DensityStack, convolution_p_s, ks_quasistationarity, ks_statistic, stationary_density
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


def stream(eng, prices) -> SignalTrace:
    """The trace ``eng.run`` must return, fed through extend and step."""
    start = min(eng.min_history - 1, len(prices))
    out = [eng.step(p) if eng.n_bars >= eng.min_history - 1 else eng.extend(p) for p in prices]
    return SignalTrace(start, [s for s in out if s is not None])


def window_density(cfg, rows, t):
    """``(density, reason)`` of the fit window ending at bar t, fitted on its
    own: its mode-1 density and ``pass``, or None and the reason code of the
    degenerate window or the non-normalizable density."""
    try:
        fit = fit_model(rows[t - cfg.calib_len + 1 : t + 1], degree=cfg.degree)
        return stationary_density(fit, mode=1, span=cfg.grid_span, n_grid=cfg.n_grid), PASS
    except (DegenerateWindow, NonIntegrable) as exc:
        return None, MESSAGES.index(str(exc))


def per_bar_reference(cfg, prices):
    """``(trace, reason_counts)`` of the pipeline decided one bar at a time
    from the one-row public functions: each decided bar's window and its
    displaced one are fitted alone, then gated, priced and decided. A bar's
    reason is its window's failure, else the displaced window's, else the
    convolution's, else ``ks_reject`` or ``pass``."""
    counts = np.zeros(len(REASONS), dtype=np.int64)
    filt = make_wavelet(cfg.wavelet)
    first = min(filt.support_at(cfg.levels) + cfg.calib_len + cfg.shift_len - 2, len(prices))
    if first == len(prices):
        return SignalTrace(first, []), counts
    rows = transform(prices, filt, cfg.levels, cfg.invert_sign)
    densities = {t: window_density(cfg, rows, t) for t in range(first - cfg.shift_len, len(prices))}
    signals = []
    for t in range(first, len(prices)):
        window = rows[t - cfg.calib_len + 1 : t + 1]
        dy1 = float(window[-1, 0] - window[-2, 0])
        (d_now, reason_now), (d_shift, reason_shift) = densities[t], densities[t - cfg.shift_len]
        p_s, reason = None, reason_now or reason_shift
        if not reason:
            _, ks_pass = ks_quasistationarity(d_now, d_shift, window[:, 0], alpha2=cfg.alpha2, k_override=cfg.ks_k)
            if cfg.density_mode == "plain":
                p_s = float(d_now.p_s[0])
            else:
                try:
                    p_s = convolution_p_s(d_now.grid[0], d_now.pdf[0], d_shift.grid[0], d_shift.pdf[0])
                except (NonIntegrable, GridMismatch) as exc:
                    reason = MESSAGES.index(str(exc))
        if p_s is None:
            signals.append(Signal(Action.HOLD, 0.5, dy1, gated=True))
        else:
            reason = PASS if ks_pass else KS_REJECT
            signals.append(decide(dy1, p_s, ks_pass, cfg))
        counts[reason] += 1
    return SignalTrace(first, signals), counts


def assert_counts(eng, trace, counts):
    """The engine's per-reason counts are ``counts``, one per decided bar,
    and ``degenerate_bars`` sums the codes that leave a bar without a density."""
    assert eng.reason_counts.tolist() == counts.tolist()
    assert counts.sum() == len(trace.signals)
    assert eng.degenerate_bars == counts[PASS + 1 : KS_REJECT].sum()


def assert_same_state(a, b):
    """Engines a and b hold the same bars, rings and counters."""
    assert a.n_bars == b.n_bars and a.reason_counts.tolist() == b.reason_counts.tolist()
    assert np.array_equal(a._prices.window(a._support), b._prices.window(b._support))
    rows = a.cfg.calib_len + a.cfg.shift_len + 1
    assert np.array_equal(a._coeffs.window(rows), b._coeffs.window(rows), equal_nan=True)
    assert [(bar, reason) for bar, _, _, reason in a._densities] == [(bar, reason) for bar, _, _, reason in b._densities]
    for (bar, da, i, reason), (_, db, j, _) in zip(a._densities, b._densities):
        assert (da is None) == (db is None), bar
        assert da is None or reason or (da.p_s[i] == db.p_s[j] and np.array_equal(da.pdf[i], db.pdf[j])), bar


# windows per run() fit stack, and per density chunk at the default 1024-node grid
FIT = signals._FIT_WINDOWS
CHUNK = signals._CHUNK_CELLS // 1024


# displacements below a density chunk, so a bar's displaced density can be in
# its own chunk, and above it
shift_lens = st.integers(1, CHUNK - 1) | st.integers(CHUNK + 1, 2 * CHUNK)


@st.composite
def batch_cases(draw):
    """A small engine config and a series: the edge lengths (shorter than
    the wavelet support, min_history - 1, min_history) or one whose windows
    straddle several run() fit stacks and density chunks, with a shift_len
    below or above the chunk, sometimes with a flat stretch that leaves
    windows rank-deficient or of zero variance."""
    cfg = SignalConfig(
        calib_len=32,
        shift_len=draw(shift_lens),
        wavelet=draw(st.sampled_from(["haar", "db2"])),
        degree=draw(st.integers(1, 3)),
        density_mode=draw(st.sampled_from(["plain", "convolution"])),
    )
    eng = SignalEngine(cfg)
    edges = [2, eng.filter.support_at(cfg.levels) - 1, eng.min_history - 1, eng.min_history]
    n = draw(st.sampled_from(edges) | st.integers(eng.min_history + 1, eng.min_history + 3 * FIT))
    prices = make_ou_price_series(n, seed=draw(st.integers(0, 10_000)), rate=0.05, vol=0.02).prices.copy()
    if draw(st.booleans()):
        lo = draw(st.integers(0, n - 1))
        prices[lo : lo + draw(st.integers(1, 80))] = prices[lo]
    return cfg, series_from_prices(prices)


def two_slope_case():
    """A convolution engine on log prices that trend at 0.01 a bar, then go
    flat: a window on either side of the kink has a narrow density, and the
    two do not overlap (``grid_mismatch``)."""
    rng = np.random.default_rng(1)
    logp = np.cumsum(np.where(np.arange(260) < 130, 0.01, 0.0) + 1e-3 * rng.standard_normal(260))
    return SignalConfig(calib_len=32, shift_len=40, density_mode="convolution"), series_from_prices(100 * np.exp(logp))


def flat_stretch_case():
    """An engine on a series with 80 equal prices: windows with zero variance
    next to windows with edge mass, so some bars have two failed windows."""
    prices = make_ou_price_series(220, seed=0, rate=0.05, vol=0.02).prices.copy()
    prices[60:140] = prices[60]
    return SignalConfig(calib_len=32, shift_len=4), series_from_prices(prices)


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
        eng = SignalEngine(**REFERENCE_ENGINE)
        trace = eng.run(series)
        kinds = [s.kind for s in trace.signals]
        assert kinds.count(Action.BUY) >= 1
        assert kinds.count(Action.SELL) >= 1
        fraction = (kinds.count(Action.BUY) + kinds.count(Action.SELL)) / len(kinds)
        assert 0 < fraction < 0.2
        # why each of the 4914 decided bars is what it is: held bars lack a
        # density through edge mass or fail the gate; no window is held as
        # ill_conditioned, so a change that holds one fails here
        counts = dict(zip(REASONS, eng.reason_counts.tolist()))
        assert counts == {**dict.fromkeys(REASONS, 0), "pass": 1186, "ks_reject": 1642, "edge_mass": 2086}
        assert eng.degenerate_bars == 2086 and sum(counts.values()) == len(trace.signals)

    def test_causality_prefix_replay(self):
        series = make_ou_price_series(400, seed=9, rate=0.05, vol=0.02)
        full = small_engine().run(series)
        prefix = small_engine().run(series_from_prices(series.prices[:300]))
        overlap = 300 - full.start
        assert full.signals[:overlap] == prefix.signals

    @given(rate=st.floats(0.002, 0.2), vol=st.floats(0.002, 0.05), seed=st.integers(0, 10_000),
           shift_len=shift_lens, n=st.integers(1, 3 * FIT), cut=st.integers(2, 8 + 32 + 2 * CHUNK - 1 + 3 * FIT))
    @settings(max_examples=20, deadline=None)
    def test_causality_prefix_property(self, rate, vol, seed, shift_len, n, cut):
        # a prefix's decisions are the full run's, bit for bit, wherever the
        # last run() fit stack and density chunk end
        cfg = SignalConfig(calib_len=32, shift_len=shift_len)
        n += SignalEngine(cfg).min_history  # up to min_history + 3 fit stacks
        series = make_ou_price_series(n, seed=seed, rate=rate, vol=vol)
        full = SignalEngine(cfg).run(series)
        prefix = SignalEngine(cfg).run(series_from_prices(series.prices[:min(cut, n)]))
        assert prefix.start == min(full.start, min(cut, n))
        assert full.signals[: len(prefix.signals)] == prefix.signals

    def test_price_scale_invariance_dyadic(self):
        series = make_ou_price_series(360, seed=14, rate=0.05, vol=0.02)
        a = small_engine().run(series)
        b = small_engine().run(series_from_prices(series.prices * 4.0))
        assert [s.kind for s in a.signals] == [s.kind for s in b.signals]
        # p_s and the gate are scale-free; dy1 itself scales with price
        assert [s.p_s for s in a.signals] == [s.p_s for s in b.signals]
        assert [s.gated for s in a.signals] == [s.gated for s in b.signals]
        assert [s.dy1 * 4.0 for s in a.signals] == [s.dy1 for s in b.signals]

    def test_price_scale_invariance_general(self):
        series = make_ou_price_series(360, seed=15, rate=0.05, vol=0.02)
        a = small_engine().run(series)
        b = small_engine().run(series_from_prices(series.prices * 3.0))
        assert [s.kind for s in a.signals] == [s.kind for s in b.signals]

    def test_convolution_mode_runs(self):
        series = make_ou_price_series(300, seed=2, rate=0.05, vol=0.02)
        trace = small_engine(density_mode="convolution").run(series)
        assert len(trace.signals) > 0
        for s in trace.signals:
            assert 0.0 <= s.p_s <= 1.0

    def test_each_window_fitted_once(self, monkeypatch):
        # run() fits one window per decided bar plus the first shift_len
        # displaced windows, and every displaced density is the exact fit of
        # its own window
        series = make_ou_price_series(600, seed=2, rate=0.05, vol=0.02)
        eng = small_engine()
        coeffs = transform(series, make_wavelet("haar"), 2)
        decided = range(eng.min_history - 1, 600)
        densities = {t: window_density(eng.cfg, coeffs, t)[0] for t in range(decided[0] - 8, 600)}
        tested = [t for t in decided if densities[t] is not None and densities[t - 8] is not None]
        fitted, compared = [0], []

        def counting_fit(windows, *args, **kw):
            fitted[0] += len(windows)
            return fit_windows(windows, *args, **kw)

        def recording_ks(pts, grid_now, cdf_now, grid_shifted, cdf_shifted):
            # the gate of the next tested bar reads its displaced ring entry's grid row
            _, dens, i, _ = eng._densities[(tested[len(compared)] - 8) % len(eng._densities)]
            compared.append((dens.p_s[i], dens.pdf[i]))
            assert np.array_equal(grid_shifted, dens.grid[i]) and np.array_equal(cdf_shifted, dens.cdf[i])
            return ks_statistic(pts, grid_now, cdf_now, grid_shifted, cdf_shifted)

        monkeypatch.setattr(signals, "fit_windows", counting_fit)
        monkeypatch.setattr(signals, "ks_statistic", recording_ks)
        trace = eng.run(series)
        assert fitted[0] == len(trace.signals) + 8
        assert range(trace.start, trace.start + len(trace.signals)) == decided

        assert len(compared) == len(tested)
        for t, (p_s, pdf) in zip(tested, compared):
            assert p_s == densities[t - 8].p_s[0] and np.array_equal(pdf, densities[t - 8].pdf[0]), t

    def test_step_fits_only_new_windows(self, monkeypatch):
        # after an extend() warm-up, each of the first shift_len steps fits the
        # displaced window, which no step decided, and then its own; every
        # later step finds the displaced density in the ring
        cfg = SignalConfig(calib_len=32, shift_len=8, n_grid=256)
        prices = make_ou_price_series(120, seed=6, rate=0.05, vol=0.02).prices
        stacks = []

        def counting_fit(windows, *args, **kw):
            stacks.append(len(windows))
            return fit_windows(windows, *args, **kw)

        monkeypatch.setattr(signals, "fit_windows", counting_fit)
        eng = SignalEngine(cfg)
        warm = eng.min_history - 1
        for price in prices[:warm]:
            eng.extend(price)
        assert stacks == []
        for k, price in enumerate(prices[warm:]):
            stacks.clear()
            eng.step(price)
            assert stacks == ([1, 1] if k < cfg.shift_len else [1]), k

        # after run(), the ring holds every displaced density a step needs
        eng = SignalEngine(cfg)
        eng.run(series_from_prices(prices[:100]))
        for price in prices[100:]:
            stacks.clear()
            eng.step(price)
            assert stacks == [1]

    @given(case=batch_cases())
    @example(case=two_slope_case())
    @example(case=flat_stretch_case())
    @settings(max_examples=30, deadline=None)
    def test_run_equals_stream(self, case):
        cfg, series = case
        expected, counts = per_bar_reference(cfg, series.prices)
        batch, live = SignalEngine(cfg), SignalEngine(cfg)
        for eng, trace in ((batch, batch.run(series)), (live, stream(live, series.prices))):
            assert trace.start == expected.start
            assert trace.signals == expected.signals  # kind, gated, p_s and dy1, exactly
            assert_counts(eng, trace, counts)
        assert_same_state(batch, live)

    @pytest.mark.parametrize("density_mode", ["plain", "convolution"])
    def test_run_then_step_continues_stream(self, density_mode):
        cfg = SignalConfig(calib_len=32, shift_len=8, density_mode=density_mode)
        series = make_ou_price_series(300, seed=5, rate=0.05, vol=0.02)
        expected, counts = per_bar_reference(cfg, series.prices)
        live = SignalEngine(cfg)
        assert stream(live, series.prices) == expected
        assert_counts(live, expected, counts)

        eng = SignalEngine(cfg)
        head = eng.run(series_from_prices(series.prices[:150]))
        tail = [eng.step(price) for price in series.prices[150:]]
        assert head.start == expected.start
        assert head.signals + tuple(tail) == expected.signals
        assert_counts(eng, expected, counts)
        assert_same_state(eng, live)

        # a second run() goes on from bar 150, so its chunks start elsewhere
        # and the displaced densities come from the ring
        eng = SignalEngine(cfg)
        eng.run(series_from_prices(series.prices[:150]))
        rest = eng.run(series)
        assert rest.start == 150
        assert rest.signals == expected.signals[150 - expected.start :]
        assert_same_state(eng, live)

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
        valid_from = make_wavelet(wavelet).support_at(2) - 1
        assert np.array_equal(np.array(rows)[valid_from:], co[valid_from:])

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

    def test_trace_columns_build_step_signals(self):
        # run()'s trace keeps codes, p_s and dy1 as read-only columns; its
        # signals, built on first read, are the Signals step() returns
        cfg = SignalConfig(calib_len=32, shift_len=8, density_mode="convolution")
        series = make_ou_price_series(300, seed=5, rate=0.05, vol=0.02)
        trace = SignalEngine(cfg).run(series)
        assert trace._signals is None
        stepped = stream(SignalEngine(cfg), series.prices).signals
        assert len(trace.signals) == len(stepped) > 0
        for s, want in zip(trace.signals, stepped):
            assert (s.kind, s.p_s, s.dy1, s.gated) == (want.kind, want.p_s, want.dy1, want.gated)
        assert trace.codes.tolist() == [signals.CODE_GATED if s.gated else
                                        [Action.HOLD, Action.BUY, Action.SELL].index(s.kind) for s in stepped]
        assert trace.p_s.tolist() == [s.p_s for s in stepped] and trace.dy1.tolist() == [s.dy1 for s in stepped]
        for col in (trace.codes, trace.p_s, trace.dy1):
            assert not col.flags.writeable
            with pytest.raises(ValueError):
                col[0] = 0

    def test_trace_equality_reads_columns(self):
        # == and repr of run() traces read their columns and build no Signal;
        # one differing p_s or another start makes traces unequal
        cfg = SignalConfig(calib_len=32, shift_len=8)
        series = make_ou_price_series(300, seed=5, rate=0.05, vol=0.02)
        a, b = SignalEngine(cfg).run(series), SignalEngine(cfg).run(series)
        assert a == b and repr(a) == repr(b)
        assert a._signals is None and b._signals is None
        p_s = a.p_s.copy()
        p_s[len(p_s) // 2] = np.nextafter(p_s[len(p_s) // 2], 1.0)
        assert a != SignalTrace(a.start, codes=a.codes, p_s=p_s, dy1=a.dy1)
        assert a != SignalTrace(a.start + 1, codes=a.codes, p_s=a.p_s, dy1=a.dy1)

    def test_codes_trace_equals_its_nan_signals(self):
        # a codes-only trace has NaN p_s and dy1, and NaN equals NaN whichever
        # NaN objects the trace was built from
        codes = [signals.CODE_BUY, signals.CODE_GATED, signals.CODE_HOLD, signals.CODE_SELL]
        trace, nan = SignalTrace(4, codes=codes), np.full(4, np.nan)
        fresh = SignalTrace(4, [Signal(s.kind, float("nan"), float("nan"), s.gated) for s in trace.signals])
        assert trace == SignalTrace(4, trace.signals) == fresh == SignalTrace(4, codes=codes, p_s=nan, dy1=nan)
        assert repr(trace) == repr(fresh)

    def test_convolution_gate_reads_density_rows(self, monkeypatch):
        # run() and step() price the convolution gate on the two density rows,
        # never through a one-row DensityStack
        def no_row(self, i):
            raise AssertionError("a density row was wrapped in a stack")

        monkeypatch.setattr(DensityStack, "row", no_row, raising=False)
        cfg = SignalConfig(calib_len=32, shift_len=8, density_mode="convolution")
        series = make_ou_price_series(300, seed=5, rate=0.05, vol=0.02)
        ran, stepped = SignalEngine(cfg), SignalEngine(cfg)
        trace = ran.run(series)
        assert trace == stream(stepped, series.prices)
        assert ran.reason_counts.tolist() == stepped.reason_counts.tolist()
        assert ran.reason_counts[PASS] + ran.reason_counts[KS_REJECT] > 0

    @pytest.mark.parametrize("kw", [dict(p_s=[0.5]), dict(codes=[0], p_s=[0.5]), dict(codes=[0], dy1=[0.1]),
                                    dict(codes=[0, 1], p_s=[0.5], dy1=[0.1, 0.2])])
    def test_trace_columns_need_codes_and_each_other(self, kw):
        with pytest.raises(ValueError):
            SignalTrace(0, **kw)

    @pytest.mark.parametrize("trace", [
        SignalTrace(3, [Signal(Action.BUY, 0.97, -0.25), Signal(Action.HOLD, 0.5, 1e-300, gated=True),
                        Signal(Action.SELL, 0.0, 3.0), Signal(Action.HOLD, 1.0, -0.0)]),
        SignalTrace(0, codes=[0, 1, 2, 3]),
        SignalTrace(7),
    ])
    def test_write_signals_bytes(self, tmp_path, trace):
        # the columns' one text is the csv.writer loop over the signals, byte for byte
        write_signals(trace, tmp_path / "sig.csv")
        assert (tmp_path / "sig.csv").read_bytes() == csv_signals(trace)

    def test_write_signals(self, tmp_path):
        series = series_from_prices(np.full(60, 12.0))
        trace = small_engine().run(series)
        path = tmp_path / "sig.csv"
        write_signals(trace, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "t,kind,p_s,dy1,gated"
        assert len(lines) == len(trace.signals) + 1
        series = make_ou_price_series(400, seed=9, rate=0.05, vol=0.02)
        trace = small_engine(density_mode="convolution").run(series)
        write_signals(trace, path)
        assert path.read_bytes() == csv_signals(trace)


SPLITS = sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2


@pytest.fixture
def forks(monkeypatch):
    """The pids of the processes that called ``os.fork`` (a child's own forks are not seen)."""
    seen, fork = [], os.fork

    def counting_fork():
        seen.append(os.getpid())
        return fork()

    monkeypatch.setattr(os, "fork", counting_fork)
    return seen


def assert_no_child():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.mark.skipif(not SPLITS, reason="run() forks only on Linux with 2 or more CPUs")
class TestSplitRun:
    """``run()`` decides the first half of a long series in one forked child."""

    @pytest.mark.parametrize("n, seed, cfg", [
        (5000, 1, SignalConfig(shift_len=16)),
        (4000, 1001, SignalConfig(shift_len=64, density_mode="convolution")),
    ])
    def test_split_run_equals_step(self, forks, n, seed, cfg):
        prices = make_ou_price_series(n + 40, seed=seed, **REFERENCE_SYNTH).prices
        eng, live = SignalEngine(cfg), SignalEngine(cfg)
        fds = os.listdir("/proc/self/fd")
        trace = eng.run(series_from_prices(prices[:n]))
        assert forks == [os.getpid()]
        assert_no_child()
        assert os.listdir("/proc/self/fd") == fds
        stepped = stream(live, prices[:n])
        assert trace.start == stepped.start
        for col in ("codes", "p_s", "dy1"):
            assert np.array_equal(getattr(trace, col), getattr(stepped, col)), col
        assert eng.reason_counts.tolist() == live.reason_counts.tolist()
        assert [eng.step(price) for price in prices[n:]] == [live.step(price) for price in prices[n:]]
        assert_same_state(eng, live)

    @pytest.mark.parametrize("where", [("head",), ("tail",), ("head", "tail")])
    def test_error_surfaces_head_first(self, forks, monkeypatch, where):
        # a ValueError at one bar of either half surfaces from run() with its
        # message, the head bar's when both raise, and leaves no child behind
        eng = small_engine()
        series = make_ou_price_series(2400, seed=3, rate=0.05, vol=0.02)
        trace = small_engine().run(series)
        # the last head bar and the first tail bar whose trade rule runs (a
        # degenerate bar's p_s is 0.5 exactly, and it skips the rule)
        ruled, half = np.flatnonzero(trace.p_s != 0.5), len(trace.codes) // 2
        bars = {"head": ruled[ruled < half][-1], "tail": ruled[ruled >= half][0]}
        raise_at = {trace.dy1[bars[name]]: name for name in where}
        outcome = signals._outcome

        def failing_outcome(dy1, *args):
            if dy1 in raise_at:
                raise ValueError(f"injected at the {raise_at[dy1]} bar")
            return outcome(dy1, *args)

        forks.clear()
        monkeypatch.setattr(signals, "_outcome", failing_outcome)
        with pytest.raises(ValueError, match=f"injected at the {where[0]} bar"):
            eng.run(series)
        assert forks == [os.getpid()]
        assert_no_child()

    @pytest.mark.parametrize("status", [0, 3])
    def test_failed_child_is_decided_here(self, forks, monkeypatch, status):
        # a child that exits before handing its half back, with any status,
        # leaves that half to this process, which decides it on the ring
        # snapshot: the trace and counts are a one-process run's
        series = make_ou_price_series(2400, seed=3, rate=0.05, vol=0.02)
        with monkeypatch.context() as m:
            m.setattr(signals, "_can_fork", lambda: False)
            one = small_engine()
            want = one.run(series)
        live = small_engine()
        stream(live, series.prices)
        decide = SignalEngine._decide

        def dying_child(self, *args):
            if forks and os.getpid() != forks[0]:
                os._exit(status)
            return decide(self, *args)

        monkeypatch.setattr(SignalEngine, "_decide", dying_child)
        eng = small_engine()
        trace = eng.run(series)
        assert forks == [os.getpid()]
        assert_no_child()
        assert trace.start == want.start
        for col in ("codes", "p_s", "dy1"):
            assert np.array_equal(getattr(trace, col), getattr(want, col)), col
        assert eng.reason_counts.tolist() == one.reason_counts.tolist()
        assert_same_state(eng, live)

    def test_interrupt_kills_child(self, forks, monkeypatch):
        # an interrupt in this process's half stops the child, which would
        # take a minute, instead of waiting for it
        series = make_ou_price_series(2400, seed=3, rate=0.05, vol=0.02)

        def interrupted(self, rows, base, first, ring):
            if os.getpid() == forks[0]:
                raise KeyboardInterrupt
            time.sleep(60)

        monkeypatch.setattr(SignalEngine, "_decide", interrupted)
        t0 = time.monotonic()
        with pytest.raises(KeyboardInterrupt):
            small_engine().run(series)
        assert time.monotonic() - t0 < 30
        assert len(forks) == 1
        assert_no_child()

    def test_sigchld_ignored(self, forks):
        # with SIGCHLD ignored the kernel reaps the child, and waitpid finds none
        series = make_ou_price_series(2400, seed=3, rate=0.05, vol=0.02)
        want = small_engine()
        want_trace = stream(want, series.prices)
        previous = signal.signal(signal.SIGCHLD, signal.SIG_IGN)
        try:
            eng = small_engine()
            trace = eng.run(series)
        finally:
            signal.signal(signal.SIGCHLD, previous)
        assert len(forks) == 1
        assert trace.signals == want_trace.signals
        assert_same_state(eng, want)

    def test_failed_fork_keeps_one_process(self, monkeypatch):
        series = make_ou_price_series(2400, seed=3, rate=0.05, vol=0.02)
        want = small_engine().run(series)

        def no_fork():
            raise BlockingIOError(errno.EAGAIN, "Resource temporarily unavailable")

        monkeypatch.setattr(os, "fork", no_fork)
        fds = os.listdir("/proc/self/fd")
        assert small_engine().run(series) == want
        assert os.listdir("/proc/self/fd") == fds

    def test_fork_warning_is_not_raised(self, forks, monkeypatch):
        # Python 3.12+ warns on a fork beside other OS threads (OpenBLAS's
        # pool), and the test run turns DeprecationWarnings into errors
        fork = os.fork

        def warning_fork():
            pid = fork()
            if pid:
                warnings.warn("This process is multi-threaded, use of fork() may lead to deadlocks in the child.",
                              DeprecationWarning, stacklevel=2)
            return pid

        monkeypatch.setattr(os, "fork", warning_fork)
        series = make_ou_price_series(2400, seed=3, rate=0.05, vol=0.02)
        assert len(small_engine().run(series).codes) == 2400 - small_engine().min_history + 1
        assert len(forks) == 1
        assert_no_child()

    def test_threaded_caller_keeps_one_process(self, forks):
        series = make_ou_price_series(2400, seed=3, rate=0.05, vol=0.02)
        release = threading.Event()
        other = threading.Thread(target=release.wait)
        other.start()
        try:
            threaded = small_engine().run(series)
        finally:
            release.set()
            other.join(timeout=10)
        assert not other.is_alive()
        assert forks == []
        assert threaded == small_engine().run(series)
        assert len(forks) == 1


def csv_signals(trace) -> bytes:
    """The signal log as a csv.writer loop over ``trace.signals`` writes it."""
    out = io.StringIO(newline="")
    w = csv.writer(out)
    w.writerow(["t", "kind", "p_s", "dy1", "gated"])
    for i, s in enumerate(trace.signals):
        w.writerow([trace.start + i, s.kind.value, repr(float(s.p_s)), repr(float(s.dy1)), int(s.gated)])
    return out.getvalue().encode()
