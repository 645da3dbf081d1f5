import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsw.backtest import run_backtest
from nsw.baselines import (
    KINDS,
    IndicatorConfig,
    IndicatorStrategy,
    _band_stats,
    channel_extremes,
    default_grid,
    ema,
    macd_lines,
    rsi_values,
    tune_baseline,
)
from nsw.errors import EmptyGrid, UsageError
from nsw.signals import Action, Signal, SignalTrace
from nsw.timeseries import make_ou_price_series

from conftest import series_from_prices

FIXTURE_30 = np.array([
    100.0, 100.193, 100.296, 100.259, 100.1, 99.895, 99.739, 99.705, 99.811,
    100.005, 100.197, 100.296, 100.256, 100.096, 99.89, 99.736, 99.706,
    99.815, 100.01, 100.201, 100.297, 100.254, 100.091, 99.885, 97.0, 99.8,
    99.819, 100.015, 100.205, 100.298,
])


# -- independent reference implementations (plain loops, no shared code) ------

def ref_ema(xs, span):
    alpha = 2.0 / (span + 1.0)
    out = [xs[0]]
    for x in xs[1:]:
        out.append(alpha * x + (1 - alpha) * out[-1])
    return out


def ref_rsi(xs, n):
    gains = [max(xs[i] - xs[i - 1], 0.0) for i in range(1, len(xs))]
    losses = [max(xs[i - 1] - xs[i], 0.0) for i in range(1, len(xs))]
    ag, al = sum(gains[:n]) / n, sum(losses[:n]) / n
    out = {n: _ref_rsi_value(ag, al)}
    for t in range(n + 1, len(xs)):
        ag = (ag * (n - 1) + gains[t - 1]) / n
        al = (al * (n - 1) + losses[t - 1]) / n
        out[t] = _ref_rsi_value(ag, al)
    return out


def _ref_rsi_value(ag, al):
    if ag == 0.0 and al == 0.0:
        return 50.0
    if al == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + ag / al)


def loop_bollinger(prices, lookback, width):
    """The per-bar band loop _band_stats replaced: (mean, lower, upper)."""
    p = np.asarray(prices, dtype=np.float64)
    mean, lower, upper = (np.full(len(p), np.nan) for _ in range(3))
    for t in range(lookback - 1, len(p)):
        w = p[t - lookback + 1 : t + 1]
        mu, sd = w.mean(), w.std()
        mean[t], lower[t], upper[t] = mu, mu - width * sd, mu + width * sd
    return mean, lower, upper


def bb_bands(prices, lookback, width):
    """(mean, lower, upper) as the bb rule of _signal_array forms them from _band_stats."""
    mean, sd = _band_stats(prices, lookback)
    return mean, mean - width * sd, mean + width * sd


def signal_at(cfg, series, t):
    """The indicator's action at bar t, from the bars up to t alone."""
    return IndicatorStrategy(cfg).run(series_from_prices(series.prices[:t + 1])).signals[-1].kind


def loop_channel_extremes(prices, lookback):
    """The per-bar channel loop channel_extremes replaced."""
    p = np.asarray(prices, dtype=np.float64)
    hi, lo = np.full(len(p), np.nan), np.full(len(p), np.nan)
    for t in range(lookback, len(p)):
        hi[t], lo[t] = p[t - lookback : t].max(), p[t - lookback : t].min()
    return hi, lo


def loop_ema(values, span):
    """The indexed numpy-scalar EMA loop ema replaced."""
    x = np.asarray(values, dtype=np.float64)
    alpha = 2.0 / (span + 1.0)
    out = np.empty_like(x)
    out[0] = x[0]
    for i in range(1, len(x)):
        out[i] = alpha * x[i] + (1.0 - alpha) * out[i - 1]
    return out


def loop_rsi_values(prices, lookback):
    """The indexed numpy-scalar Wilder RSI loop rsi_values replaced."""
    p = np.asarray(prices, dtype=np.float64)
    n = len(p)
    out = np.full(n, np.nan)
    if n <= lookback:
        return out
    delta = np.diff(p)
    gain = np.clip(delta, 0.0, None)
    loss = np.clip(-delta, 0.0, None)
    avg_gain = gain[:lookback].mean()
    avg_loss = loss[:lookback].mean()
    out[lookback] = _ref_rsi_value(avg_gain, avg_loss)
    for t in range(lookback + 1, n):
        avg_gain = (avg_gain * (lookback - 1) + gain[t - 1]) / lookback
        avg_loss = (avg_loss * (lookback - 1) + loss[t - 1]) / lookback
        out[t] = _ref_rsi_value(avg_gain, avg_loss)
    return out


def loop_actions(cfg, prices):
    """The per-bar signal loop the indicator strategies replaced: one Action per bar."""
    p = np.asarray(prices, dtype=np.float64)
    n = len(p)
    out = [Action.HOLD] * n
    if cfg.kind == "pc":
        (lookback,) = cfg.params
        hi, lo = loop_channel_extremes(p, lookback)
        for t in range(lookback, n):
            if p[t] > hi[t]:
                out[t] = Action.BUY
            elif p[t] < lo[t]:
                out[t] = Action.SELL
    elif cfg.kind == "bb":
        lookback, width = cfg.params
        _, lower, upper = loop_bollinger(p, lookback, width)
        for t in range(lookback - 1, n):
            if p[t] < lower[t]:
                out[t] = Action.BUY
            elif p[t] > upper[t]:
                out[t] = Action.SELL
    elif cfg.kind == "macd":
        fast, slow, signal = cfg.params
        macd, sig = macd_lines(p, fast, slow, signal)
        for t in range(slow + signal, n):
            if macd[t - 1] <= sig[t - 1] and macd[t] > sig[t]:
                out[t] = Action.BUY
            elif macd[t - 1] >= sig[t - 1] and macd[t] < sig[t]:
                out[t] = Action.SELL
    else:
        lookback, lower_thr, upper_thr = cfg.params
        rsi = rsi_values(p, lookback)
        for t in range(lookback + 1, n):
            if rsi[t - 1] <= lower_thr and rsi[t] > lower_thr:
                out[t] = Action.BUY
            elif rsi[t - 1] >= upper_thr and rsi[t] < upper_thr:
                out[t] = Action.SELL
    return out


@st.composite
def price_paths(draw, max_bars=160):
    """OU or random-walk log prices, sometimes with a flat stretch, often
    shorter than the indicator windows."""
    n = draw(st.integers(2, max_bars))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rate = draw(st.sampled_from([0.0, 0.01, 0.2]))  # 0: random walk
    vol = draw(st.sampled_from([1e-4, 0.01, 0.05]))
    x = np.zeros(n)
    for t in range(1, n):
        x[t] = (1.0 - rate) * x[t - 1] + vol * rng.standard_normal()
    prices = 100.0 * np.exp(x)
    if draw(st.booleans()):
        a = draw(st.integers(0, n - 1))
        b = draw(st.integers(a, n))
        prices[a:b] = prices[a]
    return prices


@st.composite
def indicator_configs(draw):
    kind = draw(st.sampled_from(KINDS))
    if kind == "pc":
        params = (draw(st.integers(2, 45)),)
    elif kind == "bb":
        params = (draw(st.integers(2, 45)), draw(st.sampled_from([0.5, 1.0, 1.5, 2.0, 2.5])))
    elif kind == "macd":
        fast = draw(st.integers(2, 12))
        params = (fast, draw(st.integers(fast + 1, 36)), draw(st.integers(2, 10)))
    else:
        upper = draw(st.sampled_from([50.0, 60.0, 70.0, 80.0]))  # 50: flat prices sit on it
        lower = draw(st.sampled_from([v for v in (20.0, 30.0, 40.0, 50.0) if v < upper]))
        params = (draw(st.integers(2, 25)), lower, upper)
    return IndicatorConfig(kind, params)


@st.composite
def shared_lookback_configs(draw):
    """bb and rsi configs whose lookbacks repeat across a grid, or any config."""
    kind = draw(st.sampled_from(KINDS))
    lookback = draw(st.sampled_from([3, 7, 14]))
    if kind == "bb":
        return IndicatorConfig("bb", (lookback, draw(st.sampled_from([0.5, 1.5, 2.0, 2.5]))))
    if kind == "rsi":
        lower, upper = draw(st.sampled_from([(30.0, 70.0), (20.0, 80.0), (40.0, 50.0)]))
        return IndicatorConfig("rsi", (lookback, lower, upper))
    return draw(indicator_configs())


def assert_tuning_equals_per_config(grid, series, cost_bps):
    """tune_baseline, which shares each lookback's band or RSI series across
    the grid, picks the config and returns the report that backtesting every
    config on its own does, with the same tie-break."""
    reports = {cfg: run_backtest(IndicatorStrategy(cfg), series, cost_bps=cost_bps) for cfg in grid}
    best_z = max(r.final_z for r in reports.values())
    want = min(cfg for cfg, r in reports.items() if r.final_z == best_z)
    best, report = tune_baseline(grid, series, cost_bps=cost_bps)
    assert best == want
    assert np.array_equal(report.equity, reports[want].equity)
    assert report.trades == reports[want].trades
    assert report.summary() == reports[want].summary()


class TestAgainstLoops:
    @given(prices=price_paths(), lookback=st.integers(2, 45), width=st.floats(0.1, 3.0))
    @settings(max_examples=150, deadline=None)
    def test_bands_equal_loops(self, prices, lookback, width):
        for got, want in zip(bb_bands(prices, lookback, width), loop_bollinger(prices, lookback, width)):
            assert np.array_equal(got, want, equal_nan=True)
        for got, want in zip(channel_extremes(prices, lookback), loop_channel_extremes(prices, lookback)):
            assert np.array_equal(got, want, equal_nan=True)

    @given(prices=price_paths(), span=st.integers(2, 40), lookback=st.integers(2, 45))
    @settings(max_examples=150, deadline=None)
    def test_recurrences_equal_loops(self, prices, span, lookback):
        assert np.array_equal(ema(prices, span), loop_ema(prices, span))
        macd = ema(prices, 5) - ema(prices, 13)  # signed input, as macd_lines feeds it
        assert np.array_equal(ema(macd, span), loop_ema(macd, span))
        assert np.array_equal(rsi_values(prices, lookback), loop_rsi_values(prices, lookback), equal_nan=True)

    @given(prices=price_paths(), cfg=indicator_configs())
    @settings(max_examples=200, deadline=None)
    def test_signals_equal_loops(self, prices, cfg):
        trace = IndicatorStrategy(cfg).run(series_from_prices(prices))
        assert trace.start == min(cfg.warmup, len(prices))
        actions = loop_actions(cfg, prices)[trace.start :]
        assert trace.codes.dtype == np.uint8
        assert trace.codes.tolist() == [{Action.HOLD: 0, Action.BUY: 1, Action.SELL: 2}[a] for a in actions]
        # the list the strategy built per bar before it kept codes
        assert trace == SignalTrace(trace.start, [Signal(a, math.nan, math.nan) for a in actions])
        assert [(s.kind, s.gated) for s in trace.signals] == [(a, False) for a in actions]

    @pytest.mark.parametrize("cfg, step, action", [
        (IndicatorConfig("macd", (5, 10, 4)), 0.01, Action.BUY),
        (IndicatorConfig("macd", (5, 10, 4)), -0.01, Action.SELL),
        (IndicatorConfig("rsi", (5, 50.0, 70.0)), 0.01, Action.BUY),
        (IndicatorConfig("rsi", (5, 30.0, 50.0)), -0.01, Action.SELL),
    ])
    def test_crossing_from_a_tie(self, cfg, step, action):
        # flat prices hold MACD on its signal line (both 0) and RSI at 50; the
        # first move then crosses, since only the new side is strict
        prices = 100.0 * np.exp(np.concatenate([np.zeros(40), step * np.arange(1, 11)]))
        trace = IndicatorStrategy(cfg).run(series_from_prices(prices))
        kinds = [s.kind for s in trace.signals]
        assert kinds == loop_actions(cfg, prices)[trace.start :]
        assert kinds[40 - trace.start] is action

    @given(prices=price_paths(), cfg=indicator_configs(), cut=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_causality_prefix_property(self, prices, cfg, cut):
        k = max(2, round(cut * len(prices)))
        full = IndicatorStrategy(cfg).run(series_from_prices(prices))
        pre = IndicatorStrategy(cfg).run(series_from_prices(prices[:k]))
        assert np.array_equal(full.codes[: len(pre.codes)], pre.codes)
        if cfg.kind == "pc" and k > cfg.params[0]:
            # the channel at bar k - 1 ignores that bar: an outlier there breaks out
            spiked = np.append(prices[: k - 1], 1e6)
            hi, lo = channel_extremes(spiked, cfg.params[0])
            assert (hi[-1], lo[-1]) == tuple(v[k - 1] for v in channel_extremes(prices, cfg.params[0]))
            assert IndicatorStrategy(cfg).run(series_from_prices(spiked)).signals[-1].kind is Action.BUY


class TestIndicatorValues:
    def test_rsi_matches_reference(self):
        got = rsi_values(FIXTURE_30, 14)
        ref = ref_rsi(FIXTURE_30, 14)
        for t, v in ref.items():
            assert got[t] == pytest.approx(v, abs=1e-9)

    def test_macd_matches_reference(self):
        macd, sig = macd_lines(FIXTURE_30, 5, 10, 4)
        ref_fast = ref_ema(FIXTURE_30, 5)
        ref_slow = ref_ema(FIXTURE_30, 10)
        ref_macd = [f - s for f, s in zip(ref_fast, ref_slow)]
        ref_sig = ref_ema(ref_macd, 4)
        assert np.allclose(macd, ref_macd, atol=1e-9)
        assert np.allclose(sig, ref_sig, atol=1e-9)

    def test_bollinger_matches_reference(self):
        mean, lower, upper = bb_bands(FIXTURE_30, 20, 2.0)
        for t in range(19, 30):
            w = FIXTURE_30[t - 19 : t + 1]
            assert mean[t] == pytest.approx(w.mean(), abs=1e-9)
            assert lower[t] == pytest.approx(w.mean() - 2.0 * w.std(), abs=1e-9)
            assert upper[t] == pytest.approx(w.mean() + 2.0 * w.std(), abs=1e-9)

    def test_channel_matches_reference(self):
        hi, lo = channel_extremes(FIXTURE_30, 10)
        for t in range(10, 30):
            assert hi[t] == max(FIXTURE_30[t - 10 : t])
            assert lo[t] == min(FIXTURE_30[t - 10 : t])

    def test_bb_bands_symmetric(self):
        mean, lower, upper = bb_bands(FIXTURE_30, 10, 1.7)
        m = np.isfinite(mean)
        assert np.abs((upper[m] - mean[m]) - (mean[m] - lower[m])).max() < 1e-12

    def test_rsi_bounds_random_walk(self, rng):
        prices = 100 * np.exp(np.cumsum(rng.normal(0, 0.01, size=500)))
        r = rsi_values(prices, 14)
        valid = r[np.isfinite(r)]
        assert valid.min() >= 0.0 and valid.max() <= 100.0

    def test_rsi_all_gains_is_100(self):
        prices = np.linspace(100, 130, 40)
        r = rsi_values(prices, 14)
        assert np.all(r[14:] == 100.0)


class TestIndicatorSignals:
    def test_rsi_never_buys_on_strict_uptrend(self):
        series = series_from_prices(np.linspace(100, 130, 40))
        cfg = IndicatorConfig("rsi", (14, 30.0, 70.0))
        sigs = [signal_at(cfg, series, t) for t in range(cfg.warmup, 40)]
        assert Action.BUY not in sigs

    def test_constant_prices_macd_holds(self):
        series = series_from_prices(np.full(60, 50.0))
        cfg = IndicatorConfig("macd", (12, 26, 9))
        macd, sig = macd_lines(series.prices, 12, 26, 9)
        assert np.allclose(macd, 0.0, atol=0) and np.allclose(sig, 0.0, atol=0)
        assert all(signal_at(cfg, series, t) is Action.HOLD for t in range(cfg.warmup, 60))

    def test_bb_v_reversal_single_buy(self):
        series = series_from_prices(FIXTURE_30)
        cfg = IndicatorConfig("bb", (20, 2.0))
        sigs = {t: signal_at(cfg, series, t) for t in range(cfg.warmup, 30)}
        buys = [t for t, s in sigs.items() if s is Action.BUY]
        assert buys == [24]  # exactly one, at the trough bar

    def test_pc_breakout(self):
        prices = np.concatenate([100 + np.zeros(12), [101.0], [99.0]])
        series = series_from_prices(prices)
        cfg = IndicatorConfig("pc", (10,))
        assert signal_at(cfg, series, 12) is Action.BUY
        assert signal_at(cfg, series, 13) is Action.SELL

    def test_causality_prefix(self):
        series = series_from_prices(FIXTURE_30)
        cfg = IndicatorConfig("bb", (10, 1.5))
        full = IndicatorStrategy(cfg).run(series)
        pre = IndicatorStrategy(cfg).run(series_from_prices(series.prices[:25]))
        assert np.array_equal(full.codes[: len(pre.codes)], pre.codes)

    def test_determinism(self):
        series = series_from_prices(FIXTURE_30)
        cfg = IndicatorConfig("macd", (5, 10, 4))
        a = IndicatorStrategy(cfg).run(series)
        b = IndicatorStrategy(cfg).run(series)
        assert a == b


class TestConfigValidation:
    def test_macd_fast_must_beat_slow(self):
        with pytest.raises(UsageError):
            IndicatorConfig("macd", (26, 12, 9))

    def test_rsi_thresholds(self):
        with pytest.raises(UsageError):
            IndicatorConfig("rsi", (14, 70.0, 30.0))

    def test_unknown_kind(self):
        with pytest.raises(UsageError):
            IndicatorConfig("sma", (5,))

    def test_lookback_minimum(self):
        with pytest.raises(UsageError):
            IndicatorConfig("pc", (1,))


class TestTuner:
    def _mean_reverting_series(self):
        t = np.arange(400)
        prices = 100 + 4 * np.sin(t * 2 * np.pi / 50)
        return series_from_prices(prices)

    def test_single_config(self):
        cfg = IndicatorConfig("pc", (10,))
        assert tune_baseline([cfg], self._mean_reverting_series())[0] == cfg

    def test_profitable_beats_inactive(self):
        series = self._mean_reverting_series()
        active = IndicatorConfig("bb", (50, 1.0))
        inactive = IndicatorConfig("bb", (20, 50.0))  # bands never touched: Z = 1
        z_active = run_backtest(IndicatorStrategy(active), series).final_z
        assert z_active > 1.0
        assert tune_baseline([inactive, active], series)[0] == active

    def test_grid_matches_brute_force(self):
        series = self._mean_reverting_series()
        grid = [IndicatorConfig("rsi", (lb, lo, hi))
                for lb in (7, 14, 21) for lo, hi in ((20.0, 80.0), (30.0, 70.0), (40.0, 60.0))]
        best, report = tune_baseline(grid, series)
        zs = {cfg: run_backtest(IndicatorStrategy(cfg), series).final_z for cfg in grid}
        best_z = max(zs.values())
        assert zs[best] == best_z
        # the report is the winner's own backtest
        assert np.array_equal(report.equity, run_backtest(IndicatorStrategy(best), series).equity)
        # lexicographic tie-break
        assert best == min(c for c, z in zs.items() if z == best_z)

    @pytest.mark.parametrize("member", [1, 2])
    def test_default_grids_equal_per_config_tuning(self, member):
        series = make_ou_price_series(1500, seed=10 * member + 1, rate=0.003, vol=0.01, trend=0.0002)
        for kind in KINDS:
            assert_tuning_equals_per_config(default_grid(kind), series, cost_bps=5.0)

    @given(prices=price_paths(max_bars=300), grid=st.lists(shared_lookback_configs(), min_size=1, max_size=8),
           cost_bps=st.sampled_from([0.0, 5.0]))
    @settings(max_examples=60, deadline=None)
    def test_random_grids_equal_per_config_tuning(self, prices, grid, cost_bps):
        assert_tuning_equals_per_config(grid, series_from_prices(prices), cost_bps)

    def test_empty_grid(self):
        with pytest.raises(EmptyGrid):
            tune_baseline([], self._mean_reverting_series())

    def test_default_grids_valid(self):
        for kind in ("pc", "bb", "macd", "rsi"):
            grid = default_grid(kind)
            assert grid and all(c.kind == kind for c in grid)
