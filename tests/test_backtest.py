import csv
import logging
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import nsw.backtest
import nsw.baselines
from nsw.backtest import (
    DECISION_FRACTION_BAND,
    TraceSource,
    Trade,
    compare_strategies,
    run_backtest,
    run_parcel_backtest,
    write_equity,
    write_report_json,
    write_weights,
)
from nsw.baselines import IndicatorConfig
from nsw.errors import ConfigError, MisalignedSeries
from nsw.portfolio import estimate_moments, log_returns, optimize_parcel
from nsw.signals import CODE_BUY, CODE_GATED, CODE_HOLD, CODE_SELL, Action, Signal, SignalTrace
from nsw.timeseries import make_ou_price_series

from conftest import series_from_prices

# the Signal of each outcome code, without p_s and dy1
OUTCOME_SIGNALS = {CODE_HOLD: Signal(Action.HOLD, math.nan, math.nan), CODE_BUY: Signal(Action.BUY, math.nan, math.nan),
                   CODE_SELL: Signal(Action.SELL, math.nan, math.nan),
                   CODE_GATED: Signal(Action.HOLD, math.nan, math.nan, gated=True)}


def scripted(series, moves, start=0):
    """TraceSource emitting the given {t: action} moves, HOLD elsewhere."""
    signals = []
    for t in range(start, len(series)):
        kind = moves.get(t, Action.HOLD)
        signals.append(Signal(kind, 0.5, 0.0))
    return TraceSource(SignalTrace(start=start, signals=signals), "scripted")


def equity_oracle(prices, moves, start=0):
    """Independent long-flat accounting, written as a direct state walk."""
    z = [1.0] * len(prices)
    flat, entry = 1.0, None
    for t in range(len(prices)):
        a = moves.get(t) if t >= start else None
        if a is Action.BUY and entry is None:
            entry = prices[t]
        elif a is Action.SELL and entry is not None:
            flat *= prices[t] / entry
            entry = None
        z[t] = flat if entry is None else flat * prices[t] / entry
    return z


def per_bar_equity(trace, prices, cost_bps=0.0):
    """The per-bar accounting loop run_backtest replaced: (equity, trades).

    Every bar looks up its own signal, so equity is written one bar at a time.
    """
    fee = 1.0 - cost_bps / 1e4
    equity = np.ones(len(prices))
    trades = []
    flat_z, entry = 1.0, None
    for t in range(len(prices)):
        i = t - trace.start
        sig = trace.signals[i] if 0 <= i < len(trace.signals) else None
        if sig is not None:
            if sig.kind is Action.BUY and entry is None:
                entry = prices[t]
                flat_z *= fee
                trades.append(Trade(t, Action.BUY, float(prices[t])))
            elif sig.kind is Action.SELL and entry is not None:
                flat_z *= (prices[t] / entry) * fee
                entry = None
                trades.append(Trade(t, Action.SELL, float(prices[t])))
        equity[t] = flat_z if entry is None else flat_z * prices[t] / entry
    return equity, trades


def per_signal_walk(trace, prices, cost_bps=0.0):
    """The per-Signal walk run_backtest replaced: (equity, trades, eligible_bars).

    Every signal of the trace within the series is visited; a buy while long
    or a sell while flat is skipped inside the loop."""
    n = len(prices)
    fee = 1.0 - cost_bps / 1e4
    first = max(0, -trace.start)
    moves = []
    eligible = 0
    for t, s in enumerate(trace.signals[first : max(first, n - trace.start)], trace.start + first):
        if not s.gated:
            eligible += 1
        if s.kind is not Action.HOLD:
            moves.append((t, s.kind))
    equity = np.empty(n)
    trades = []
    flat_z = 1.0
    entry = None
    since = 0
    for t, kind in moves:
        if kind is Action.BUY and entry is None:
            equity[since:t] = flat_z
            entry = prices[t]
            flat_z *= fee
        elif kind is Action.SELL and entry is not None:
            equity[since:t] = flat_z * prices[since:t] / entry
            flat_z *= (prices[t] / entry) * fee
            entry = None
        else:
            continue
        trades.append(Trade(t, kind, float(prices[t])))
        since = t
    equity[since:] = flat_z if entry is None else flat_z * prices[since:] / entry
    return equity, trades, eligible


def old_run_backtest(source, series, cost_bps=0.0):
    """The per-fill loop run_backtest replaced, one Trade built per fill:
    (equity, final_z, trades, eligible_bars, decision_fraction)."""
    trace = source.run(series)
    prices = series.prices
    n = len(prices)
    fee = 1.0 - cost_bps / 1e4
    first = max(0, -trace.start)
    codes = trace.codes[first : max(first, n - trace.start)]
    eligible = len(codes) - int(np.count_nonzero(codes == CODE_GATED))
    fills = np.flatnonzero((codes == CODE_BUY) | (codes == CODE_SELL))
    kinds = codes[fills]
    acts = fills[np.flatnonzero(np.diff(kinds, prepend=CODE_SELL))]
    equity = np.empty(n)
    trades = []
    flat_z = 1.0
    entry = None  # price at which the open position was bought
    since = 0  # first bar whose equity is not written yet
    for t in (acts + (trace.start + first)).tolist():  # buy, sell, buy, ...
        if entry is None:
            equity[since:t] = flat_z
            entry = prices[t]
            flat_z *= fee
            trades.append(Trade(t, Action.BUY, float(prices[t])))
        else:
            equity[since:t] = flat_z * prices[since:t] / entry
            flat_z *= (prices[t] / entry) * fee
            entry = None
            trades.append(Trade(t, Action.SELL, float(prices[t])))
        since = t
    equity[since:] = flat_z if entry is None else flat_z * prices[since:] / entry
    return equity, float(equity[-1]), tuple(trades), eligible, len(trades) / eligible if eligible else 0.0


@st.composite
def fill_cases(draw):
    """Prices over several decades and a code trace of runs of one code, so
    it has leading sells, repeated buys and sells and gated bars; it starts
    before bar 0, at it or after it, and may end with a fill on the last bar.
    The fee is none, a typical one or the largest, 9999 bps."""
    n = draw(st.integers(2, 60))
    prices = np.exp(np.array(draw(st.lists(st.floats(-8.0, 8.0), min_size=n, max_size=n))))
    start = draw(st.integers(-20, n + 2))
    runs = draw(st.lists(st.tuples(st.sampled_from([CODE_HOLD, CODE_BUY, CODE_SELL, CODE_GATED]),
                                   st.integers(1, 5)), max_size=25))
    codes = np.array([c for c, k in runs for _ in range(k)], dtype=np.uint8)
    if len(codes) and 0 <= n - 1 - start < len(codes):
        codes[n - 1 - start] = draw(st.sampled_from([codes[n - 1 - start], CODE_BUY, CODE_SELL]))
    return prices, start, codes, draw(st.sampled_from([0.0, 5.0, 9999.0]))


@st.composite
def code_traces(draw):
    """Positive prices and an outcome-code trace built from runs of one code
    (repeated buys and sells, gated and plain holds) that may start before
    bar 0 or after the series end and may run past it, with a fee in
    [0, 1e4) bps."""
    prices = np.array(draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=40)))
    start = draw(st.integers(-15, len(prices) + 3))
    runs = draw(st.lists(st.tuples(st.sampled_from([CODE_HOLD, CODE_BUY, CODE_SELL, CODE_GATED]),
                                   st.integers(1, 6)), max_size=16))
    codes = np.array([c for c, k in runs for _ in range(k)], dtype=np.uint8)
    cost_bps = draw(st.one_of(st.just(0.0), st.floats(0.0, 1e4, exclude_max=True)))
    return prices, start, codes, cost_bps


@st.composite
def accounting_cases(draw):
    """Positive prices, a trace from bar ``start`` > 0 that may run past the
    series end, with gated holds among its signals, and a positive cost."""
    prices = draw(st.lists(st.floats(0.5, 2.0), min_size=2, max_size=40))
    start = draw(st.integers(1, len(prices) + 1))
    kinds = draw(st.lists(st.sampled_from(["buy", "sell", "hold", "gated"]), max_size=len(prices) + 10))
    signals = [Signal(Action.HOLD if k == "gated" else Action(k), 0.5, 0.0, gated=k == "gated") for k in kinds]
    cost_bps = draw(st.floats(0.01, 50.0))
    return np.array(prices), SignalTrace(start=start, signals=signals), cost_bps


class TestRunBacktest:
    def test_no_signals(self):
        series = series_from_prices([1.0, 2.0, 3.0, 2.0])
        report = run_backtest(scripted(series, {}), series)
        assert np.all(report.equity == 1.0)
        assert report.final_z == 1.0
        assert report.trades == ()

    def test_single_round_trip(self):
        series = series_from_prices([1.0, 1.0, 1.05, 1.1, 1.1])
        report = run_backtest(scripted(series, {1: Action.BUY, 3: Action.SELL}), series)
        assert report.final_z == pytest.approx(1.1, abs=0.0)
        assert len(report.trades) == 2

    def test_three_round_trips_product(self):
        prices = [1.0, 2.0, 1.5, 1.8, 0.9, 1.2, 1.0]
        series = series_from_prices(prices)
        moves = {0: Action.BUY, 1: Action.SELL, 2: Action.BUY, 3: Action.SELL, 4: Action.BUY, 5: Action.SELL}
        report = run_backtest(scripted(series, moves), series)
        expected = (2.0 / 1.0) * (1.8 / 1.5) * (1.2 / 0.9)
        assert abs(report.final_z - expected) < 1e-12

    def test_duplicate_signals_ignored(self):
        series = series_from_prices([1.0, 1.2, 1.4, 1.6])
        moves = {0: Action.BUY, 1: Action.BUY, 3: Action.SELL}
        report = run_backtest(scripted(series, moves), series)
        assert report.final_z == pytest.approx(1.6, abs=1e-15)
        assert len(report.trades) == 2

    def test_sell_while_flat_ignored(self):
        series = series_from_prices([1.0, 1.2, 1.4])
        report = run_backtest(scripted(series, {1: Action.SELL}), series)
        assert report.final_z == 1.0
        assert report.trades == ()

    def test_open_position_marked_to_market(self):
        series = series_from_prices([1.0, 2.0, 4.0])
        report = run_backtest(scripted(series, {0: Action.BUY}), series)
        assert report.final_z == pytest.approx(4.0, abs=0.0)
        assert list(report.equity) == [1.0, 2.0, 4.0]

    def test_transaction_costs(self):
        series = series_from_prices([1.0, 1.1, 1.1])
        report = run_backtest(scripted(series, {0: Action.BUY, 1: Action.SELL}), series, cost_bps=10.0)
        assert report.final_z == pytest.approx(1.1 * (1 - 1e-3) ** 2, rel=1e-12)

    @pytest.mark.parametrize("cost_bps", [-1.0, 1e4, 2e4, math.inf, math.nan])
    def test_fee_of_100_percent_or_more_rejected(self, cost_bps):
        # a fill factor 1 - cost_bps/1e4 <= 0 would zero or flip the equity
        series = series_from_prices([1.0, 1.1, 1.1])
        with pytest.raises(ConfigError, match="cost_bps"):
            run_backtest(scripted(series, {0: Action.BUY, 1: Action.SELL}), series, cost_bps=cost_bps)

    def test_largest_fee_keeps_equity_positive(self):
        series = series_from_prices([1.0, 1.1, 1.1])
        report = run_backtest(scripted(series, {0: Action.BUY, 1: Action.SELL}), series, cost_bps=9999.0)
        assert np.all(report.equity > 0)
        assert report.final_z == pytest.approx(1.1 * 1e-8, rel=1e-9)

    @given(moves_raw=st.lists(st.sampled_from(["buy", "sell", "hold"]), min_size=2, max_size=30))
    @settings(max_examples=120, deadline=None)
    def test_accounting_identity(self, moves_raw):
        prices = 1.0 + 0.1 * np.arange(len(moves_raw)) % 3 + 0.5
        series = series_from_prices(prices)
        moves = {t: Action(m) for t, m in enumerate(moves_raw) if m != "hold"}
        report = run_backtest(scripted(series, moves), series)
        oracle = equity_oracle(prices, moves)
        assert np.array_equal(report.equity, oracle)

    @given(case=accounting_cases())
    @settings(max_examples=200, deadline=None)
    def test_equity_equals_per_bar_loop(self, case):
        prices, trace, cost_bps = case
        series = series_from_prices(prices)
        report = run_backtest(TraceSource(trace, "scripted"), series, cost_bps=cost_bps)
        equity, trades = per_bar_equity(trace, prices, cost_bps)
        assert np.array_equal(report.equity, equity)
        assert report.trades == tuple(trades)
        assert report.eligible_bars == sum(not s.gated for s in trace.signals[: max(0, len(prices) - trace.start)])
        # Z is the product of the round-trip returns (an open position marked
        # at the last price) times one fee per fill; the loop multiplies in
        # another order, hence the relative tolerance
        buys, sells = trades[::2], trades[1::2]
        exits = [tr.price for tr in sells] + [prices[-1]] * (len(buys) - len(sells))
        legs = [x / b.price for b, x in zip(buys, exits)]
        fee = 1.0 - cost_bps / 1e4
        assert report.final_z == pytest.approx(math.prod(legs) * fee ** len(trades), rel=1e-12, abs=0)

    @given(case=code_traces())
    @settings(max_examples=300, deadline=None)
    def test_codes_equal_per_signal_walk(self, case):
        prices, start, codes, cost_bps = case
        series = series_from_prices(prices)
        signals = [OUTCOME_SIGNALS[c] for c in codes.tolist()]
        equity, trades, eligible = per_signal_walk(SignalTrace(start, signals), prices, cost_bps)
        # the same outcomes as a code array and as the engine's Signal list
        for trace in (SignalTrace(start, codes=codes), SignalTrace(start, signals)):
            report = run_backtest(TraceSource(trace, "scripted"), series, cost_bps=cost_bps)
            assert np.array_equal(report.equity, equity)
            assert report.trades == tuple(trades)
            assert report.eligible_bars == eligible

    @given(case=fill_cases())
    @example(case=(np.array([1.0, 2.0, 4.0]), 0, np.array([CODE_SELL, CODE_BUY, CODE_SELL], np.uint8), 5.0))
    @example(case=(np.array([1.0, 2.0, 4.0, 3.0]), -2,
                   np.array([CODE_HOLD, CODE_BUY, CODE_BUY, CODE_GATED, CODE_SELL, CODE_BUY], np.uint8), 9999.0))
    @example(case=(np.array([1.0, 2.0]), 1, np.array([CODE_BUY], np.uint8), 0.0))
    @settings(max_examples=400, deadline=None)
    def test_columns_equal_per_fill_loop(self, case):
        prices, start, codes, cost_bps = case
        series = series_from_prices(prices)
        source = TraceSource(SignalTrace(start, codes=codes), "scripted")
        report = run_backtest(source, series, cost_bps=cost_bps)
        equity, final_z, trades, eligible, fraction = old_run_backtest(source, series, cost_bps)
        assert np.array_equal(report.equity, equity)
        assert (report.final_z, report.trades, report.eligible_bars, report.decision_fraction) == (
            final_z, trades, eligible, fraction)
        assert report.fills.tolist() == [tr.t for tr in trades]
        assert report.fill_prices.tolist() == [tr.price for tr in trades]

    def test_report_columns_read_only_and_trades_cached(self):
        series = series_from_prices([1.0, 1.2, 1.4, 1.1])
        report = run_backtest(scripted(series, {0: Action.BUY, 2: Action.SELL, 3: Action.BUY}), series)
        for col in (report.equity, report.fills, report.fill_prices):
            assert not col.flags.writeable
        assert report.fills.tolist() == [0, 2, 3] and report.fill_prices.tolist() == [1.0, 1.4, 1.1]
        assert report.trades is report.trades
        assert report.trades == (Trade(0, Action.BUY, 1.0), Trade(2, Action.SELL, 1.4), Trade(3, Action.BUY, 1.1))

    def test_tuning_builds_no_trades(self, monkeypatch):
        # a tuning run's report is read for its final Z only: no config's
        # Trade objects are built, the winner's only when its trades are read
        built = []

        def counted(*args):
            built.append(args[0])
            return Trade(*args)

        monkeypatch.setattr(nsw.backtest, "Trade", counted)
        series = make_ou_price_series(3000, seed=4, rate=0.02, vol=0.01)
        best, report = nsw.baselines.tune_baseline(nsw.baselines.default_grid("bb"), series)
        assert len(report.fills) > 0 and built == []
        assert [tr.t for tr in report.trades] == built == report.fills.tolist()

    def test_code_trace_signals_are_its_list(self):
        codes = np.array([CODE_BUY, CODE_HOLD, CODE_GATED, CODE_SELL], dtype=np.uint8)
        trace = SignalTrace(2, codes=codes)
        assert not trace.codes.flags.writeable
        assert [(s.kind, s.gated) for s in trace.signals] == [
            (Action.BUY, False), (Action.HOLD, False), (Action.HOLD, True), (Action.SELL, False)]
        assert all(math.isnan(s.p_s) and math.isnan(s.dy1) for s in trace.signals)
        assert trace.p_s is trace.dy1 and np.isnan(trace.p_s).all() and len(trace.p_s) == len(codes)
        assert trace == SignalTrace(2, list(trace.signals))

    def test_trace_keeps_what_it_was_built_from(self):
        signals = [Signal(Action.BUY, 0.5, 0.0), Signal(Action.HOLD, 0.5, 0.0, gated=True)]
        codes = np.array([CODE_SELL, CODE_HOLD], dtype=np.uint8)
        by_signals, by_codes = SignalTrace(0, signals), SignalTrace(0, codes=codes)
        signals.append(Signal(Action.SELL, 0.5, 0.0))
        signals[0] = Signal(Action.HOLD, 0.5, 0.0)
        codes[0] = CODE_BUY
        assert by_signals.signals == (Signal(Action.BUY, 0.5, 0.0), Signal(Action.HOLD, 0.5, 0.0, gated=True))
        assert by_signals.codes.tolist() == [CODE_BUY, CODE_GATED]
        assert by_codes.codes.tolist() == [CODE_SELL, CODE_HOLD]

    def test_trace_reads_are_fixed(self):
        for trace in (SignalTrace(0, [Signal(Action.BUY, 0.5, 0.0)]), SignalTrace(0, codes=[CODE_BUY])):
            codes = trace.codes
            assert isinstance(trace.signals, tuple)
            assert trace.signals is trace.signals
            assert trace.codes is codes and not codes.flags.writeable
            with pytest.raises(AttributeError):
                trace.signals = []

    @pytest.mark.parametrize("codes", [[7, 1, 9, 2], [0, -1], [1.5]])
    def test_code_outside_outcomes_rejected(self, codes):
        with pytest.raises(ValueError, match=str(next(c for c in codes if c not in range(4)))):
            SignalTrace(0, codes=codes)

    @pytest.mark.parametrize("kind", ["buy", np.str_("Acti"), None])
    def test_signal_needs_an_action(self, kind):
        with pytest.raises(TypeError, match="Action"):
            Signal(kind, 0.5, 0.0)

    def test_eligible_bars_stop_at_series_end(self):
        series = series_from_prices([1.0, 1.1, 1.2, 1.3])
        trace = SignalTrace(start=0, signals=[Signal(Action.HOLD, 0.5, 0.0)] * 10)
        assert run_backtest(TraceSource(trace, "scripted"), series).eligible_bars == 4

    def test_replay_determinism(self):
        series = series_from_prices([1.0, 1.3, 0.9, 1.4, 1.2])
        moves = {0: Action.BUY, 2: Action.SELL, 3: Action.BUY}
        a = run_backtest(scripted(series, moves), series)
        b = run_backtest(scripted(series, moves), series)
        assert np.array_equal(a.equity, b.equity)
        assert a.trades == b.trades

    def test_prefix_causality(self):
        prices = [1.0, 1.3, 0.9, 1.4, 1.2, 1.5]
        moves = {0: Action.BUY, 2: Action.SELL, 3: Action.BUY}
        full_series = series_from_prices(prices)
        pre_series = series_from_prices(prices[:4])
        full = run_backtest(scripted(full_series, moves), full_series)
        pre = run_backtest(scripted(pre_series, {t: m for t, m in moves.items() if t < 4}), pre_series)
        assert np.array_equal(full.equity[:4], pre.equity)

    def test_decision_fraction(self):
        series = series_from_prices([1.0] * 10)
        report = run_backtest(scripted(series, {4: Action.BUY, 6: Action.SELL}, start=2), series)
        assert report.eligible_bars == 8
        assert report.decision_fraction == pytest.approx(2 / 8)

    def test_band_warning_logged(self, caplog):
        series = series_from_prices([1.0] * 10)
        with caplog.at_level(logging.WARNING, logger="nsw.backtest"):
            run_backtest(scripted(series, {}), series, decision_band=DECISION_FRACTION_BAND)
        assert any("decision fraction" in r.message for r in caplog.records)

    def test_report_named_by_source(self):
        from nsw.baselines import IndicatorStrategy
        from nsw.signals import SignalConfig, SignalEngine

        series = series_from_prices(100 + np.sin(np.arange(200) / 5))
        trace = SignalTrace(start=0, signals=[Signal(Action.HOLD, 0.5, 0.0)] * 200)
        sources = [SignalEngine(SignalConfig()), IndicatorStrategy(IndicatorConfig("rsi", (14, 30.0, 70.0))),
                   TraceSource(trace, "replayed")]
        for source, name in zip(sources, ["NSW", "RSI", "replayed"]):
            report = run_backtest(source, series)
            assert report.strategy == source.name == name
            assert report.summary()["strategy"] == name
            assert "config" not in report.summary()

    def test_writers(self, tmp_path):
        series = series_from_prices([1.0, 1.2, 1.1])
        report = run_backtest(scripted(series, {0: Action.BUY}), series)
        write_equity(report, tmp_path / "eq.csv")
        write_report_json(report, tmp_path / "rep.json")
        assert (tmp_path / "eq.csv").read_text().splitlines()[0] == "t,Z"
        assert '"final_Z"' in (tmp_path / "rep.json").read_text()

    def test_equity_file_equals_row_writer(self, tmp_path):
        series = make_ou_price_series(700, seed=3, rate=0.01, vol=0.02)
        report = run_backtest(scripted(series, {10: Action.BUY, 300: Action.SELL, 500: Action.BUY}), series,
                              cost_bps=5.0)
        write_equity(report, tmp_path / "eq.csv")
        # the row-by-row writer write_equity replaced
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t", "Z"])
            for t, val in enumerate(report.equity):
                w.writerow([t, repr(float(val))])
        assert (tmp_path / "eq.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()


def make_aligned(prices_list):
    return [series_from_prices(p, symbol=f"S{i}") for i, p in enumerate(prices_list)]


def old_run_parcel_backtest(reports, theta, rebalance_len, horizon):
    """The per-bar parcel loop run_parcel_backtest replaced: logs of the whole
    equity prefix at each rebalance, parcel equity one bar at a time.
    Returns (equity, [(t, weights)])."""
    z = np.stack([r.equity for r in reports])  # (M, n)
    m_count, n = z.shape

    weights = np.full(m_count, 1.0 / m_count)
    trajectory = []
    parcel = np.ones(n)
    ref_bar = 0
    ref_parcel = 1.0
    first_rebalance = rebalance_len + horizon  # earliest bar with a full trailing window
    for t in range(1, n):
        if t >= first_rebalance and (t - first_rebalance) % rebalance_len == 0:
            # settle the running segment at the pre-rebalance weights
            growth = z[:, t] / z[:, ref_bar]
            ref_parcel = ref_parcel * (weights @ growth + (1.0 - weights.sum()))
            ref_bar = t
            returns = [log_returns(z[i, : t + 1], horizon) for i in range(m_count)]
            moments = estimate_moments(returns, rebalance_len)
            result = optimize_parcel(moments, theta)
            weights = result.weights.n
            trajectory.append((t, weights.copy()))
        growth = z[:, t] / z[:, ref_bar]
        parcel[t] = ref_parcel * (weights @ growth + (1.0 - weights.sum()))
    return parcel, trajectory


class TestParcel:
    def test_hold_forever(self):
        series_list = make_aligned([[1.0] * 40, [2.0] * 40])
        sources = [scripted(s, {}) for s in series_list]
        report = run_parcel_backtest(sources, series_list, theta=0.25, rebalance_len=8, horizon=2)
        assert np.all(report.equity == 1.0)
        for rec in report.weight_trajectory:
            assert np.allclose(rec.n, 0.5, atol=0)

    def test_single_instrument_reduction(self):
        n = 60
        prices = list(1.0 + 0.01 * np.arange(n))
        series_list = make_aligned([prices])
        moves = {t: (Action.BUY if (t // 5) % 2 == 0 else Action.SELL) for t in range(0, n, 5)}
        source = scripted(series_list[0], moves)
        single = run_backtest(scripted(series_list[0], moves), series_list[0])
        parcel = run_parcel_backtest([source], series_list, theta=0.01, rebalance_len=10, horizon=2)
        assert single.final_z > 1.0  # the scripted pattern actually trades profitably
        assert np.abs(parcel.equity - single.equity).max() < 1e-9

    def test_equal_start_weights(self):
        series_list = make_aligned([[1.0, 1.1, 1.2, 1.3], [2.0, 2.2, 2.4, 2.6], [5.0, 5.5, 6.0, 6.5]])
        sources = [scripted(s, {0: Action.BUY}) for s in series_list]
        report = run_parcel_backtest(sources, series_list, theta=0.25, rebalance_len=100, horizon=1)
        # no rebalance happens: equity must compound the 1/3-weighted growths
        growth = np.array([1.3 / 1.0, 2.6 / 2.0, 6.5 / 5.0])
        assert report.weight_trajectory == ()
        assert report.equity[-1] == pytest.approx(np.mean(growth), rel=1e-12)

    @pytest.mark.parametrize("seed", [1, 2, 3])
    @pytest.mark.parametrize("theta, rebalance_len, horizon, cost_bps", [
        (0.25, 16, 8, 0.0), (0.1, 7, 1, 5.0), (0.5, 50, 3, 0.0),
    ])
    def test_segments_equal_per_bar_loop(self, seed, theta, rebalance_len, horizon, cost_bps):
        rng = np.random.default_rng(seed)
        series_list = [make_ou_price_series(500, seed=10 * seed + k, rate=0.01, vol=0.01, symbol=f"S{k}")
                       for k in range(3)]
        sources = []
        for s in series_list:
            bars = np.sort(rng.choice(len(s), size=40, replace=False))
            sources.append(scripted(s, {int(t): (Action.BUY, Action.SELL)[rng.choice(2)] for t in bars}))
        report = run_parcel_backtest(sources, series_list, theta, rebalance_len, horizon, cost_bps=cost_bps)
        equity, trajectory = old_run_parcel_backtest(report.instrument_reports, theta, rebalance_len, horizon)
        # trailing-window moments are the prefix ones, so the weights are exact
        assert [rec.t for rec in report.weight_trajectory] == [t for t, _ in trajectory]
        for rec, (_, w) in zip(report.weight_trajectory, trajectory):
            assert np.array_equal(rec.n, w)
        assert np.abs(report.equity / equity - 1.0).max() <= 1e-14

    def test_misaligned(self):
        a = series_from_prices([1.0, 1.1, 1.2])
        b = series_from_prices([1.0, 1.1, 1.2, 1.3])
        with pytest.raises(MisalignedSeries):
            run_parcel_backtest([scripted(a, {}), scripted(b, {})], [a, b], 0.25, 8, 2)

    def test_weights_writer(self, tmp_path):
        series_list = make_aligned([[1.0 + 0.02 * t for t in range(50)]] * 2)
        sources = [scripted(s, {0: Action.BUY}) for s in series_list]
        report = run_parcel_backtest(sources, series_list, theta=0.25, rebalance_len=10, horizon=2)
        write_weights(report, tmp_path / "w.csv")
        header = (tmp_path / "w.csv").read_text().splitlines()[0]
        assert header == "t,n_1,n_2,slack,P_theta"

    @pytest.mark.parametrize("rebalance_len", [16, 1000])  # 24 rebalances, and none
    def test_weights_file_equals_row_writer(self, tmp_path, rebalance_len):
        series_list = [make_ou_price_series(400, seed=k, rate=0.01, vol=0.02, symbol=f"S{k}") for k in range(3)]
        sources = [scripted(s, {5: Action.BUY, 200: Action.SELL, 250: Action.BUY}) for s in series_list]
        report = run_parcel_backtest(sources, series_list, theta=0.25, rebalance_len=rebalance_len, horizon=2)
        write_weights(report, tmp_path / "w.csv")
        # the row-by-row writer write_weights replaced
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["t"] + [f"n_{i + 1}" for i in range(3)] + ["slack", "P_theta"])
            for rec in report.weight_trajectory:
                w.writerow([rec.t] + [repr(float(v)) for v in rec.n] + [repr(rec.slack), repr(rec.p_theta)])
        assert (tmp_path / "w.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_moments_estimated_once_per_run(self, monkeypatch):
        # the traced benchmark times the names nsw.backtest calls: one stacked
        # estimate per run, one solve per rebalance
        calls = {"estimate_moments": 0, "optimize_parcel": 0}

        def counted(name):
            original = getattr(nsw.backtest, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return original(*args, **kwargs)

            return wrapper

        for name in calls:
            monkeypatch.setattr(nsw.backtest, name, counted(name))
        series_list = [make_ou_price_series(300, seed=k, symbol=f"S{k}") for k in range(2)]
        sources = [scripted(s, {3: Action.BUY}) for s in series_list]
        report = run_parcel_backtest(sources, series_list, theta=0.25, rebalance_len=16, horizon=8)
        assert len(report.weight_trajectory) == 18  # bars 24, 40, ..., 296
        assert calls == {"estimate_moments": 1, "optimize_parcel": 18}


def use_grids(monkeypatch, grids):
    """Make compare_strategies tune each kind over ``grids[kind]`` instead of its default grid."""
    monkeypatch.setattr(nsw.baselines, "default_grid", grids.__getitem__)


class TestCompare:
    def test_composition_and_nsw_column(self, monkeypatch):
        t = np.arange(260)
        series = series_from_prices(100 + 5 * np.sin(t * 2 * np.pi / 40), symbol="SINE")
        grids = {k: [cfg] for k, cfg in {
            "pc": IndicatorConfig("pc", (10,)),
            "bb": IndicatorConfig("bb", (20, 2.0)),
            "macd": IndicatorConfig("macd", (12, 26, 9)),
            "rsi": IndicatorConfig("rsi", (14, 30.0, 70.0)),
        }.items()}

        def factory():
            return scripted(series, {10: Action.BUY, 20: Action.SELL})

        use_grids(monkeypatch, grids)
        table = compare_strategies([series], factory)
        assert table.columns == ("PC", "BB", "MACD", "RSI", "NSW")
        assert table.instruments == ("SINE",)
        from nsw.baselines import IndicatorStrategy

        for j, col in enumerate(table.columns[:-1]):
            direct = run_backtest(IndicatorStrategy(grids[col.lower()][0]), series)
            assert table.final_z[0, j] == direct.final_z
        nsw_direct = run_backtest(factory(), series)
        assert table.final_z[0, 4] == nsw_direct.final_z

    def test_tuned_baselines_backtested_once(self, monkeypatch):
        import nsw.backtest
        from nsw.baselines import IndicatorStrategy, default_grid

        t = np.arange(400)
        series_list = [series_from_prices(100 + 5 * np.sin(t * 2 * np.pi / p) + 0.01 * t, symbol=f"S{p}")
                       for p in (37, 53)]
        runs = []

        def counted(*args, **kwargs):
            runs.append(args[0])
            return run_backtest(*args, **kwargs)

        monkeypatch.setattr(nsw.backtest, "run_backtest", counted)
        table = compare_strategies(series_list, lambda: scripted(series_list[0], {30: Action.BUY}), cost_bps=5.0)
        monkeypatch.undo()
        # one tuning run per grid config and one NSW run per series, no re-runs of the winners
        grid_runs = sum(len(default_grid(k)) for k in ("pc", "bb", "macd", "rsi"))
        assert len(runs) == len(series_list) * (grid_runs + 1)
        for i, series in enumerate(series_list):
            for j, col in enumerate(table.columns[:-1]):
                cfg = table.tuned[(series.symbol, col)]
                rerun = run_backtest(IndicatorStrategy(cfg), series, cost_bps=5.0)
                report = table.reports[(series.symbol, col)]
                assert np.array_equal(report.equity, rerun.equity)
                assert (report.symbol, report.strategy, report.trades, report.eligible_bars) == (
                    series.symbol, col, rerun.trades, rerun.eligible_bars)
                assert report.summary() == rerun.summary()
                assert table.final_z[i, j] == rerun.final_z

    def test_negative_trend_renders_below_one(self, monkeypatch):
        t = np.arange(300)
        prices = 100 * np.exp(-0.002 * t) * (1 + 0.02 * np.sin(t * 0.8))
        series = series_from_prices(prices, symbol="DOWN")
        grids = {"pc": [IndicatorConfig("pc", (5,))], "bb": [IndicatorConfig("bb", (10, 1.0))],
                 "macd": [IndicatorConfig("macd", (5, 10, 4))], "rsi": [IndicatorConfig("rsi", (7, 30.0, 70.0))]}
        use_grids(monkeypatch, grids)
        table = compare_strategies([series], lambda: scripted(series, {}))
        text = table.to_text()
        assert "DOWN" in text
        assert table.final_z[0, 4] == 1.0  # inactive model holds Z at 1
        assert "0." in text  # sub-unity cells rendered

    def test_reference_table_rendering(self, monkeypatch):
        series = series_from_prices([1.0, 1.1, 1.2] * 40, symbol="X")
        grids = {k: [c] for k, c in {
            "pc": IndicatorConfig("pc", (10,)), "bb": IndicatorConfig("bb", (10, 2.0)),
            "macd": IndicatorConfig("macd", (5, 10, 4)), "rsi": IndicatorConfig("rsi", (7, 30.0, 70.0)),
        }.items()}
        use_grids(monkeypatch, grids)
        table = compare_strategies([series], lambda: scripted(series, {}))
        text = table.to_text(show_reference=True)
        assert "1.852" in text and "1.078" in text  # published reference cells
        assert "NSW" in text

    def test_json_output(self, monkeypatch):
        series = series_from_prices([1.0, 1.1, 1.2] * 30, symbol="J")
        grids = {k: [c] for k, c in {
            "pc": IndicatorConfig("pc", (10,)), "bb": IndicatorConfig("bb", (10, 2.0)),
            "macd": IndicatorConfig("macd", (5, 10, 4)), "rsi": IndicatorConfig("rsi", (7, 30.0, 70.0)),
        }.items()}
        use_grids(monkeypatch, grids)
        table = compare_strategies([series], lambda: scripted(series, {}))
        import json

        payload = json.loads(table.to_json())
        assert payload["columns"] == ["PC", "BB", "MACD", "RSI", "NSW"]
        assert payload["rows"][0]["instrument"] == "J"
