import logging
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from nsw.errors import MisalignedSeries
from nsw.signals import Action, Signal, SignalTrace

from conftest import series_from_prices


def scripted(series, moves, start=0):
    """TraceSource emitting the given {t: action} moves, HOLD elsewhere."""
    signals = []
    for t in range(start, len(series)):
        kind = moves.get(t, Action.HOLD)
        signals.append(Signal(kind, 0.5, 0.0))
    return TraceSource(SignalTrace(start=start, signals=signals))


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
        report = run_backtest(TraceSource(trace), series, cost_bps=cost_bps)
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

    def test_eligible_bars_stop_at_series_end(self):
        series = series_from_prices([1.0, 1.1, 1.2, 1.3])
        trace = SignalTrace(start=0, signals=[Signal(Action.HOLD, 0.5, 0.0)] * 10)
        assert run_backtest(TraceSource(trace), series).eligible_bars == 4

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

    def test_writers(self, tmp_path):
        series = series_from_prices([1.0, 1.2, 1.1])
        report = run_backtest(scripted(series, {0: Action.BUY}), series)
        write_equity(report, tmp_path / "eq.csv")
        write_report_json(report, tmp_path / "rep.json")
        assert (tmp_path / "eq.csv").read_text().splitlines()[0] == "t,Z"
        assert '"final_Z"' in (tmp_path / "rep.json").read_text()


def make_aligned(prices_list):
    return [series_from_prices(p, symbol=f"S{i}") for i, p in enumerate(prices_list)]


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


class TestCompare:
    def test_composition_and_nsw_column(self):
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

        table = compare_strategies([series], factory, baseline_grids=grids)
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
                rerun = run_backtest(IndicatorStrategy(cfg), series, cost_bps=5.0, strategy_name=col)
                report = table.reports[(series.symbol, col)]
                assert np.array_equal(report.equity, rerun.equity)
                assert (report.symbol, report.strategy, report.trades, report.eligible_bars, report.config) == (
                    rerun.symbol, rerun.strategy, rerun.trades, rerun.eligible_bars, rerun.config)
                assert report.summary() == rerun.summary()
                assert table.final_z[i, j] == rerun.final_z

    def test_negative_trend_renders_below_one(self):
        t = np.arange(300)
        prices = 100 * np.exp(-0.002 * t) * (1 + 0.02 * np.sin(t * 0.8))
        series = series_from_prices(prices, symbol="DOWN")
        grids = {"pc": [IndicatorConfig("pc", (5,))], "bb": [IndicatorConfig("bb", (10, 1.0))],
                 "macd": [IndicatorConfig("macd", (5, 10, 4))], "rsi": [IndicatorConfig("rsi", (7, 30.0, 70.0))]}
        table = compare_strategies([series], lambda: scripted(series, {}), baseline_grids=grids)
        text = table.to_text()
        assert "DOWN" in text
        assert table.final_z[0, 4] == 1.0  # inactive model holds Z at 1
        assert "0." in text  # sub-unity cells rendered

    def test_reference_table_rendering(self):
        series = series_from_prices([1.0, 1.1, 1.2] * 40, symbol="X")
        grids = {k: [c] for k, c in {
            "pc": IndicatorConfig("pc", (10,)), "bb": IndicatorConfig("bb", (10, 2.0)),
            "macd": IndicatorConfig("macd", (5, 10, 4)), "rsi": IndicatorConfig("rsi", (7, 30.0, 70.0)),
        }.items()}
        table = compare_strategies([series], lambda: scripted(series, {}), baseline_grids=grids)
        text = table.to_text(show_reference=True)
        assert "1.852" in text and "1.078" in text  # published reference cells
        assert "NSW" in text

    def test_json_output(self):
        series = series_from_prices([1.0, 1.1, 1.2] * 30, symbol="J")
        grids = {k: [c] for k, c in {
            "pc": IndicatorConfig("pc", (10,)), "bb": IndicatorConfig("bb", (10, 2.0)),
            "macd": IndicatorConfig("macd", (5, 10, 4)), "rsi": IndicatorConfig("rsi", (7, 30.0, 70.0)),
        }.items()}
        table = compare_strategies([series], lambda: scripted(series, {}), baseline_grids=grids)
        import json

        payload = json.loads(table.to_json())
        assert payload["columns"] == ["PC", "BB", "MACD", "RSI", "NSW"]
        assert payload["rows"][0]["instrument"] == "J"
