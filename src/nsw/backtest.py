"""Long-flat accounting over any signal source, plus the parcel variant.

Profitability is tracked as Z(t) = C(t)/C(t0) with C(t0) = 1: a buy opens a
full position at the bar's price when flat, a sell closes it, duplicates are
ignored, and open positions are marked to market. The multi-instrument
runner re-optimizes parcel weights every rebalance interval from trailing
log-return moments of the per-instrument equity curves.
"""

from __future__ import annotations

import json
import logging
from dataclasses import dataclass, field

import numpy as np

from .errors import ConfigError, MisalignedSeries, NonPositiveEquity
from .portfolio import estimate_moments, log_returns, optimize_parcel
from .signals import CODE_BUY, CODE_GATED, CODE_SELL, Action
from .timeseries import PriceSeries

log = logging.getLogger(__name__)

# band the decision fraction of the reference mean-reverting run is expected
# to fall in; violations are logged, never raised
DECISION_FRACTION_BAND = (0.005, 0.05)


@dataclass(frozen=True)
class Trade:
    t: int
    side: Action
    price: float


class TraceSource:
    """Signal source that replays a precomputed trace (engines are stateful
    and consume their series once; this lets one run feed several consumers)."""

    def __init__(self, trace, name="scripted"):
        self.trace = trace
        self.name = name

    def run(self, series):
        return self.trace


@dataclass(frozen=True)
class BacktestReport:
    symbol: str
    strategy: str
    equity: np.ndarray
    trades: tuple
    eligible_bars: int
    config: dict = field(default_factory=dict)

    def __post_init__(self):
        eq = np.asarray(self.equity, dtype=np.float64)
        eq.setflags(write=False)
        object.__setattr__(self, "equity", eq)
        object.__setattr__(self, "trades", tuple(self.trades))

    @property
    def final_z(self) -> float:
        return float(self.equity[-1])

    @property
    def decision_fraction(self) -> float:
        return len(self.trades) / self.eligible_bars if self.eligible_bars else 0.0

    def summary(self) -> dict:
        return {
            "symbol": self.symbol,
            "strategy": self.strategy,
            "final_Z": self.final_z,
            "trades": len(self.trades),
            "eligible_bars": self.eligible_bars,
            "decision_fraction": self.decision_fraction,
            "config": self.config,
        }


def run_backtest(
    source,
    series: PriceSeries,
    cost_bps: float = 0.0,
    decision_band=None,
    strategy_name: str | None = None,
    config: dict | None = None,
) -> BacktestReport:
    """Drive one signal source over one series.

    ``source.run(series)`` must yield a SignalTrace; bars before its start are
    warm-up and not decision-eligible. ``cost_bps`` in [0, 1e4) shaves each
    fill by cost_bps/1e4, so equity stays positive. When ``decision_band``
    is given, a decision fraction outside it is logged as a warning
    (diagnostic only).
    """
    if not 0.0 <= cost_bps < 1e4:
        raise ConfigError(f"cost_bps must be in [0, 10000), got {cost_bps}")
    trace = source.run(series)
    prices = series.prices
    n = len(prices)
    fee = 1.0 - cost_bps / 1e4
    # only the trace's outcomes for bars 0 .. n - 1 act or count; a gated bar
    # is excluded from decision making, so it does not count as an
    # opportunity when measuring how often the strategy acts
    first = max(0, -trace.start)
    codes = trace.codes[first : max(first, n - trace.start)]
    eligible = len(codes) - int(np.count_nonzero(codes == CODE_GATED))
    fills = np.flatnonzero((codes == CODE_BUY) | (codes == CODE_SELL))
    # a buy while long or a sell while flat is ignored: of a run of fills of
    # one kind only the first acts, and a leading sell finds the book flat
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
    name = strategy_name or getattr(source, "name", type(source).__name__)
    report = BacktestReport(
        symbol=series.symbol,
        strategy=name,
        equity=equity,
        trades=trades,
        eligible_bars=eligible,
        config=dict(config or {}),
    )
    log.info("%s on %s: final_Z %.4f, %d trades, decision fraction %.4f",
             name, series.symbol, report.final_z, len(trades), report.decision_fraction)
    if decision_band is not None:
        lo, hi = decision_band
        if not lo <= report.decision_fraction <= hi:
            log.warning(
                "decision fraction %.4f outside expected band [%g, %g] for %s on %s",
                report.decision_fraction, lo, hi, name, series.symbol,
            )
    return report


@dataclass(frozen=True)
class WeightRecord:
    t: int
    n: np.ndarray
    slack: float
    p_theta: float


@dataclass(frozen=True)
class ParcelReport:
    symbols: tuple
    equity: np.ndarray
    weight_trajectory: tuple
    instrument_reports: tuple

    @property
    def final_z(self) -> float:
        return float(self.equity[-1])


def run_parcel_backtest(
    sources,
    series_list,
    theta: float,
    rebalance_len: int,
    horizon: int,
    cost_bps: float = 0.0,
) -> ParcelReport:
    """Per-instrument runs plus periodic weight re-optimization.

    Weights start at 1/M. Every ``rebalance_len`` bars (once a trailing
    window of ``rebalance_len`` log returns at lag ``horizon`` is available,
    using only already-realized returns) moments are re-estimated and the
    parcel re-optimized from the 1/M start. Parcel equity compounds
    sum(n_i * instrument growth) + slack per segment; slack earns nothing.
    """
    if len(sources) != len(series_list) or not sources:
        raise MisalignedSeries("need one signal source per series")
    n = len(series_list[0])
    for s in series_list[1:]:
        if len(s) != n or not np.array_equal(s.timestamps, series_list[0].timestamps):
            raise MisalignedSeries("series have different timestamps")
    reports = [run_backtest(src, ser, cost_bps=cost_bps) for src, ser in zip(sources, series_list)]
    z = np.stack([r.equity for r in reports])  # (M, n)
    if not np.all(z > 0):
        raise NonPositiveEquity(f"equity must stay positive, min {z.min()}")
    m_count = len(sources)

    first_rebalance = rebalance_len + horizon  # earliest bar with a full trailing window
    rebalances = range(first_rebalance, n, rebalance_len)
    if rebalances:
        # the window of the k-th rebalance holds the returns k * rebalance_len + 1
        # to (k + 1) * rebalance_len, the last rebalance_len realized by its bar
        returns = log_returns(z[:, : rebalances[-1] + 1], horizon)[:, 1:]
        windows = returns.reshape(m_count, len(rebalances), rebalance_len).transpose(1, 0, 2)
        moments = estimate_moments(windows, rebalance_len, horizon)

    weights = np.full(m_count, 1.0 / m_count)
    trajectory = []
    parcel = np.ones(n)
    ref_bar = 0
    ref_parcel = 1.0
    for k, t in enumerate([*rebalances, n]):
        # bars ref_bar (bar 1 at the start) to t - 1 at the current weights
        lo = max(ref_bar, 1)
        parcel[lo:t] = ref_parcel * (weights @ (z[:, lo:t] / z[:, ref_bar, None]) + (1.0 - weights.sum()))
        if t == n:
            break
        # settle the segment at t, then re-optimize on the trailing window
        growth = z[:, t] / z[:, ref_bar]
        ref_parcel = ref_parcel * (weights @ growth + (1.0 - weights.sum()))
        ref_bar = t
        result = optimize_parcel(moments.row(k), theta)
        weights = result.weights.n
        trajectory.append(WeightRecord(t, weights.copy(), result.weights.slack, result.p_theta))
    return ParcelReport(
        symbols=tuple(s.symbol for s in series_list),
        equity=parcel,
        weight_trajectory=tuple(trajectory),
        instrument_reports=tuple(reports),
    )


# published minute-bar reference profitability for these strategy columns;
# shown next to computed results for format parity, not reproducible from
# synthetic data
REFERENCE_RESULTS = {
    "2009 full year": {
        "Bank of America": {"PC": 1.596, "BB": 1.631, "MACD": 1.273, "RSI": 1.683, "NSW": 1.852},
        "Dell Inc": {"PC": 1.131, "BB": 1.377, "MACD": 1.311, "RSI": 1.185, "NSW": 1.524},
        "AT&T Inc": {"PC": 1.433, "BB": 1.431, "MACD": 1.254, "RSI": 1.439, "NSW": 1.721},
    },
    # the negative-trend May-June 2010 stretch; the two unlabeled columns of
    # the source table are taken to be MACD and RSI
    "2010 negative trend": {
        "Bank of America": {"PC": 0.99, "BB": 0.908, "MACD": 0.918, "RSI": 0.872, "NSW": 1.078},
    },
}

STRATEGY_COLUMNS = ("PC", "BB", "MACD", "RSI", "NSW")


@dataclass(frozen=True)
class ComparisonTable:
    instruments: tuple
    columns: tuple
    final_z: np.ndarray  # (instruments, columns)
    reports: dict  # (symbol, column) -> BacktestReport
    tuned: dict  # (symbol, column) -> IndicatorConfig for baseline cells

    def to_text(self, show_reference=False) -> str:
        names = list(self.instruments)
        if show_reference:
            names += [sym for rows in REFERENCE_RESULTS.values() for sym in rows]
        width = max(12, max((len(s) for s in names), default=12) + 2)
        head = "".ljust(width) + "".join(c.rjust(9) for c in self.columns)
        lines = [head]
        for i, sym in enumerate(self.instruments):
            lines.append(sym.ljust(width) + "".join(f"{self.final_z[i, j]:9.3f}" for j in range(len(self.columns))))
        if show_reference:
            lines.append("")
            lines.append("reference results (2009-2010 minute bars):")
            for period, rows in REFERENCE_RESULTS.items():
                lines.append(f"  {period}")
                for sym, cells in rows.items():
                    lines.append(
                        "  " + sym.ljust(width - 2) + "".join(f"{cells[c]:9.3f}" for c in self.columns)
                    )
        return "\n".join(lines)

    def to_json(self) -> str:
        payload = {
            "columns": list(self.columns),
            "rows": [
                {"instrument": sym, **{c: float(self.final_z[i, j]) for j, c in enumerate(self.columns)}}
                for i, sym in enumerate(self.instruments)
            ],
        }
        return json.dumps(payload, indent=2)


def compare_strategies(series_list, engine_factory, baseline_grids=None, cost_bps=0.0) -> ComparisonTable:
    """Final-Z comparison table: in-sample-tuned baselines vs the causal model.

    ``engine_factory()`` must return a fresh signal engine per series;
    ``baseline_grids`` maps kind -> config grid (defaults per kind when
    omitted).
    """
    from .baselines import default_grid, tune_baseline

    if not series_list:
        raise MisalignedSeries("need at least one series")
    grids = dict(baseline_grids or {})
    for kind in ("pc", "bb", "macd", "rsi"):
        grids.setdefault(kind, default_grid(kind))
    instruments = tuple(s.symbol for s in series_list)
    table = np.zeros((len(series_list), len(STRATEGY_COLUMNS)))
    reports, tuned = {}, {}
    for i, series in enumerate(series_list):
        for j, col in enumerate(STRATEGY_COLUMNS):
            if col == "NSW":
                report = run_backtest(
                    engine_factory(), series, cost_bps=cost_bps,
                    decision_band=DECISION_FRACTION_BAND, strategy_name="NSW",
                )
            else:
                # the winner's tuning run is its backtest
                best, report = tune_baseline(grids[col.lower()], series, cost_bps=cost_bps)
                tuned[(series.symbol, col)] = best
            reports[(series.symbol, col)] = report
            table[i, j] = report.final_z
    return ComparisonTable(
        instruments=instruments, columns=STRATEGY_COLUMNS, final_z=table, reports=reports, tuned=tuned
    )


def write_equity(report, path) -> None:
    """Equity curve as ``t,Z`` rows, written as one text (csv.writer's rows:
    no field needs quoting, lines end in CRLF)."""
    rows = [f"{t},{z!r}\r\n" for t, z in enumerate(report.equity.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("t,Z\r\n" + "".join(rows))


def write_weights(parcel: ParcelReport, path) -> None:
    """Weight trajectory log: ``t,n_1..n_M,slack,P_theta``, written as one
    text like ``write_equity``."""
    head = ["t", *(f"n_{i + 1}" for i in range(len(parcel.symbols))), "slack", "P_theta"]
    rows = [",".join(head)]
    for rec in parcel.weight_trajectory:
        rows.append(",".join([str(rec.t), *map(repr, rec.n.tolist()), repr(rec.slack), repr(rec.p_theta)]))
    with open(path, "w", newline="") as fh:
        fh.write("\r\n".join(rows) + "\r\n")


def write_report_json(report: BacktestReport, path) -> None:
    payload = report.summary()
    payload["trades_detail"] = [
        {"t": tr.t, "side": tr.side.value, "price": tr.price} for tr in report.trades
    ]
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2)
