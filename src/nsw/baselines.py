"""Classical indicator strategies for profitability comparisons.

Price Channel, Bollinger Bands, MACD and RSI in their textbook forms, all
with strict comparisons: pc buys a price above the high of the previous
``lookback`` bars (current bar excluded) and sells one below their low; bb
buys below mean - width * std and sells above mean + width * std of the last
``lookback`` bars (current bar included, population std); macd (EMAs seeded
with their first value) buys on the bar it rises above its signal line and
sells on the bar it falls below; Wilder RSI buys on the bar it rises through
``lower`` and sells on the bar it falls through ``upper``. Bands, channels and
signals are whole-series array operations; the EMA and RSI recurrences run
bar by bar. Parameters are tuned by exhaustive in-sample grid search on final
profitability, which deliberately hands the baselines a hindsight advantage
the causal model never gets.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import EmptyGrid, NotWarmedUp, UsageError
from .signals import Action, Signal, SignalTrace
from .timeseries import PriceSeries

KINDS = ("pc", "bb", "macd", "rsi")


@dataclass(frozen=True, order=True)
class IndicatorConfig:
    """One strategy cell: ``kind`` in {pc, bb, macd, rsi} plus its parameters.

    pc: (lookback,); bb: (lookback, width); macd: (fast, slow, signal);
    rsi: (lookback, lower, upper). Ordering is lexicographic on
    (kind, params), which is also the grid-search tie-break.
    """

    kind: str
    params: tuple

    def __post_init__(self):
        p = self.params
        if self.kind == "pc":
            ok = len(p) == 1 and p[0] >= 2
        elif self.kind == "bb":
            ok = len(p) == 2 and p[0] >= 2 and p[1] > 0
        elif self.kind == "macd":
            ok = len(p) == 3 and 2 <= p[0] < p[1] and p[2] >= 2
        elif self.kind == "rsi":
            ok = len(p) == 3 and p[0] >= 2 and 0 < p[1] < p[2] < 100
        else:
            raise UsageError(f"unknown indicator kind {self.kind!r}")
        if not ok:
            raise UsageError(f"bad {self.kind} parameters {p}")

    @property
    def warmup(self) -> int:
        """First bar index at which a signal is defined."""
        if self.kind == "pc":
            return self.params[0]
        if self.kind == "bb":
            return self.params[0] - 1
        if self.kind == "macd":
            return self.params[1] + self.params[2]
        return self.params[0] + 1  # rsi: lookback changes plus a previous value


def ema(values, span: int) -> np.ndarray:
    """Exponential moving average, alpha = 2/(span+1), seeded with the first value."""
    x = np.asarray(values, dtype=np.float64).tolist()  # Python floats: the recurrence runs per bar
    alpha = 2.0 / (span + 1.0)
    acc = x[0]
    out = [acc]
    for v in x[1:]:
        acc = alpha * v + (1.0 - alpha) * acc
        out.append(acc)
    return np.array(out)


def macd_lines(prices, fast: int, slow: int, signal: int):
    """(macd, signal_line) arrays over the whole series."""
    p = np.asarray(prices, dtype=np.float64)
    macd = ema(p, fast) - ema(p, slow)
    return macd, ema(macd, signal)


def bollinger(prices, lookback: int, width: float):
    """(mean, lower, upper) rolling bands; NaN before a full window.

    The window includes the current bar; std is the population std.
    """
    p = np.asarray(prices, dtype=np.float64)
    mean, lower, upper = np.full((3, len(p)), np.nan)
    if len(p) >= lookback:
        # a contiguous copy makes each row reduce as its 1-D window would, so
        # bands are bit-equal to w.mean() and w.std() whatever loop order
        # numpy would pick for the view's overlapping strides
        w = np.ascontiguousarray(sliding_window_view(p, lookback))
        mu, sd = w.mean(axis=1), w.std(axis=1)
        mean[lookback - 1 :] = mu
        lower[lookback - 1 :] = mu - width * sd
        upper[lookback - 1 :] = mu + width * sd
    return mean, lower, upper


def channel_extremes(prices, lookback: int):
    """(prior_high, prior_low) over the previous ``lookback`` bars, current excluded."""
    p = np.asarray(prices, dtype=np.float64)
    hi, lo = np.full((2, len(p)), np.nan)
    if len(p) > lookback:
        w = sliding_window_view(p[:-1], lookback)  # row k holds bars k .. k + lookback - 1
        hi[lookback:] = w.max(axis=1)
        lo[lookback:] = w.min(axis=1)
    return hi, lo


def rsi_values(prices, lookback: int) -> np.ndarray:
    """Wilder RSI: seed averages are simple means of the first ``lookback``
    changes, then smoothed with alpha = 1/lookback. NaN before the seed.

    Zero average loss maps to 100, zero average gain to 0, both zero
    (flat prices) to the neutral 50.
    """
    p = np.asarray(prices, dtype=np.float64)
    n = len(p)
    out = np.full(n, np.nan)
    if n <= lookback:
        return out
    delta = np.diff(p)
    gain = np.clip(delta, 0.0, None)
    loss = np.clip(-delta, 0.0, None)
    avg_gain = float(gain[:lookback].mean())
    avg_loss = float(loss[:lookback].mean())
    rsi = [_rsi_from_averages(avg_gain, avg_loss)]
    # Python floats: the smoothing runs per bar, over the changes into bars lookback + 1 .. n - 1
    for g, l in zip(gain[lookback:].tolist(), loss[lookback:].tolist()):
        avg_gain = (avg_gain * (lookback - 1) + g) / lookback
        avg_loss = (avg_loss * (lookback - 1) + l) / lookback
        rsi.append(_rsi_from_averages(avg_gain, avg_loss))
    out[lookback:] = rsi
    return out


def _rsi_from_averages(avg_gain, avg_loss):
    if avg_loss == 0.0 and avg_gain == 0.0:
        return 50.0
    if avg_loss == 0.0:
        return 100.0
    return 100.0 - 100.0 / (1.0 + avg_gain / avg_loss)


# _signal_array codes index these; one shared, immutable Signal per action
_ACTIONS = (Action.HOLD, Action.BUY, Action.SELL)
_SIGNALS = tuple(Signal(kind, math.nan, math.nan) for kind in _ACTIONS)


def indicator_signal(cfg: IndicatorConfig, series: PriceSeries, t: int) -> Action:
    """Signal of one indicator at bar ``t`` (uses bars <= t only)."""
    if t < cfg.warmup or t >= len(series):
        raise NotWarmedUp(f"{cfg.kind} needs t >= {cfg.warmup}, got {t}")
    return _ACTIONS[_signal_array(cfg, series.prices[: t + 1])[t]]


def _signal_array(cfg: IndicatorConfig, prices) -> np.ndarray:
    """Action code of every bar (0 hold, 1 buy, 2 sell) under the module's
    rules; bars before ``cfg.warmup`` hold. A NaN indicator value, as where a
    band or channel is not yet defined, compares false and holds."""
    p = np.asarray(prices, dtype=np.float64)
    if cfg.kind == "pc":
        hi, lo = channel_extremes(p, cfg.params[0])
        buy, sell = p > hi, p < lo
    elif cfg.kind == "bb":
        _, lower, upper = bollinger(p, *cfg.params)
        buy, sell = p < lower, p > upper
    elif cfg.kind == "macd":
        macd, sig = macd_lines(p, *cfg.params)
        buy, sell = _crossed(macd <= sig, macd > sig), _crossed(macd >= sig, macd < sig)
    else:  # rsi
        lookback, lower, upper = cfg.params
        rsi = rsi_values(p, lookback)
        buy, sell = _crossed(rsi <= lower, rsi > lower), _crossed(rsi >= upper, rsi < upper)
    codes = np.where(buy, 1, np.where(sell, 2, 0))
    codes[: cfg.warmup] = 0
    return codes


def _crossed(before, after) -> np.ndarray:
    """True at bar t when ``before`` held at t - 1 and ``after`` holds at t."""
    out = np.zeros(len(after), dtype=bool)
    out[1:] = before[:-1] & after[1:]
    return out


class IndicatorStrategy:
    """Adapter exposing an indicator as a backtestable signal source."""

    def __init__(self, cfg: IndicatorConfig):
        self.cfg = cfg

    @property
    def name(self) -> str:
        return self.cfg.kind.upper()

    def run(self, series: PriceSeries) -> SignalTrace:
        start = min(self.cfg.warmup, len(series))
        codes = _signal_array(self.cfg, series.prices)[start:]
        return SignalTrace(start=start, signals=[_SIGNALS[c] for c in codes.tolist()])


def tune_baseline(grid, series: PriceSeries, cost_bps=0.0) -> IndicatorConfig:
    """Exhaustive in-sample search: the config with the highest final
    profitability wins; exact ties go to the lexicographically smallest
    (kind, params)."""
    return _tune(grid, series, cost_bps)[0]


def _tune(grid, series: PriceSeries, cost_bps=0.0):
    """``tune_baseline``'s search, returning ``(cfg, report)``: the winner and
    its backtest."""
    from .backtest import run_backtest  # local import, backtest depends on this module

    grid = list(grid)
    if not grid:
        raise EmptyGrid("no indicator configurations to search")
    best, best_z = (None, None), -math.inf
    for cfg in sorted(grid):
        report = run_backtest(IndicatorStrategy(cfg), series, cost_bps=cost_bps)
        if report.final_z > best_z:
            best, best_z = (cfg, report), report.final_z
    return best


def default_grid(kind: str):
    """The stock parameter grid used by the comparison harness."""
    if kind == "pc":
        return [IndicatorConfig("pc", (lb,)) for lb in (10, 20, 40)]
    if kind == "bb":
        return [IndicatorConfig("bb", (lb, w)) for lb in (10, 20, 30) for w in (1.5, 2.0, 2.5)]
    if kind == "macd":
        return [IndicatorConfig("macd", p) for p in ((8, 17, 9), (12, 26, 9), (5, 35, 5))]
    if kind == "rsi":
        return [
            IndicatorConfig("rsi", (lb, lo, hi))
            for lb in (7, 14, 21)
            for lo, hi in ((30.0, 70.0), (20.0, 80.0))
        ]
    raise UsageError(f"unknown indicator kind {kind!r}")
