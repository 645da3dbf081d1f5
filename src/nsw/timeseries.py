"""Price bars and the Euler-Maruyama sample-path generator.

The sample-path generator doubles as the verification oracle for the fitting
and density code: paths with known drift/diffusion are simulated here and the
estimators are checked against the analytic answers.
"""

from __future__ import annotations

import csv
import math
import os
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConfigError,
    InvalidStep,
    MissingFile,
    NegativeDiffusion,
    NonMonotonicTimestamp,
    NonPositivePrice,
    NonUniformSpacing,
    ParseError,
)

DEFAULT_BAR_INTERVAL = 60.0
_INT64_BOUND = 2.0**63  # timestamps are stored as int64
_FLOAT_EXACT = 2.0**53  # floats hold every integer below this exactly


@dataclass(frozen=True)
class PriceSeries:
    """Uniformly spaced, strictly positive, finite price bars for one instrument.

    ``timestamps`` are epoch seconds, strictly increasing with spacing equal
    to ``bar_interval``. Arrays are frozen after construction so instances can
    be shared freely between threads.
    """

    symbol: str
    timestamps: np.ndarray
    prices: np.ndarray
    bar_interval: float = DEFAULT_BAR_INTERVAL

    def __post_init__(self):
        ts = np.asarray(self.timestamps, dtype=np.int64)
        px = np.asarray(self.prices, dtype=np.float64)
        if ts.ndim != 1 or px.ndim != 1 or len(ts) != len(px):
            raise ParseError(0, "timestamp/price columns have mismatched shapes")
        if len(ts) < 2:
            raise ParseError(len(ts), "need at least 2 bars")
        bad = np.nonzero(~((px > 0) & (px < math.inf)))[0]
        if bad.size:
            raise NonPositivePrice(int(bad[0]) + 1, f"price {px[bad[0]]}")
        steps = np.diff(ts)
        bad = np.nonzero(steps <= 0)[0]
        if bad.size:
            raise NonMonotonicTimestamp(int(bad[0]) + 2, f"timestamp {ts[bad[0] + 1]}")
        bad = np.nonzero(steps != int(round(self.bar_interval)))[0]
        if bad.size:
            raise NonUniformSpacing(
                int(bad[0]) + 2,
                f"gap of {steps[bad[0]]}s where {self.bar_interval}s bars expected",
            )
        ts.setflags(write=False)
        px.setflags(write=False)
        object.__setattr__(self, "timestamps", ts)
        object.__setattr__(self, "prices", px)

    def __len__(self):
        return len(self.prices)


def load_bars(path, symbol=None, gap_policy="reject", bar_interval=None) -> PriceSeries:
    """Read a delimited bar file (header row, ``timestamp,price`` columns).

    ``gap_policy`` is ``reject`` (default) or ``forward_fill`` which
    re-inserts missing bars at the last seen price. The bar spacing is the
    smallest timestamp step in the file; a given ``bar_interval`` that
    differs from it raises ConfigError. Row numbers in errors are 1-based
    data rows (header excluded). The series is named ``symbol``, else after
    the file's stem without the ``bars_`` prefix that ``nsw synth`` writes:
    ``bars_S1.csv`` loads as ``S1``, ``SYN-A.csv`` as ``SYN-A``.
    """
    if not os.path.exists(path):
        raise MissingFile(f"bar file not found: {path}")
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        # the last column of a name wins, as in csv.DictReader
        header = {name: k for k, name in enumerate(next(reader, []))}
        for key in ("timestamp", "price"):
            if key not in header:
                raise ParseError(0, f"missing column {key!r}")
        t_col, p_col = header["timestamp"], header["price"]
        ts, px = [], []
        for i, rec in enumerate(filter(None, reader), start=1):  # blank lines are skipped
            try:
                field = rec[t_col]
                stamp = float(field)
                p = float(rec[p_col])
            except IndexError:
                raise ParseError(i, f"{len(rec)} fields, too few for the header") from None
            except ValueError as exc:
                raise ParseError(i, str(exc)) from exc
            if not -_FLOAT_EXACT < stamp < _FLOAT_EXACT:
                if not -_INT64_BOUND <= stamp < _INT64_BOUND:
                    raise ParseError(i, f"timestamp {stamp} is not a finite int64")
                if field.isdecimal():  # float() may have rounded it: read the digits exactly
                    stamp = int(field)
            t = int(stamp)
            if not 0 < p < math.inf:
                raise NonPositivePrice(i, f"price {p}")
            if ts and t <= ts[-1]:
                raise NonMonotonicTimestamp(i, f"timestamp {t} after {ts[-1]}")
            ts.append(t)
            px.append(p)
    if len(ts) < 2:
        raise ParseError(len(ts), "need at least 2 bars")
    interval = min(b - a for a, b in zip(ts, ts[1:]))
    if bar_interval is not None and interval != bar_interval:
        raise ConfigError(f"{path}: bars are {interval}s apart, bar_interval is {bar_interval:g}s")
    if gap_policy == "forward_fill":
        ts, px = _forward_fill(ts, px, interval)
    elif gap_policy != "reject":
        raise ParseError(0, f"unknown gap_policy {gap_policy!r}")
    stem = os.path.splitext(os.path.basename(path))[0]
    name = symbol or stem.removeprefix("bars_") or stem
    return PriceSeries(symbol=name, timestamps=np.array(ts), prices=np.array(px), bar_interval=float(interval))


def _forward_fill(ts, px, interval):
    out_t, out_p = [ts[0]], [px[0]]
    for t, p in zip(ts[1:], px[1:]):
        while t - out_t[-1] > interval:
            out_t.append(out_t[-1] + interval)
            out_p.append(out_p[-1])
        out_t.append(t)
        out_p.append(p)
    return out_t, out_p


def write_bars(series: PriceSeries, path) -> None:
    """Write a series in the same ``timestamp,price`` format ``load_bars``
    reads: csv.writer's rows (no field needs quoting, lines end in CRLF),
    streamed, since a whole-file text holds every row twice in memory."""
    with open(path, "w", newline="") as fh:
        fh.write("timestamp,price\r\n")
        fh.writelines(f"{t},{p!r}\r\n" for t, p in zip(series.timestamps.tolist(), series.prices.tolist()))


def simulate_sde(drift, diffusion, y0, dt, n_steps, seed) -> np.ndarray:
    """Euler-Maruyama integration of dY = F(Y) dt + G(Y) dW (diagonal noise).

    ``drift`` and ``diffusion`` map an (dims,) state to (dims,) values;
    scalars broadcast. Returns the path, shape (n_steps + 1, dims). Gaussian
    variates come from NumPy's PCG64 generator seeded with ``seed``, so
    identical inputs reproduce the path bit-exactly.
    """
    if dt <= 0:
        raise InvalidStep(f"dt must be positive, got {dt}")
    if n_steps < 1:
        raise InvalidStep(f"n_steps must be >= 1, got {n_steps}")
    y = np.atleast_1d(np.asarray(y0, dtype=np.float64)).copy()
    dims = y.size
    rng = np.random.Generator(np.random.PCG64(seed))
    noise = rng.standard_normal((n_steps, dims))
    sq_dt = math.sqrt(dt)
    out = np.empty((n_steps + 1, dims))
    out[0] = y
    for k, dw in enumerate(noise):
        g = diffusion(y)
        # np.any on a scalar costs about as much as the Euler step itself
        if g < 0 if isinstance(g, (float, int)) else np.any(g < 0):
            raise NegativeDiffusion(f"diffusion returned {g} at step {k}")
        y = y + drift(y) * dt + g * sq_dt * dw
        out[k + 1] = y  # a drift or diffusion of the wrong shape fails to broadcast here
    return out


_OU_BLOCK = 8192  # draws per block of the OU recursion


def _ou_log_path(n_bars, seed, rate, vol) -> np.ndarray:
    """``simulate_sde(lambda y: -rate * y, lambda y: vol, [0.0], 1.0, n_bars - 1,
    seed)[:, 0]`` bit for bit, errors included: the same PCG64 draws, in
    blocks, through its update ((y + (-rate*y)*1.0) + (vol*1.0)*dw) on Python
    floats, less the multiplications by 1.0, which are exact. Memoryviews pass
    each draw in and each step out, so no list of floats is built."""
    if n_bars < 2:
        raise InvalidStep(f"n_steps must be >= 1, got {n_bars - 1}")
    rng = np.random.Generator(np.random.PCG64(seed))
    if vol < 0:
        raise NegativeDiffusion(f"diffusion returned {vol} at step 0")
    # float(): a numpy scalar would keep its own precision in Python arithmetic
    a, v, x = float(-rate), float(vol), 0.0
    path = np.empty(n_bars)
    path[0] = x
    out = memoryview(path)
    for start in range(1, n_bars, _OU_BLOCK):
        for k, dw in enumerate(memoryview(rng.standard_normal(min(_OU_BLOCK, n_bars - start))), start):
            x = x + a * x + v * dw
            out[k] = x
    return path


def make_ou_price_series(
    n_bars,
    seed,
    symbol="SYN",
    rate=0.05,
    vol=0.01,
    trend=0.0,
    base_price=100.0,
    bar_interval=DEFAULT_BAR_INTERVAL,
) -> PriceSeries:
    """Synthetic bars: mean-reverting log-price plus optional linear trend.

    log p(t) = log(base_price) + trend*t + x(t) with dx = -rate*x dt + vol dW,
    one model time unit per bar, timestamps from 0. A path that overflows to
    inf or underflows to 0 raises ConfigError naming the first such bar, and
    a last timestamp past the int64 range one naming bar_interval and n_bars.
    """
    x = _ou_log_path(n_bars, seed, rate, vol)
    t_idx = np.arange(n_bars)
    with np.errstate(over="ignore", under="ignore"):
        prices = base_price * np.exp(trend * t_idx + x)
    bad = np.flatnonzero(~((prices > 0) & (prices < math.inf)))
    if bad.size:
        raise ConfigError(f"trend={trend:g}, ou_rate={rate:g}, ou_vol={vol:g}, n_bars={n_bars}, "
                          f"base_price={base_price:g}: price {prices[bad[0]]:g} at bar {bad[0]}; use a smaller "
                          "|trend| or ou_vol, an ou_rate in [0, 2] or fewer bars")
    step = int(round(bar_interval))
    if (int(n_bars) - 1) * step >= _INT64_BOUND:  # Python ints: checked before numpy wraps them
        raise ConfigError(
            f"bar_interval={bar_interval:g}, n_bars={n_bars}: the last timestamp is past the int64 range; "
            "use a smaller bar_interval or fewer bars"
        )
    timestamps = t_idx * step
    return PriceSeries(symbol=symbol, timestamps=timestamps, prices=prices, bar_interval=bar_interval)
