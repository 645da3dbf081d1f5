"""Per-bar trade decisions gated by the quasi-stationarity test.

The rules consult the coarsest coefficient mode only: buy when the newest
coefficient increment is negative (prices recovering under the default Haar
sign convention) while the synthesized stationary mass below zero exceeds
1 - alpha1; sell on the mirrored condition against alpha1. Whenever the
displaced-window density is statistically distinguishable from the current
one, the bar is held and marked gated.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import (CONV_NON_INTEGRABLE, GRID_MISMATCH, KS_REJECT, PASS, REASONS, ConfigError, GridMismatch,
                     NonIntegrable, NonPositivePrice, NotWarmedUp, UnsupportedFamily)
from .sde_fit import fit_windows
from .stationary import convolution_p_s, ks_quasistationarity, stationary_densities
from .timeseries import PriceSeries
from .wavelets import coeff_row, make_wavelet, mode_taps, transform

# windows are fitted and synthesized in chunks of about this many density
# grid nodes (16 windows at n_grid=1024): enough to amortize the per-call cost
# of the stacked kernels, small enough that peak memory stays flat
_CHUNK_CELLS = 16 * 1024


class Action(str, enum.Enum):
    BUY = "buy"
    SELL = "sell"
    HOLD = "hold"


@dataclass(frozen=True)
class Signal:
    kind: Action
    p_s: float
    dy1: float
    gated: bool = False

    def __post_init__(self):
        if not isinstance(self.kind, Action):
            raise TypeError(f"kind must be an Action, got {self.kind!r}")
        if self.kind is not Action.HOLD and self.gated:
            raise ValueError("only hold signals can be gated")


@dataclass(frozen=True)
class SignalConfig:
    """Every parameter the signal engine reads.

    calib_len is the rolling fit window T0 (32-64 bars, and two rows per
    Hermite term of the fit at least); shift_len is the displacement T used
    by the stationarity comparison.
    """

    # wavelet bank
    wavelet: str = "haar"  # haar | db2 | db3 | bl1 | bl2 | bl3
    levels: int = 2  # number of coefficient modes (J)
    invert_sign: bool = False
    # SDE fit
    degree: int = 3  # max Hermite total degree (K)
    calib_len: int = 64  # rolling fit window T0, 32..64
    # stationary density / gate
    shift_len: int = 64  # stationarity displacement T
    density_mode: str = "plain"  # plain | convolution
    ks_k: float | None = None  # override for the Kolmogorov constant
    grid_span: float = 5.0
    n_grid: int = 1024
    # trade rules
    alpha1: float = 0.05
    alpha2: float = 0.05

    def __post_init__(self):
        if not 0.0 < self.alpha1 < 0.5 or not 0.0 < self.alpha2 < 0.5:
            raise ConfigError(f"alpha levels must be in (0, 0.5): {self.alpha1}, {self.alpha2}")
        if self.levels < 1 or self.degree < 1:
            raise ConfigError("levels and degree must be >= 1")
        min_calib = max(32, 2 * math.comb(self.levels + self.degree, self.degree))
        if self.calib_len < min_calib:
            raise ConfigError(f"calib_len must be >= {min_calib} with levels={self.levels}, degree={self.degree}, "
                              f"got {self.calib_len}")
        if self.density_mode not in ("plain", "convolution"):
            raise ConfigError(f"density_mode must be plain|convolution, got {self.density_mode!r}")
        if self.shift_len < 1:
            raise ConfigError(f"shift_len must be >= 1, got {self.shift_len}")
        if self.n_grid < 2:
            raise ConfigError(f"n_grid must be >= 2, got {self.n_grid}")
        if not 0.0 < self.grid_span < math.inf:
            raise ConfigError(f"grid_span must be positive and finite, got {self.grid_span}")
        if self.ks_k is not None and not self.ks_k > 0.0:
            raise ConfigError(f"ks_k must be > 0, got {self.ks_k}")
        try:
            make_wavelet(self.wavelet)
        except UnsupportedFamily as exc:
            raise ConfigError(str(exc)) from exc


def decide(dy1: float, p_s: float, ks_pass: bool, cfg: SignalConfig) -> Signal:
    """Apply the purchase/sale rules to one bar's inputs.

    Exactly one action comes back; a failed stationarity gate always holds.
    Both inequalities are strict, so dy1 == 0 never trades.
    """
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"p_s must be in [0, 1], got {p_s}")
    if not ks_pass:
        return Signal(Action.HOLD, p_s, dy1, gated=True)
    if -dy1 > 0 and p_s > 1.0 - cfg.alpha1:
        return Signal(Action.BUY, p_s, dy1)
    if -dy1 < 0 and p_s < cfg.alpha1:
        return Signal(Action.SELL, p_s, dy1)
    return Signal(Action.HOLD, p_s, dy1)


# outcome code of a decided bar: the action, with holds split by the gate flag
CODE_HOLD, CODE_BUY, CODE_SELL, CODE_GATED = range(4)
# one shared, immutable Signal per outcome code, for traces that carry no p_s or dy1
CODE_SIGNALS = (Signal(Action.HOLD, math.nan, math.nan), Signal(Action.BUY, math.nan, math.nan),
                Signal(Action.SELL, math.nan, math.nan), Signal(Action.HOLD, math.nan, math.nan, gated=True))
_ACTION_CODES = {Action.HOLD: CODE_HOLD, Action.BUY: CODE_BUY, Action.SELL: CODE_SELL}


class SignalTrace:
    """Per-bar outcomes of bars ``start .. start + n - 1``, fixed when built.

    Built from ``signals``, kept as a tuple, or from ``codes``, one outcome
    code per bar (``CODE_HOLD``, ``CODE_BUY``, ``CODE_SELL``, ``CODE_GATED``).
    ``codes`` is the accounting format: a read-only uint8 array, copied or
    derived once at construction. ``signals`` of a code-built trace is built
    on first read as a tuple of the shared ``CODE_SIGNALS``.
    """

    def __init__(self, start: int, signals=(), *, codes=None):
        self.start = start
        if codes is None:
            self._signals = tuple(signals)
            self._codes = np.array([CODE_GATED if s.gated else _ACTION_CODES[s.kind] for s in self._signals],
                                   dtype=np.uint8)
        elif signals:
            raise ValueError("give signals or codes, not both")
        else:
            self._signals, given = None, np.asarray(codes)
            self._codes = given.astype(np.uint8)
            bad = given[(self._codes != given) | (self._codes > CODE_GATED)]
            if bad.size:
                raise ValueError(f"outcome code {bad[0].item()} is not one of 0-3")
        self._codes.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, SignalTrace):
            return NotImplemented
        return self.start == other.start and self.signals == other.signals

    def __repr__(self):
        return f"SignalTrace(start={self.start!r}, signals={self.signals!r})"

    @property
    def signals(self) -> tuple:
        if self._signals is None:
            self._signals = tuple(CODE_SIGNALS[c] for c in self._codes.tolist())
        return self._signals

    @property
    def codes(self) -> np.ndarray:
        return self._codes


class _Trailing:
    """The newest ``keep`` rows of a per-bar series in one contiguous array.

    Rows are written in place; when the array is full, the newest keep - 1
    rows move to its front. Every trailing slice is therefore a view, and the
    memory stays fixed however many bars are pushed.
    """

    def __init__(self, keep: int, width: tuple = ()):
        self._buf = np.empty((2 * keep, *width))
        self._keep = keep
        self._end = 0  # one past the newest row

    def push(self, row) -> None:
        if self._end == len(self._buf):
            k = self._keep - 1
            self._buf[:k] = self._buf[self._end - k : self._end]
            self._end = k
        self._buf[self._end] = row
        self._end += 1

    def push_all(self, rows) -> None:
        """Push ``rows`` in order; only the newest ``keep`` can stay, so only they are written."""
        for row in rows[-self._keep :]:
            self.push(row)

    def window(self, n: int) -> np.ndarray:
        """Up to ``n`` rows ending at the newest one."""
        return self._buf[max(0, self._end - n) : self._end]


class SignalEngine:
    """Strictly causal per-instrument pipeline.

    Every pushed bar extends the coefficient history; once warm, each bar is
    fit over the trailing calib_len coefficient rows, its mode-1 stationary
    density synthesized and compared against the density computed shift_len
    bars earlier, and the trade rule evaluated. ``reason_counts`` counts the
    decided bars by their code of ``nsw.errors.REASONS``: the window's
    failure, else the displaced window's, else the convolution density's
    (these ``degenerate_bars`` are held with gated=True), else ``ks_reject``
    or ``pass``. ``step`` (one bar) and ``run`` (a whole series) decide
    through the same loop, so they return the same signals and counts bit for
    bit. Only the newest bars a decision reads are kept, so memory stays fixed.
    """

    def __init__(self, cfg: SignalConfig = SignalConfig()):
        self.cfg = cfg
        self.filter = make_wavelet(cfg.wavelet)
        self._taps = mode_taps(self.filter, cfg.levels)
        self._sign = -1.0 if cfg.invert_sign else 1.0
        self._support = self.filter.support_at(cfg.levels)
        self._prices = _Trailing(self._support)
        # one (levels,) row per bar, NaN while unsupported; enough rows for
        # the current and the displaced fit window
        self._coeffs = _Trailing(cfg.calib_len + cfg.shift_len + 1, (cfg.levels,))
        # (bar, density or None, its DensityStack.status) in slot bar % (shift_len + 1):
        # the newest shift_len + 1 densities, enough to reach each decision's displaced one
        self._densities = [(-1, None, PASS)] * (cfg.shift_len + 1)
        self.n_bars = 0
        self.reason_counts = np.zeros(len(REASONS), dtype=np.int64)

    @property
    def min_history(self) -> int:
        """Bars needed before the first decision: coarsest wavelet support,
        a full fit window, and the displaced fit window."""
        return self._support + self.cfg.calib_len + self.cfg.shift_len - 1

    @property
    def degenerate_bars(self) -> int:
        """Decided bars held without a density to gate: every code but ``pass`` and ``ks_reject``."""
        return int(self.reason_counts[PASS + 1 : KS_REJECT].sum())

    @property
    def ready(self) -> bool:
        return self.n_bars >= self.min_history

    def extend(self, price: float) -> None:
        """Append one bar without deciding (warm-up feeding)."""
        price = float(price)
        if not 0.0 < price < math.inf:
            raise NonPositivePrice(self.n_bars + 1, f"price {price}")
        self._prices.push(price)
        self._coeffs.push(coeff_row(self._prices.window(self._support), self._taps, self._sign))
        self.n_bars += 1

    def step(self, price: float) -> Signal:
        """Push one bar and decide it. Raises NotWarmedUp until enough bars
        have been fed for the full pipeline (including the displaced fit).

        The live path: ``_decide`` on the trailing rows that the bar's fit
        window and its displaced one read, the same loop ``run`` uses."""
        self.extend(price)
        if not self.ready:
            raise NotWarmedUp(f"have {self.n_bars} bars, need {self.min_history}")
        return self._decide(self._coeffs.window(self.cfg.calib_len + self.cfg.shift_len + 1), self.n_bars - 1)[0]

    def _decide_bar(self, window, d_now, d_shift, reason) -> Signal:
        """Gate, trade rule and reason count for the bar whose fit window is ``window``;
        ``reason`` is the first failure code of the windows of ``d_now``/``d_shift``, or 0."""
        dy1 = float(window[-1, 0] - window[-2, 0])
        if not reason and self.cfg.density_mode == "convolution":
            try:
                p_s = convolution_p_s(d_now, d_shift)
            except (NonIntegrable, GridMismatch) as exc:
                reason = GRID_MISMATCH if isinstance(exc, GridMismatch) else CONV_NON_INTEGRABLE
        elif not reason:
            p_s = float(d_now.p_s[0])
        if reason:
            self.reason_counts[reason] += 1
            return Signal(Action.HOLD, 0.5, dy1, gated=True)
        _, ks_pass = ks_quasistationarity(d_now, d_shift, window[:, 0], self.cfg.alpha2, self.cfg.ks_k)
        self.reason_counts[PASS if ks_pass else KS_REJECT] += 1
        return decide(dy1, p_s, ks_pass, self.cfg)

    def run(self, series: PriceSeries) -> SignalTrace:
        """Drive a whole series: warm up on the prefix, decide every later bar.

        The engine takes the series' first ``n_bars`` bars as the ones it has
        already been fed. The batch path: the coefficient rows of the whole
        series come from one ``transform``, and ``_decide`` fits and decides
        every later bar in chunks. Signals, ``reason_counts`` and the
        engine state left behind equal those of feeding the same bars through
        ``extend`` and ``step``, so a live feed can go on with ``step``
        afterwards."""
        prices = series.prices
        warm_end = min(self.min_history - 1, len(prices))
        while self.n_bars < warm_end:
            self.extend(prices[self.n_bars])
        first = self.n_bars
        if first == len(prices):
            return SignalTrace(first)
        rows = transform(prices, self.filter, self.cfg.levels, self.cfg.invert_sign)
        self._prices.push_all(prices[first:])
        self._coeffs.push_all(rows[first:])
        self.n_bars = len(prices)
        return SignalTrace(first, self._decide(rows, first))

    def _decide(self, rows, first: int) -> list:
        """Signals of bars ``first .. n_bars - 1``; ``rows`` are coefficient
        rows ending at bar ``n_bars - 1``.

        The windows to fit are the displaced ones the density ring does not
        hold yet, then one per decided bar. They are fitted and synthesized
        in chunks by ``fit_windows`` and ``stationary_densities``; each
        window's density goes into the ring at its bar's slot, where it
        serves as the displaced density ``shift_len`` bars later. A ring
        entry is a view that keeps its whole chunk alive, so displaced
        windows, which leave the ring sooner, never share a chunk with
        decided bars."""
        cfg = self.cfg
        ring, n = len(self._densities), self.n_bars
        base = n - len(rows)  # the bar of rows[0]
        displaced = range(first - cfg.shift_len, min(first, n - cfg.shift_len))
        chunk = max(1, _CHUNK_CELLS // cfg.n_grid)
        signals = []
        for bars in ([t for t in displaced if self._densities[t % ring][0] != t], range(first, n)):
            for lo in range(0, len(bars), chunk):
                part = bars[lo : lo + chunk]
                windows = np.array([rows[t - base - cfg.calib_len + 1 : t - base + 1] for t in part])
                dens = stationary_densities(fit_windows(windows, degree=cfg.degree), mode=1, span=cfg.grid_span,
                                            n_grid=cfg.n_grid)
                for i, (t, reason) in enumerate(zip(part, dens.status.tolist())):
                    d_now = dens.row(i)
                    self._densities[t % ring] = (t, d_now, reason)
                    if t >= first:
                        _, d_shift, shift_reason = self._densities[(t - cfg.shift_len) % ring]
                        signals.append(self._decide_bar(windows[i], d_now, d_shift, reason or shift_reason))
        return signals


def write_signals(trace: SignalTrace, path) -> None:
    """Signal log, one row per decided bar: ``t,kind,p_s,dy1,gated``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "kind", "p_s", "dy1", "gated"])
        for i, s in enumerate(trace.signals):
            w.writerow([trace.start + i, s.kind.value, repr(float(s.p_s)), repr(float(s.dy1)), int(s.gated)])
