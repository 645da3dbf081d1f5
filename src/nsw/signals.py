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
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import (ConfigError, DegenerateWindow, GridMismatch, NonIntegrable, NonPositivePrice, NotWarmedUp,
                     UnsupportedFamily)
from .sde_fit import fit_model, fit_windows
from .stationary import convolution_p_s, ks_quasistationarity, stationary_densities, stationary_density
from .timeseries import PriceSeries
from .wavelets import coeff_row, make_wavelet, mode_taps, transform

# run() fits and synthesizes its windows in chunks of about this many density
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
    wavelet: str = "haar"
    wavelet_order: int = 0
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
            make_wavelet(self.wavelet, self.wavelet_order or None)
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


@dataclass
class SignalTrace:
    """Signals aligned to bars ``start .. start + len(signals) - 1``."""

    start: int
    signals: list = field(default_factory=list)


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

    def window(self, n: int, back: int = 0) -> np.ndarray:
        """Up to ``n`` rows ending ``back`` rows before the newest one."""
        stop = self._end - back
        return self._buf[max(0, stop - n) : stop]


class SignalEngine:
    """Strictly causal per-instrument pipeline.

    Every pushed bar extends the coefficient history; once warm, each bar is
    fit over the trailing calib_len coefficient rows, its mode-1 stationary
    density synthesized and compared against the density computed shift_len
    bars earlier, and the trade rule evaluated. Bars whose window cannot be
    modeled (zero variance) or whose fitted drift is not confining
    (non-normalizable density) are held with gated=True. Only the newest
    bars that a decision reads are kept, so a live feed runs in fixed memory.
    """

    def __init__(self, cfg: SignalConfig = SignalConfig()):
        self.cfg = cfg
        self.filter = make_wavelet(cfg.wavelet, cfg.wavelet_order or None)
        self._taps = mode_taps(self.filter, cfg.levels)
        self._sign = -1.0 if cfg.invert_sign else 1.0
        self._support = self.filter.support_at(cfg.levels)
        self._prices = _Trailing(self._support)
        # one (levels,) row per bar, NaN while unsupported; enough rows for
        # the current and the displaced fit window
        self._coeffs = _Trailing(cfg.calib_len + cfg.shift_len + 1, (cfg.levels,))
        # (bar, density or None) in slot bar % (shift_len + 1): the newest
        # shift_len + 1 densities, enough to reach each decision's displaced one
        self._densities = [(-1, None)] * (cfg.shift_len + 1)
        self.n_bars = 0
        self.degenerate_bars = 0

    @property
    def min_history(self) -> int:
        """Bars needed before the first decision: coarsest wavelet support,
        a full fit window, and the displaced fit window."""
        return self._support + self.cfg.calib_len + self.cfg.shift_len - 1

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

    def _window(self, t: int) -> np.ndarray:
        """Coefficient rows of the fit window ending at bar t."""
        return self._coeffs.window(self.cfg.calib_len, self.n_bars - 1 - t)

    def _density_at(self, t: int):
        """Mode-1 density (a one-row stack) for the fit window ending at bar
        t; None when the window is degenerate or the density non-normalizable.

        Bar t's slot keeps the result until bar t + shift_len + 1 reuses it,
        so the density fitted while deciding bar t serves as the displaced
        density shift_len bars later."""
        slot = t % len(self._densities)
        bar, dens = self._densities[slot]
        if bar != t:
            try:
                fit = fit_model(self._window(t), degree=self.cfg.degree, dt=1.0)
                dens = stationary_density(fit, mode=1, span=self.cfg.grid_span, n_grid=self.cfg.n_grid)
            except (DegenerateWindow, NonIntegrable):
                dens = None
            self._densities[slot] = (t, dens)
        return dens

    def step(self, price: float) -> Signal:
        """Push one bar and decide it. Raises NotWarmedUp until enough bars
        have been fed for the full pipeline (including the displaced fit).

        The live path: each bar's window is fitted on its own through
        ``fit_model`` and ``stationary_density``, the one-row cases of the
        ``fit_windows`` and ``stationary_densities`` kernels that ``run``
        uses, so both fill the density ring with the same one-row stacks."""
        self.extend(price)
        t = self.n_bars - 1
        if not self.ready:
            raise NotWarmedUp(f"have {self.n_bars} bars, need {self.min_history}")
        d_now = self._density_at(t)
        return self._decide_bar(self._window(t), d_now, self._density_at(t - self.cfg.shift_len))

    def _decide_bar(self, window, d_now, d_shift) -> Signal:
        """Gate and trade rule for the bar whose fit window is ``window``;
        ``d_now``/``d_shift`` are one-row density stacks or None."""
        dy1 = float(window[-1, 0] - window[-2, 0])
        if d_now is None or d_shift is None:
            self.degenerate_bars += 1
            return Signal(Action.HOLD, 0.5, dy1, gated=True)
        stat, ks_pass = ks_quasistationarity(
            d_now, d_shift, window[:, 0], alpha2=self.cfg.alpha2, k_override=self.cfg.ks_k
        )
        if self.cfg.density_mode == "convolution":
            try:
                p_s = convolution_p_s(d_now, d_shift)
            except (NonIntegrable, GridMismatch):
                # distributions too far apart to compare: treat as gated
                self.degenerate_bars += 1
                return Signal(Action.HOLD, 0.5, dy1, gated=True)
        else:
            p_s = float(d_now.p_s[0])
        return decide(dy1, p_s, ks_pass, self.cfg)

    def run(self, series: PriceSeries) -> SignalTrace:
        """Drive a whole series: warm up on the prefix, decide every later bar.

        The engine takes the series' first ``n_bars`` bars as the ones it has
        already been fed. The batch path: every window the decisions need is
        cut from one ``transform`` of the series and fitted and synthesized
        in fixed-size chunks by ``fit_windows`` and ``stationary_densities``.
        Signals, ``degenerate_bars`` and the engine state left behind equal
        those of feeding the same bars through ``extend`` and ``step``, so a
        live feed can go on with ``step`` afterwards."""
        prices = series.prices
        warm_end = min(self.min_history - 1, len(prices))
        while self.n_bars < warm_end:
            self.extend(prices[self.n_bars])
        trace = SignalTrace(start=self.n_bars)
        if self.n_bars < len(prices):
            self._decide_all(prices, trace.signals)
        return trace

    def _decide_all(self, prices, signals: list) -> None:
        """Decide bars n_bars .. len(prices) - 1 of a warm engine in chunks."""
        cfg = self.cfg
        first, ring = self.n_bars, len(self._densities)
        rows = transform(prices, self.filter, cfg.levels, cfg.invert_sign).coeffs
        # the windows step() would fit: the displaced ones the ring does not
        # hold yet, then one per decided bar
        n = len(prices)
        displaced = range(first - cfg.shift_len, min(first, n - cfg.shift_len))
        bars = [t for t in displaced if self._densities[t % ring][0] != t] + list(range(first, n))
        windows = sliding_window_view(rows, cfg.calib_len, axis=0)  # [t - calib_len + 1]: window ending at bar t
        chunk = max(1, _CHUNK_CELLS // cfg.n_grid)
        for lo in range(0, len(bars), chunk):
            part = bars[lo : lo + chunk]
            fits = fit_windows(windows[np.array(part) - (cfg.calib_len - 1)].transpose(0, 2, 1), degree=cfg.degree)
            dens = stationary_densities(fits, mode=1, span=cfg.grid_span, n_grid=cfg.n_grid)
            for i, t in enumerate(part):
                d_now = dens.row(i)
                self._densities[t % ring] = (t, d_now)
                if t >= first:
                    d_shift = self._densities[(t - cfg.shift_len) % ring][1]
                    signals.append(self._decide_bar(rows[t - cfg.calib_len + 1 : t + 1], d_now, d_shift))
        self._prices.push_all(prices[first:])
        self._coeffs.push_all(rows[first:])
        self.n_bars = n


def write_signals(trace: SignalTrace, path) -> None:
    """Signal log, one row per decided bar: ``t,kind,p_s,dy1,gated``."""
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["t", "kind", "p_s", "dy1", "gated"])
        for i, s in enumerate(trace.signals):
            w.writerow([trace.start + i, s.kind.value, repr(float(s.p_s)), repr(float(s.dy1)), int(s.gated)])
