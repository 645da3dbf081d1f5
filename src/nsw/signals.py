"""Per-bar trade decisions gated by the quasi-stationarity test.

The rules consult the coarsest coefficient mode only: buy when the newest
coefficient increment is negative (prices recovering under the default Haar
sign convention) while the synthesized stationary mass below zero exceeds
1 - alpha1; sell on the mirrored condition against alpha1. Whenever the
displaced-window density is statistically distinguishable from the current
one, the bar is held and marked gated.
"""

from __future__ import annotations

import contextlib
import enum
import math
import mmap
import os
import signal
import sys
import threading
import warnings
from dataclasses import dataclass

import numpy as np

from .errors import (CONV_NON_INTEGRABLE, GRID_MISMATCH, KS_REJECT, PASS, REASONS, ConfigError, GridMismatch,
                     NonIntegrable, NonPositivePrice, NotWarmedUp, UnsupportedFamily)
from .sde_fit import FitStack, fit_windows
from .stationary import DEFAULT_GRID, DEFAULT_SPAN, convolution_p_s, ks_statistic, ks_threshold, stationary_densities
from .timeseries import PriceSeries
from .wavelets import coeff_row, make_wavelet, mode_taps, transform

# windows are synthesized in chunks of about this many density grid nodes (16
# windows at n_grid=1024): enough to amortize the per-call cost of the stacked
# kernels, small enough that peak memory stays flat
_CHUNK_CELLS = 16 * 1024
# windows are fitted this many at a time: the fit's cost per window still
# falls past 16 windows, while the density's does not and its memory grows
_FIT_WINDOWS = 32
# run() decides the first half of a series in a forked child when each half
# has at least this many bars. The fork and the copy-on-write faults after it
# cost more than a short half saves: with SignalConfig(shift_len=16), on two
# CPUs, a split run of 600 bars took 1.21x the one-process time, of 1100 bars
# 0.72x and of 2200 bars 0.56x
_MIN_PART = 1024


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
    grid_span: float = DEFAULT_SPAN
    n_grid: int = DEFAULT_GRID
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


# outcome code of a decided bar: the action, with holds split by the gate flag
CODE_HOLD, CODE_BUY, CODE_SELL, CODE_GATED = range(4)
_CODE_ACTIONS = (Action.HOLD, Action.BUY, Action.SELL, Action.HOLD)


def _outcome(dy1: float, p_s: float, ks_pass: bool, alpha1: float) -> int:
    """The outcome code of the purchase/sale rules on one bar's inputs."""
    if not 0.0 <= p_s <= 1.0:
        raise ValueError(f"p_s must be in [0, 1], got {p_s}")
    if not ks_pass:
        return CODE_GATED
    if -dy1 > 0 and p_s > 1.0 - alpha1:
        return CODE_BUY
    if -dy1 < 0 and p_s < alpha1:
        return CODE_SELL
    return CODE_HOLD


def _code_signal(code: int, p_s: float, dy1: float) -> Signal:
    return Signal(_CODE_ACTIONS[code], p_s, dy1, gated=code == CODE_GATED)


def decide(dy1: float, p_s: float, ks_pass: bool, cfg: SignalConfig) -> Signal:
    """Apply the purchase/sale rules to one bar's inputs.

    Exactly one action comes back; a failed stationarity gate always holds.
    Both inequalities are strict, so dy1 == 0 never trades.
    """
    return _code_signal(_outcome(dy1, p_s, ks_pass, cfg.alpha1), p_s, dy1)


class SignalTrace:
    """Per-bar outcomes of bars ``start .. start + n - 1``, fixed when built.

    Built from ``signals``, kept as a tuple, or from columns: ``codes``, one
    outcome code per bar (``CODE_HOLD``, ``CODE_BUY``, ``CODE_SELL``,
    ``CODE_GATED``), with the bars' ``p_s`` and ``dy1`` or without both.
    ``codes`` (the accounting format, uint8), ``p_s`` and ``dy1`` are
    read-only arrays, copied or derived once at construction; a trace built
    from codes alone has NaN ``p_s`` and ``dy1``. ``signals`` is the tuple
    the trace was built from, or else one ``Signal`` per bar built from the
    columns on first read. ``==`` and ``repr`` read the columns, NaN equal
    to NaN.
    """

    def __init__(self, start: int, signals=(), *, codes=None, p_s=None, dy1=None):
        self.start = start
        self._signals = None
        if codes is None:
            if p_s is not None or dy1 is not None:
                raise ValueError("p_s and dy1 come with codes")
            self._signals = tuple(signals)
            codes = [CODE_GATED if s.gated else _CODE_ACTIONS.index(s.kind) for s in self._signals]
            p_s, dy1 = [s.p_s for s in self._signals], [s.dy1 for s in self._signals]
        elif signals:
            raise ValueError("give signals or codes, not both")
        elif (p_s is None) != (dy1 is None):
            raise ValueError("give p_s and dy1 together")
        given = np.asarray(codes)
        self._codes = given.astype(np.uint8)
        bad = given[(self._codes != given) | (self._codes > CODE_GATED)]
        if bad.size:
            raise ValueError(f"outcome code {bad[0].item()} is not one of 0-3")
        n = len(self._codes)
        if p_s is None:
            self._p_s = self._dy1 = np.full(n, math.nan)
        else:
            self._p_s, self._dy1 = np.array(p_s, dtype=np.float64), np.array(dy1, dtype=np.float64)
        for col in (self._codes, self._p_s, self._dy1):
            if col.shape != (n,):
                raise ValueError(f"{n} codes but a column of shape {col.shape}")
            col.setflags(write=False)

    def __eq__(self, other):
        if not isinstance(other, SignalTrace):
            return NotImplemented
        return (self.start == other.start and np.array_equal(self._codes, other._codes)
                and np.array_equal(self._p_s, other._p_s, equal_nan=True)
                and np.array_equal(self._dy1, other._dy1, equal_nan=True))

    def __repr__(self):
        return (f"SignalTrace(start={self.start!r}, codes={self._codes.tolist()!r}, p_s={self._p_s.tolist()!r}, "
                f"dy1={self._dy1.tolist()!r})")

    @property
    def signals(self) -> tuple:
        if self._signals is None:
            self._signals = tuple(map(_code_signal, self._codes.tolist(), self._p_s.tolist(), self._dy1.tolist()))
        return self._signals

    @property
    def codes(self) -> np.ndarray:
        return self._codes

    @property
    def p_s(self) -> np.ndarray:
        return self._p_s

    @property
    def dy1(self) -> np.ndarray:
        return self._dy1


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

    name = "NSW"  # the strategy label of its backtest reports

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
        # (bar, its window's DensityStack, row in it, status) in slot bar % (shift_len + 1):
        # the newest shift_len + 1 densities, enough to reach each decision's displaced one
        self._densities = [(-1, None, 0, PASS)] * (cfg.shift_len + 1)
        self._ks_bound = ks_threshold(cfg.calib_len, cfg.alpha2, cfg.ks_k)  # on a window's mode-1 sample
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
        window = self._coeffs.window(self.cfg.calib_len + self.cfg.shift_len + 1)
        code, reason, p_s, dy1 = self._decide(window, self.n_bars - len(window), self.n_bars - 1,
                                              self._densities)[:, 0].tolist()
        self.reason_counts[int(reason)] += 1
        return _code_signal(int(code), p_s, dy1)

    def run(self, series: PriceSeries) -> SignalTrace:
        """Drive a whole series: warm up on the prefix, decide every later bar.

        The engine takes the series' first ``n_bars`` bars as the ones it has
        already been fed. The batch path: the coefficient rows of the whole
        series come from one ``transform``, and ``_decide`` fits and decides
        every later bar in chunks; ``reason_counts`` grows by the count of
        its columns' reasons. Signals, ``reason_counts`` and the engine state
        left behind equal those of feeding the same bars through ``extend``
        and ``step``, so a live feed can go on with ``step`` afterwards.

        On Linux, with a second CPU in the process's affinity set, no other
        Python thread alive and at least ``_MIN_PART`` decided bars in each
        half, ``run`` decides the first half in one forked child, on a
        snapshot of the density ring, while this process decides the second
        (``_decide_split``). The outputs stay bit
        for bit the same: every window's fit and density are the same
        whatever stack computes them, and each decision reads only its own
        window's and its displaced window's. Threaded callers, other
        platforms and shorter runs keep one process."""
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
        n = self.n_bars = len(prices)
        mid = (first + n) // 2
        if min(mid - first, n - mid) >= _MIN_PART and _can_fork():
            codes, reasons, p_s, dy1 = self._decide_split(rows, first, mid)
        else:
            codes, reasons, p_s, dy1 = self._decide(rows, 0, first, self._densities)
        self.reason_counts += np.bincount(reasons.astype(np.intp), minlength=len(REASONS))
        return SignalTrace(first, codes=codes, p_s=p_s, dy1=dy1)

    def _decide_split(self, rows, first: int, mid: int) -> np.ndarray:
        """``_decide(rows, 0, first, self._densities)``, bars ``first .. mid - 1``
        decided in a forked child while this process decides the rest.

        The child decides on ``ring``, a snapshot of the density ring as the
        run found it, writes its ``(4, mid - first)`` float64 columns into an
        anonymous shared mapping made before the fork, and only then sets the
        mapping's last byte. This process's ``_decide`` from ``mid`` fits the
        displaced windows before ``mid`` itself, so its ring ends where a
        one-process run leaves it. If the byte is unset once the child is
        gone, the head is decided here on ``ring``: an error then surfaces as
        in one process, a head bar's first."""
        ring, size = list(self._densities), 4 * 8 * (mid - first)  # four float64 rows
        try:
            block = mmap.mmap(-1, size + 1)
            with warnings.catch_warnings():
                # Python 3.12+ warns on a fork beside any other OS thread, such
                # as OpenBLAS's pool, which stops itself at a fork
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
        except OSError:  # no memory or process to spare: decide every bar here
            return self._decide(rows, 0, first, self._densities)
        if pid == 0:
            try:
                block[:size] = self._decide(rows[:mid], 0, first, ring).tobytes()
                block[size] = 1
            finally:
                os._exit(0)
        try:
            tail = self._decide(rows, 0, mid, self._densities)
        except Exception as exc:  # a head bar's error, if any, comes first
            tail = exc
        except BaseException:  # an interrupt: stop the child instead of waiting for it
            with contextlib.suppress(ProcessLookupError):
                os.kill(pid, signal.SIGKILL)
            raise
        finally:
            with contextlib.suppress(ChildProcessError):  # SIGCHLD is ignored: the child reaped itself
                os.waitpid(pid, 0)
        head = np.frombuffer(block[:size]).reshape(4, -1) if block[size] else self._decide(rows[:mid], 0, first, ring)
        if isinstance(tail, Exception):
            raise tail
        return np.concatenate((head, tail), axis=1)

    def _windows(self, rows, base: int, bars):
        """``(bar, DensityStack, row, status)`` of each bar's fit window, in
        order, fitted in stacks and synthesized in chunks; ``rows[0]`` is bar ``base``."""
        cfg = self.cfg
        chunk = max(1, _CHUNK_CELLS // cfg.n_grid)
        for lo in range(0, len(bars), _FIT_WINDOWS):
            part = bars[lo : lo + _FIT_WINDOWS]
            fits = fit_windows(np.array([rows[t - base - cfg.calib_len + 1 : t - base + 1] for t in part]),
                               degree=cfg.degree)
            for c in range(0, len(part), chunk):
                sl = slice(c, c + chunk)
                fits_c = fits if len(part) <= chunk else FitStack(fits.terms, fits.degree, *(
                    a[sl] for a in (fits.mean, fits.std, fits.drift, fits.diff, fits.floor, fits.status)))
                dens = stationary_densities(fits_c, mode=1, span=cfg.grid_span, n_grid=cfg.n_grid)
                for i, (t, status) in enumerate(zip(part[sl], dens.status.tolist())):
                    yield t, dens, i, status

    def _decide(self, rows, base: int, first: int, ring: list) -> np.ndarray:
        """``codes, reasons, p_s, dy1`` of bars ``first .. n - 1``, the rows of
        one float64 array; ``rows`` are coefficient rows of bars ``base ..
        n - 1``. A bar's reason is its code of ``nsw.errors.REASONS``; a
        degenerate bar reads gated, with ``p_s = 0.5``.

        ``ring`` is a density ring (``_densities`` or a snapshot of it), and
        nothing else changes. The windows to fit are the displaced ones the
        ring does not hold yet, then one per decided bar. Each window's entry
        goes into the ring at its bar's slot, where it serves as the displaced
        density ``shift_len`` bars later (which may still be in its chunk),
        before its bar is decided. A ring entry keeps its whole density chunk
        alive, so displaced windows, which leave the ring sooner, never share
        a chunk with decided bars."""
        cfg = self.cfg
        slots, n = len(ring), base + len(rows)
        mode1 = np.ascontiguousarray(rows[:, 0])  # each gate's sample points are a slice of it
        dy1 = (mode1[first - base : n - base] - mode1[first - base - 1 : n - base - 1]).tolist()
        codes, reasons, p_s = [CODE_GATED] * len(dy1), [PASS] * len(dy1), [0.5] * len(dy1)
        convolution = cfg.density_mode == "convolution"
        displaced = range(first - cfg.shift_len, min(first, n - cfg.shift_len))
        for bars in ([t for t in displaced if ring[t % slots][0] != t], range(first, n)):
            for entry in self._windows(rows, base, bars):
                t, dens, i, reason = entry
                ring[t % slots] = entry
                if t < first:
                    continue
                _, d_shift, j, shift_reason = ring[(t - cfg.shift_len) % slots]
                reason = reason or shift_reason
                if not reason and convolution:
                    try:
                        p = convolution_p_s(dens.grid[i], dens.pdf[i], d_shift.grid[j], d_shift.pdf[j])
                    except (NonIntegrable, GridMismatch) as exc:
                        reason = GRID_MISMATCH if isinstance(exc, GridMismatch) else CONV_NON_INTEGRABLE
                elif not reason:
                    p = float(dens.p_s[i])
                k = t - first
                if not reason:
                    end = t - base + 1
                    ks_pass = ks_statistic(mode1[end - cfg.calib_len : end], dens.grid[i], dens.cdf[i],
                                           d_shift.grid[j], d_shift.cdf[j]) < self._ks_bound
                    reason = PASS if ks_pass else KS_REJECT
                    codes[k], p_s[k] = _outcome(dy1[k], p, ks_pass, cfg.alpha1), p
                reasons[k] = reason
        return np.array((codes, reasons, p_s, dy1))


def _can_fork() -> bool:
    """Whether ``run`` may fork: on Linux, where multiprocessing forks after
    numpy by default up to Python 3.13, with a second CPU for the child, and
    with no other Python thread, whose held locks a child would inherit."""
    return sys.platform == "linux" and len(os.sched_getaffinity(0)) >= 2 and threading.active_count() == 1


def write_signals(trace: SignalTrace, path) -> None:
    """Signal log, one row per decided bar: ``t,kind,p_s,dy1,gated``, written
    from the trace's columns as one text (csv.writer's rows: no field needs
    quoting, lines end in CRLF)."""
    fields = [(_CODE_ACTIONS[c].value, int(c == CODE_GATED)) for c in range(4)]
    rows = [f"{t},{fields[c][0]},{p!r},{d!r},{fields[c][1]}\r\n"
            for t, c, p, d in zip(range(trace.start, trace.start + len(trace.codes)), trace.codes.tolist(),
                                  trace.p_s.tolist(), trace.dy1.tolist())]
    with open(path, "w", newline="") as fh:
        fh.write("t,kind,p_s,dy1,gated\r\n" + "".join(rows))
