"""What the traced run wraps, and the per-layer metrics it derives.

The layers are the modules of ``src/nsw``; ``cli``, ``config`` and ``errors``
are thin and stay unmeasured. README.md lists which end-to-end metric each
layer metric should move.
"""

from __future__ import annotations

import statistics

from tracer import END, NAME, NOTE, START, Tracer

# "module:qualname" -> note(args, result), or None when the span needs no note
TARGETS = {
    "nsw.sde_fit:fit_model": None,
    "nsw.stationary:stationary_density": None,
    "nsw.stationary:ks_quasistationarity": None,
    "nsw.stationary:density_convolution": None,
    "nsw.signals:SignalEngine.extend": None,
    "nsw.signals:SignalEngine.step": None,
    "nsw.signals:decide": None,
    "nsw.backtest:run_backtest": lambda args, report: len(report.equity),
    "nsw.backtest:run_parcel_backtest": None,
    "nsw.baselines:tune_baseline": None,
    "nsw.baselines:IndicatorStrategy.run": lambda args, trace: len(args[1]),
    "nsw.portfolio:optimize_parcel": lambda args, result: (result.iterations, result.converged),
    "nsw.portfolio:estimate_moments": None,
    "nsw.timeseries:load_bars": lambda args, series: len(series),
}


class _Calls:
    """Per-name totals over the spans of one traced pass."""

    def __init__(self):
        self.n = 0
        self.total = 0.0
        self.self_total = 0.0
        self.notes = []

    def mean_us(self, self_time=False) -> float:
        return 1e6 * (self.self_total if self_time else self.total) / self.n if self.n else 0.0


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, wall: float, untraced_wall: float, counts: dict) -> dict:
    """Per-layer metrics of one traced pass.

    ``wall`` is the traced pass's timed region and ``untraced_wall`` the median
    of the untraced passes; ``counts`` carries the pass's decided, gated and
    degenerate bar counts. A layer with no calls reports zeros.
    """
    calls = {qual.split(":")[1]: _Calls() for qual in TARGETS}
    for span, self_time in zip(tracer.spans, tracer.self_times()):
        c = calls[span[NAME]]
        c.n += 1
        c.total += span[END] - span[START]
        c.self_total += self_time
        if span[NOTE] is not None:
            c.notes.append(span[NOTE])
    raised = tracer.raised

    fit = calls["fit_model"]
    dens, ks, conv = calls["stationary_density"], calls["ks_quasistationarity"], calls["density_convolution"]
    acct, parcel = calls["run_backtest"], calls["run_parcel_backtest"]
    tune, indicator = calls["tune_baseline"], calls["IndicatorStrategy.run"]
    opt, moments, load = calls["optimize_parcel"], calls["estimate_moments"], calls["load_bars"]
    decided = counts["decided"]
    return {
        "sde_fit.calls": fit.n,
        "sde_fit.us_per_call": fit.mean_us(),
        "sde_fit.share": _ratio(fit.self_total, wall),
        "sde_fit.fail_frac": _ratio(raised.get("fit_model", 0), fit.n),
        "sde_fit.calls_per_bar": _ratio(fit.n, decided),
        "stationary.density_us": dens.mean_us(),
        "stationary.density_ok_frac": _ratio(dens.n - raised.get("stationary_density", 0), dens.n),
        "stationary.ks_us": ks.mean_us(),
        "stationary.conv_us": conv.mean_us(),
        "stationary.conv_fail_frac": _ratio(raised.get("density_convolution", 0), conv.n),
        "stationary.share": _ratio(dens.self_total + ks.self_total + conv.self_total, wall),
        "wavelets.row_us": calls["SignalEngine.extend"].mean_us(self_time=True),
        "signals.step_self_us": calls["SignalEngine.step"].mean_us(self_time=True),
        "signals.decide_us": calls["decide"].mean_us(),
        "signals.gate_pass_frac": _ratio(decided - counts["gated"], decided),
        "signals.degenerate_frac": _ratio(counts["degenerate"], decided),
        "backtest.acct_us_per_bar": 1e6 * _ratio(acct.self_total, sum(acct.notes)),
        "backtest.runs": acct.n,
        "backtest.parcel_self_s": parcel.self_total,
        "baselines.tune_s": tune.total,
        "baselines.signal_us_per_bar": 1e6 * _ratio(indicator.total, sum(indicator.notes)),
        "baselines.configs": indicator.n,
        "portfolio.opt_calls": opt.n,
        "portfolio.opt_us": opt.mean_us(),
        "portfolio.iters_per_opt": statistics.fmean(i for i, _ in opt.notes) if opt.notes else 0.0,
        "portfolio.converged_frac": _ratio(sum(1 for _, ok in opt.notes if ok), opt.n),
        "portfolio.moments_us": moments.mean_us(),
        "timeseries.load_us_per_bar": 1e6 * _ratio(load.total, sum(load.notes)),
        "trace.overhead_frac": wall / untraced_wall - 1.0,
    }
