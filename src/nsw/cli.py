"""Command-line front end: synth | backtest | parcel | compare.

Every command resolves a single config (file plus ``--set`` overrides)
and, once its run has succeeded, writes its outputs under a run directory
with a ``manifest.json`` echoing the fully resolved configuration for
reproducibility; a failed command creates no directory. Exit codes:
0 success, 1 runtime failure, 2 usage/config errors.
"""

from __future__ import annotations

import json
import logging
import sys
import time
from pathlib import Path

import click

from .backtest import (
    DECISION_FRACTION_BAND,
    TraceSource,
    compare_strategies,
    run_backtest,
    run_parcel_backtest,
    write_equity,
    write_report_json,
    write_weights,
)
from .config import RunConfig, apply_overrides, format_config, load_config
from .errors import NswError, UsageError
from .signals import SignalEngine, write_signals
from .timeseries import load_bars, make_ou_price_series, write_bars
from .wavelets import make_wavelet


def _resolve_config(config_path, overrides) -> RunConfig:
    cfg = load_config(config_path) if config_path else RunConfig()
    return apply_overrides(cfg, overrides or ())


def _write_outputs(out, command: str, cfg: RunConfig, inputs, writers) -> Path:
    """Create the run directory (default ``runs/<command>``), call each
    ``{file name: writer(path)}`` in order and write ``manifest.json``
    listing those files. Commands call it only once their run has
    succeeded, so a failed command leaves no directory behind."""
    out_dir = Path(out) if out else Path("runs") / command
    out_dir.mkdir(parents=True, exist_ok=True)
    paths = [out_dir / name for name in writers]
    for path, write in zip(paths, writers.values()):
        write(path)
    manifest = {
        "command": command,
        "created": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "config": cfg.as_dict(),
        "inputs": [str(p) for p in inputs],
        "outputs": [str(p) for p in paths],
    }
    with open(out_dir / "manifest.json", "w") as fh:
        json.dump(manifest, fh, indent=2)
    return out_dir


class _Command(click.Command):
    """Maps package errors onto the documented exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except UsageError as exc:
            raise click.UsageError(str(exc)) from exc  # exit code 2
        except NswError as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(1)


@click.group()
@click.option("-v", "--verbose", is_flag=True, help="debug logging")
def main(verbose):
    """Stochastic-wavelet trading model toolkit."""
    logging.basicConfig(
        level=logging.DEBUG if verbose else logging.INFO,
        format="%(levelname)s %(name)s: %(message)s",
        stream=sys.stderr,
    )


_shared = [
    click.option("--config", "config_path", type=click.Path(), default=None, help="key=value config file"),
    click.option("--set", "overrides", multiple=True, metavar="KEY=VALUE", help="override a config key"),
    click.option("--out", default=None, help="run directory (default runs/<command>)"),
]


def _with_shared(fn):
    for opt in reversed(_shared):
        fn = opt(fn)
    return fn


@main.command(cls=_Command)
@_with_shared
@click.option("--symbol", default="SYN", help="symbol name for the generated series")
def synth(config_path, overrides, out, symbol):
    """Generate a synthetic mean-reverting bar file."""
    cfg = _resolve_config(config_path, overrides)
    series = make_ou_price_series(
        cfg.n_bars,
        seed=cfg.seed,
        symbol=symbol,
        rate=cfg.ou_rate,
        vol=cfg.ou_vol,
        trend=cfg.trend,
        base_price=cfg.base_price,
        bar_interval=cfg.bar_interval,
    )
    bars_name = f"bars_{symbol}.csv"
    out_dir = _write_outputs(out, "synth", cfg, [], {
        bars_name: lambda path: write_bars(series, path),
        "config.txt": lambda path: path.write_text(format_config(cfg)),
    })
    click.echo(f"wrote {cfg.n_bars} bars to {out_dir / bars_name}")


@main.command(cls=_Command)
@_with_shared
@click.option("--data", "data_path", required=True, type=click.Path(), help="bar file to trade")
def backtest(config_path, overrides, out, data_path):
    """Run the causal model over one instrument."""
    cfg = _resolve_config(config_path, overrides)
    series = load_bars(data_path, gap_policy=cfg.gap_policy, bar_interval=cfg.bar_interval)
    engine = SignalEngine(cfg)
    trace = engine.run(series)
    report = run_backtest(TraceSource(trace, engine.name), series, cost_bps=cfg.cost_bps,
                          decision_band=DECISION_FRACTION_BAND)
    _write_outputs(out, "backtest", cfg, [data_path], {
        "report.json": lambda path: write_report_json(report, path),
        "equity.csv": lambda path: write_equity(report, path),
        "signals.csv": lambda path: write_signals(trace, path),
    })
    click.echo(f"final_Z {report.final_z:.4f} over {len(series)} bars "
               f"({len(report.fills)} trades, decision fraction {report.decision_fraction:.4f})")


@main.command(cls=_Command)
@_with_shared
@click.option("--data", "data_paths", required=True, multiple=True, type=click.Path(),
              help="bar file per instrument (repeat)")
def parcel(config_path, overrides, out, data_paths):
    """Multi-instrument parcel run with periodic weight re-optimization."""
    cfg = _resolve_config(config_path, overrides)
    series_list = [load_bars(p, gap_policy=cfg.gap_policy, bar_interval=cfg.bar_interval) for p in data_paths]
    horizon = cfg.resolved_horizon(make_wavelet(cfg.wavelet))
    report = run_parcel_backtest(
        [SignalEngine(cfg) for _ in series_list],
        series_list,
        theta=cfg.theta,
        rebalance_len=cfg.rebalance_len,
        horizon=horizon,
        cost_bps=cfg.cost_bps,
    )
    summary = {
        "symbols": list(report.symbols),
        "final_Z": report.final_z,
        "theta": cfg.theta,
        "rebalances": len(report.weight_trajectory),
        "instruments": [r.summary() for r in report.instrument_reports],
    }
    _write_outputs(out, "parcel", cfg, data_paths, {
        "report.json": lambda path: path.write_text(json.dumps(summary, indent=2)),
        "weights.csv": lambda path: write_weights(report, path),
        "equity.csv": lambda path: write_equity(report, path),
    })
    click.echo(f"parcel final_Z {report.final_z:.4f} ({len(report.weight_trajectory)} rebalances)")


@main.command(cls=_Command)
@_with_shared
@click.option("--data", "data_paths", required=True, multiple=True, type=click.Path(),
              help="bar file per instrument (repeat)")
@click.option("--show-reference", is_flag=True, help="print the published minute-bar reference table")
def compare(config_path, overrides, out, data_paths, show_reference):
    """Profitability table: tuned PC/BB/MACD/RSI baselines vs the causal model."""
    cfg = _resolve_config(config_path, overrides)
    series_list = [load_bars(p, gap_policy=cfg.gap_policy, bar_interval=cfg.bar_interval) for p in data_paths]
    table = compare_strategies(series_list, lambda: SignalEngine(cfg), cost_bps=cfg.cost_bps)
    text = table.to_text(show_reference=show_reference)
    click.echo(text)
    _write_outputs(out, "compare", cfg, data_paths, {
        "comparison.txt": lambda path: path.write_text(text + "\n"),
        "comparison.json": lambda path: path.write_text(table.to_json() + "\n"),
    })


if __name__ == "__main__":
    main()
