"""Stochastic-wavelet trading model.

Fits an Ito diffusion to sliding wavelet coefficients of a price series,
synthesizes the stationary density, and trades on coefficient increments
gated by a quasi-stationarity test; includes parcel-weight optimization and
classical indicator baselines for comparison.
"""

from .backtest import BacktestReport, compare_strategies, run_backtest, run_parcel_backtest
from .baselines import IndicatorConfig, IndicatorStrategy, tune_baseline
from .config import RunConfig, load_config, parse_config
from .portfolio import (
    MomentEstimate,
    ParcelWeights,
    estimate_moments,
    log_returns,
    objective_P,
    optimize_parcel,
)
from .sde_fit import FitStack, eval_diffusion, eval_drift, fit_model
from .signals import Action, Signal, SignalConfig, SignalEngine, decide
from .stationary import DensityStack, density_convolution, ks_quasistationarity, stationary_density
from .timeseries import PriceSeries, load_bars, make_ou_price_series, simulate_sde, write_bars
from .wavelets import WaveletFilter, make_wavelet, transform

__version__ = "0.1.0"

__all__ = [
    "Action",
    "BacktestReport",
    "DensityStack",
    "FitStack",
    "IndicatorConfig",
    "IndicatorStrategy",
    "MomentEstimate",
    "ParcelWeights",
    "PriceSeries",
    "RunConfig",
    "Signal",
    "SignalConfig",
    "SignalEngine",
    "WaveletFilter",
    "compare_strategies",
    "decide",
    "density_convolution",
    "estimate_moments",
    "eval_diffusion",
    "eval_drift",
    "fit_model",
    "ks_quasistationarity",
    "load_bars",
    "load_config",
    "log_returns",
    "make_ou_price_series",
    "make_wavelet",
    "objective_P",
    "optimize_parcel",
    "parse_config",
    "run_backtest",
    "run_parcel_backtest",
    "simulate_sde",
    "stationary_density",
    "transform",
    "tune_baseline",
    "write_bars",
]
