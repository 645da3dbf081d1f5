import numpy as np
import pytest

from nsw.sde_fit import FitStack, _term_list
from nsw.timeseries import PriceSeries


def analytic_model_1d(drift_he, diff_he, mean=0.0, std=1.0, floor=1e-9):
    """Hand-built 1-D fit as a one-row FitStack: coefficient vectors over
    He_0..He_k in coordinates standardized by mean/std. diff_he expands G^2."""
    degree = max(len(drift_he), len(diff_he)) - 1
    terms = _term_list(1, degree)
    lam = np.zeros((1, 1, len(terms)))
    q = np.zeros((1, 1, len(terms)))
    lam[0, 0, : len(drift_he)] = drift_he
    q[0, 0, : len(diff_he)] = diff_he
    return FitStack(terms, degree, np.array([[mean]]), np.array([[std]]), lam, q, np.array([floor]),
                    np.zeros(1, dtype=int))


def series_from_prices(prices, symbol="TST", bar_interval=60.0, start=0):
    prices = np.asarray(prices, dtype=np.float64)
    ts = start + np.arange(len(prices)) * int(bar_interval)
    return PriceSeries(symbol=symbol, timestamps=ts, prices=prices, bar_interval=bar_interval)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.PCG64(2026081))
