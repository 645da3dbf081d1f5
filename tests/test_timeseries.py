import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsw.errors import (
    InvalidStep,
    MissingFile,
    NegativeDiffusion,
    NonMonotonicTimestamp,
    NonPositivePrice,
    NonUniformSpacing,
)
from nsw.signals import SignalConfig, SignalEngine
from nsw.timeseries import PriceSeries, load_bars, make_ou_price_series, simulate_sde, write_bars

from conftest import series_from_prices


def _write(tmp_path, text, name="bars.csv"):
    p = tmp_path / name
    p.write_text(text)
    return p


class TestLoadBars:
    def test_two_row_csv(self, tmp_path):
        p = _write(tmp_path, "timestamp,price\n0,1.0\n60,1.1\n")
        s = load_bars(p)
        assert len(s) == 2
        assert s.bar_interval == 60.0
        assert s.prices[1] == 1.1

    def test_negative_price_row_index(self, tmp_path):
        p = _write(tmp_path, "timestamp,price\n0,1.0\n60,1.1\n120,-1\n180,1.2\n")
        with pytest.raises(NonPositivePrice) as exc:
            load_bars(p)
        assert exc.value.row == 3

    def test_non_monotonic_row_index(self, tmp_path):
        p = _write(tmp_path, "timestamp,price\n0,1.0\n60,1.1\n30,1.2\n")
        with pytest.raises(NonMonotonicTimestamp) as exc:
            load_bars(p)
        assert exc.value.row == 3

    def test_missing_file(self, tmp_path):
        with pytest.raises(MissingFile):
            load_bars(tmp_path / "nope.csv")

    def test_gap_rejected_by_default(self, tmp_path):
        p = _write(tmp_path, "timestamp,price\n0,1.0\n60,1.1\n240,1.2\n")
        with pytest.raises(NonUniformSpacing):
            load_bars(p)

    def test_gap_forward_fill(self, tmp_path):
        p = _write(tmp_path, "timestamp,price\n0,1.0\n60,1.1\n240,1.2\n")
        s = load_bars(p, gap_policy="forward_fill")
        assert len(s) == 5
        assert list(s.prices[1:4]) == [1.1, 1.1, 1.1]

    def test_spacing_is_smallest_step(self, tmp_path):
        # the first gap is not the bar spacing
        p = _write(tmp_path, "timestamp,price\n0,1.0\n120,1.1\n180,1.2\n240,1.3\n")
        s = load_bars(p, gap_policy="forward_fill")
        assert s.bar_interval == 60.0
        assert list(s.timestamps) == [0, 60, 120, 180, 240]
        assert list(s.prices) == [1.0, 1.0, 1.1, 1.2, 1.3]
        with pytest.raises(NonUniformSpacing) as exc:
            load_bars(p)
        assert exc.value.row == 2

    def test_round_trip_synthetic_file(self, tmp_path):
        series = make_ou_price_series(1000, seed=5, symbol="RT")
        p = tmp_path / "rt.csv"
        write_bars(series, p)
        back = load_bars(p, symbol="RT")
        assert np.array_equal(back.timestamps, series.timestamps)
        assert np.array_equal(back.prices, series.prices)
        assert back.bar_interval == series.bar_interval

    def test_column_remap(self, tmp_path):
        p = _write(tmp_path, "ts,close\n0,2.0\n60,2.5\n")
        s = load_bars(p, columns={"timestamp": "ts", "price": "close"})
        assert s.prices[1] == 2.5


class TestPriceSeries:
    def test_validation_in_constructor(self):
        with pytest.raises(NonPositivePrice):
            series_from_prices([1.0, 0.0, 2.0])

    def test_prefix(self):
        s = series_from_prices([1.0, 2.0, 3.0, 4.0])
        assert np.array_equal(s.prefix(3).prices, [1.0, 2.0, 3.0])


def _via_price_series(tmp_path, bad):
    series_from_prices([1.0, bad, 2.0])


def _via_load_bars(tmp_path, bad):
    load_bars(_write(tmp_path, f"timestamp,price\n0,1.0\n60,{bad}\n120,2.0\n"))


def _via_engine(tmp_path, bad):
    engine = SignalEngine(SignalConfig())
    engine.extend(1.0)
    engine.extend(bad)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
@pytest.mark.parametrize("entry", [_via_price_series, _via_load_bars, _via_engine])
def test_non_finite_price_rejected(tmp_path, entry, bad):
    with pytest.raises(NonPositivePrice) as exc:
        entry(tmp_path, bad)
    assert exc.value.row == 2


class TestSimulateSde:
    def test_deterministic_decay(self):
        path = simulate_sde(lambda y: -y, lambda y: 0.0, [1.0], 0.1, 1, seed=0)
        assert path[1, 0] == pytest.approx(0.9, abs=0.0)

    def test_seed_determinism(self):
        a = simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], 0.01, 500, seed=42)
        b = simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], 0.01, 500, seed=42)
        assert np.array_equal(a, b)

    @given(seed=st.integers(min_value=0, max_value=2**31))
    @settings(max_examples=20, deadline=None)
    def test_seed_determinism_property(self, seed):
        a = simulate_sde(lambda y: 0.3 - y, lambda y: 0.7, [0.2], 0.05, 50, seed=seed)
        b = simulate_sde(lambda y: 0.3 - y, lambda y: 0.7, [0.2], 0.05, 50, seed=seed)
        assert np.array_equal(a, b)

    def test_zero_diffusion_matches_explicit_euler(self):
        path = simulate_sde(lambda y: np.sin(y) - y, lambda y: 0.0, [0.7], 0.02, 300, seed=1)
        y = np.array([0.7])
        for k in range(300):
            y = y + (np.sin(y) - y) * 0.02
            assert abs(path[k + 1, 0] - y[0]) < 1e-12

    def test_ou_stationary_variance(self):
        # dY = -Y dt + 1 dW has stationary variance 1/2
        path = simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], 0.01, 1_000_000, seed=7)
        v = path[10_000:, 0].var()
        assert abs(v - 0.5) / 0.5 < 0.05

    def test_ou_lag1_autocorrelation(self):
        dt = 0.05
        path = simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], dt, 1_000_000, seed=3)
        x = path[10_000:, 0]
        x = x - x.mean()
        rho = (x[1:] @ x[:-1]) / (x @ x)
        assert abs(rho - np.exp(-dt)) / np.exp(-dt) < 0.02

    def test_invalid_step(self):
        with pytest.raises(InvalidStep):
            simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], 0.0, 10, seed=0)
        with pytest.raises(InvalidStep):
            simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], 0.1, 0, seed=0)

    def test_negative_diffusion(self):
        with pytest.raises(NegativeDiffusion):
            simulate_sde(lambda y: -y, lambda y: -1.0, [0.0], 0.1, 5, seed=0)

    def test_multidimensional(self):
        path = simulate_sde(lambda y: -y, lambda y: np.array([1.0, 2.0]), [0.0, 0.0], 0.01, 100, seed=9)
        assert path.shape == (101, 2)

    def test_wrong_shape_rejected(self):
        with pytest.raises(ValueError):
            simulate_sde(lambda y: np.zeros(3), lambda y: 1.0, [0.0, 0.0], 0.01, 5, seed=0)
        with pytest.raises(ValueError):
            simulate_sde(lambda y: -y, lambda y: np.ones(2), [0.0], 0.01, 5, seed=0)
