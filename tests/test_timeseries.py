import csv
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsw.errors import (
    ConfigError,
    InvalidStep,
    MissingFile,
    NegativeDiffusion,
    NonMonotonicTimestamp,
    NonPositivePrice,
    NonUniformSpacing,
    ParseError,
)
from nsw.config import RunConfig
from nsw.signals import SignalConfig, SignalEngine
from nsw.timeseries import _OU_BLOCK, MAX_PRICE, PriceSeries, load_bars, make_ou_price_series, simulate_sde, write_bars

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

    @pytest.mark.parametrize("name, symbol", [("bars_S1.csv", "S1"), ("SYN-A.csv", "SYN-A"), ("bars_.csv", "bars_"),
                                              ("my_bars_X.txt", "my_bars_X")])
    def test_named_after_stem_without_synth_prefix(self, tmp_path, name, symbol):
        p = _write(tmp_path, "timestamp,price\n0,1.0\n60,1.1\n", name)
        assert load_bars(p).symbol == symbol

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

    def test_repeated_row_index(self, tmp_path):
        # a repeated timestamp is a data row at fault, not a 0 s bar interval
        p = _write(tmp_path, "timestamp,price\n0,1.0\n60,1.1\n60,1.2\n120,1.3\n")
        with pytest.raises(NonMonotonicTimestamp) as exc:
            load_bars(p)
        assert exc.value.row == 3

    def test_missing_file(self, tmp_path):
        path = tmp_path / "nope.csv"
        with pytest.raises(MissingFile, match=f"^bar file not found: {re.escape(str(path))}$"):
            load_bars(path)

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
        back = load_bars(p)
        assert np.array_equal(back.timestamps, series.timestamps)
        assert np.array_equal(back.prices, series.prices)
        assert back.bar_interval == series.bar_interval

    def test_round_trip_past_2_53(self, tmp_path):
        # timestamps up to 299 * (2**52 + 1): float() would round them
        series = make_ou_price_series(300, seed=1, bar_interval=2**52 + 1)
        p = tmp_path / "big.csv"
        write_bars(series, p)
        back = load_bars(p, bar_interval=2**52 + 1)
        assert np.array_equal(back.timestamps, series.timestamps)
        assert back.bar_interval == 2**52 + 1

    def test_float_timestamps_still_read(self, tmp_path):
        s = load_bars(_write(tmp_path, "timestamp,price\n60.0,1.0\n1.2e2,1.1\n1_8_0,1.2\n"))
        assert s.timestamps.tolist() == [60, 120, 180]

    def test_fractional_timestamp_rejected(self, tmp_path):
        # int() of the float dropped the fraction: the file loaded as [0, 60, 120, 180]
        p = _write(tmp_path, "timestamp,price\n0,1.0\n60.7,1.1\n120.2,1.2\n180.9,1.3\n")
        with pytest.raises(ParseError, match="^row 2: timestamp 60.7 is not a whole number"):
            load_bars(p)

    def test_negative_timestamps_past_2_53_read_exactly(self, tmp_path):
        # a float parse rounded -(2**53 + 1) to -2**53, so the first step read 59 s
        first = -(2**53 + 1)
        rows = "".join(f"{first + 60 * k},1.0\n" for k in range(4))
        s = load_bars(_write(tmp_path, "timestamp,price\n" + rows))
        assert s.timestamps.tolist() == [first + 60 * k for k in range(4)]
        assert s.bar_interval == 60

    def test_file_equals_row_writer(self, tmp_path):
        series = make_ou_price_series(500, seed=4, bar_interval=2**52 + 1)
        write_bars(series, tmp_path / "bars.csv")
        # the row-by-row writer write_bars replaced
        with open(tmp_path / "old.csv", "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["timestamp", "price"])
            for t, p in zip(series.timestamps, series.prices):
                w.writerow([int(t), repr(float(p))])
        assert (tmp_path / "bars.csv").read_bytes() == (tmp_path / "old.csv").read_bytes()

    def test_blank_lines_skipped_and_not_counted(self, tmp_path):
        p = _write(tmp_path, "timestamp,price,volume\n\n0,1.0,5\n\n\n60,1.1\n120,-1,7,extra\n")
        with pytest.raises(NonPositivePrice) as exc:
            load_bars(p)
        assert exc.value.row == 3
        s = load_bars(_write(tmp_path, "timestamp,price\n\n0,1.0\n\n60,1.1\n\n"))
        assert list(s.prices) == [1.0, 1.1]

    def test_short_row(self, tmp_path):
        p = _write(tmp_path, "timestamp,volume,price\n0,3,1.0\n60,4\n120,5,1.2\n")
        with pytest.raises(ParseError) as exc:
            load_bars(p)
        assert exc.value.row == 2

    @pytest.mark.parametrize("header, message", [
        ("", "missing column 'timestamp'"),
        ("time,price", "missing column 'timestamp'"),
        ("timestamp,close", "missing column 'price'"),
    ])
    def test_missing_column(self, tmp_path, header, message):
        with pytest.raises(ParseError, match=f"^row 0: {message}$"):
            load_bars(_write(tmp_path, header + "\n0,1.0\n60,1.1\n" if header else ""))

    def test_gap_policy_checked_before_reading(self, tmp_path):
        p = _write(tmp_path, "timestamp,price\n0,oops\n60,1.1\n")
        with pytest.raises(ParseError, match="^row 1"):
            load_bars(p)
        with pytest.raises(ConfigError, match="gap_policy.*'fill'"):
            load_bars(p, gap_policy="fill")

    @pytest.mark.parametrize("stamp", ["inf", "-inf", "nan", "1e300", "9.3e18", "-9.3e18"])
    def test_timestamp_outside_int64(self, tmp_path, stamp):
        p = _write(tmp_path, f"timestamp,price\n0,1.0\n{stamp},1.1\n")
        with pytest.raises(ParseError) as exc:
            load_bars(p)
        assert exc.value.row == 2


class TestPriceSeries:
    def test_validation_in_constructor(self):
        with pytest.raises(NonPositivePrice):
            series_from_prices([1.0, 0.0, 2.0])

    @pytest.mark.parametrize("timestamps, error, row", [
        ([0, 60, 60, 120], NonMonotonicTimestamp, 3),  # repeated
        ([0, 60, 120, 90, 150], NonMonotonicTimestamp, 4),  # decreasing
        ([0, 60, 180, 240], NonUniformSpacing, 3),  # a gap
        # the first bad step in row order, whichever its kind
        ([0, 60, 180, 120, 180], NonUniformSpacing, 3),
        ([0, 60, 60, 240, 300], NonMonotonicTimestamp, 3),
    ])
    def test_step_faults_name_first_row(self, timestamps, error, row):
        with pytest.raises(error) as exc:
            PriceSeries("X", np.array(timestamps), np.ones(len(timestamps)), bar_interval=60.0)
        assert exc.value.row == row

    @pytest.mark.parametrize("bar_interval", [0.3, 0, -60, math.nan, math.inf, 1.5])
    @pytest.mark.parametrize("entry", [
        lambda bar_interval: make_ou_price_series(5, seed=1, bar_interval=bar_interval),
        lambda bar_interval: PriceSeries("X", np.arange(3) * 2, np.ones(3), bar_interval=bar_interval),
        lambda bar_interval: RunConfig(bar_interval=bar_interval),
    ], ids=["make_ou_price_series", "PriceSeries", "RunConfig"])
    def test_bar_interval_must_be_positive_whole_seconds(self, entry, bar_interval):
        # an interval that would round to a 0 s step is a bad argument, not a bad data row
        with pytest.raises(ConfigError, match="^bar_interval must be a positive whole number of seconds"):
            entry(bar_interval)


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


# -- the simulators against the loops they replaced ---------------------------

def old_simulate_sde(drift, diffusion, y0, dt, n_steps, seed):
    """``simulate_sde`` as it was: ``np.any`` on every diffusion and indexed
    noise rows. Kept as the oracle of the leaner loop."""
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
    for k in range(n_steps):
        g = diffusion(y)
        if np.any(g < 0):
            raise NegativeDiffusion(f"diffusion returned {g} at step {k}")
        y = y + drift(y) * dt + g * sq_dt * noise[k]
        out[k + 1] = y
    return out


def old_make_ou_price_series(n_bars, seed, rate=0.05, vol=0.01, trend=0.0, base_price=100.0, bar_interval=60.0):
    """The composition ``make_ou_price_series`` was before its own recursion,
    with its price range."""
    x = old_simulate_sde(lambda y: -rate * y, lambda y: vol, [0.0], 1.0, n_bars - 1, seed)[:, 0]
    t_idx = np.arange(n_bars)
    with np.errstate(over="ignore", under="ignore"):
        prices = base_price * np.exp(trend * t_idx + x)
    bad = np.flatnonzero(~((prices > 0) & (prices < MAX_PRICE)))
    if bad.size:
        raise ConfigError(f"trend={trend:g}, ou_rate={rate:g}, ou_vol={vol:g}, n_bars={n_bars}, "
                          f"base_price={base_price:g}: price {prices[bad[0]]:g} at bar {bad[0]}; use a smaller "
                          "|trend| or ou_vol, a smaller base_price, an ou_rate in [0, 2] or fewer bars")
    return t_idx * int(round(bar_interval)), prices


def outcome(fn, *args, **kwargs):
    """What a call returns, or the type and message of what it raises."""
    try:
        return fn(*args, **kwargs)
    except Exception as exc:  # noqa: BLE001 - the comparison is the point
        return type(exc), str(exc)


def assert_same_outcome(got, want):
    if isinstance(want, tuple) and isinstance(want[0], type):
        assert got == want
    elif isinstance(got, PriceSeries):
        ts, prices = want
        assert np.array_equal(got.timestamps, ts)
        assert got.prices.tobytes() == prices.tobytes()
    else:
        assert got.shape == want.shape and got.tobytes() == want.tobytes()


@st.composite
def sde_problems(draw):
    dims = draw(st.integers(1, 3))
    kappa = np.array(draw(st.lists(st.floats(0.0, 3.0), min_size=dims, max_size=dims)))
    level = draw(st.floats(-1.0, 1.0))
    kind = draw(st.sampled_from(["scalar", "int_zero", "zero", "array", "state", "goes_negative", "scalar_negative"]))
    s = draw(st.floats(0.0, 2.0))
    diffusion = {
        "scalar": lambda y: s,
        "int_zero": lambda y: 0,
        "zero": lambda y: 0.0,
        "array": lambda y: s * (1.0 + np.arange(dims)),
        "state": lambda y: s * np.abs(y),
        # an array, then a scalar diffusion that turns negative after some steps
        "goes_negative": lambda y: s - 3.0 * y,
        "scalar_negative": lambda y: float(s - 3.0 * y[0]),
    }[kind]
    y0 = draw(st.lists(st.floats(-1.0, 1.0), min_size=dims, max_size=dims))
    dt = draw(st.sampled_from([1.0, 0.5, 0.01, 0.37]))
    n_steps = draw(st.integers(1, 200))
    return (lambda y: level - kappa * y), diffusion, y0, dt, n_steps


@given(problem=sde_problems(), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=150, deadline=None)
def test_simulate_sde_equals_old_loop(problem, seed):
    drift, diffusion, y0, dt, n_steps = problem
    assert_same_outcome(outcome(simulate_sde, drift, diffusion, y0, dt, n_steps, seed),
                        outcome(old_simulate_sde, drift, diffusion, y0, dt, n_steps, seed))


def test_simulate_sde_negative_diffusion_step_and_message():
    # no noise until the drift carries y past 0.35 at step 4
    for diffusion in (lambda y: 0.0 if y[0] < 0.35 else -1.0, lambda y: np.where(y < 0.35, 0.0, -1.0)):
        got = outcome(simulate_sde, lambda y: 1.0 + 0 * y, diffusion, [0.0], 0.1, 10, 0)
        assert got == outcome(old_simulate_sde, lambda y: 1.0 + 0 * y, diffusion, [0.0], 0.1, 10, 0)
        assert got[0] is NegativeDiffusion and got[1].endswith("at step 4")


@given(
    n_bars=st.integers(1, 600),
    seed=st.integers(0, 2**63),
    rate=st.floats(0.0, 1.0),
    vol=st.floats(0.0, 0.1),
    trend=st.floats(-0.01, 0.01),
    base_price=st.floats(0.01, 1e4),
)
@settings(max_examples=60, deadline=None)
def test_ou_series_equals_composition(n_bars, seed, rate, vol, trend, base_price):
    assert_same_outcome(outcome(make_ou_price_series, n_bars, seed, rate=rate, vol=vol, trend=trend,
                                base_price=base_price),
                        outcome(old_make_ou_price_series, n_bars, seed, rate=rate, vol=vol, trend=trend,
                                base_price=base_price))


@pytest.mark.parametrize("n_bars, kwargs", [
    (5000, dict(rate=0.003, vol=0.01)),  # the reference series
    (2 * _OU_BLOCK + 3, dict(rate=0.05, vol=0.02, bar_interval=30.0)),  # across block boundaries
    (2, {}),
    (1, {}),  # InvalidStep
    (300, dict(vol=0.0)),
    (300, dict(vol=0)),
    (300, dict(vol=-0.01)),  # NegativeDiffusion at step 0
    (300, dict(vol=-1)),
    (300, dict(vol=math.nan)),  # ConfigError: price nan at bar 1
    (300, dict(rate=math.nan)),
    (300, dict(rate=2, vol=np.float32(0.01))),
    (2000, dict(trend=1.0)),  # ConfigError: price 3.3e150 at bar 342
    (2000, dict(trend=-1.0)),  # ConfigError: price 0 at bar 746
])
def test_ou_series_edge_cases_equal_composition(n_bars, kwargs):
    got = outcome(make_ou_price_series, n_bars, 1, **kwargs)
    assert_same_outcome(got, outcome(old_make_ou_price_series, n_bars, 1, **kwargs))
    if kwargs.get("trend"):
        assert got[0] is ConfigError and f"at bar {342 if kwargs['trend'] > 0 else 746};" in got[1]


@pytest.mark.parametrize("bar_interval", [1e18, 1e300, 2.0**63])
def test_ou_series_timestamps_past_int64_raise(bar_interval):
    with pytest.raises(ConfigError, match="bar_interval=.*n_bars=2000"):
        make_ou_price_series(2000, seed=1, bar_interval=bar_interval)


def test_ou_series_large_bar_interval_in_range():
    s = make_ou_price_series(2000, seed=1, bar_interval=1e15)
    assert s.timestamps[-1] == 1999 * 10**15
    assert np.array_equal(s.prices, make_ou_price_series(2000, seed=1).prices)
