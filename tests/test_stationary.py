import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.lib.stride_tricks import sliding_window_view

from nsw.errors import DegenerateWindow, GridMismatch, NonIntegrable, TooFewPoints
from nsw.sde_fit import fit_model, fit_windows
from nsw.stationary import (
    DensityStack,
    _finalize_rows,
    convolution_p_s,
    density_convolution,
    ks_quasistationarity,
    ks_threshold_constant,
    stationary_densities,
    stationary_density,
)
from nsw.timeseries import simulate_sde

from conftest import analytic_model_1d


def one_row(grid, pdf):
    """The one-row density stack of ``pdf`` normalized on ``grid``."""
    grid = grid[None]
    return _finalize_rows(grid, np.diff(grid, axis=1), np.array(pdf, dtype=np.float64)[None], np.zeros(1, np.uint8))


def gaussian_density(mu, sigma, lo, hi, n=2001):
    g = np.linspace(lo, hi, n)
    return one_row(g, np.exp(-0.5 * ((g - mu) / sigma) ** 2))


class TestStationaryDensity:
    def test_ou_matches_normal(self):
        # F = -y, G = 1 has stationary density N(0, 1/2)
        m = analytic_model_1d([0.0, -1.0], [1.0])
        d = stationary_density(m)
        grid = d.grid[0]
        ref = np.exp(-(grid**2)) / math.sqrt(math.pi)
        l1 = np.trapezoid(np.abs(d.pdf[0] - ref), grid)
        assert l1 < 0.02
        assert abs(d.p_s[0] - 0.5) < 0.01

    def test_normalization_and_cdf(self):
        m = analytic_model_1d([0.0, -1.0], [1.0])
        d = stationary_density(m)
        assert abs(np.trapezoid(d.pdf[0], d.grid[0]) - 1.0) < 1e-9
        assert abs(d.cdf[0, -1] - 1.0) < 1e-9
        assert np.all(np.diff(d.cdf[0]) >= 0)

    def test_anti_restoring_not_integrable(self):
        m = analytic_model_1d([0.0, 1.0], [1.0])
        with pytest.raises(NonIntegrable):
            stationary_density(m)

    def test_double_well_modes(self):
        # F = y - y^3 = -2 He1 - He3, G^2 = 0.5: maxima at +/-1
        m = analytic_model_1d([0.0, -2.0, 0.0, -1.0], [0.5])
        d = stationary_density(m, span=3.0, n_grid=4096)
        grid, pdf = d.grid[0], d.pdf[0]
        mid = len(grid) // 2
        left = grid[np.argmax(pdf[:mid])]
        right = grid[mid + np.argmax(pdf[mid:])]
        assert abs(left + 1.0) < 0.05
        assert abs(right - 1.0) < 0.05

    def test_grid_refinement_stability(self):
        m = analytic_model_1d([0.0, -1.0], [1.0])
        p1 = stationary_density(m, n_grid=1024).p_s[0]
        p2 = stationary_density(m, n_grid=2048).p_s[0]
        assert abs(p1 - p2) < 1e-3

    def test_even_density_ps_half(self):
        m = analytic_model_1d([0.0, -1.0, 0.0, -0.5], [0.8])
        assert abs(stationary_density(m).p_s[0] - 0.5) < 0.01

    def test_fitted_model_density(self):
        path = simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], 0.05, 40_000, seed=13)
        m = fit_model(path, degree=1, dt=0.05)
        d = stationary_density(m)
        grid, pdf = d.grid[0], d.pdf[0]
        # true stationary std is sqrt(1/2)
        mean = np.trapezoid(grid * pdf, grid)
        var = np.trapezoid((grid - mean) ** 2 * pdf, grid)
        assert abs(math.sqrt(var) - math.sqrt(0.5)) < 0.05


@pytest.mark.parametrize("dims", [1, 2, 3])
def test_stack_rows_equal_single_windows(dims):
    # fit_model and stationary_density are the one-window case of the stacked
    # kernels: every row of a stack carries exactly the single window's numbers,
    # and a degenerate window fails alone
    path = simulate_sde(lambda y: -y, lambda y: 1.0, np.zeros(dims), 0.2, 400, seed=dims)
    windows = sliding_window_view(path, 40, axis=0).transpose(0, 2, 1)[::9]
    windows = np.concatenate([windows, np.ones((1, 40, dims)), np.full((1, 40, dims), np.nan)])
    fits = fit_windows(windows, degree=2)
    stack = stationary_densities(fits, n_grid=512)
    assert list(fits.status[-2:]) == [2, 1]
    for i, window in enumerate(windows):
        try:
            model = fit_model(window, degree=2)
        except DegenerateWindow:
            assert fits.status[i] != 0 and stack.row(i) is None
            continue
        assert np.array_equal(model.drift[0], fits.drift[i]) and np.array_equal(model.diff[0], fits.diff[i])
        try:
            single = stationary_density(model, n_grid=512)
        except NonIntegrable:
            assert stack.row(i) is None
            continue
        row = stack.row(i)
        assert row.p_s[0] == single.p_s[0]
        assert np.array_equal(row.grid, single.grid) and np.array_equal(row.pdf, single.pdf)
        assert np.array_equal(row.cdf, single.cdf)


class TestConvolution:
    def test_symmetric_self(self):
        d = gaussian_density(0.7, 0.4, -2.0, 3.4)
        c = density_convolution(d, d)
        grid, pdf = c.grid[0], c.pdf[0]
        assert abs(c.p_s[0] - 0.5) < 0.01
        # symmetric about zero
        flipped = np.interp(-grid, grid, pdf, left=0, right=0)
        assert np.trapezoid(np.abs(pdf - flipped), grid) < 1e-6

    def test_narrow_spike(self):
        d = gaussian_density(1.3, 0.01, 1.0, 1.6, n=4001)
        c = density_convolution(d, d)
        grid, pdf = c.grid[0], c.pdf[0]
        mean = np.trapezoid(grid * pdf, grid)
        std = math.sqrt(np.trapezoid((grid - mean) ** 2 * pdf, grid))
        assert abs(mean) < 1e-6
        assert std < 0.03

    def test_gaussian_closed_form(self):
        d1 = gaussian_density(0.3, 0.5, -4.0, 4.0)
        d2 = gaussian_density(-0.9, 0.7, -5.0, 5.0)
        c = density_convolution(d1, d2)
        grid, pdf = c.grid[0], c.pdf[0]
        var = 0.5**2 + 0.7**2
        ref = np.exp(-0.5 * (grid + 1.2) ** 2 / var) / math.sqrt(2 * math.pi * var)
        assert np.trapezoid(np.abs(pdf - ref), grid) < 0.02

    def test_reflection_commutes(self):
        d1 = gaussian_density(0.4, 0.3, -2.0, 3.0)
        d2 = gaussian_density(-0.2, 0.5, -3.0, 2.5)
        c = density_convolution(d1, d2)
        r1 = gaussian_density(-0.4, 0.3, -3.0, 2.0)
        r2 = gaussian_density(0.2, 0.5, -2.5, 3.0)
        cr = density_convolution(r1, r2)
        probe = np.linspace(-1.5, 1.5, 301)
        a = np.interp(probe, c.grid[0], c.pdf[0], left=0, right=0)
        b = np.interp(-probe, cr.grid[0], cr.pdf[0], left=0, right=0)
        assert np.max(np.abs(a - b)) < 1e-3

    def test_grid_mismatch(self):
        d1 = gaussian_density(0.0, 0.1, -1.0, 1.0)
        d2 = gaussian_density(10.0, 0.1, 9.0, 11.0)
        with pytest.raises(GridMismatch):
            density_convolution(d1, d2)


@st.composite
def density_pairs(draw):
    """Two Gaussian densities on grids of different widths and spacings:
    overlapping, one inside the other, barely touching, or disjoint."""
    layout = draw(st.sampled_from(["overlap", "inside", "barely", "disjoint"]))
    lo1, w1 = draw(st.floats(-5.0, 5.0)), draw(st.floats(0.5, 8.0))
    n1 = draw(st.integers(8, 1100))
    w2 = draw(st.floats(0.05, 0.95)) * w1 if layout == "inside" else draw(st.floats(0.5, 8.0))
    n2 = min(max(int(w2 / (w1 / (n1 - 1) * draw(st.floats(0.25, 4.0)))) + 1, 8), 2048)
    if layout == "overlap":
        lo2 = lo1 - w2 + draw(st.floats(0.01, 0.99)) * (w1 + w2)
    elif layout == "inside":
        lo2 = lo1 + draw(st.floats(0.0, 1.0)) * (w1 - w2)
    else:  # the second grid starts just inside the first's end, or past it
        gap = draw(st.floats(1e-9, 0.02)) * w1
        lo2 = lo1 + w1 - gap if layout == "barely" else lo1 + w1 + gap
    if draw(st.booleans()):  # either grid may come first
        lo1, w1, n1, lo2, w2, n2 = lo2, w2, n2, lo1, w1, n1
    return [gaussian_density(lo + draw(st.floats(-0.2, 1.2)) * w, draw(st.floats(0.02, 1.0)) * w, lo, lo + w, n)
            for lo, w, n in ((lo1, w1, n1), (lo2, w2, n2))]


def same_p_s(d1, d2, tol=1e-13):
    """convolution_p_s equals its oracle, density_convolution's p_s, or both
    raise the same exception."""
    try:
        want = density_convolution(d1, d2).p_s[0]
    except (GridMismatch, NonIntegrable) as exc:
        with pytest.raises(type(exc)):
            convolution_p_s(d1, d2)
        return type(exc)
    got = convolution_p_s(d1, d2)
    assert isinstance(got, float) and abs(got - want) <= tol, (got, want)
    return None


class TestConvolutionPs:
    @given(pair=density_pairs())
    @settings(max_examples=300, deadline=None)
    def test_equals_density_convolution(self, pair):
        same_p_s(*pair)

    def test_disjoint_and_massless(self):
        d1 = gaussian_density(0.0, 0.1, -1.0, 1.0)
        assert same_p_s(d1, gaussian_density(10.0, 0.1, 9.0, 11.0)) is GridMismatch
        flat = DensityStack(d1.grid, np.zeros_like(d1.pdf), d1.cdf, d1.p_s, d1.status)
        assert same_p_s(d1, flat) is NonIntegrable
        assert same_p_s(d1, gaussian_density(0.5, 0.1, 0.0, 2.0)) is None

    def test_engine_densities(self, monkeypatch):
        # every density pair a live engine compares on a benchmark-like OU series
        import nsw.signals
        from nsw.signals import SignalConfig, SignalEngine
        from nsw.timeseries import make_ou_price_series

        pairs = []

        def recorded(d_now, d_shift):
            pairs.append((d_now, d_shift))
            return convolution_p_s(d_now, d_shift)

        monkeypatch.setattr(nsw.signals, "convolution_p_s", recorded)
        engine = SignalEngine(SignalConfig(shift_len=64, density_mode="convolution"))
        engine.run(make_ou_price_series(900, seed=1001, rate=0.003, vol=0.01))
        assert len(pairs) > 100
        for d_now, d_shift in pairs:
            same_p_s(d_now, d_shift)


class TestKsGate:
    def test_identical_densities(self):
        d = gaussian_density(0.0, 1.0, -5.0, 5.0)
        stat, ok = ks_quasistationarity(d, d, np.linspace(-3, 3, 16))
        assert stat == 0.0
        assert ok

    def test_threshold_arithmetic(self):
        # CDFs differing by ~0.9 at a sample point with N=16 must fail
        d1 = gaussian_density(-1.0, 0.02, -2.0, 2.0, n=8001)
        mix_grid = np.linspace(-2.0, 2.0, 8001)
        pdf = 0.1 * np.exp(-0.5 * ((mix_grid + 1.0) / 0.02) ** 2) + 0.9 * np.exp(
            -0.5 * ((mix_grid - 1.0) / 0.02) ** 2
        )
        d2 = one_row(mix_grid, pdf)
        pts = np.linspace(-0.5, 0.5, 16)
        stat, ok = ks_quasistationarity(d1, d2, pts)
        assert stat >= 0.9 - 1e-6
        assert stat >= ks_threshold_constant(0.05) / 4.0
        assert not ok

    def test_constant_value(self):
        assert ks_threshold_constant(0.05) == pytest.approx(1.358, abs=1e-3)

    def test_too_few_points(self):
        d = gaussian_density(0.0, 1.0, -5.0, 5.0)
        with pytest.raises(TooFewPoints):
            ks_quasistationarity(d, d, np.zeros(7))

    def test_k_override_monotonicity(self):
        d1 = gaussian_density(0.0, 1.0, -5.0, 5.0)
        d2 = gaussian_density(0.12, 1.0, -5.0, 5.0)
        pts = np.linspace(-2, 2, 64)
        stat, ok_std = ks_quasistationarity(d1, d2, pts)
        _, ok_tight = ks_quasistationarity(d1, d2, pts, k_override=stat * 8.0 * 0.999)
        assert ok_std
        assert not ok_tight

    def test_monte_carlo_pass_rate(self):
        # smaller version of the calibration study: two disjoint 64-point
        # windows of one stationary chain, linear fits
        passes = 0
        trials = 150
        for seed in range(trials):
            stat, ok = _gate_trial(seed)
            passes += ok
        assert passes / trials >= 0.88


def _gate_trial(seed, k=None, dt=1.8, degree=1):
    n, burn, gap = 64, 100, 16
    path = simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], dt, burn + 2 * n + gap, seed=seed)
    w = path[:, 0]
    w1 = w[burn : burn + n]
    w2 = w[burn + n + gap : burn + 2 * n + gap]
    try:
        d1 = stationary_density(fit_model(w1[:, None], degree=degree, dt=dt))
        d2 = stationary_density(fit_model(w2[:, None], degree=degree, dt=dt))
    except NonIntegrable:
        return math.inf, False
    return ks_quasistationarity(d1, d2, w1, alpha2=0.05, k_override=k)

