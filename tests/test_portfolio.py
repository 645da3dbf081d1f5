import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtr

import nsw.backtest
import nsw.portfolio
from nsw.errors import DegenerateWindow, NegativeVariance, NonPositiveEquity, NotPSD, TooShort, WindowTooShort
from nsw.portfolio import (
    MomentEstimate,
    ParcelResult,
    ParcelWeights,
    estimate_moments,
    log_returns,
    objective_P,
    _probability,
    _project,
    optimize_parcel,
)
from nsw.signals import SignalConfig, SignalEngine
from nsw.timeseries import make_ou_price_series


def moment(x, lam):
    return MomentEstimate(np.asarray(x, float), np.asarray(lam, float))


def parcel_grid_points(m_count, step=0.01):
    k = int(round(1.0 / step))
    pts = [
        np.array(c, dtype=float) / k
        for c in itertools.product(range(k + 1), repeat=m_count)
        if sum(c) <= k
    ]
    return np.array(pts)


def parcel_grid_search(m, theta, step=0.01):
    """Brute-force oracle over the weight grid: best P and all near-tied maximizers."""
    w = parcel_grid_points(m.n_instruments, step)
    z = w @ m.mean_returns
    var = np.einsum("ni,ij,nj->n", w, m.covariance, w)
    sigma = np.sqrt(np.maximum(var, 0.0))
    margin = (1.0 - theta) * z
    p = np.where(
        sigma > 0,
        ndtr(np.divide(margin, sigma, out=np.zeros_like(margin), where=sigma > 0)),
        np.where(margin > 0, 1.0, np.where(margin == 0, 0.5, 0.0)),
    )
    best = p.max()
    return best, w[p >= best - 1e-9]


def canonical_weights(w, best_p):
    """P fixes only the weight direction; compare points scaled to the
    full-investment face whenever the margin is positive."""
    w = np.asarray(w, dtype=float)
    if best_p > 0.5 + 1e-12 and w.sum() > 0:
        return w / w.sum()
    return w


# -- the numpy ascent the float one replaced, kept as the oracle --------------
# Its 3-element dots run through BLAS (an FMA chain with OpenBLAS), the float
# ascent adds plain products left to right, so the two agree to rounding.

def old_mean_and_sigma(w, m: MomentEstimate):
    z = float(w @ m.mean_returns)
    var = float(w @ m.covariance @ w)
    if var < -1e-12:
        raise NegativeVariance(f"n'Lambda n = {var}")
    return z, math.sqrt(max(var, 0.0))


def old_objective_P(n, m: MomentEstimate, theta: float) -> float:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    w = n.n if isinstance(n, ParcelWeights) else np.asarray(n, dtype=np.float64)
    z, sigma = old_mean_and_sigma(w, m)
    margin = (1.0 - theta) * z
    if sigma == 0.0:
        return 1.0 if margin > 0 else (0.5 if margin == 0 else 0.0)
    return float(ndtr(margin / sigma))


def old_objective_grad(w, m: MomentEstimate, theta: float) -> np.ndarray:
    z, sigma = old_mean_and_sigma(w, m)
    if sigma == 0.0:
        return np.zeros_like(w)
    u = (1.0 - theta) * z / sigma
    phi = math.exp(-0.5 * u * u) / math.sqrt(2.0 * math.pi)
    lam_w = m.covariance @ w
    return phi * (1.0 - theta) * (m.mean_returns / sigma - z * lam_w / sigma**3)


def old_project_weights(v) -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    w = np.clip(v, 0.0, None)
    if w.sum() <= 1.0:
        return w
    # sum constraint active: project onto the probability simplex (sort method)
    u = np.sort(v)[::-1]
    css = np.cumsum(u) - 1.0
    idx = np.arange(1, len(v) + 1)
    cond = u - css / idx > 0
    rho = idx[cond][-1]
    tau = css[rho - 1] / rho
    return np.clip(v - tau, 0.0, None)


def old_optimize_parcel(m: MomentEstimate, theta: float, tol=1e-6, max_iters=20000) -> ParcelResult:
    if not 0.0 <= theta <= 1.0:
        raise ValueError(f"theta must be in [0, 1], got {theta}")
    mm = m.n_instruments
    eig_min = float(np.linalg.eigvalsh(m.covariance).min())
    scale = 1.0 + float(np.abs(np.diag(m.covariance)).max())
    if eig_min < -1e-10 * scale:
        raise NotPSD(f"covariance has eigenvalue {eig_min}")

    w = np.full(mm, 1.0 / mm)
    if float(w @ m.covariance @ w) <= 0.0:
        return old_degenerate_parcel(m, theta)

    p = old_objective_P(w, m, theta)
    step = 1.0
    converged = False
    iters = 0
    for iters in range(1, max_iters + 1):
        g = old_objective_grad(w, m, theta)
        residual = float(np.linalg.norm(old_project_weights(w + g) - w))
        if residual < tol:
            converged = True
            break
        moved = False
        s = step
        for _ in range(60):
            cand = old_project_weights(w + s * g)
            p_cand = old_objective_P(cand, m, theta)
            if p_cand >= p and np.any(cand != w):
                w, p = cand, p_cand
                step = min(s * 2.0, 1e6)
                moved = True
                break
            s *= 0.5
        if not moved:
            # no ascent step exists at float precision; report the mapping residual
            break
    if p < 0.5 - 1e-12:
        w = np.zeros(mm)
        p, converged = 0.5, True
        residual = 0.0
    else:
        if p > 0.5 + 1e-12 and w.sum() > 0:
            w = w / w.sum()
            p = old_objective_P(w, m, theta)
        residual = float(np.linalg.norm(old_project_weights(w + old_objective_grad(w, m, theta)) - w))
    return ParcelResult(
        weights=ParcelWeights(w), p_theta=p, kkt_residual=residual, iterations=iters, converged=converged
    )


def old_degenerate_parcel(m: MomentEstimate, theta: float) -> ParcelResult:
    x = m.mean_returns
    mm = m.n_instruments
    if np.all(x == 0.0):
        w = np.full(mm, 1.0 / mm)
    elif x.max() > 0:
        w = np.zeros(mm)
        w[int(np.argmax(x))] = 1.0
    else:
        w = np.zeros(mm)
    return ParcelResult(
        weights=ParcelWeights(w),
        p_theta=old_objective_P(w, m, theta),
        kkt_residual=0.0,
        iterations=0,
        converged=True,
    )


def assert_matches_oracle(m, theta, p_tol=1e-14):
    new = optimize_parcel(m, theta)
    old = old_optimize_parcel(m, theta)
    assert (new.iterations, new.converged) == (old.iterations, old.converged)
    assert np.abs(new.weights.n - old.weights.n).max() <= 1e-12
    assert abs(new.p_theta - old.p_theta) <= p_tol
    return new


class TestLogReturns:
    def test_constant_equity(self):
        assert np.allclose(log_returns(np.ones(10), 2), 0.0, atol=0)

    def test_doubling(self):
        eq = 2.0 ** np.arange(6)
        assert np.allclose(log_returns(eq, 1), math.log(2), atol=1e-15)

    def test_example_values(self):
        out = log_returns([1.0, 1.1, 1.21], 1)
        assert np.allclose(out, [math.log(1.1), math.log(1.1)], atol=1e-12)

    def test_errors(self):
        with pytest.raises(NonPositiveEquity):
            log_returns([1.0, -0.5, 1.0], 1)
        with pytest.raises(TooShort):
            log_returns([1.0, 1.1], 5)


def old_estimate_moments(returns, window):
    """The per-window estimate the stacked kernel replaced: (means, covariance)."""
    tail = np.stack([np.asarray(r, dtype=np.float64)[-window:] for r in returns])  # (M, window)
    x = tail.mean(axis=1)
    centered = tail - x[:, None]
    lam = (centered @ centered.T) / window
    return x, 0.5 * (lam + lam.T)


class TestEstimateMoments:
    def test_identical_sequences(self, rng):
        x = rng.normal(size=300)
        m = estimate_moments([x, x], window=256)
        var = x[-256:].var()
        assert m.covariance[0, 0] == pytest.approx(var, rel=1e-12)
        assert m.covariance[0, 1] == pytest.approx(var, rel=1e-12)

    def test_negation_antisymmetry(self, rng):
        x = rng.normal(size=300)
        m = estimate_moments([x, -x], window=256)
        assert m.covariance[0, 1] == pytest.approx(-m.covariance[0, 0], abs=1e-12)

    def test_independent_streams_decorrelate(self, rng):
        a = rng.normal(size=10_000)
        b = rng.normal(size=10_000)
        m = estimate_moments([a, b], window=10_000)
        corr = m.covariance[0, 1] / math.sqrt(m.covariance[0, 0] * m.covariance[1, 1])
        assert abs(corr) < 0.05

    def test_population_normalization(self):
        x = np.array([1.0, 2.0, 3.0, 4.0])
        m = estimate_moments([x], window=4)
        assert m.covariance[0, 0] == pytest.approx(x.var(), abs=1e-15)  # 1/T, not 1/(T-1)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            estimate_moments([np.ones(10)], window=20)

    @given(
        m_count=st.integers(1, 4),
        window=st.integers(2, 64),
        n_windows=st.integers(1, 6),
        extra=st.integers(0, 3),
        flat=st.lists(st.booleans(), min_size=4, max_size=4),
        scale=st.sampled_from([1e-8, 1e-3, 1.0, 1e3]),
        seed=st.integers(0, 2**32 - 1),
    )
    @settings(max_examples=120, deadline=None)
    def test_stack_equals_per_window(self, m_count, window, n_windows, extra, flat, scale, seed):
        rng = np.random.default_rng(seed)
        stack = scale * rng.normal(size=(n_windows, m_count, window + extra))
        for i in range(m_count):
            if flat[i]:  # a zero-variance stream
                stack[:, i] = scale
        m = estimate_moments(stack, window=window)
        for k in range(n_windows):
            alone = estimate_moments(list(stack[k]), window=window)
            x, lam = old_estimate_moments(stack[k], window)
            assert np.array_equal(alone.mean_returns, x) and np.array_equal(alone.covariance, lam)
            row = m.row(k)
            assert np.array_equal(row.mean_returns, alone.mean_returns)
            assert np.array_equal(row.covariance, alone.covariance)
            assert row.n_instruments == m_count
            assert not row.mean_returns.flags.writeable and not row.covariance.flags.writeable

    def test_leaves_caller_arrays_writable(self):
        x, lam = np.array([0.1, 0.2]), np.eye(2) * 0.01
        m = MomentEstimate(x, lam)
        x[0], lam[0, 0] = 0.3, 0.02
        assert m.mean_returns.tolist() == [0.1, 0.2] and m.covariance[0, 0] == 0.01
        assert not m.mean_returns.flags.writeable and not m.covariance.flags.writeable

    @pytest.mark.parametrize("bad", [0, 2])
    def test_bad_window_in_stack(self, rng, bad):
        stack = rng.normal(size=(3, 2, 16))
        stack[bad, 1, 5] = np.nan
        with pytest.raises(DegenerateWindow):
            estimate_moments(stack[bad], window=16)
        with pytest.raises(DegenerateWindow):
            estimate_moments(stack, window=16)

    @pytest.mark.parametrize("lam, message", [
        ([[1.0, 0.5], [0.0, 1.0]], "not symmetric"),
        ([[-1.0, 0.0], [0.0, 1.0]], "negative variance"),
    ])
    def test_bad_covariance_in_stack(self, lam, message):
        good = np.eye(2)
        with pytest.raises(NotPSD, match=message):
            moment([0.1, 0.1], lam)
        with pytest.raises(NotPSD, match=message):
            moment([[0.1, 0.1]] * 3, [good, lam, good])

    def test_not_psd_window_named(self):
        # each window is held to -1e-10 (1 + its own max|diag|): window 0's
        # eigenvalue -1.5e-8 passes at diagonal 1000, window 3's -2.5e-10 fails at 1
        lam = np.stack([np.eye(2)] * 5)
        lam[0] = 1000.0 * np.eye(2) + (1000.0 + 1.5e-8) * np.array([[0.0, -1.0], [-1.0, 0.0]])
        lam[3] = [[1.0, -1.0 - 2.5e-10], [-1.0 - 2.5e-10, 1.0]]
        with pytest.raises(NotPSD, match="^covariance of window 3 has eigenvalue -2.5"):
            MomentEstimate(np.zeros((5, 2)), lam)
        with pytest.raises(NotPSD, match="^covariance of window 0 has eigenvalue -2.5"):
            MomentEstimate(np.zeros(2), lam[3])
        lam[3] = [[1.0, -1.0 - 1.5e-10], [-1.0 - 1.5e-10, 1.0]]
        MomentEstimate(np.zeros((5, 2)), lam)

    def test_optimizer_takes_one_window(self, rng):
        m = estimate_moments(0.01 * rng.normal(size=(3, 2, 32)), window=32)
        with pytest.raises(ValueError, match="one window"):
            optimize_parcel(m, 0.25)
        assert optimize_parcel(m.row(1), 0.25).weights.n.shape == (2,)


class TestObjective:
    def test_zero_mean_gives_half(self):
        m = moment([0.0, 0.0], np.eye(2) * 0.01)
        assert objective_P([0.4, 0.3], m, 0.25) == 0.5

    def test_closed_form_example(self):
        m = moment([0.1], [[0.04]])
        # Z = 0.1, sigma = 0.2, theta = 1/4: Phi(0.075/0.2) = Phi(0.375)
        assert objective_P([1.0], m, 0.25) == pytest.approx(0.6461697666, abs=1e-9)

    def test_theta_one_gives_half(self):
        m = moment([0.2, 0.1], np.eye(2) * 0.01)
        assert objective_P([0.5, 0.5], m, 1.0) == 0.5

    def test_sigma_zero_branches(self):
        up = moment([0.1], [[0.0]])
        assert objective_P([1.0], up, 0.25) == 1.0
        down = moment([-0.1], [[0.0]])
        assert objective_P([1.0], down, 0.25) == 0.0
        flat = moment([0.0], [[0.0]])
        assert objective_P([1.0], flat, 0.25) == 0.5

    def test_phi_agrees_with_ndtr(self):
        # Phi is erfc(-u / sqrt 2) / 2 from the math module, with scipy's ndtr as
        # the oracle; against mpmath each is off by up to about 100 ulp here
        u = np.random.default_rng(18).uniform(-10.0, 10.0, 20000)
        phi = np.array([_probability(v, 1.0, 0.0) for v in u.tolist()])
        assert (np.abs(phi - ndtr(u)) <= 256 * np.spacing(ndtr(u))).all()
        assert _probability(0.0, 1.0, 0.0) == 0.5

    def test_negative_variance(self):
        # an eigenvalue of -1e-10 passes the PSD check as rounding, but gives n'Lambda n below -1e-12
        m = moment([0.1, 0.1], [[1.0, -1.0 - 1e-10], [-1.0 - 1e-10, 1.0]])
        with pytest.raises(NegativeVariance):
            objective_P([0.5, 0.5], m, 0.25)

    @given(scale=st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=40, deadline=None)
    def test_scale_invariance(self, scale):
        m1 = moment([0.05, 0.01], [[0.01, 0.002], [0.002, 0.02]])
        m2 = moment(
            np.array([0.05, 0.01]) * scale,
            np.array([[0.01, 0.002], [0.002, 0.02]]) * scale**2,
        )
        w = [0.3, 0.5]
        assert objective_P(w, m2, 0.25) == pytest.approx(objective_P(w, m1, 0.25), rel=1e-9)

    @given(a=st.floats(0, 1), b=st.floats(0, 1))
    @settings(max_examples=60, deadline=None)
    def test_bounds(self, a, b):
        if a + b > 1:
            a, b = a / 2, b / 2
        m = moment([0.1, -0.05], [[0.02, 0.001], [0.001, 0.01]])
        assert 0.0 <= objective_P([a, b], m, 0.25) <= 1.0


class TestProjection:
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_feasible_and_idempotent(self, v):
        w = np.array(_project(v))
        assert np.all(w >= 0)
        assert w.sum() <= 1.0 + 1e-12
        assert np.allclose(_project(w.tolist()), w, atol=1e-12)

    def test_interior_point_unchanged(self):
        assert _project([0.2, 0.3]) == [0.2, 0.3]

    def test_simplex_projection(self):
        w = _project([0.9, 0.9])
        assert sum(w) == pytest.approx(1.0, abs=1e-12)
        assert w[0] == pytest.approx(w[1], abs=1e-12)


class TestOptimizer:
    def test_single_asset_full_investment(self):
        m = moment([0.1], [[0.04]])
        res = optimize_parcel(m, 0.25)
        assert res.weights.n[0] == pytest.approx(1.0, abs=1e-6)
        assert res.converged

    def test_identical_assets_symmetric(self):
        lam = np.eye(2) * 0.04
        m = moment([0.05, 0.05], lam)
        res = optimize_parcel(m, 0.25)
        assert abs(res.weights.n[0] - res.weights.n[1]) < 1e-6

    def test_two_asset_example_vs_grid(self):
        m = moment([0.10, 0.02], np.diag([0.04, 0.0004]))
        res = optimize_parcel(m, 0.25)
        best_p, maximizers = parcel_grid_search(m, 0.25)
        assert res.p_theta >= best_p - 1e-6
        dists = [np.abs(canonical_weights(w, best_p) - res.weights.n).max() for w in maximizers]
        assert min(dists) <= 0.02

    def test_never_below_start(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            a = rng.normal(size=(3, 3))
            lam = a @ a.T * 0.001 + np.eye(3) * 1e-5
            x = rng.normal(0.02, 0.05, size=3)
            m = moment(x, lam)
            res = optimize_parcel(m, 0.25)
            start = objective_P(np.full(3, 1 / 3), m, 0.25)
            assert res.p_theta >= start - 1e-12

    def test_kkt_residual_small(self, monkeypatch):
        monkeypatch.setattr(nsw.portfolio, "TOL", 1e-7)
        m = moment([0.08, 0.03], [[0.02, 0.004], [0.004, 0.01]])
        res = optimize_parcel(m, 0.25)
        assert res.kkt_residual < 1e-7

    def test_all_negative_means_goes_to_cash(self):
        m = moment([-0.05, -0.02], np.eye(2) * 0.01)
        res = optimize_parcel(m, 0.25)
        assert np.allclose(res.weights.n, 0.0, atol=0)
        assert res.p_theta == 0.5

    def test_zero_moments_keep_equal_weights(self):
        m = moment([0.0, 0.0, 0.0], np.zeros((3, 3)))
        res = optimize_parcel(m, 0.25)
        assert np.allclose(res.weights.n, 1 / 3, atol=0)

    def test_not_psd(self):
        # MomentEstimate checks every window once, so optimize_parcel never sees this one
        with pytest.raises(NotPSD):
            moment([0.1, 0.1], [[1.0, -2.0], [-2.0, 1.0]])

    def test_random_instances_against_grid(self):
        rng = np.random.default_rng(77)
        for m_count in (2, 3):
            for _ in range(2):
                a = rng.normal(size=(m_count, m_count))
                lam = a @ a.T * 4e-4 + np.eye(m_count) * 1e-6
                x = np.abs(rng.normal(0.03, 0.03, size=m_count)) + 0.005
                m = moment(x, lam)
                for theta in (0.1, 0.5):
                    res = optimize_parcel(m, theta)
                    best_p, maximizers = parcel_grid_search(m, theta)
                    assert res.p_theta >= best_p - 1e-6
                    dists = [np.abs(canonical_weights(w, best_p) - res.weights.n).max() for w in maximizers]
                    assert min(dists) <= 0.02

    def test_argmax_scale_invariant(self):
        x = np.array([0.06, 0.02])
        lam = np.array([[0.01, 0.002], [0.002, 0.02]])
        a = optimize_parcel(moment(x, lam), 0.25)
        b = optimize_parcel(moment(3.0 * x, 9.0 * lam), 0.25)
        assert np.abs(a.weights.n - b.weights.n).max() < 1e-6

    def test_feasibility_always(self):
        rng = np.random.default_rng(5)
        for _ in range(10):
            a = rng.normal(size=(3, 3))
            lam = a @ a.T * 1e-3 + np.eye(3) * 1e-7
            m = moment(rng.normal(0, 0.05, size=3), lam)
            res = optimize_parcel(m, rng.uniform(0, 1))
            assert np.all(res.weights.n >= 0)
            assert res.weights.n.sum() <= 1 + 1e-12


PARCEL_INSTRUMENTS = (  # scripts/synthetic_compare.py
    ("SYN-A", 1, 0.003, 0.010),
    ("SYN-B", 2, 0.005, 0.012),
    ("SYN-C", 3, 0.008, 0.008),
)


@pytest.fixture(scope="module")
def parcel_windows():
    """(moments, theta) of every optimize_parcel call of run_parcel_backtest
    on the scripts/ instruments, 800 bars each, rebalanced every 16 bars."""
    series = [make_ou_price_series(800, seed=seed, rate=rate, vol=vol, symbol=sym)
              for sym, seed, rate, vol in PARCEL_INSTRUMENTS]
    traces = [SignalEngine(SignalConfig(shift_len=16)).run(s) for s in series]
    calls = []

    def record(m, theta):
        calls.append((m, theta))
        return optimize_parcel(m, theta)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(nsw.backtest, "optimize_parcel", record)
        for theta in (0.1, 0.25, 0.5):
            sources = [nsw.backtest.TraceSource(t, "NSW") for t in traces]
            nsw.backtest.run_parcel_backtest(sources, series, theta=theta, rebalance_len=16, horizon=8)
    return calls


@st.composite
def psd_problems(draw):
    """Random moments: Lambda = A A' with rank 0..M (singular below M), and theta."""
    m_count = draw(st.integers(1, 4))
    rank = draw(st.integers(0, m_count))
    unit = st.integers(-1000, 1000).map(lambda k: k / 1000)
    a = np.array(draw(st.lists(unit, min_size=m_count * rank, max_size=m_count * rank))).reshape(m_count, rank)
    lam = a @ a.T * draw(st.sampled_from([1e-6, 1e-4, 1e-2, 1.0]))
    x = np.array(draw(st.lists(unit, min_size=m_count, max_size=m_count)))
    x *= draw(st.sampled_from([1e-3, 1e-2, 1e-1]))
    return moment(x, 0.5 * (lam + lam.T)), draw(st.floats(0.0, 1.0))


class TestFloatAscent:
    """The float ascent against the numpy one it replaced."""

    def test_every_parcel_window_matches_oracle(self, parcel_windows):
        assert len(parcel_windows) == 3 * 49  # bars 24, 40, ..., 792
        iterations = [assert_matches_oracle(m, theta).iterations for m, theta in parcel_windows]
        assert sum(i > 1 for i in iterations) >= 50  # not only zero-variance picks and one-step stops

    @given(psd_problems())
    @settings(max_examples=300, deadline=None)
    def test_random_psd_matches_oracle(self, problem):
        m, theta = problem
        w = np.full(m.n_instruments, 1 / m.n_instruments)
        start_scale = float(w @ np.abs(m.covariance) @ w)
        # a start variance within rounding of 0 makes the zero-variance test
        # itself a rounding decision: the two arithmetics can branch apart
        assume(not (start_scale > 0 and abs(float(w @ m.covariance @ w)) <= 1e-12 * start_scale))
        res = optimize_parcel(m, theta)
        eig = np.linalg.eigvalsh(m.covariance)
        # On a singular or ill-conditioned Lambda a one-ulp difference can
        # flip a backtracking test, and the two paths then stop at different
        # points that both meet the residual rule: P differed by up to 1.7e-9
        # over 200 000 random problems and a 3 000-example targeted search.
        # With eigenvalues within 1e3 of each other it stayed below 1.1e-14.
        p_tol = 1e-12 if eig[0] >= 1e-3 * eig[-1] else 1e-7
        assert abs(res.p_theta - old_optimize_parcel(m, theta).p_theta) <= p_tol
        if res.converged:
            assert res.kkt_residual < 1e-6

    @pytest.mark.parametrize("x, best", [([0.0, 0.0, 0.0], [1 / 3] * 3), ([0.0, 0.02, 0.01], [0.0, 1.0, 0.0]),
                                         ([-0.01, 0.0, -0.02], [0.0, 0.0, 0.0])])
    def test_zero_variance_pick_matches_oracle(self, x, best):
        res = assert_matches_oracle(moment(x, np.zeros((3, 3))), 0.25)
        assert np.array_equal(res.weights.n, best)

    def test_tiny_variance_raises_named_error(self):
        # sigma is 8e-111 at the start, so sigma**3 underflows to 0
        m = moment([0.01, 0.02, 0.03], np.diag([1e-220, 2e-220, 3e-220]))
        with pytest.raises(DegenerateWindow, match="underflows"):
            optimize_parcel(m, 0.25)

    def test_huge_variance_keeps_equal_weights(self):
        m = moment([0.01, 0.02, 0.03], np.diag([1e200, 2e200, 3e200]))
        res = optimize_parcel(m, 0.25)
        assert res.p_theta == 0.5
        assert np.array_equal(res.weights.n, np.full(3, 1 / 3))

    @pytest.mark.parametrize("v", [[math.nan, 0.5], [0.2, math.nan], [math.inf, 0.5], [1e17, 0.0]])
    def test_projection_of_unusable_input_raises(self, v):
        with pytest.raises(DegenerateWindow):
            _project(v)

    def test_projection_sends_minus_inf_to_zero(self):
        assert _project([-math.inf, 0.5]) == [0.0, 0.5]
        assert _project([-math.inf, 2.0]) == [0.0, 1.0]

    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=6))
    @settings(max_examples=150, deadline=None)
    def test_projection_equals_oracle(self, v):
        assert np.array_equal(_project(v), old_project_weights(v))


def old_parcel_weights(n):
    """ParcelWeights' checks and clipping as numpy array operations."""
    n = np.asarray(n, dtype=np.float64)
    if np.any(n < -1e-12):
        raise ValueError(f"negative weight in {n}")
    if n.sum() > 1.0 + 1e-12:
        raise ValueError(f"weights sum to {n.sum()} > 1")
    n = np.clip(n, 0.0, None)
    if n.sum() > 1.0:
        n = n / n.sum()
    return n


EDGE_WEIGHTS = st.sampled_from([-1e-12, math.nextafter(-1e-12, 0.0), math.nextafter(-1e-12, -1.0), -0.0, 0.0, 1e-12,
                                math.nan, math.inf, -math.inf])


class TestParcelWeights:
    @given(st.lists(st.floats(-1e-11, 1.0, allow_subnormal=True) | EDGE_WEIGHTS, min_size=1, max_size=7),
           st.sampled_from([None, 1.0 + 1e-12, 1.0, 1.0 + 2e-12]), st.booleans())
    @settings(max_examples=300, deadline=None)
    def test_equals_array_checks(self, w, total, as_array):
        # fewer than 8 weights, so numpy's sum adds left to right as the float checks do;
        # scaling to a total lands sums on both sides of the 1 + 1e-12 edge
        if total is not None and math.isfinite(s := sum(w)) and s > 0:
            w = [a / s * total for a in w]
        given = np.array(w) if as_array else w
        try:
            want = old_parcel_weights(w)
        except ValueError as err:
            with pytest.raises(ValueError, match=f"^{re.escape(str(err))}$"):
                ParcelWeights(given)
            return
        got = ParcelWeights(given).n
        assert got.dtype == want.dtype and got.shape == want.shape and not got.flags.writeable
        assert got.tobytes() == want.tobytes()  # bit for bit, the sign of zero included
        if as_array:
            assert given.flags.writeable

    def test_slack(self):
        w = ParcelWeights(np.array([0.2, 0.3]))
        assert w.slack == pytest.approx(0.5, abs=1e-15)

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            ParcelWeights(np.array([-0.2, 0.3]))

    def test_rejects_oversum(self):
        with pytest.raises(ValueError):
            ParcelWeights(np.array([0.7, 0.7]))
