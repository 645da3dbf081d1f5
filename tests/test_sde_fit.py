import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from nsw.errors import ILL_CONDITIONED, MESSAGES, ZERO_VARIANCE, DegenerateWindow, InvalidStep, WindowTooShort
from nsw.sde_fit import (_QR_COND_LIMIT, _design, _term_list, drift_polynomial, eval_diffusion, eval_drift, fit_model,
                         fit_windows)
from nsw.timeseries import simulate_sde

from conftest import analytic_model_1d
from test_kernel_oracles import assert_fits_agree, old_fit_windows


def _design_at(fit, y):
    """Every basis term of a one-row stack at raw points ``y``."""
    return _design((np.asarray(y, dtype=np.float64) - fit.mean[0]) / fit.std[0], fit.terms)


class TestHermiteEval:
    def test_constant_and_linear_at_zero(self):
        assert np.allclose(_design(np.array([0.0]), _term_list(1, 1)), [1.0, 0.0], atol=0)

    def test_closed_forms(self):
        terms = _term_list(1, 3)
        # terms ordered by degree: He0, He1, He2, He3
        assert _design(np.array([0.0]), terms)[2] == -1.0  # He2(0)
        assert _design(np.array([1.0]), terms)[3] == -2.0  # He3(1)

    def test_cross_term(self):
        terms = _term_list(2, 2)
        vals = _design(np.array([1.0, 1.0]), terms)
        assert vals[terms.index((1, 1))] == 1.0

    def test_term_count(self):
        assert len(_term_list(2, 3)) == math.comb(5, 3) == 10
        assert len(_term_list(1, 3)) == 4
        assert _term_list(2, 3)[0] == (0, 0)

    def test_standardization(self):
        # y = 5 standardizes to 1: He0, He1, He2 = 1, 1, 0
        fit = analytic_model_1d([1.0, 10.0, 100.0], [1.0], mean=3.0, std=2.0)
        assert eval_drift(fit, np.array([5.0]))[0] == 11.0
        assert np.allclose(_design_at(fit, [5.0]), [1.0, 1.0, 0.0])

    def test_batch_shape(self):
        out = _design(np.zeros((7, 2)), _term_list(2, 2))
        assert out.shape == (7, 6)


class TestFitModel:
    def test_ou_recovery(self):
        path = simulate_sde(lambda y: -y, lambda y: 0.5, [0.0], 0.01, 100_000, seed=17)
        m = fit_model(path, degree=1, dt=0.01)
        lam1 = m.drift[0, 0, 1]
        std = m.std[0, 0]
        assert abs(lam1 + std) / std < 0.10  # He1 coefficient ~ -std in standardized coordinates
        g = eval_diffusion(m, m.mean)[0, 0]
        assert abs(g - 0.5) / 0.5 < 0.05

    def test_constant_drift_zero_noise(self):
        c = 0.37
        n = 40
        y = (c * 0.5) * np.arange(n)  # pure drift path with dt = 0.5
        m = fit_model(y[:, None], degree=3, dt=0.5)
        assert m.drift[0, 0, 0] == pytest.approx(c, abs=1e-8)
        assert np.allclose(m.drift[0, 0, 1:], 0.0, atol=1e-8)
        # no noise to fit: G is the floor derived from the window's own increments
        floor = max(1e-6 * np.diff(y).std(), 1e-12)
        assert m.floor[0] == pytest.approx(floor, rel=1e-9)
        g = eval_diffusion(m, np.array([[y.mean()]]))[0, 0]
        assert g == pytest.approx(floor, rel=1e-9)

    def test_double_well_sign_pattern(self):
        path = simulate_sde(lambda y: y - y**3, lambda y: 0.5, [1.0], 0.01, 200_000, seed=23)
        m = fit_model(path, degree=3, dt=0.01)
        poly = drift_polynomial(m)  # raw-coordinate power series
        assert poly[1] > 0  # linear term positive
        assert poly[3] < 0  # cubic term negative

    def test_residual_orthogonality(self):
        path = simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], 0.05, 5_000, seed=2)
        w = path
        m = fit_model(w, degree=3, dt=0.05)
        design = _design_at(m, w[:-1])
        resid = np.diff(w, axis=0) / 0.05 - design @ m.drift[0].T
        scale = np.abs(design.T @ (np.diff(w, axis=0) / 0.05)).max()
        assert np.abs(design.T @ resid).max() < 1e-8 * max(scale, 1.0)

    def test_window_too_short(self):
        with pytest.raises(WindowTooShort):
            fit_model(np.random.default_rng(0).normal(size=(7, 1)), degree=3)

    def test_degenerate_window(self):
        w = np.column_stack([np.full(64, 2.0), np.random.default_rng(0).normal(size=64)])
        with pytest.raises(DegenerateWindow):
            fit_model(w, degree=2)

    def test_self_consistency(self):
        # fit, simulate the fitted model, refit: coefficients within 15%
        path = simulate_sde(lambda y: -y, lambda y: 0.8, [0.0], 0.02, 60_000, seed=31)
        m1 = fit_model(path, degree=1, dt=0.02)

        def drift(y):
            return eval_drift(m1, y)

        def diff(y):
            return eval_diffusion(m1, y)

        path2 = simulate_sde(drift, diff, [0.0], 0.02, 60_000, seed=32)
        m2 = fit_model(path2, degree=1, dt=0.02)
        a1 = m1.drift[0, 0, 1] / m1.std[0, 0]
        a2 = m2.drift[0, 0, 1] / m2.std[0, 0]
        assert abs(a1 - a2) / abs(a1) < 0.15

    def test_affine_invariance(self):
        rng = np.random.default_rng(8)
        w = np.cumsum(rng.normal(size=(200, 2)), axis=0)
        m1 = fit_model(w, degree=2)
        m2 = fit_model(4.0 * w, degree=2)  # dyadic factor keeps float ops exact
        r1 = m1.drift[0] / m1.std[0, :, None]
        r2 = m2.drift[0] / m2.std[0, :, None]
        assert np.allclose(r1, r2, rtol=1e-10, atol=1e-12)

    def test_drift_near_zero_at_mean(self):
        path = simulate_sde(lambda y: -y, lambda y: 1.0, [0.0], 0.05, 20_000, seed=5)
        w = path
        m = fit_model(w, degree=3, dt=0.05)
        design = _design_at(m, w[:-1])
        resid = np.diff(w, axis=0)[:, 0] / 0.05 - design @ m.drift[0, 0]
        s2 = resid @ resid / (len(design) - len(m.terms))
        h0 = _design_at(m, m.mean[0])
        cov = s2 * h0 @ np.linalg.pinv(design.T @ design) @ h0
        drift_at_mean = eval_drift(m, m.mean[0])[0]
        assert abs(drift_at_mean) < 2.0 * math.sqrt(cov) + 1e-12


class TestEval:
    def test_zero_drift(self):
        m = analytic_model_1d([0.0, 0.0, 0.0], [1.0, 0.0, 0.0])
        ys = np.linspace(-3, 3, 11)[:, None]
        assert np.allclose(eval_drift(m, ys), 0.0, atol=0)
        assert np.allclose(eval_diffusion(m, ys), 1.0, atol=0)

    @given(y=st.floats(min_value=-50, max_value=50))
    @settings(max_examples=50, deadline=None)
    def test_diffusion_floor_everywhere(self, y):
        m = analytic_model_1d([0.0] * 4, [-2.0, 1.0, 0.5, -0.3], floor=1e-3)
        assert eval_diffusion(m, np.array([y]))[0] >= 1e-3


# -- the certified QR solve, and the windows it holds -------------------------

def _ar1(n, rng):
    w = np.zeros(n)
    for t in range(1, n):
        w[t] = 0.6 * w[t - 1] + rng.normal()
    return w


def _fitted_design(window, degree):
    """The design fit_windows solves for one (T, dims) window."""
    dev = window - window.mean(axis=0)
    return _design(dev[:-1] / np.sqrt((dev * dev).mean(axis=0)), _term_list(window.shape[1], degree))


def _collinear(base, degree, log_cond, rng):
    """(base, base + eps * noise) with eps set by secant steps on log10
    cond(design) against log10 eps, which land within 0.01 of a log_cond
    from 4 to 14. Near 1e14 the computed cond carries a few thousandths of
    rounding noise in log10, so a late step can overshoot: the eps kept is
    the closest one seen, not the last."""
    noise = rng.normal(size=len(base))

    def log_cond_at(log_eps):
        return math.log10(np.linalg.cond(_fitted_design(np.column_stack([base, base + 10.0**log_eps * noise]), degree)))

    a, b = -1.0, -3.0
    fa, fb = log_cond_at(a), log_cond_at(b)
    best = b, fb
    for _ in range(6):
        if abs(fb - log_cond) < 1e-3:
            break
        a, fa, b = b, fb, b + (log_cond - fb) * (b - a) / (fb - fa)
        fb = log_cond_at(b)
        best = min(best, (b, fb), key=lambda point: abs(point[1] - log_cond))
    return np.column_stack([base, base + 10.0**best[0] * noise])


def _window(kind, n, degree, rng):
    """A (n, 2) window: two independent AR(1) paths (a well conditioned
    design), a path and its double (the same standardized column twice:
    rank-deficient), three levels only (rank-deficient at degree 3), a
    collinear pair at a condition number of 10**4 to 10**14, or a NaN."""
    base = _ar1(n, rng)
    if kind == "ar1":
        return np.column_stack([base, _ar1(n, rng)])
    if kind == "twin":
        return np.column_stack([base, 2.0 * base])
    if kind == "levels":
        return rng.integers(0, 3, size=(n, 2)).astype(float)
    if kind == "nan":
        return np.column_stack([base, np.where(np.arange(n) == n // 2, np.nan, base)])
    return _collinear(base, degree, rng.uniform(4.0, 14.0), rng)


@given(n=st.integers(32, 64), degree=st.integers(1, 3), log_cond=st.floats(4.0, 14.0), seed=st.integers(0, 2**32 - 1))
@example(n=64, degree=3, log_cond=7.0, seed=1)  # cond ~ 1e7: the limit
@example(n=64, degree=3, log_cond=13.0, seed=2)  # near-singular
@example(n=44, degree=1, log_cond=14.0, seed=272)  # a last secant step that overshot
@settings(max_examples=60, deadline=None)
def test_only_ill_conditioned_designs_are_held(n, degree, log_cond, seed):
    # the QR certificate ||R||_F ||R^-1||_F lies between cond_2 and n_terms * cond_2:
    # a window at or past the limit must be held, one below limit / n_terms fitted;
    # a fitted window agrees with the SVD's least-squares solution within a bound
    # scaled by its certificate (assert_fits_agree)
    rng = np.random.default_rng(seed)
    base = _ar1(n, rng)
    windows = {"ar1": _window("ar1", n, degree, rng), "twin": _window("twin", n, degree, rng),
               "levels": _window("levels", n, degree, rng), "collinear": _collinear(base, degree, log_cond, rng)}
    n_terms = len(_term_list(2, degree))
    for kind, window in windows.items():
        cond = np.linalg.cond(_fitted_design(window, degree))
        fit = fit_windows(window[None], degree=degree)
        assert_fits_agree(window[None], fit, old_fit_windows(window[None], degree=degree))
        held = fit.status[0] == ILL_CONDITIONED
        assert held or fit.status[0] == 0
        if cond >= _QR_COND_LIMIT:
            assert held, (kind, cond)
        if cond * n_terms < _QR_COND_LIMIT:
            assert not held, (kind, cond)
        if held:
            with pytest.raises(DegenerateWindow, match=MESSAGES[ILL_CONDITIONED]):
                fit_model(window, degree=degree)
    # the cases are what they claim to be
    assert np.linalg.cond(_fitted_design(windows["ar1"], degree)) * n_terms < _QR_COND_LIMIT
    assert np.linalg.cond(_fitted_design(windows["twin"], degree)) >= _QR_COND_LIMIT
    if degree == 3:
        assert np.linalg.cond(_fitted_design(windows["levels"], degree)) >= _QR_COND_LIMIT
    assert abs(math.log10(np.linalg.cond(_fitted_design(windows["collinear"], degree))) - log_cond) < 0.01


@given(kinds=st.lists(st.sampled_from(["ar1", "twin", "levels", "collinear", "nan"]), max_size=8),
       n=st.integers(32, 64), degree=st.integers(1, 3), seed=st.integers(0, 2**32 - 1))
@settings(max_examples=40, deadline=None)
def test_rows_do_not_depend_on_held_neighbours(kinds, n, degree, seed):
    # run() fits stacks of windows and step() one window at a time, and they
    # must agree bit for bit: a window's row cannot depend on which of its
    # neighbours are fitted and which are held
    rng = np.random.default_rng(seed)
    kinds = ["ar1", "twin", *kinds]
    windows = np.stack([_window(kind, n, degree, rng) for kind in rng.permutation(kinds)])
    stack = fit_windows(windows, degree=degree)
    assert (stack.status == 0).any() and (stack.status == ILL_CONDITIONED).any()
    for i, window in enumerate(windows):
        fit = fit_windows(window[None], degree=degree)
        for name in ("mean", "std", "drift", "diff", "floor", "status"):
            assert np.array_equal(getattr(stack, name)[i], getattr(fit, name)[0], equal_nan=True), (name, i)


@pytest.mark.parametrize("fit", [fit_windows, fit_model])
@pytest.mark.parametrize("dt", [-1.0, 0.0, -0.0, math.inf, math.nan])
def test_step_must_be_positive_and_finite(fit, dt):
    # dt = -1 fitted and then failed as edge_mass; 0 and inf raised numpy warnings
    window = _ar1(64, np.random.default_rng(1))[:, None]
    with pytest.raises(InvalidStep, match="dt must be positive and finite"):
        fit(window[None] if fit is fit_windows else window, dt=dt)


@pytest.mark.parametrize("fit", [fit_windows, fit_model])
@pytest.mark.parametrize("degree", [0, -1])
def test_degree_must_be_at_least_one(fit, degree):
    # degree=-1 raised a bare IndexError
    window = _ar1(64, np.random.default_rng(1))[:, None]
    with pytest.raises(ValueError, match="degree must be >= 1"):
        fit(window[None] if fit is fit_windows else window, degree=degree)


def test_constant_dimension_beside_a_huge_one():
    # scaled by 1.0 with every dimension, the window's cubic terms overflowed its
    # design to inf and the SVD of the whole stack raised LinAlgError
    rng = np.random.default_rng(11)
    flat = np.column_stack([np.full(64, 3.0), 1e150 * rng.standard_normal(64)])
    ou = [np.column_stack([_ar1(64, rng), _ar1(64, rng)]) for _ in range(3)]
    windows = np.stack([ou[0], flat, ou[1], ou[2]])
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        stack = fit_windows(windows)
    assert stack.status.tolist() == [0, ZERO_VARIANCE, 0, 0]
    for i in (0, 2, 3):
        alone = fit_windows(windows[i][None])
        for name in ("mean", "std", "drift", "diff", "floor", "status"):
            assert np.array_equal(getattr(stack, name)[i], getattr(alone, name)[0]), (name, i)
