"""The fit and density kernels against the plain forms they replaced.

``fit_windows`` and ``stationary_densities`` build the one-row case with
less fixed cost: cached term index arrays, slice differences, a hand-built
grid and ``np.std``'s arithmetic written out. The pre-change bodies are kept
here as oracles; the kernels must return the same arrays, bit for bit, on
stacks of every size, degenerate windows included. The exception is the
fit coefficients: ``fit_windows`` solves a window through its QR where the
oracle used the SVD. A window whose QR is certified gets the plain QR
solve's coefficients bit for bit, and they agree with the SVD's within the
forward error bound of a backward stable least-squares solve at that
window's condition bound. A window the oracle fitted on an uncertified
design is held as ``ill_conditioned`` with zero coefficients.
"""

import math
import warnings
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsw.errors import EDGE_MASS, ILL_CONDITIONED, NO_MASS, NON_FINITE, NON_FINITE_FIT, PASS, ZERO_VARIANCE
from nsw.sde_fit import _QR_COND_LIMIT, FitStack, _collapse, _hermite_table, _term_list, fit_windows
from nsw.stationary import (_EDGE_FRACTION, _EDGE_MASS_LIMIT, _grid_table, _linspace_rows, _trapezoids,
                            stationary_densities)


# -- the kernels as they were (plain numpy calls, no cached indices) ----------

def old_design(z, terms):
    table = _hermite_table(z, max(map(sum, terms)))
    return table[..., np.arange(z.shape[-1]), np.array(terms)].prod(axis=-1)


def old_mode_series(terms, coeffs):
    return (np.asarray(coeffs)[..., None] * _collapse(tuple(terms))).sum(axis=-2)


def old_fit_windows(windows, degree=3, dt=1.0):
    w = np.ascontiguousarray(windows, dtype=np.float64)
    b, n, dims = w.shape
    terms = _term_list(dims, degree)
    finite = np.isfinite(w).reshape(b, -1).all(axis=1)
    if not finite.all():
        w = np.where(finite[:, None, None], w, 0.0)
    mean = w.sum(axis=1) / n
    dev = w - mean[:, None]
    std = np.sqrt((dev * dev).sum(axis=1) / n)
    status = np.where(finite, 2 * (std <= 0).any(axis=1), 1)

    # each dimension scaled by its own std, a constant one by 1.0, as fit_windows
    # does: an unfitted window's placeholder coefficients come from this design
    design = old_design(dev[:, :-1] / np.where(std > 0, std, 1.0)[:, None], terms)
    dy = np.diff(w, axis=1)
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > np.finfo(np.float64).eps * max(n - 1, len(terms)) * sv[:, :1]
    inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)

    def solve(rhs):
        return vt.mT @ (inv_sv[..., None] * (u.mT @ rhs))

    lam = solve(dy / dt)
    resid = dy - (design @ lam) * dt
    q = solve(resid**2 / dt)

    solved = np.isfinite(lam).reshape(b, -1).all(axis=1) & np.isfinite(q).reshape(b, -1).all(axis=1)
    status[(status == 0) & ~solved] = 3
    floor = np.maximum(1e-6 * dy.reshape(b, -1).std(axis=1), 1e-12)
    return FitStack(terms, degree, mean, std, lam.transpose(0, 2, 1), q.transpose(0, 2, 1), floor, status)


@dataclass(frozen=True)
class OldDensityStack:
    grid: np.ndarray
    pdf: np.ndarray
    cdf: np.ndarray
    p_s: np.ndarray
    failures: list


def old_finalize_rows(grid, dx, raw_pdf, failures):
    inc = _trapezoids(raw_pdf, dx)
    total = inc.sum(axis=1)
    bad = ~((total > 0.0) & (total < math.inf))
    if bad.any():
        for i in np.flatnonzero(bad):
            failures[i] = failures[i] or "density has no positive finite mass on the grid"
        raw_pdf[bad] = 1.0
        inc = _trapezoids(raw_pdf, dx)
        total = inc.sum(axis=1)
    cdf = np.empty_like(raw_pdf)
    cdf[:, 0] = 0.0
    np.cumsum(inc, axis=1, out=cdf[:, 1:])
    cdf /= cdf[:, -1:]
    j = (grid[:, 1:-1] <= 0.0).sum(axis=1)
    rows = np.arange(len(grid))
    x0, f0 = grid[rows, j], cdf[rows, j]
    p_s = np.minimum(np.maximum((cdf[rows, j + 1] - f0) / dx[rows, j] * -x0 + f0, 0.0), 1.0)
    raw_pdf /= total[:, None]
    return OldDensityStack(grid=grid, pdf=raw_pdf, cdf=cdf, p_s=p_s, failures=failures)


def old_stationary_densities(fits, span=5.0, n_grid=1024):
    fitted = fits.status == 0
    failures = [None if ok else "window not fitted" for ok in fitted]
    mu = np.where(fitted, fits.mean[:, 0], 0.0)
    sigma = np.where(fitted, fits.std[:, 0], 1.0)
    grid = np.ascontiguousarray(np.linspace(mu - span * sigma, mu + span * sigma, n_grid, axis=1))
    dx = grid[:, 1:] - grid[:, :-1]
    on_grid = old_mode_series(fits.terms, np.stack([fits.drift[:, 0], fits.diff[:, 0]], axis=1)) @ _grid_table(
        span, n_grid, fits.degree)
    integrand = on_grid[:, 0]
    integrand *= 2.0
    integrand /= np.maximum(on_grid[:, 1], (fits.floor**2)[:, None], out=on_grid[:, 1])
    w = np.empty_like(grid)
    w[:, 0] = 0.0
    np.cumsum(_trapezoids(integrand, dx), axis=1, out=w[:, 1:])
    w -= w.max(axis=1, keepdims=True)
    dens = old_finalize_rows(grid, dx, np.exp(w, out=w), failures)
    edge = max(2, int(round(_EDGE_FRACTION * n_grid)))
    edge_mass = np.maximum(dens.cdf[:, edge - 1], 1.0 - dens.cdf[:, -edge])
    for i in np.flatnonzero(edge_mass > _EDGE_MASS_LIMIT):
        dens.failures[i] = dens.failures[i] or (f"boundary mass {edge_mass[i]:.3g} exceeds {_EDGE_MASS_LIMIT}; "
                                                "drift not confining on this grid")
    return dens


# -- random stacks ------------------------------------------------------------

KINDS = ("ou", "ou", "ou", "walk", "trend", "nan", "flat", "two_levels", "huge")


def make_window(kind, n, dims, rng):
    """One (n, dims) window: mean-reverting (mostly confining), a random walk
    or a trend (edge-mass failures), a NaN, a zero-variance dimension, two
    levels only (a rank-deficient design) or values near 1e160, whose squared
    increments overflow."""
    if kind == "nan":
        w = rng.normal(size=(n, dims))
        w[rng.integers(n), rng.integers(dims)] = np.nan
        return w
    if kind == "flat":
        w = rng.normal(size=(n, dims))
        w[:, rng.integers(dims)] = 3.0
        return w
    if kind == "two_levels":
        return rng.integers(0, 2, size=(n, dims)).astype(float)
    if kind == "walk":
        return np.cumsum(rng.normal(size=(n, dims)), axis=0)
    if kind == "trend":
        return np.arange(n)[:, None] * rng.uniform(0.5, 2.0, dims) + 0.1 * rng.normal(size=(n, dims))
    w = np.zeros((n, dims))
    for t in range(1, n):
        w[t] = 0.6 * w[t - 1] + rng.normal(size=dims)
    return w * (1e160 if kind == "huge" else rng.uniform(0.01, 10.0))


def assert_fits_equal(got, want):
    assert got.terms == want.terms and got.degree == want.degree
    for name in ("mean", "std", "drift", "diff", "floor", "status"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name


def qr_bounds(design):
    """Each (M, N) design's condition bound ||R||_F ||R^-1||_F from its reduced
    QR; inf where the ratio of its largest to its smallest pivot |R_kk|, a
    lower bound, already reaches _QR_COND_LIMIT."""
    r = np.linalg.qr(design, mode="r")
    pivots = np.abs(np.diagonal(r, axis1=1, axis2=2))
    usable = pivots.min(axis=1) * _QR_COND_LIMIT > pivots.max(axis=1)
    bound = np.full(len(r), np.inf)
    with np.errstate(over="ignore"):
        bound[usable] = np.linalg.norm(r[usable], axis=(1, 2)) * np.linalg.norm(np.linalg.inv(r[usable]), axis=(1, 2))
    return bound


def lstsq_tolerance(design, rhs, x, kappa, backward):
    """First-order forward error bound of a least-squares solution x of
    design @ x ~ rhs (columns) computed with relative backward errors
    ``backward`` in design and rhs, kappa >= cond_2(design) (Wedin; Higham,
    Accuracy and Stability of Numerical Algorithms, Thm 20.1):
    backward * kappa * (2 ||x|| + (kappa + 1) ||r|| / ||design||_2)."""
    resid = np.linalg.norm(rhs - design @ x, axis=0)
    return backward * kappa * (2 * np.linalg.norm(x, axis=0) + (kappa + 1) * resid / np.linalg.norm(design, 2))


def qr_solve(design, dy):
    """Drift and diffusion coefficients ((N, dims) each) of one (M, N) design
    at dt = 1 as R^-1 (Q^T rhs): the arithmetic of a certified window."""
    q_mat, r = np.linalg.qr(design[None])
    r_inv = np.linalg.inv(r)
    lam = r_inv @ (q_mat.mT @ dy[None])
    return lam[0], (r_inv @ (q_mat.mT @ ((dy[None] - design[None] @ lam) ** 2)))[0]


def assert_fits_agree(windows, got, want):
    """``got`` from fit_windows against ``want`` from old_fit_windows, both at
    dt = 1. A window whose design the QR certifies has every array of the
    oracle bit for bit but its coefficients: they are the plain QR solve's,
    bit for bit, and agree with the SVD's within twice the least-squares error
    bound (both solves are backward stable, with backward errors taken as
    n_rows * eps). Any other window keeps the oracle's mean, std and floor and
    its non_finite or zero_variance status, else is ``ill_conditioned``, with
    zero coefficients. Returns which windows were certified."""
    for name in ("drift", "diff"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
    w = np.asarray(windows, dtype=np.float64)
    w = np.where(np.isfinite(w).all(axis=(1, 2), keepdims=True), w, 0.0)
    designs = old_design((w[:, :-1] - want.mean[:, None]) / np.where(want.std > 0, want.std, 1.0)[:, None], want.terms)
    dy = w[:, 1:] - w[:, :-1]
    kappas = qr_bounds(designs)
    certified = kappas < _QR_COND_LIMIT
    # the window's own failure first, then its design's
    status = np.where(certified | (want.status == NON_FINITE) | (want.status == ZERO_VARIANCE), want.status,
                      ILL_CONDITIONED)
    assert_fits_equal(FitStack(**{**got.__dict__, "drift": want.drift, "diff": want.diff}),
                      FitStack(**{**want.__dict__, "status": status}))
    assert not got.drift[~certified].any() and not got.diff[~certified].any()
    backward = designs.shape[1] * np.finfo(np.float64).eps
    for i in np.flatnonzero(certified):
        kappa, a, lam, q = kappas[i], designs[i], want.drift[i].T, want.diff[i].T
        qr_lam, qr_q = qr_solve(a, dy[i])
        assert np.array_equal(got.drift[i].T, qr_lam) and np.array_equal(got.diff[i].T, qr_q), i
        resid = dy[i] - a @ lam
        tol_lam = lstsq_tolerance(a, dy[i], lam, kappa, backward)
        # the diffusion system's rhs resid**2 moves by 2 |resid| |a @ d_lam| with lam
        tol_q = lstsq_tolerance(a, resid**2, q, kappa, backward) + 2 * kappa * np.abs(resid).max(axis=0) * tol_lam
        assert (np.linalg.norm(got.drift[i].T - lam, axis=0) <= 2 * tol_lam).all(), ("drift", i, kappa)
        assert (np.linalg.norm(got.diff[i].T - q, axis=0) <= 2 * tol_q).all(), ("diff", i, kappa)
    return certified


def old_reason(failure, fit_status):
    """The reason code of an old failure string; an unfitted window keeps its fit code."""
    if failure is None:
        return PASS
    if failure == "window not fitted":
        return fit_status
    if failure.startswith("density has no positive"):
        return NO_MASS
    assert failure.startswith("boundary mass"), failure
    return EDGE_MASS


def assert_densities_equal(got, want, fit_status):
    for name in ("grid", "pdf", "cdf", "p_s"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.shape == b.shape and a.flags.c_contiguous == b.flags.c_contiguous, name
        assert np.array_equal(a, b, equal_nan=True), name
    assert got.status.dtype == np.uint8
    assert got.status.tolist() == [old_reason(f, s) for f, s in zip(want.failures, fit_status.tolist())]


@given(
    b=st.sampled_from([1, 3, 16]),
    dims=st.integers(1, 2),
    degree=st.integers(1, 3),
    n=st.integers(32, 64),
    kinds=st.lists(st.sampled_from(KINDS), min_size=16, max_size=16),
    n_grid=st.sampled_from([64, 257, 1024]),
    span=st.sampled_from([3.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing windows
def test_kernels_equal_old_bodies(b, dims, degree, n, kinds, n_grid, span, seed):
    rng = np.random.default_rng(seed)
    windows = np.stack([make_window(kind, n, dims, rng) for kind in kinds[:b]])
    fits = fit_windows(windows, degree=degree)
    assert_fits_agree(windows, fits, old_fit_windows(windows, degree=degree))
    assert_densities_equal(stationary_densities(fits, span=span, n_grid=n_grid),
                           old_stationary_densities(fits, span=span, n_grid=n_grid), fits.status)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacks_cover_every_outcome():
    # the window kinds above reach every fit status, an edge-mass failure and
    # a density that passes; fit codes carry through to the densities (seed 8:
    # at seed 7 the edge mass came from the trend window's minimum-norm fit)
    rng = np.random.default_rng(8)
    windows = np.stack([make_window(kind, 64, 2, rng) for kind in ("ou", "walk", "trend", "nan", "flat", "two_levels")])
    fits = fit_windows(windows)
    certified = assert_fits_agree(windows, fits, old_fit_windows(windows))
    assert certified.tolist() == [True, True, False, False, False, False]  # two trends: nearly collinear columns
    assert fits.status.tolist() == [PASS, PASS, ILL_CONDITIONED, NON_FINITE, ZERO_VARIANCE, ILL_CONDITIONED]
    dens = stationary_densities(fits)
    assert_densities_equal(dens, old_stationary_densities(fits), fits.status)
    assert dens.status.tolist() == [PASS, EDGE_MASS, ILL_CONDITIONED, NON_FINITE, ZERO_VARIANCE, ILL_CONDITIONED]
    # values near 1e160: the std overflows, every standardized point is 0 and
    # the design has rank 1. The design is judged before the coefficients, so
    # the window is held as ill_conditioned (the SVD body read non_finite_fit)
    huge = np.stack([make_window("huge", 64, 1, rng)])
    assert old_fit_windows(huge).status.tolist() == [NON_FINITE_FIT]
    assert not assert_fits_agree(huge, fit_windows(huge), old_fit_windows(huge)).any()
    assert fit_windows(huge).status.tolist() == [ILL_CONDITIONED]
    # a certified window whose increments overflow at a tiny dt fails the coefficient check
    assert fit_windows(windows[:1], dt=1e-320).status.tolist() == [NON_FINITE_FIT]


@given(
    b=st.integers(1, 16),
    n=st.sampled_from([2, 3, 64, 1024, 1025]),
    scale=st.sampled_from([1e-320, 1e-300, 1e-8, 1.0, 1e8, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_grid_rows_equal_linspace(b, n, scale, seed):
    # row i is np.linspace(lo[i], hi[i], n), each row on its own; a row whose
    # step underflows to 0 is lo[i] up to a last hi[i], whatever its neighbours
    rng = np.random.default_rng(seed)
    lo = rng.normal(size=b) * scale
    hi = lo + rng.uniform(0.0, 10.0, size=b) * scale
    same = rng.random(b) < 0.2  # zero-width rows, and steps that underflow at 1e-320
    hi[same] = lo[same]
    got = _linspace_rows(lo, hi, n)
    assert got.flags.c_contiguous and got.shape == (b, n)
    for i in range(b):
        want = np.linspace(lo[i], hi[i], n) if (hi[i] - lo[i]) / (n - 1) else np.r_[np.full(n - 1, lo[i]), hi[i]]
        assert np.array_equal(got[i], want), i


def test_zero_width_grid_row_fails_alone():
    # mean 1e3 and std 1e-20 round every node of a row's grid to 1e3: the row
    # fails as no_mass before a division by its width, and no row of the
    # stack depends on it
    rng = np.random.default_rng(3)
    fits = fit_windows(np.stack([make_window("ou", 64, 1, rng) for _ in range(16)]))
    mean, std = fits.mean.copy(), fits.std.copy()
    mean[5], std[5] = 1e3, 1e-20
    fits = FitStack(**{**fits.__dict__, "mean": mean, "std": std})
    arrays = ("mean", "std", "drift", "diff", "floor", "status")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        dens = stationary_densities(fits)
        rows = [stationary_densities(FitStack(**{**fits.__dict__, **{a: getattr(fits, a)[i : i + 1] for a in arrays}}))
                for i in range(16)]
    assert dens.status[5] == NO_MASS and np.isfinite(dens.p_s).all()
    for i, row in enumerate(rows):
        for name in ("grid", "pdf", "cdf", "p_s", "status"):
            assert np.array_equal(getattr(dens, name)[i], getattr(row, name)[0]), (name, i)
