"""The fit and density kernels against the plain forms they replaced.

``fit_windows`` and ``stationary_densities`` build the one-row case with
less fixed cost: cached term index arrays, slice differences, a hand-built
grid and ``np.std``'s arithmetic written out. The pre-change bodies are kept
here as oracles; the kernels must return the same arrays, bit for bit, on
stacks of every size, degenerate windows included.
"""

import logging
import math
from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nsw.errors import EDGE_MASS, NO_MASS, NON_FINITE, PASS, ZERO_VARIANCE
from nsw.sde_fit import COND_WARN_THRESHOLD, FitStack, _collapse, _hermite_table, _term_list, fit_windows
from nsw.stationary import (_EDGE_FRACTION, _EDGE_MASS_LIMIT, _grid_table, _linspace_rows, _trapezoids,
                            stationary_densities)

log = logging.getLogger("nsw.sde_fit")


# -- the kernels as they were (plain numpy calls, no cached indices) ----------

def old_design(z, terms):
    table = _hermite_table(z, max(map(sum, terms)))
    return table[..., np.arange(z.shape[-1]), np.array(terms)].prod(axis=-1)


def old_mode_series(terms, coeffs, mode):
    return (np.asarray(coeffs)[..., None] * _collapse(tuple(terms), mode)).sum(axis=-2)


def old_fit_windows(windows, degree=3, dt=1.0, diffusion_floor=None):
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

    design = old_design(dev[:, :-1] / np.where(status[:, None] == 0, std, 1.0)[:, None], terms)
    dy = np.diff(w, axis=1)
    u, sv, vt = np.linalg.svd(design, full_matrices=False)
    keep = sv > np.finfo(np.float64).eps * max(n - 1, len(terms)) * sv[:, :1]
    inv_sv = np.divide(1.0, sv, out=np.zeros_like(sv), where=keep)

    def solve(rhs):
        return vt.mT @ (inv_sv[..., None] * (u.mT @ rhs))

    lam = solve(dy / dt)
    resid = dy - (design @ lam) * dt
    q = solve(resid**2 / dt)

    rank = keep.sum(axis=1)
    for i in np.flatnonzero((status == 0) & ((rank < len(terms)) | (sv[:, 0] > COND_WARN_THRESHOLD * sv[:, -1]))):
        cond = sv[i, 0] / sv[i, -1] if sv[i, -1] > 0 else math.inf
        log.warning("ill-conditioned drift system: rank %d/%d, cond %.3g", rank[i], len(terms), cond)

    solved = np.isfinite(lam).reshape(b, -1).all(axis=1) & np.isfinite(q).reshape(b, -1).all(axis=1)
    status[(status == 0) & ~solved] = 3
    if diffusion_floor is None:
        floor = np.maximum(1e-6 * dy.reshape(b, -1).std(axis=1), 1e-12)
    else:
        floor = np.full(b, float(diffusion_floor))
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


def old_stationary_densities(fits, mode=1, span=5.0, n_grid=1024):
    m = mode - 1
    fitted = fits.status == 0
    failures = [None if ok else "window not fitted" for ok in fitted]
    mu = np.where(fitted, fits.mean[:, m], 0.0)
    sigma = np.where(fitted, fits.std[:, m], 1.0)
    grid = np.ascontiguousarray(np.linspace(mu - span * sigma, mu + span * sigma, n_grid, axis=1))
    dx = grid[:, 1:] - grid[:, :-1]
    on_grid = old_mode_series(fits.terms, np.stack([fits.drift[:, m], fits.diff[:, m]], axis=1), mode) @ _grid_table(
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


class _Messages(logging.Handler):
    def __init__(self):
        super().__init__()
        self.messages = []

    def emit(self, record):
        self.messages.append(record.getMessage())


def logged(fn, *args, **kwargs):
    handler = _Messages()
    log.addHandler(handler)
    try:
        return fn(*args, **kwargs), handler.messages
    finally:
        log.removeHandler(handler)


def assert_fits_equal(got, want):
    assert got.terms == want.terms and got.degree == want.degree
    for name in ("mean", "std", "drift", "diff", "floor", "status"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b, equal_nan=True), name


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
    floor=st.sampled_from([None, None, 1e-3]),
    n_grid=st.sampled_from([64, 257, 1024]),
    span=st.sampled_from([3.0, 5.0]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # the overflowing windows
def test_kernels_equal_old_bodies(b, dims, degree, n, kinds, floor, n_grid, span, seed):
    rng = np.random.default_rng(seed)
    windows = np.stack([make_window(kind, n, dims, rng) for kind in kinds[:b]])
    fits, messages = logged(fit_windows, windows, degree=degree, diffusion_floor=floor)
    want, want_messages = logged(old_fit_windows, windows, degree=degree, diffusion_floor=floor)
    assert_fits_equal(fits, want)
    assert messages == want_messages
    for mode in range(1, dims + 1):
        assert_densities_equal(stationary_densities(fits, mode=mode, span=span, n_grid=n_grid),
                               old_stationary_densities(want, mode=mode, span=span, n_grid=n_grid), fits.status)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_stacks_cover_every_outcome():
    # the window kinds above reach every fit status, a rank warning, an edge-mass
    # failure and a density that passes; fit codes carry through to the densities
    rng = np.random.default_rng(7)
    windows = np.stack([make_window(kind, 64, 2, rng) for kind in ("ou", "walk", "trend", "nan", "flat", "two_levels")])
    fits, messages = logged(fit_windows, windows)
    assert_fits_equal(fits, logged(old_fit_windows, windows)[0])
    assert set(fits.status.tolist()) == {0, 1, 2}
    assert any(m.startswith("ill-conditioned drift system: rank") for m in messages)
    dens = stationary_densities(fits)
    assert_densities_equal(dens, old_stationary_densities(fits), fits.status)
    assert dens.status[0] == PASS
    assert {NON_FINITE, ZERO_VARIANCE, EDGE_MASS} <= set(dens.status.tolist())
    # a finite window whose squared increments overflow fails the coefficient check
    huge = np.stack([make_window("huge", 64, 1, rng)])
    assert_fits_equal(fit_windows(huge), old_fit_windows(huge))
    assert fit_windows(huge).status.tolist() == [3]


@given(
    b=st.integers(1, 16),
    n=st.sampled_from([2, 3, 64, 1024, 1025]),
    scale=st.sampled_from([1e-320, 1e-300, 1e-8, 1.0, 1e8, 1e300]),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=150, deadline=None)
def test_grid_rows_equal_linspace(b, n, scale, seed):
    rng = np.random.default_rng(seed)
    lo = rng.normal(size=b) * scale
    hi = lo + rng.uniform(0.0, 10.0, size=b) * scale
    same = rng.random(b) < 0.2  # zero-width rows, and steps that underflow at 1e-320
    hi[same] = lo[same]
    got = _linspace_rows(lo, hi, n)
    want = np.linspace(lo, hi, n, axis=1)
    assert got.flags.c_contiguous and got.shape == want.shape
    assert np.array_equal(got, want, equal_nan=True)
